"""Core data model: blocks, file stores, permutations, demands, queries.

Indexing convention: files i, subfiles j, subsubfiles x and permutation
positions are all 1-based, matching the usual set notation [n].  A "block"
is the content of one subsubfile, held as a non-negative int of at most
8 * block_bytes bits, so that adding blocks is one int XOR.  Bytes appear
only where a store is imported (`file_store_from_bytes`).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import DemandError, InvalidDimensionError, LengthMismatchError

Block = int


def xor_combine(blocks: Iterable[Block]) -> Block:
    """XOR of a nonempty list of blocks; a single block is returned as is,
    not copied."""
    it = iter(blocks)
    try:
        acc = next(it)
    except StopIteration:
        raise LengthMismatchError("xor_combine needs at least one block") from None
    for b in it:
        acc ^= b
    return acc


@dataclass(frozen=True)
class FileStore:
    """N files, each split into K subfiles of S^(N-1) subsubfiles.

    One store stands for all S database replicas (they hold identical
    content).  ``data[i-1][j-1][x-1]`` is the block of subsubfile x of
    subfile j of file i.
    """

    N: int
    K: int
    S: int
    block_bytes: int
    data: tuple

    @property
    def subpackets(self) -> int:
        return self.S ** (self.N - 1)

    @property
    def file_bits(self) -> int:
        return self.K * self.subpackets * self.block_bytes * 8

    def block(self, file: int, subfile: int, subsub: int) -> Block:
        return self.data[file - 1][subfile - 1][subsub - 1]


def build_file_store(N: int, K: int, S: int, block_bytes: int, seed) -> FileStore:
    """Deterministic pseudo-random store contents from a named seed.

    Each block is `getrandbits(8 * block_bytes)`, the little-endian int of
    what `randbytes(block_bytes)` would draw from the same generator state.
    """
    if N < 2:
        raise InvalidDimensionError(f"need at least 2 files, got N={N}")
    if S < 2:
        raise InvalidDimensionError(f"need at least 2 databases, got S={S}")
    if K < 1 or block_bytes < 1:
        raise InvalidDimensionError("K and block_bytes must be >= 1")
    rng = random.Random(f"{seed}:store")
    sub = S ** (N - 1)
    data = tuple(
        tuple(tuple(rng.getrandbits(8 * block_bytes) for _ in range(sub)) for _ in range(K))
        for _ in range(N)
    )
    return FileStore(N=N, K=K, S=S, block_bytes=block_bytes, data=data)


def file_store_from_bytes(raw: bytes, N: int, K: int, S: int, block_bytes: int) -> FileStore:
    """Import path: N files concatenated as raw binary, fixed sizes.  Each
    block_bytes slice becomes one block, read little-endian."""
    if N < 2 or S < 2 or K < 1 or block_bytes < 1:
        raise InvalidDimensionError("bad dimensions for import")
    sub = S ** (N - 1)
    per_file = K * sub * block_bytes
    if len(raw) != N * per_file:
        raise InvalidDimensionError(
            f"raw length {len(raw)} != N*K*S^(N-1)*block_bytes = {N * per_file}"
        )
    data = []
    off = 0
    for _ in range(N):
        subs = []
        for _ in range(K):
            row = []
            for _ in range(sub):
                row.append(int.from_bytes(raw[off:off + block_bytes], "little"))
                off += block_bytes
            subs.append(tuple(row))
        data.append(tuple(subs))
    return FileStore(N=N, K=K, S=S, block_bytes=block_bytes, data=tuple(data))


@dataclass(frozen=True)
class Permutation:
    """Bijection on [n], stored as the image array: images[p-1] = value."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise InvalidDimensionError("images are not a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, pos: int) -> int:
        return self.images[pos - 1]

    def tail_fixed_from(self, H: int) -> bool:
        return all(self.images[t - 1] == t for t in range(H + 1, self.n + 1))


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def sample_permutation(n: int, rng: random.Random, tail_fixed: Optional[int] = None) -> Permutation:
    """Uniform permutation of [n]; with tail_fixed=H, positions H+1..n map to
    themselves and positions 1..H carry a uniform permutation of [H]."""
    if tail_fixed is None:
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        return Permutation(tuple(vals))
    H = tail_fixed
    if not 0 <= H <= n:
        raise InvalidDimensionError(f"tail_fixed H={H} outside 0..{n}")
    head = list(range(1, H + 1))
    rng.shuffle(head)
    return Permutation(tuple(head + list(range(H + 1, n + 1))))


def validate_demands(demands, N: int, K: int) -> tuple:
    """Check a demand vector for the N=K (distinct) or N<K (covering) regime."""
    demands = tuple(demands)
    if len(demands) != K:
        raise DemandError(f"expected {K} demands, got {len(demands)}")
    if any(not 1 <= d <= N for d in demands):
        raise DemandError(f"demands out of range [1,{N}]: {demands}")
    if N == K:
        if len(set(demands)) != K:
            raise DemandError(f"N=K requires all-distinct demands, got {demands}")
    elif N < K:
        missing = set(range(1, N + 1)) - set(demands)
        if missing:
            raise DemandError(f"files never demanded: {sorted(missing)}")
    else:
        raise DemandError(f"unsupported regime N={N} > K={K}")
    return demands


@dataclass(frozen=True, order=True)
class QueryAtom:
    """One subsubfile reference W_{file,subfile}^subsub inside a query."""

    file: int
    subfile: int
    subsub: int


@dataclass(frozen=True)
class Query:
    """A multiset of atoms XORed into one transmitted sum."""

    atoms: tuple

    def __len__(self):
        return len(self.atoms)

    def canonical(self) -> tuple:
        return tuple(sorted((a.file, a.subfile, a.subsub) for a in self.atoms))


@dataclass(frozen=True)
class SlotInfo:
    """Per-generator-block session facts needed for auditing and decoding."""

    user: int
    kind: str
    subfile: Optional[int] = None        # qset1/alg1: the subfile slot queried
    demand: Optional[int] = None         # alg1/qset1: demanded file
    omega_pairs: Optional[tuple] = None  # qset2: tuple of (file, j1, j2)

    def subfiles(self, file: int) -> tuple:
        """The subfile slots each reference to `file` touches: the block's
        own slot, or for qset2 the file's omega pair (empty if it has none)."""
        if self.omega_pairs is None:
            return (self.subfile,)
        return next(((j1, j2) for f, j1, j2 in self.omega_pairs if f == file), ())


@dataclass
class QueryBundle:
    """Per-database query lists for one session, plus their emission order.

    ``per_db[s-1]`` is the (emission-ordered) query list sent to database s.
    ``emission[s-1]`` is aligned with it: entry n is (user, local index) of
    the generator record that query n was made from.  It is the one record
    of emission order and never leaves the user side.
    """

    S: int
    per_db: list
    emission: list
    slots: dict = field(default_factory=dict)  # user -> SlotInfo

    def total_queries(self) -> int:
        return sum(len(q) for q in self.per_db)

    def counts(self) -> tuple:
        return tuple(len(q) for q in self.per_db)

    def answer_index(self) -> dict:
        """(user, db, local_index) -> (db, emitted position)."""
        out = {}
        for db0, order in enumerate(self.emission):
            for pos, (user, local) in enumerate(order):
                out[(user, db0, local)] = (db0, pos)
        return out


def canonical_form(bundle: QueryBundle) -> tuple:
    """Order- and emission-independent key: per database, the sorted
    multiset of sorted atom lists.  This is exactly the database's view."""
    return tuple(
        tuple(sorted(q.canonical() for q in queries)) for queries in bundle.per_db
    )


def answer_bundle(store: FileStore, bundle: QueryBundle) -> list:
    """One block per query: XOR of the referenced subsubfiles, order-aligned."""
    out = []
    for queries in bundle.per_db:
        row = []
        for q in queries:
            row.append(xor_combine([store.block(a.file, a.subfile, a.subsub) for a in q.atoms]))
        out.append(row)
    return out
