"""Core data model: blocks, file stores, permutations, demands, queries.

Indexing convention: files i, subfiles j, subsubfiles x and permutation
positions are all 1-based, matching the usual set notation [n].  A "block"
is the content of one subsubfile, held as a non-negative int of at most
8 * block_bytes bits, so that adding blocks is one int XOR.
"""
from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .errors import DemandError, InvalidDimensionError

Block = int


@contextmanager
def collector_paused():
    """Pause CPython's cyclic garbage collector for the duration, and turn it
    back on at every exit, normal or by an exception.  A collector that was
    already off on entry stays off, so nested use is a no-op.  The switch is
    process-wide: the pause holds for every thread.

    A session keeps hundreds of thousands of tracked tuples, dicts and lists
    alive until it ends, and each full collection walks all of them.  What
    sessions and the distribution oracle build holds no reference cycles
    (tests/test_gc.py), so reference counting alone frees it."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def shuffle(x: list, rng: random.Random) -> None:
    """Shuffle x in place with exactly the draws `rng.shuffle(x)` makes.

    The stdlib's Fisher-Yates calls `_randbelow` per element, a getrandbits
    rejection loop; here that loop is inline, with getrandbits bound once.
    The list and the generator's state come out as the stdlib leaves them
    (tests/test_core.py), for any `random.Random` that keeps the stock
    getrandbits-based `_randbelow`."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def xor_combine(blocks: Iterable[Block]) -> Block:
    """XOR of a nonempty list of blocks; a single block is returned as is,
    not copied."""
    it = iter(blocks)
    try:
        acc = next(it)
    except StopIteration:
        raise InvalidDimensionError("xor_combine needs at least one block") from None
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
        return self.images[H:] == tuple(range(H + 1, self.n + 1))


def sample_permutation(n: int, rng: random.Random, tail_fixed: Optional[int] = None) -> Permutation:
    """Uniform permutation of [n]; with tail_fixed=H, positions H+1..n map to
    themselves and positions 1..H carry a uniform permutation of [H].  No
    tail_fixed is H = n: one shuffle of [n], the free draw."""
    H = n if tail_fixed is None else tail_fixed
    if not 0 <= H <= n:
        raise InvalidDimensionError(f"tail_fixed H={H} outside 0..{n}")
    head = list(range(1, H + 1))
    shuffle(head, rng)
    return Permutation(tuple(head + list(range(H + 1, n + 1))))


def validate_demands(demands, N: int, K: int) -> tuple:
    """Check a demand vector for the N=K (distinct) or N<K (covering) regime."""
    demands = tuple(demands)
    if len(demands) != K:
        raise DemandError(f"expected {K} demands, got {len(demands)}")
    if demands and (min(demands) < 1 or max(demands) > N):
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


class Query(NamedTuple):
    """A multiset of atoms XORed into one transmitted sum.  An atom is the
    plain int triple (file, subfile, subsub), naming W_{file,subfile}^subsub.
    A named tuple: cheap to make, and compared at C level."""

    atoms: tuple


# Query(atoms) built at C level, skipping the Python-level __new__ that
# NamedTuple generates; it takes the one-field tuple: new_query((atoms,)).
new_query = partial(tuple.__new__, Query)


@dataclass(frozen=True)
class SlotInfo:
    """One user's generator block: the session's one record of that user's
    slot p_u and, for qset2, of its alignment with the base users' slots.
    Every holder keys it by user, so it does not name the user itself.
    Generation, materialisation, replay, decoding and the audits all read it."""

    kind: str
    subfile: Optional[int] = None        # the user's own subfile slot p_u
    demand: Optional[int] = None         # alg1/qset1: demanded file
    omega_pairs: Optional[tuple] = None  # qset2: (file, partner slot, own slot) each

    def __post_init__(self):
        for _, j1, j2 in self.omega_pairs or ():
            if j1 == j2:
                raise DemandError(f"omega pair with identical subfiles: {j1}")

    def subfiles(self, file: int) -> tuple:
        """The subfile slots each reference to `file` touches: the block's
        own slot, or for qset2 the file's omega pair (empty if it has none)."""
        if self.omega_pairs is None:
            return (self.subfile,)
        for f, j1, j2 in self.omega_pairs:
            if f == file:
                return (j1, j2)
        return ()


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
        """(user, db, local_index) -> the query's emitted position in db."""
        return {(user, db0, local): pos
                for db0, order in enumerate(self.emission)
                for pos, (user, local) in enumerate(order)}


_atoms = itemgetter(0)  # a Query's atoms


def canonical_view(queries) -> tuple:
    """One database's view of its query list: the sorted multiset of the
    queries' sorted atom lists.  Built with C-level maps, no Python call per
    query."""
    return tuple(sorted(map(tuple, map(sorted, map(_atoms, queries)))))


def canonical_form(bundle: QueryBundle) -> tuple:
    """Order- and emission-independent key: per database, its
    `canonical_view`.  This is exactly the database's view."""
    return tuple(map(canonical_view, bundle.per_db))


def answer_bundle(store: FileStore, bundle: QueryBundle) -> list:
    """One block per query: XOR of the referenced subsubfiles, order-aligned.
    A one-atom query's answer is the store's own block, not a copy."""
    data = store.data
    out = []
    for queries in bundle.per_db:
        row = []
        for q in queries:
            atoms = iter(q.atoms)
            f, j, x = next(atoms)
            acc = data[f - 1][j - 1][x - 1]
            for f, j, x in atoms:
                acc ^= data[f - 1][j - 1][x - 1]
            row.append(acc)
        out.append(row)
    return out
