"""Every generator block and session transcript: placement, per-slot query
generation, decoding.

The single-user block (alg1, `_alg1_schedule`) works in rounds of growing
sum size k.  Database 1 seeds one singleton per file; afterwards each
database turns every demand-free (k-1)-sum held by the other databases into
a k-sum by adding one fresh demand reference, then pads with fresh
demand-free k-sums until every k-subset of files appears its prescribed
number of times.  A single-user session is that one block of user 1, K = 1.

The two multi-user per-slot schedules (`qset1_schedule` for base/own slots,
`qset2_schedule` for paired-difference slots) share one engine.  Per
database s and sum size k, the engine must emit every k-subset of files the
same number of times (type symmetry), while giving file i a prescribed
number of queries whose i-reference is fresh (previously unseen position of
that file's secret permutation); the remaining references reuse positions
already exposed in earlier rounds, so each query is one XOR away from known
material.

Every schedule is a pure function of the counting parameters; the secret
permutations only relabel positions to subsubfile indices afterwards.  That
keeps generation, replay and exhaustive enumeration cheap and exactly
reproducible.  Every block is a schedule of `Record`s with `refs` ((file,
position) pairs).  The generators return only the session's
`SessionTranscript`; one `materialize` turns a block's records into queries,
and one `replay_bundle` interleaves the blocks per database in a given
emission order, which `assemble_bundle` draws when the session sends.  One
`resolve_symbols` peels each user's block on its own: a fresh record's
first reference is its answer XOR its source's answer, when it has a source
(an alg1 query one reference from an answered one), else XOR its other
references, which fresh records of smaller sum size resolved first.  Both
read a schedule through its `_Layout`, made on first use and kept with the
cached schedule: every record's references as flat keys in atom order, so
that a session only maps its permutations' images over them, and the
block's peel order.
"""
from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain, combinations, pairwise, permutations
from math import comb
from operator import attrgetter
from typing import NamedTuple, Optional

from .core import (
    FileStore,
    Permutation,
    QueryBundle,
    SlotInfo,
    atom,
    atom_triple,
    new_query,
    shuffle,
    validate_demands,
    xor_combine,
)
from .errors import (
    DemandError,
    InfeasibleSwapError,
    InvalidDimensionError,
    RegimeError,
    UnresolvablePlanError,
)
from . import gf2
from .params import f_rep, h_value, phi, psi


class Record(NamedTuple):
    """One scheduled query of any generator block: every (file, position)
    reference it sums, and its peel linkage.

    Positions refer to the (secret) per-file permutations; the sum size is
    len(refs).  A `fresh` record resolves refs[0], its fresh reference: as
    its answer XOR the values of refs[1:] (positions exposed in earlier
    rounds), or, when it has a `source` ((db, index) of the consumed smaller
    query, whose refs are exactly refs[1:]), as its answer XOR the source's
    answer.  A record that is not fresh resolves nothing.  Schedules are
    cached and shared across sessions, hence immutable.
    """

    refs: tuple
    fresh: bool = False
    source: Optional[tuple] = None


class _ReusePicker:
    """Least-reused exposed position for one (database, file) pair, ties to
    the smallest position.  One lazy min-heap of (count, position) entries:
    an entry whose count is no longer the position's is dropped when it
    reaches the top."""

    __slots__ = ("cnt", "heap", "merged")

    def __init__(self):
        self.cnt = {}       # pos -> reference count at this database
        self.heap = []
        self.merged = 0     # positions 1..merged are pickable

    def bump(self, pos, delta):
        c = self.cnt.get(pos, 0) + delta
        self.cnt[pos] = c
        if pos <= self.merged:
            heappush(self.heap, (c, pos))

    def pick(self, limit):
        assert limit >= 1, "no exposed positions to reuse"
        cnt, heap = self.cnt, self.heap
        while self.merged < limit:
            self.merged += 1
            heappush(heap, (cnt.get(self.merged, 0), self.merged))
        while cnt.get(heap[0][1], 0) != heap[0][0]:
            heappop(heap)
        return heap[0][1]


def _run_symmetric_rounds(S, N, multiplicity, fresh_quota):
    """Generic engine: returns per-database tuples of Records and the final
    per-file fresh-position counters.

    multiplicity(s, k): copies of each k-subset type for database s.
    fresh_quota(s, k, i): queries with a fresh i-reference for database s.
    """
    t = [0] * (N + 1)
    per_db = [[] for _ in range(S)]
    pickers = [[_ReusePicker() for _ in range(N + 1)] for _ in range(S)]
    for k in range(1, N + 1):
        T = t.copy()
        for s in range(1, S + 1):
            m = multiplicity(s, k)
            quotas = [fresh_quota(s, k, i) for i in range(1, N + 1)]
            if m == 0:
                assert not any(quotas), (S, N, s, k, quotas)
                continue
            pool = [U for U in combinations(range(1, N + 1), k) for _ in range(m)]
            assert sum(quotas) == len(pool), (S, N, s, k, quotas, len(pool))
            picker = pickers[s - 1]
            block = []

            def reuse(u):
                pos = picker[u].pick(T[u])
                picker[u].bump(pos, +1)
                return (u, pos)

            def emit(U, fresh_file, fresh_pos):
                olds = [reuse(u) for u in U if u != fresh_file]
                picker[fresh_file].bump(fresh_pos, +1)
                block.append(Record(((fresh_file, fresh_pos),) + tuple(sorted(olds)), True))

            for i in range(1, N + 1):
                for _ in range(quotas[i - 1]):
                    idx = next((n_ for n_, U in enumerate(pool) if i in U), None)
                    if idx is not None:
                        t[i] += 1
                        emit(pool.pop(idx), i, t[i])
                        continue
                    # No remaining type contains i: hand i's fresh slot to an
                    # earlier query of this block that references i, and emit
                    # the leftover type using that query's fresh reference
                    # instead.
                    chosen = next(((n_, b) for n_, U in enumerate(pool)
                                   for b, r in enumerate(block)
                                   if r.refs[0][0] != i and r.refs[0][0] in U
                                   and any(f == i for f, _ in r.refs)), None)
                    if chosen is None:
                        raise InfeasibleSwapError(
                            f"no rebalancing swap for file {i} at db {s}, k={k}"
                        )
                    n_, b = chosen
                    (v1, p1), *olds = block[b].refs
                    emit(pool.pop(n_), v1, p1)
                    # donor: old i-reference becomes the fresh one, its
                    # fresh v1-reference downgrades to an old pick
                    old_i = next(p for p in olds if p[0] == i)
                    olds.remove(old_i)
                    picker[i].bump(old_i[1], -1)
                    picker[v1].bump(p1, -1)
                    t[i] += 1
                    picker[i].bump(t[i], +1)
                    olds.append(reuse(v1))
                    block[b] = Record(((i, t[i]),) + tuple(sorted(olds)), True)
            assert not pool, (S, N, s, k)
            per_db[s - 1] += block
    return tuple(map(tuple, per_db)), t


@lru_cache(maxsize=None)
def qset1_schedule(S: int, N: int, d: int):
    """Position-level schedule for one demanded-file slot."""
    per_db, t = _run_symmetric_rounds(
        S, N, multiplicity=lambda s, k: psi(s, S, N, k),
        fresh_quota=lambda s, k, i: f_rep(s, i, d, k, S, N))
    assert all(t[i] == S ** (N - 1) for i in range(1, N + 1) if i != d)
    assert t[d] == h_value(S, N)
    return per_db


@lru_cache(maxsize=None)
def qset2_schedule(S: int, N: int):
    """Position-level schedule for one paired-difference slot."""
    per_db, t = _run_symmetric_rounds(
        S, N, multiplicity=lambda s, k: k * phi(s, S, k),
        fresh_quota=lambda s, k, i: comb(N - 1, k - 1) * phi(s, S, k))
    assert all(t[i] == S ** (N - 1) for i in range(1, N + 1))
    return per_db


@lru_cache(maxsize=None)
def _alg1_schedule(S: int, N: int, d: int):
    """Position-level schedule of the single-user block for demand d: per
    database, a tuple of Records in insertion order.  A demand-bearing record's
    refs are its fresh demand reference followed by its source's refs, and it
    resolves that reference as its answer XOR its `source` answer; seeds and
    fills resolve nothing, and no reference is reused within a database."""
    if not 1 <= d <= N:
        raise DemandError(f"demand {d} outside [1,{N}]")
    per_db = [[] for _ in range(S)]
    t = [0] * (N + 1)
    for i in range(1, N + 1):
        t[i] = 1
        per_db[0].append(Record(((i, 1),), i == d))
    for k in range(2, N + 1):
        for j in range(1, S + 1):
            consumed = False
            # ascending database index, insertion order within each database
            for i in range(1, S + 1):
                if i == j:
                    continue
                for idx, rec in enumerate(per_db[i - 1]):
                    if len(rec.refs) != k - 1 or any(f == d for f, _ in rec.refs):
                        continue
                    t[d] += 1
                    per_db[j - 1].append(Record(((d, t[d]),) + rec.refs, True, (i, idx)))
                    consumed = True
            if consumed:
                for fileset in combinations([i for i in range(1, N + 1) if i != d], k):
                    for _ in range(phi(j, S, k)):
                        refs = []
                        for u in fileset:
                            t[u] += 1
                            refs.append((u, t[u]))
                        per_db[j - 1].append(Record(tuple(refs)))
    assert t[d] == S ** (N - 1), (S, N, d, t[d])
    return tuple(tuple(db) for db in per_db)


class _Layout(NamedTuple):
    """Everything `materialize` and `resolve_symbols` read of one schedule,
    flat, with the secret permutations left out.

    A key stands for one (file, position) reference at one subfile slot:
    the n-th file the schedule names, of largest position w_n, takes keys
    w_1 + ... + w_(n-1) + pos - 1 at a block's one slot (or the lower of a
    qset2 file's two), and those plus the total of all the w at the higher
    slot.  Records are numbered over all databases in order; record r's
    references are keys[cuts[r]:cuts[r + 1]], file by file, and `step`
    keys each, in slot order.  Since the atom map is monotone in (file,
    slot, subsub), that is atom order, as long as a record names no file
    twice.  `order` is the block's peel order: its fresh records by sum
    size, then record, so the other references of each one are resolved
    before it.
    """

    records: tuple     # the schedule, held so that its id is never reused
    files: tuple       # (file, largest position) of each file named, in file order
    step: int          # keys per reference: its slots, 1 or 2
    keys: list
    cuts: array
    db_slices: tuple   # db_slices[db0]: the records of database db0 + 1
    fresh_at: array    # a fresh record r's fresh reference is its fresh_at[r]-th
    order: array       # the fresh records by sum size, then record
    sources: dict      # sourced record -> its source record, or -1 if there is none


_LAYOUTS = {}  # (id(schedule), step) -> its _Layout
_INTS = []     # _INTS[k] is k: the layouts' keys share these int objects


def _layout(records, info: SlotInfo) -> _Layout:
    """The schedule's layout for the block's slots per reference: two for a
    qset2 block (`info.partners`), else one.  It is built on first use and
    held in `_LAYOUTS`, where every later use finds it, for the life of the
    process.  Schedules are cached and never change, and the layout holds
    the schedule, so its identity is a safe key.  A record that names a
    file twice is refused."""
    step = 1 if info.partners is None else 2
    lay = _LAYOUTS.get((id(records), step))
    if lay is not None:
        return lay
    widths = {}
    for db_list in records:
        for rec in db_list:
            for f, pos in rec.refs:
                if widths.get(f, 0) < pos:
                    widths[f] = pos
    files = tuple(sorted(widths.items()))
    base, total = {}, 0
    for f, w in files:
        base[f] = total - 1
        total += w
    if len(_INTS) < step * total:
        _INTS.extend(range(len(_INTS), step * total))
    ints = _INTS
    db_cuts = [0]
    for db_list in records:
        db_cuts.append(db_cuts[-1] + len(db_list))
    keys, cuts, fresh_at, sources, sizes = [], array("l", [0]), array("H"), {}, []
    for db0, db_list in enumerate(records):
        for local, (refs, fresh, source) in enumerate(db_list):
            ordered = sorted(refs)
            if len(dict(ordered)) < len(ordered):
                f = next(f for (f, _), (e, _) in pairwise(ordered) if f == e)
                raise UnresolvablePlanError(
                    f"record (db {db0 + 1}, local {local}) names file {f} twice")
            for f, pos in ordered:
                k = base[f] + pos
                keys.append(ints[k])
                if step == 2:
                    keys.append(ints[k + total])
            cuts.append(len(keys))
            fresh_at.append(ordered.index(refs[0]) if fresh else 0)
            if fresh:
                g = db_cuts[db0] + local
                sizes.append((len(refs), g))
                if source is not None:
                    sdb, sidx = source
                    ok = 1 <= sdb <= len(records) and 0 <= sidx < len(records[sdb - 1])
                    sources[g] = db_cuts[sdb - 1] + sidx if ok else -1
    lay = _LAYOUTS[(id(records), step)] = _Layout(
        records, files, step, keys, cuts, tuple(map(slice, db_cuts, db_cuts[1:])),
        fresh_at, array("I", [g for _, g in sorted(sizes)]), sources)
    return lay


def _lookup(lay: _Layout, perms: dict, K: int, own: int, partners=None, sub=None) -> list:
    """Per key of `lay`, the atom it stands for under the block's
    permutations: each file's images, offset to its slot, one `map` per file
    and slot.  A one-slot block's slot is `own`; a qset2 block pairs file f
    with its slot partners[f - 1] as well.  The atoms are in a store of
    `sub` subsubfiles per subfile, or of each permutation's length when
    `sub` is None."""
    lut, high = [], []
    for f, w in lay.files:
        images = perms[f].images
        n = len(images)
        if n != w:
            if n < w:
                raise InvalidDimensionError(
                    f"file {f}: position {w} is past its permutation of [{n}]")
            images = images[:w]
        if sub is not None:
            n = sub
        # atom(f, j, x) is ((f - 1) * K + j - 1) * n + x - 1
        if partners is None:
            lut += map((((f - 1) * K + own - 1) * n - 1).__add__, images)
        else:
            j = partners[f - 1]
            lo, hi = (j, own) if j < own else (own, j)
            lut += map((((f - 1) * K + lo - 1) * n - 1).__add__, images)
            high += map((((f - 1) * K + hi - 1) * n - 1).__add__, images)
    lut += high
    return lut


def materialize(records, perms: dict, info: SlotInfo, K: int) -> list:
    """Per-database query lists of one generator block of a K-subfile store.

    Each record reference (file, pos) becomes the atom of subsubfile
    perms[file](pos) at every subfile slot in info.subfiles(file): the
    block's own slot for alg1 and qset1, the file's partner slot and the
    block's own for qset2.  The schedule's `_Layout` already lists every
    record's references in atom order, so the block's atoms are one `map`
    over its keys, cut per record.
    """
    lay = _layout(records, info)
    lut = _lookup(lay, perms, K, info.subfile, info.partners)
    at = tuple(map(lut.__getitem__, lay.keys))
    queries = [new_query((at[a:b],)) for a, b in pairwise(lay.cuts)]
    return list(map(queries.__getitem__, lay.db_slices))


_images = attrgetter("images")


def block_memo():
    """A `materialize` that builds each distinct block once and then shares
    it, for a walk that assembles one block in many sessions.  It takes
    `materialize`'s arguments.  The key is exactly what `materialize` reads:
    the schedule by identity, each file with its permutation's images, the
    slot's `subfile` and `partners`, and K.  Every block it holds was built
    by `materialize`, whose layout keeps the schedule in `_LAYOUTS` for the
    life of the process, so no schedule's id in a key is ever reused.  The
    blocks are shared, so no caller may edit one; they live as long as the
    memo."""
    blocks = {}

    def memo(records, perms, info, K):
        key = (id(records), info.subfile, info.partners, K,
               *perms, *map(_images, perms.values()))
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = materialize(records, perms, info, K)
        return block
    return memo


def placement(store: FileStore, P: Permutation):
    """Broadcast all cache lines, then assign user u the lines of slot p_u.

    Returns (broadcast, caches): the broadcast is every line a database
    transmits, {j: {t: XOR_i W(i, j, t)}} for slots j in 1..K and t in
    H+1..S^(N-1); caches maps user u to broadcast[p_u], the lines of its
    slot, which is the user's `SlotInfo.subfile`.
    """
    N, K, S = store.N, store.K, store.S
    if N > K:
        raise RegimeError(f"placement needs K>=N, got N={N}, K={K}")
    if P.n != K:
        raise DemandError(f"user permutation must be over [K]={K}, got n={P.n}")
    H = h_value(S, N)
    broadcast = {j: {tt: xor_combine([store.block(i, j, tt) for i in range(1, N + 1)])
                     for tt in range(H + 1, store.subpackets + 1)}
                 for j in range(1, K + 1)}
    return broadcast, {u: broadcast[P(u)] for u in range(1, K + 1)}


def rho_options(demands, base, c) -> list:
    """Every file-to-base-user alignment non-base user c may draw, in
    permutation order: its demanded file pairs with the base user demanding
    it (its twin), every other file with a distinct base user not demanding
    that file.  These are the private draws; `_generate` accepts every
    alignment that decodes, repeated partners included, so it accepts more.

    For N >= 3 such an alignment always exists.  For N = 2 none does, so the
    one option aligns both files with the twin, which keeps every user
    decodable.  At any N the rule is visible to one database: the twin is the
    one partner slot whose base user demands the file it is paired with, so
    database 1 alone guesses the non-base users' demands, never wrongly, at
    every N < K instance tried (`tests/test_audit.py::TestSingleDatabaseLeak`).
    """
    N = len(base)
    dc = demands[c - 1]
    twin = next(b for b in base if demands[b - 1] == dc)
    rest_files = [i for i in range(1, N + 1) if i != dc]
    options = [dict([(dc, twin)] + list(zip(rest_files, perm)))
               for perm in permutations([b for b in base if b != twin])
               if all(demands[b - 1] != i for i, b in zip(rest_files, perm))]
    if not options:
        assert N == 2  # derangement of one element cannot exist
        options = [{i: twin for i in range(1, N + 1)}]
    return options


def choose_base_and_rho(demands, N: int, K: int, rng: random.Random):
    """Pick the base set (lowest-index user per file) and, for every other
    user, an alignment drawn uniformly from its `rho_options`."""
    demands = validate_demands(demands, N, K)
    if N >= K:
        raise RegimeError(f"base set only applies to N<K, got N={N}, K={K}")
    twin = {}
    for u, d in enumerate(demands, start=1):
        twin.setdefault(d, u)
    base = tuple(sorted(twin.values()))
    rho = {}
    for c in range(1, K + 1):
        if c in base:
            continue
        options = rho_options(demands, base, c)
        rho[c] = options[rng.randrange(len(options))] if len(options) > 1 else options[0]
    return base, rho


@dataclass
class SessionTranscript:
    """Everything needed to build a session's bundle, to replay it and to
    decode it: what a generator returns.

    `assemble_bundle` builds the bundle from it, and replaying it in that
    bundle's emission order regenerates the bundle bit-identically; the
    per-slot records double as the decode plan (each query names the
    reference it freshly resolves, and the already-known ones or the source
    query it consumes).  A single-user session is one alg1 block of user 1
    with K = 1.
    """

    S: int
    N: int
    K: int
    demand: tuple
    perms: dict                       # user -> {file -> Permutation}
    records: dict                     # user -> per-db tuple of Record
    slots: dict                       # user -> SlotInfo: its slot p_u and alignment
    H: int

    def record_keys(self, db0: int) -> list:
        """(user, local index) of every record for database db0 + 1, in user
        then schedule order."""
        return [(user, local) for user in sorted(self.records)
                for local in range(len(self.records[user][db0]))]


def replay_bundle(transcript: SessionTranscript, emission, memo=None) -> QueryBundle:
    """Regenerate the bundle bit-identically from the recorded randomness,
    with each database's queries in `emission` order ((user, local) pairs).
    The bundle holds `emission` and the transcript's `slots` themselves, not
    copies, so an edit to one is an edit to the other.  Each user's block
    comes from `materialize`, or from `memo` (a `block_memo`) when given."""
    build = materialize if memo is None else memo
    queries = {
        user: build(records, transcript.perms[user], transcript.slots[user], transcript.K)
        for user, records in transcript.records.items()
    }
    per_db = [[queries[user][db0][local] for user, local in order]
              for db0, order in enumerate(emission)]
    return QueryBundle(S=transcript.S, N=transcript.N, K=transcript.K, per_db=per_db,
                       emission=emission, slots=transcript.slots)


def assemble_bundle(transcript: SessionTranscript, shuffle_rng=None, memo=None) -> QueryBundle:
    """The session's bundle: every user's records in user order, each
    database's list then shuffled by shuffle_rng (when given), its blocks
    built as `replay_bundle` builds them with `memo`."""
    emission = [transcript.record_keys(db0) for db0 in range(transcript.S)]
    if shuffle_rng is not None:
        for order in emission:
            shuffle(order, shuffle_rng)
    return replay_bundle(transcript, emission, memo)


def _check_perms(user_perms, N, K, sub) -> None:
    """Refuse unless users 1..K each have a permutation of [sub] for files
    1..N, the layout `materialize` builds on.  Plain loops: a generator runs
    this once per session and the oracle once per branch."""
    files = range(1, N + 1)
    for c in range(1, K + 1):
        perms = user_perms.get(c, {})
        for i in files:
            p = perms.get(i)
            if p is None or len(p.images) != sub:
                raise InvalidDimensionError(
                    f"user {c}, file {i}: no permutation of [S^(N-1)] = [{sub}]")


def generate_alg1(S: int, N: int, perms: dict, d: int) -> SessionTranscript:
    """The single-user session's transcript for demand d: one alg1 block of
    user 1 with K = 1 and H = S^(N-1).  perms: {file -> Permutation}."""
    sub = S ** (N - 1)
    _check_perms({1: perms}, N, 1, sub)
    return SessionTranscript(S=S, N=N, K=1, demand=(d,), perms={1: dict(perms)},
                             records={1: _alg1_schedule(S, N, d)},
                             slots={1: SlotInfo("alg1", 1, d)}, H=sub)


def generate_alg2(S, N, K, demands, P: Permutation, user_perms) -> SessionTranscript:
    """All-distinct-demands session: one qset1 block per user."""
    demands = validate_demands(demands, N, K)
    if N != K:
        raise RegimeError(f"this generator requires N=K, got N={N}, K={K}")
    return _generate(S, N, K, demands, P, range(1, K + 1), None, user_perms)


def generate_alg3(S, N, K, demands, P: Permutation, base, rho,
                  user_perms) -> SessionTranscript:
    """Covering-demands session: qset1 for base users, qset2 for the rest."""
    demands = validate_demands(demands, N, K)
    if N == K:
        raise RegimeError("N=K sessions are generated by generate_alg2")
    base = tuple(sorted(base))
    if len(base) != N or {demands[b - 1] for b in base} != set(range(1, N + 1)):
        raise DemandError(f"base set {base} does not cover all files exactly once")
    return _generate(S, N, K, demands, P, base, rho, user_perms)


def _generate(S, N, K, demands, P, base, rho, user_perms):
    """The transcript of validated demands: a qset1 block on its own slot
    P(c) for each base user c, a qset2 block for every other user, whose
    file i pairs the slot of base user rho[c][i] with P(c).  Each alignment
    is checked here, file by file: every partner must be a base user that
    demands the file exactly when it is the user's own demand, which is
    what `decode_user` needs of it."""
    slot_of = P.images  # user c's slot p_c is slot_of[c - 1]
    if len(slot_of) != K:
        raise DemandError(f"user permutation must be over [K]={K}, got n={len(slot_of)}")
    _check_perms(user_perms, N, K, S ** (N - 1))
    H = h_value(S, N)
    slots, records = {}, {}
    for c in range(1, K + 1):
        d = demands[c - 1]
        own = slot_of[c - 1]
        if c in base:
            if not user_perms[c][d].tail_fixed_from(H):
                raise DemandError(f"permutation for user {c}, file {d} must fix positions > {H}")
            slots[c] = SlotInfo("qset1", own, d)
            records[c] = qset1_schedule(S, N, d)
            continue
        align, partners = rho.get(c, {}), []
        for i in range(1, N + 1):
            b = align.get(i)
            if b not in base or (demands[b - 1] == i) != (i == d):
                raise DemandError(
                    f"rho for user {c}: file {i}'s partner {b} must be a base user "
                    f"{'' if i == d else 'not '}demanding file {i}")
            partners.append(slot_of[b - 1])
        slots[c] = SlotInfo("qset2", own, partners=tuple(partners))
        records[c] = qset2_schedule(S, N)
    return SessionTranscript(S=S, N=N, K=K, demand=demands, perms=user_perms,
                             records=records, slots=slots, H=H)


def resolve_symbols(transcript: SessionTranscript, bundle: QueryBundle, answers) -> dict:
    """Peel every per-slot reference value out of the answer blocks.

    Every fresh record resolves its fresh reference refs[0] as its answer
    XOR its source's answer, when it has a source (alg1), else XOR the
    values of refs[1:], which smaller fresh records of its block resolved
    first (qset1, qset2).  A value is keyed by the atom of its subsubfile at
    the block's own slot, atom(file, p_u, x, K, sub): there it is W itself
    for alg1 and qset1 blocks, and W XOR its partner slot's W for qset2.
    Each user has its own slot, so no two blocks share a key, and each
    block is peeled on its own, user by user, along its schedule's
    `_Layout.order`.  Each record's answer is read from a per-user table
    filled from the bundle's emission; an emission entry naming a record
    the transcript does not have is refused.
    """
    K, sub = bundle.K, bundle.sub
    plans, tables = {}, {}
    for user in sorted(transcript.records):
        records = transcript.records[user]
        info = transcript.slots[user]
        lay = _layout(records, info)
        plans[user] = (lay, _lookup(lay, transcript.perms[user], K, info.subfile, sub=sub))
        tables[user] = [[None] * len(db_list) for db_list in records]
    for db0, (order, row) in enumerate(zip(bundle.emission, answers)):
        at_db = {user: table[db0] for user, table in tables.items() if db0 < len(table)}
        try:
            for (user, local), block in zip(order, row):
                at_db[user][local] = block
        except (KeyError, IndexError):
            raise UnresolvablePlanError(
                f"database {db0 + 1} answers record (user {user}, local {local}), "
                "which the transcript does not have") from None
    values = {}
    for user, (lay, own) in plans.items():
        table = list(chain.from_iterable(tables[user]))
        keys, cuts, fresh_at, sources, step = (
            lay.keys, lay.cuts, lay.fresh_at, lay.sources, lay.step)
        for g in lay.order:
            acc = table[g]
            if acc is None:
                raise _missing("answer", user, lay, g)
            c = cuts[g]
            key = own[keys[c + fresh_at[g] * step]]
            source = sources.get(g)
            if source is not None:
                other = table[source] if source >= 0 else None
                if other is None:
                    raise _missing("source answer", user, lay, g)
                acc ^= other
            else:
                refs = keys[c:cuts[g + 1]:step]
                del refs[fresh_at[g]]
                try:
                    for a in refs:
                        acc ^= values[own[a]]
                except KeyError as exc:
                    raise UnresolvablePlanError(
                        f"old reference {atom_triple(exc.args[0], K, sub)} "
                        "not resolved before use") from exc
            if key in values:
                raise UnresolvablePlanError(
                    f"reference {atom_triple(key, K, sub)} resolved twice")
            values[key] = acc
    return values


def _missing(what, user, lay, g) -> UnresolvablePlanError:
    """The error for record g of the user's layout, whose `what` is missing."""
    db0, rows = next((db0, rows) for db0, rows in enumerate(lay.db_slices) if g < rows.stop)
    return UnresolvablePlanError(
        f"{what} of record (user {user}, db {db0 + 1}, local {g - rows.start}) is missing")


def decode_user(user, transcript: SessionTranscript, bundle: QueryBundle, answers,
                cache: Optional[dict], symbols=None, run_oracle=True) -> dict:
    """Recover every subsubfile of the user's demanded file by the peeling
    plan the transcript records.

    Returns {(subfile j, x): block}.  `symbols` is what `resolve_symbols`
    returns, computed here when not given: each block's values keyed by
    own-slot atoms.  `cache` is the user's {t: line} dict from `placement`.
    None means no cache lines, as in a single-user session, where K = 1 and
    H = S^(N-1) leave only step 1: take the demand's values.  With
    `run_oracle` the GF(2) oracle then re-derives every block from the
    answers and this user's cache lines alone (`check_decoded` for this one
    user), and must agree.  A session decodes all its users with
    `run_oracle=False` and checks them together in one `check_decoded`,
    which peels the shared answers once.
    """
    if symbols is None:
        symbols = resolve_symbols(transcript, bundle, answers)
    N, K, sub = bundle.N, bundle.K, bundle.sub
    H = transcript.H
    d = transcript.demand[user - 1]
    slots = transcript.slots
    lines = cache or {}
    own = slots[user]
    ju = own.subfile
    out = {}
    try:
        # 1. slots generated with qset1: full non-demand exposure, H for demand
        for info in slots.values():
            if info.partners is None:
                j = info.subfile
                o = atom(d, j, 0, K, sub)
                for x in range(1, (H if info.demand == d else sub) + 1):
                    out[(j, x)] = symbols[o + x]
        # 2. own-slot tail via cache lines: each other file's value on every
        # slot its reference touches (for qset2, the partner's W and the
        # difference, whose XOR is the own slot's W)
        tail = [atom(i, j, 0, K, sub) for i in range(1, N + 1) if i != d
                for j in own.subfiles(i)]
        for tt in range(H + 1, sub + 1):
            acc = lines.get(tt)
            if acc is None:
                raise UnresolvablePlanError(f"user {user} has no cache line {tt}")
            for o in tail:
                acc ^= symbols[o + tt]
            out[(ju, tt)] = acc
        # 3. split own paired difference against the demand twin's slot
        if own.partners is not None:
            jt = own.partners[d - 1]
            o = atom(d, ju, 0, K, sub)
            for x in range(1, H + 1):
                out[(ju, x)] = symbols[o + x] ^ out[(jt, x)]
            for x in range(H + 1, sub + 1):
                out[(jt, x)] = symbols[o + x] ^ out[(ju, x)]
        # 4. remaining slots via their paired differences
        for v in range(1, K + 1):
            if slots[v].partners is None or v == user:
                continue
            ref, jv = slots[v].subfiles(d)
            o = atom(d, jv, 0, K, sub)
            for x in range(1, sub + 1):
                out[(jv, x)] = symbols[o + x] ^ out[(ref, x)]
    except KeyError as exc:
        key = exc.args[0]  # an atom of `symbols`, or a (j, x) of `out`
        block = (d, *key) if isinstance(key, tuple) else atom_triple(key, K, sub)
        raise UnresolvablePlanError(f"peeling plan missing value for {block}") from exc
    if len(out) != K * sub:
        raise UnresolvablePlanError(f"user {user} decoded {len(out)} of {K * sub} blocks")
    if run_oracle:
        check_decoded(bundle, answers, transcript.demand, {user: cache}, {user: out})
    return out


def check_decoded(bundle: QueryBundle, answers, demands, caches, decoded) -> None:
    """The session's GF(2) cross-check of every user in `decoded` ({user:
    {(subfile j, x): block}}), run once after all of them have peel-decoded.

    It reads only the bundle's shape, atoms and slots, the answers and each
    user's cache lines (`caches`: {user: {t: line} or None}), never the
    transcript's records or the peeled symbols.  Cache line t of a user
    whose slot is j is the equation XOR_i W(i, j, t).  Raises
    UnresolvablePlanError where a block is undetermined or disagrees.
    """
    N, K, sub = bundle.N, bundle.K, bundle.sub
    users = {}
    for u, out in decoded.items():
        j = bundle.slots[u].subfile
        rows = [(tuple([atom(i, j, t, K, sub) for i in range(1, N + 1)]), line)
                for t, line in (caches.get(u) or {}).items()]
        users[u] = (demands[u - 1], out, rows)
    gf2.cross_check(bundle, answers, users)
