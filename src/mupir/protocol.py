"""Multi-user protocol: placement, per-slot query generation, decoding.

The two per-slot schedules (`qset1_schedule` for base/own slots,
`qset2_schedule` for paired-difference slots) share one engine.  Per
database s and sum size k, the engine must emit every k-subset of files the
same number of times (type symmetry), while giving file i a prescribed
number of queries whose i-reference is fresh (previously unseen position of
that file's secret permutation); the remaining references reuse positions
already exposed in earlier rounds, so each query is one XOR away from known
material.

The schedule produced by the engine is a pure function of the counting
parameters; the secret permutations only relabel positions to subsubfile
indices afterwards.  That keeps generation, replay and exhaustive
enumeration cheap and exactly reproducible.  Every generator block, the
single-user one (alg1) included, is a schedule of `Record`s with `refs`
((file, position) pairs).  The generators return only the session's
`SessionTranscript`; one `materialize` turns a block's records into queries,
and one `replay_bundle` interleaves the blocks per database in a given
emission order, which `assemble_bundle` draws when the session sends.  One
`resolve_symbols` peels every block: a record's fresh reference is its answer
XOR its known old picks XOR its source's answer, when it has a source.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations, permutations
from math import comb
from operator import attrgetter
from typing import Optional

from .core import (
    FileStore,
    Permutation,
    QueryBundle,
    SlotInfo,
    new_query,
    shuffle,
    validate_demands,
    xor_combine,
)
from .errors import (
    DemandError,
    InfeasibleSwapError,
    RegimeError,
    UnresolvablePlanError,
)
from . import gf2
from .params import f_rep, h_value, phi, psi


@dataclass(frozen=True)
class Record:
    """One scheduled query of any generator block: its sum size k, every
    (file, position) reference, and its peel linkage.

    Positions refer to the (secret) per-file permutations.  A record with a
    fresh reference resolves (fresh_file, fresh_pos) as its answer XOR its
    `old_picks` (positions exposed in earlier rounds) XOR the answer of its
    `source` ((db, index) of the consumed smaller query), when it has one;
    a record with no fresh reference resolves nothing.  Schedules are cached
    and shared across sessions, hence frozen.
    """

    k: int
    refs: tuple
    fresh_file: Optional[int] = None
    fresh_pos: Optional[int] = None
    old_picks: tuple = ()
    source: Optional[tuple] = None


@dataclass
class _DraftQuery:
    """Mutable query under construction; rebalancing swaps edit it in place."""

    type_set: tuple
    fresh_file: int
    fresh_pos: int
    old_picks: list


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
                block.append(_DraftQuery(U, fresh_file, fresh_pos, olds))

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
                    chosen = next(((n_, r) for n_, U in enumerate(pool) for r in block
                                   if i in r.type_set and r.fresh_file != i
                                   and r.fresh_file in U), None)
                    if chosen is None:
                        raise InfeasibleSwapError(
                            f"no rebalancing swap for file {i} at db {s}, k={k}"
                        )
                    n_, r = chosen
                    v1 = r.fresh_file
                    emit(pool.pop(n_), v1, r.fresh_pos)
                    # donor: old i-reference becomes the fresh one, its
                    # fresh v1-reference downgrades to an old pick
                    old_i = next(p for p in r.old_picks if p[0] == i)
                    r.old_picks.remove(old_i)
                    picker[i].bump(old_i[1], -1)
                    picker[v1].bump(r.fresh_pos, -1)
                    t[i] += 1
                    picker[i].bump(t[i], +1)
                    r.old_picks.append(reuse(v1))
                    r.fresh_file, r.fresh_pos = i, t[i]
            assert not pool, (S, N, s, k)
            for q in block:
                olds = tuple(sorted(q.old_picks))
                per_db[s - 1].append(Record(
                    k=k, refs=((q.fresh_file, q.fresh_pos),) + olds,
                    fresh_file=q.fresh_file, fresh_pos=q.fresh_pos, old_picks=olds))
    return tuple(map(tuple, per_db)), t


@lru_cache(maxsize=None)
def qset1_schedule(S: int, N: int, d: int):
    """Position-level schedule for one demanded-file slot."""
    per_db, t = _run_symmetric_rounds(
        S,
        N,
        multiplicity=lambda s, k: psi(s, S, N, k),
        fresh_quota=lambda s, k, i: f_rep(s, i, d, k, S, N),
    )
    sub = S ** (N - 1)
    H = h_value(S, N)
    assert all(t[i] == sub for i in range(1, N + 1) if i != d)
    assert t[d] == H
    return per_db


@lru_cache(maxsize=None)
def qset2_schedule(S: int, N: int):
    """Position-level schedule for one paired-difference slot."""
    per_db, t = _run_symmetric_rounds(
        S,
        N,
        multiplicity=lambda s, k: k * phi(s, S, k),
        fresh_quota=lambda s, k, i: comb(N - 1, k - 1) * phi(s, S, k),
    )
    sub = S ** (N - 1)
    assert all(t[i] == sub for i in range(1, N + 1))
    return per_db


def materialize(records, perms: dict, info: SlotInfo) -> list:
    """Per-database query lists of one generator block.

    Each record reference (file, pos) becomes subsubfile perms[file](pos) at
    every subfile slot in info.subfiles(file): the block's own slot for alg1
    and qset1, the file's omega pair for qset2.
    """
    by_file = {f: (info.subfiles(f), p.images) for f, p in perms.items()}
    out = []
    for db_list in records:
        row = []
        for rec in db_list:
            atoms = []
            for f, pos in rec.refs:
                slots, images = by_file[f]
                x = images[pos - 1]
                for j in slots:
                    atoms.append((f, j, x))
            atoms.sort()
            row.append(new_query((tuple(atoms),)))
        out.append(row)
    return out


_images = attrgetter("images")


def block_memo():
    """A `materialize` that builds each distinct block once and then shares
    it, for a walk that assembles one block in many sessions.  It takes
    `materialize`'s arguments.  The key is exactly what `materialize` reads:
    the schedule by identity (schedules are cached and never change; each
    one seen is held, so its id is not reused), each file with its
    permutation's images, and the slot's `subfile` and `omega_pairs`.  The
    blocks are shared, so no caller may edit one; they live as long as the
    memo."""
    blocks = {}

    def memo(records, perms, info):
        key = (id(records), info.subfile, info.omega_pairs,
               *perms, *map(_images, perms.values()))
        hit = blocks.get(key)
        if hit is None:
            hit = blocks[key] = (records, materialize(records, perms, info))
        return hit[1]
    return memo


def placement(store: FileStore, P: Permutation):
    """Broadcast all cache lines, then assign user u the lines of slot p_u.

    Returns (broadcast, caches): the broadcast is the full line list (what a
    database actually transmits); caches maps user u to its cache, the lines
    {t: XOR_i W(i, p_u, t)} for t in H+1..S^(N-1).  The slot p_u they cover
    is the user's `SlotInfo.subfile`.
    """
    N, K, S = store.N, store.K, store.S
    if N > K:
        raise RegimeError(f"placement needs K>=N, got N={N}, K={K}")
    if P.n != K:
        raise DemandError(f"user permutation must be over [K]={K}, got n={P.n}")
    H = h_value(S, N)
    sub = store.subpackets
    broadcast = []
    lines_by_subfile = {}
    for j in range(1, K + 1):
        lines = {}
        for tt in range(H + 1, sub + 1):
            line = xor_combine([store.block(i, j, tt) for i in range(1, N + 1)])
            lines[tt] = line
            broadcast.append(((j, tt), line))
        lines_by_subfile[j] = lines
    return broadcast, {u: lines_by_subfile[P(u)] for u in range(1, K + 1)}


def rho_options(demands, base, c) -> list:
    """Every file-to-base-user alignment non-base user c may draw, in
    permutation order: its demanded file pairs with the base user demanding
    it (its twin), every other file with a base user not demanding that file.

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
        user: build(records, transcript.perms[user], transcript.slots[user])
        for user, records in transcript.records.items()
    }
    per_db = [[queries[user][db0][local] for user, local in order]
              for db0, order in enumerate(emission)]
    return QueryBundle(S=transcript.S, per_db=per_db, emission=emission,
                       slots=transcript.slots)


def assemble_bundle(transcript: SessionTranscript, shuffle_rng=None, memo=None) -> QueryBundle:
    """The session's bundle: every user's records in user order, each
    database's list then shuffled by shuffle_rng (when given), its blocks
    built as `replay_bundle` builds them with `memo`."""
    emission = [transcript.record_keys(db0) for db0 in range(transcript.S)]
    if shuffle_rng is not None:
        for order in emission:
            shuffle(order, shuffle_rng)
    return replay_bundle(transcript, emission, memo)


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


# SlotInfo is frozen, so sessions share one instance per distinct slot
# record instead of paying a frozen dataclass's __init__ for each.
_slot_info = lru_cache(maxsize=4096)(SlotInfo)


def _generate(S, N, K, demands, P, base, rho, user_perms):
    """The transcript of validated demands: a qset1 block on its own slot
    P(c) for each base user c, a qset2 block for every other user, whose
    file i pairs the slot of base user rho[c][i] with P(c)."""
    H = h_value(S, N)
    slot_of = P.images  # user c's slot p_c is slot_of[c - 1]
    slots, records = {}, {}
    for c in range(1, K + 1):
        d = demands[c - 1]
        own = slot_of[c - 1]
        if c in base:
            if not user_perms[c][d].tail_fixed_from(H):
                raise DemandError(f"permutation for user {c}, file {d} must fix positions > {H}")
            slots[c] = _slot_info(kind="qset1", subfile=own, demand=d)
            records[c] = qset1_schedule(S, N, d)
            continue
        align = rho[c]
        if align[d] not in base or demands[align[d] - 1] != d:
            raise DemandError(f"rho for user {c} must pair its demand with a base twin")
        pairs = tuple([(i, slot_of[align[i] - 1], own) for i in range(1, N + 1)])
        slots[c] = _slot_info(kind="qset2", subfile=own, omega_pairs=pairs)
        records[c] = qset2_schedule(S, N)
    return SessionTranscript(S=S, N=N, K=K, demand=demands, perms=user_perms,
                             records=records, slots=slots, H=H)


def resolve_symbols(transcript: SessionTranscript, bundle: QueryBundle, answers) -> dict:
    """Peel every per-slot reference value out of the answer blocks.

    Every record with a fresh reference resolves it as its answer XOR its
    known old picks XOR its source's answer (alg1 records pick no old
    references, qset1/qset2 records have no source).  Keys: ("w", file,
    subfile, x) for direct subsubfile values exposed by alg1 and qset1
    blocks, ("om", user, file, x) for paired-difference values of qset2.
    """
    index = bundle.answer_index()
    values = {}

    def sym_for(user, info, file, pos):
        x = transcript.perms[user][file].images[pos - 1]
        if info.omega_pairs is None:
            return ("w", file, info.subfile, x)
        return ("om", user, file, x)

    work = [(user, db0, local, rec)
            for user in sorted(transcript.records)
            for db0, db_list in enumerate(transcript.records[user])
            for local, rec in enumerate(db_list) if rec.fresh_file is not None]
    work.sort(key=lambda w: w[3].k)  # old picks were exposed in earlier rounds
    for user, db0, local, rec in work:
        info = transcript.slots[user]
        try:
            acc = answers[db0][index[(user, db0, local)]]
            if rec.source is not None:
                sdb, sidx = rec.source
                acc ^= answers[sdb - 1][index[(user, sdb - 1, sidx)]]
        except KeyError:
            what = "source answer" if (user, db0, local) in index else "answer"
            raise UnresolvablePlanError(
                f"{what} of record (user {user}, db {db0 + 1}, local {local}) is missing"
            ) from None
        try:
            for u, p in rec.old_picks:
                acc ^= values[sym_for(user, info, u, p)]
        except KeyError as exc:
            raise UnresolvablePlanError(
                f"old reference {exc} not resolved before use"
            ) from exc
        key = sym_for(user, info, rec.fresh_file, rec.fresh_pos)
        if key in values:
            raise UnresolvablePlanError(f"reference {key} resolved twice")
        values[key] = acc
    return values


def decode_user(user, transcript: SessionTranscript, bundle: QueryBundle, answers,
                cache: Optional[dict], symbols=None, run_oracle=True) -> dict:
    """Recover every subsubfile of the user's demanded file by the peeling
    plan the transcript records.

    Returns {(subfile j, x): block}.  `cache` is the user's {t: line} dict
    from `placement`.  None means no cache lines, as in a single-user
    session, where K = 1 and H = S^(N-1) leave only step 1: take the
    demand's symbols.  With `run_oracle` the GF(2) oracle then
    re-derives every block from the answers and this user's cache lines
    alone (`check_decoded` for this one user), and must agree.  A session
    decodes all its users with `run_oracle=False` and checks them together
    in one `check_decoded`, which peels the shared answers once.
    """
    if symbols is None:
        symbols = resolve_symbols(transcript, bundle, answers)
    N, K, S = transcript.N, transcript.K, transcript.S
    sub = S ** (N - 1)
    H = transcript.H
    d = transcript.demand[user - 1]
    slots = transcript.slots
    base = [c for c in sorted(slots) if slots[c].omega_pairs is None]
    lines = cache or {}
    out = {}
    try:
        # 1. slots generated with qset1: full non-demand exposure, H for demand
        for c in base:
            dc = transcript.demand[c - 1]
            j = slots[c].subfile
            upto = sub if dc != d else H
            for x in range(1, upto + 1):
                out[(j, x)] = symbols[("w", d, j, x)]
        # 2. own-slot tail via cache lines
        own = slots[user]
        ju = own.subfile
        for tt in range(H + 1, sub + 1):
            acc = lines[tt]
            for i in range(1, N + 1):
                if i == d:
                    continue
                if own.omega_pairs is None:
                    acc ^= symbols[("w", i, ju, tt)]
                else:
                    acc ^= (symbols[("om", user, i, tt)]
                            ^ symbols[("w", i, own.subfiles(i)[0], tt)])
            out[(ju, tt)] = acc
        # 3. split own paired difference against the demand twin's slot
        if own.omega_pairs is not None:
            jt = own.subfiles(d)[0]
            for x in range(1, H + 1):
                out[(ju, x)] = symbols[("om", user, d, x)] ^ out[(jt, x)]
            for x in range(H + 1, sub + 1):
                out[(jt, x)] = symbols[("om", user, d, x)] ^ out[(ju, x)]
        # 4. remaining slots via their paired differences
        for v in range(1, K + 1):
            if slots[v].omega_pairs is None or v == user:
                continue
            ref, jv = slots[v].subfiles(d)
            for x in range(1, sub + 1):
                out[(jv, x)] = symbols[("om", v, d, x)] ^ out[(ref, x)]
    except KeyError as exc:
        raise UnresolvablePlanError(f"peeling plan missing value for {exc}") from exc
    assert len(out) == K * sub
    if run_oracle:
        check_decoded(bundle, answers, N, transcript.demand, {user: cache}, {user: out})
    return out


def check_decoded(bundle: QueryBundle, answers, N: int, demands, caches, decoded) -> None:
    """The session's GF(2) cross-check of every user in `decoded` ({user:
    {(subfile j, x): block}}), run once after all of them have peel-decoded.

    It reads only the bundle's atoms and slots, the answers and each user's
    cache lines (`caches`: {user: {t: line} or None}), never the
    transcript's records or the peeled symbols.  Cache line t of a user
    whose slot is j is the equation XOR_i W(i, j, t).  Raises
    UnresolvablePlanError where a block is undetermined or disagrees.
    """
    users = {}
    for u, out in decoded.items():
        j = bundle.slots[u].subfile
        rows = [(tuple([(i, j, t) for i in range(1, N + 1)]), line)
                for t, line in (caches.get(u) or {}).items()]
        users[u] = (demands[u - 1], out, rows)
    gf2.cross_check(bundle, answers, users)
