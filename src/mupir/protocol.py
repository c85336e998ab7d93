"""Multi-user protocol: placement, per-slot query generation, decoding.

The two per-slot generators (`qset1` for base/own slots, `qset2` for
paired-difference slots) share one engine.  Per database s and sum size k,
the engine must emit every k-subset of files the same number of times
(type symmetry), while giving file i a prescribed number of queries whose
i-reference is fresh (previously unseen position of that file's secret
permutation); the remaining references reuse positions already exposed in
earlier rounds, so each query is one XOR away from known material.

The schedule produced by the engine is a pure function of the counting
parameters; the secret permutations only relabel positions to subsubfile
indices afterwards.  That keeps generation, replay and exhaustive
enumeration cheap and exactly reproducible.  Every generator block, the
single-user one (alg1) included, is a schedule of records with `refs`
((file, position) pairs); one `materialize` turns records into queries, and
one `replay_bundle` interleaves the blocks per database in a given emission
order, which `assemble_bundle` draws at generation time.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations, permutations
from math import comb
from typing import Optional

from .core import (
    FileStore,
    Permutation,
    Query,
    QueryAtom,
    QueryBundle,
    SlotInfo,
    validate_demands,
    xor_combine,
)
from .errors import (
    DemandError,
    InfeasibleSwapError,
    RegimeError,
    UnresolvablePlanError,
)
from .gf2 import AnswerSystem
from .params import f_rep, h_value, phi, psi


@dataclass(frozen=True)
class SlotQuery:
    """One scheduled query: a k-subset type, one fresh reference, old picks.

    Positions refer to the (secret) per-file permutations; `fresh_pos` is a
    position never used before for `fresh_file`, `old_picks` are positions
    already exposed in earlier rounds.  Schedules are cached and shared
    across sessions, hence frozen.
    """

    db: int
    k: int
    type_set: tuple
    fresh_file: int
    fresh_pos: int
    old_picks: tuple

    @property
    def refs(self) -> tuple:
        """Every (file, position) reference, the fresh one first."""
        return ((self.fresh_file, self.fresh_pos),) + self.old_picks


@dataclass
class _DraftQuery:
    """Mutable query under construction; rebalancing swaps edit it in place."""

    db: int
    k: int
    type_set: tuple
    fresh_file: int
    fresh_pos: int
    old_picks: list


class _ReusePicker:
    """Least-reused exposed position for one (database, file) pair, ties to
    the smallest position.  Lazy count-bucket heaps keep picks near O(1)."""

    __slots__ = ("cnt", "buckets", "merged")

    def __init__(self):
        self.cnt = {}       # pos -> reference count at this database
        self.buckets = {}   # count -> heap of candidate positions (lazy)
        self.merged = 0     # positions 1..merged are pickable

    def _push(self, pos, c):
        heappush(self.buckets.setdefault(c, []), pos)

    def bump(self, pos, delta):
        c = self.cnt.get(pos, 0) + delta
        self.cnt[pos] = c
        if pos <= self.merged:
            self._push(pos, c)

    def pick(self, limit):
        assert limit >= 1, "no exposed positions to reuse"
        while self.merged < limit:
            self.merged += 1
            self._push(self.merged, self.cnt.get(self.merged, 0))
        c = 0
        while True:
            heap = self.buckets.get(c)
            while heap:
                pos = heap[0]
                if self.cnt.get(pos, 0) == c:
                    return pos
                heappop(heap)  # stale: position moved to another count
            c += 1


def _run_symmetric_rounds(S, N, multiplicity, fresh_quota):
    """Generic engine: returns per-database SlotQuery lists and the final
    per-file fresh-position counters.

    multiplicity(s, k): copies of each k-subset type for database s.
    fresh_quota(s, k, i): queries with a fresh i-reference for database s.
    """
    t = [0] * (N + 1)
    per_db = [[] for _ in range(S)]
    pickers = [[_ReusePicker() for _ in range(N + 1)] for _ in range(S + 1)]

    def bump(s, u, pos, delta):
        pickers[s][u].bump(pos, delta)

    def pick_old(s, u, limit):
        return pickers[s][u].pick(limit)

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
            block = []
            for i in range(1, N + 1):
                for _ in range(quotas[i - 1]):
                    idx = next((n_ for n_, U in enumerate(pool) if i in U), None)
                    if idx is not None:
                        U = pool.pop(idx)
                        t[i] += 1
                        olds = []
                        for u in U:
                            if u == i:
                                continue
                            pos = pick_old(s, u, T[u])
                            bump(s, u, pos, +1)
                            olds.append((u, pos))
                        bump(s, i, t[i], +1)
                        block.append(
                            _DraftQuery(db=s, k=k, type_set=U, fresh_file=i,
                                        fresh_pos=t[i], old_picks=olds)
                        )
                    else:
                        # No remaining type contains i: hand i's fresh slot to
                        # an earlier query of this block that references i, and
                        # emit the leftover type using that query's fresh
                        # reference instead.
                        chosen = None
                        for n_, U in enumerate(pool):
                            for r in block:
                                if (
                                    i in r.type_set
                                    and r.fresh_file != i
                                    and r.fresh_file in U
                                ):
                                    chosen = (n_, U, r)
                                    break
                            if chosen:
                                break
                        if chosen is None:
                            raise InfeasibleSwapError(
                                f"no rebalancing swap for file {i} at db {s}, k={k}"
                            )
                        n_, U, r = chosen
                        pool.pop(n_)
                        v1 = r.fresh_file
                        olds = []
                        for u in U:
                            if u == v1:
                                continue
                            pos = pick_old(s, u, T[u])
                            bump(s, u, pos, +1)
                            olds.append((u, pos))
                        bump(s, v1, r.fresh_pos, +1)
                        block.append(
                            _DraftQuery(db=s, k=k, type_set=U, fresh_file=v1,
                                        fresh_pos=r.fresh_pos, old_picks=olds)
                        )
                        # donor: old i-reference becomes the fresh one, its
                        # fresh v1-reference downgrades to an old pick
                        old_i = next(p for p in r.old_picks if p[0] == i)
                        r.old_picks.remove(old_i)
                        bump(s, i, old_i[1], -1)
                        bump(s, v1, r.fresh_pos, -1)
                        t[i] += 1
                        bump(s, i, t[i], +1)
                        vpos = pick_old(s, v1, T[v1])
                        bump(s, v1, vpos, +1)
                        r.old_picks.append((v1, vpos))
                        r.fresh_file = i
                        r.fresh_pos = t[i]
            assert not pool, (S, N, s, k)
            per_db[s - 1].extend(block)
    frozen = [
        [
            SlotQuery(db=q.db, k=q.k, type_set=q.type_set, fresh_file=q.fresh_file,
                      fresh_pos=q.fresh_pos, old_picks=tuple(sorted(q.old_picks)))
            for q in db_list
        ]
        for db_list in per_db
    ]
    return frozen, t


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
    return tuple(tuple(db) for db in per_db)


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
    return tuple(tuple(db) for db in per_db)


@dataclass(frozen=True)
class OmegaSpec:
    """For each file, the two subfile slots whose XOR difference is queried."""

    pairs: tuple  # tuple of (file, j1, j2), one per file, j1 != j2

    def __post_init__(self):
        for _, j1, j2 in self.pairs:
            if j1 == j2:
                raise DemandError(f"omega pair with identical subfiles: {j1}")

    def for_file(self, i: int) -> tuple:
        for f, j1, j2 in self.pairs:
            if f == i:
                return j1, j2
        raise KeyError(i)


def materialize(records, perms: dict, subfiles) -> list:
    """Per-database query lists of one generator block.

    Each record reference (file, pos) becomes subsubfile perms[file](pos) at
    every subfile slot in subfiles(file): one slot for alg1 and qset1, the
    file's omega pair for qset2.
    """
    slots = {f: subfiles(f) for f in perms}
    out = []
    for db_list in records:
        row = []
        for rec in db_list:
            atoms = [QueryAtom(f, j, perms[f](pos)) for f, pos in rec.refs for j in slots[f]]
            row.append(Query(tuple(sorted(atoms))))
        out.append(row)
    return out


def qset1(j: int, perms: dict, d: int, S: int, N: int) -> list:
    """Per-database query lists for the subfile slot j under demand d."""
    return materialize(qset1_schedule(S, N, d), perms, lambda f: (j,))


def qset2(omega: OmegaSpec, perms: dict, S: int, N: int) -> list:
    """Per-database query lists recovering every paired difference value."""
    return materialize(qset2_schedule(S, N), perms, omega.for_file)


@dataclass(frozen=True)
class CacheContent:
    """One user's cache: XOR lines over all files of its subfile slot."""

    owner: int
    subfile: int
    block_bytes: int
    lines: dict  # t -> Block

    @property
    def bits(self) -> int:
        return len(self.lines) * self.block_bytes * 8


def placement(store: FileStore, P: Permutation):
    """Broadcast all cache lines, then assign user u the lines of slot p_u.

    Returns (broadcast, caches): the broadcast is the full line list (what a
    database actually transmits); caches maps user -> CacheContent.
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
    caches = {
        u: CacheContent(owner=u, subfile=P(u), block_bytes=store.block_bytes,
                        lines=dict(lines_by_subfile[P(u)]))
        for u in range(1, K + 1)
    }
    return broadcast, caches


def choose_base_and_rho(demands, N: int, K: int, rng: random.Random):
    """Pick the base set (lowest-index user per file) and, for every other
    user, a file-to-base-user alignment matching demands only on the user's
    own demanded file.

    For N >= 3 the alignment avoiding every other demand match always exists
    and is sampled uniformly among the valid options.  For N = 2 no such
    alignment exists, so both files align with the user's demand twin; this
    keeps every user decodable at the cost of revealing which base slot the
    twin occupies.
    """
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
        dc = demands[c - 1]
        rest_files = [i for i in range(1, N + 1) if i != dc]
        rest_users = [b for b in base if b != twin[dc]]
        options = []
        for perm in permutations(rest_users):
            if all(demands[b - 1] != i for i, b in zip(rest_files, perm)):
                options.append(perm)
        if options:
            pick = options[rng.randrange(len(options))] if len(options) > 1 else options[0]
            assignment = {dc: twin[dc]}
            assignment.update(dict(zip(rest_files, pick)))
        else:
            assert N == 2  # derangement of one element cannot exist
            assignment = {i: twin[dc] for i in range(1, N + 1)}
        rho[c] = assignment
    return base, rho


@dataclass
class SessionTranscript:
    """Everything needed to replay a session and to decode it.

    Replaying with the recorded randomness, in a bundle's emission order,
    regenerates that bundle bit-identically; the per-slot records double as
    the decode plan (each query names the reference it freshly resolves and
    the already-known ones it reuses).  A single-user session is one alg1
    block of user 1 with K = 1.
    """

    S: int
    N: int
    K: int
    seed: object
    demand: tuple
    user_slots: tuple                 # p_1..p_K (slot of each user)
    base_set: Optional[tuple]
    rho: Optional[dict]
    perms: dict                       # user -> {file -> Permutation}
    records: dict                     # user -> per-db tuple of SlotQuery or PirQuery
    slots: dict                       # user -> SlotInfo
    H: int

    def record_keys(self, db0: int) -> list:
        """(user, local index) of every record for database db0 + 1, in user
        then schedule order."""
        return [(user, local) for user in sorted(self.records)
                for local in range(len(self.records[user][db0]))]


def replay_bundle(transcript: SessionTranscript, emission) -> QueryBundle:
    """Regenerate the bundle bit-identically from the recorded randomness,
    with each database's queries in `emission` order ((user, local) pairs)."""
    queries = {
        user: materialize(records, transcript.perms[user], transcript.slots[user].subfiles)
        for user, records in transcript.records.items()
    }
    per_db = [[queries[user][db0][local] for user, local in order]
              for db0, order in enumerate(emission)]
    return QueryBundle(S=transcript.S, per_db=per_db, emission=[list(o) for o in emission],
                       slots=dict(transcript.slots))


def assemble_bundle(transcript: SessionTranscript, shuffle_rng=None) -> QueryBundle:
    """The session's bundle: every user's records in user order, each
    database's list then shuffled by shuffle_rng (when given)."""
    emission = []
    for db0 in range(transcript.S):
        order = transcript.record_keys(db0)
        if shuffle_rng is not None:
            shuffle_rng.shuffle(order)
        emission.append(order)
    return replay_bundle(transcript, emission)


def _check_tail_constraint(perm: Permutation, H: int, user: int, file: int):
    if not perm.tail_fixed_from(H):
        raise DemandError(
            f"permutation for user {user}, file {file} must fix positions > {H}"
        )


def generate_alg2(S, N, K, demands, P: Permutation, user_perms, shuffle_rng=None, seed=None):
    """All-distinct-demands session: one qset1 block per user."""
    demands = validate_demands(demands, N, K)
    if N != K:
        raise RegimeError(f"this generator requires N=K, got N={N}, K={K}")
    H = h_value(S, N)
    slots, records = {}, {}
    for c in range(1, K + 1):
        d = demands[c - 1]
        _check_tail_constraint(user_perms[c][d], H, c, d)
        slots[c] = SlotInfo(user=c, kind="qset1", subfile=P(c), demand=d)
        records[c] = qset1_schedule(S, N, d)
    transcript = SessionTranscript(
        S=S, N=N, K=K, seed=seed, demand=demands,
        user_slots=tuple(P(u) for u in range(1, K + 1)), base_set=None, rho=None,
        perms=user_perms, records=records, slots=slots, H=H,
    )
    return assemble_bundle(transcript, shuffle_rng), transcript


def generate_alg3(S, N, K, demands, P: Permutation, base, rho, user_perms,
                  shuffle_rng=None, seed=None):
    """Covering-demands session: qset1 for base users, qset2 for the rest."""
    demands = validate_demands(demands, N, K)
    if N == K:
        raise RegimeError("N=K sessions are generated by generate_alg2")
    H = h_value(S, N)
    base = tuple(sorted(base))
    if len(base) != N or {demands[b - 1] for b in base} != set(range(1, N + 1)):
        raise DemandError(f"base set {base} does not cover all files exactly once")
    slots, records = {}, {}
    for c in base:
        d = demands[c - 1]
        _check_tail_constraint(user_perms[c][d], H, c, d)
        slots[c] = SlotInfo(user=c, kind="qset1", subfile=P(c), demand=d)
        records[c] = qset1_schedule(S, N, d)
    for c in range(1, K + 1):
        if c in base:
            continue
        align = rho[c]
        dc = demands[c - 1]
        if align[dc] not in base or demands[align[dc] - 1] != dc:
            raise DemandError(f"rho for user {c} must pair its demand with a base twin")
        omega = OmegaSpec(
            pairs=tuple((i, P(align[i]), P(c)) for i in range(1, N + 1))
        )
        slots[c] = SlotInfo(user=c, kind="qset2", subfile=P(c), omega_pairs=omega.pairs)
        records[c] = qset2_schedule(S, N)
    transcript = SessionTranscript(
        S=S, N=N, K=K, seed=seed, demand=demands,
        user_slots=tuple(P(u) for u in range(1, K + 1)), base_set=base, rho=rho,
        perms=user_perms, records=records, slots=slots, H=H,
    )
    return assemble_bundle(transcript, shuffle_rng), transcript


def resolve_symbols(transcript: SessionTranscript, bundle: QueryBundle, answers) -> dict:
    """Peel every per-slot reference value out of the answer blocks.

    Keys: ("w", file, subfile, x) for direct subsubfile values exposed by
    qset1 blocks, ("om", user, file, x) for paired-difference values.
    """
    index = bundle.answer_index()
    values = {}

    def sym_for(user, info, file, pos):
        x = transcript.perms[user][file](pos)
        if info.kind == "qset1":
            return ("w", file, info.subfile, x)
        return ("om", user, file, x)

    for k in range(1, transcript.N + 1):
        for user in sorted(transcript.records):
            info = transcript.slots[user]
            for db0, db_list in enumerate(transcript.records[user]):
                for local, rec in enumerate(db_list):
                    if rec.k != k:
                        continue
                    dbi, pos = index[(user, db0, local)]
                    acc = answers[dbi][pos]
                    try:
                        for u, p in rec.old_picks:
                            acc ^= values[sym_for(user, info, u, p)]
                    except KeyError as exc:
                        raise UnresolvablePlanError(
                            f"old reference {exc} not resolved before use"
                        ) from exc
                    key = sym_for(user, info, rec.fresh_file, rec.fresh_pos)
                    assert key not in values, key
                    values[key] = acc
    return values


def decode_user(user, transcript: SessionTranscript, bundle: QueryBundle, answers,
                cache: CacheContent, symbols=None, run_oracle=True, system=None) -> dict:
    """Recover every subsubfile of the user's demanded file.

    Returns {(subfile j, x): block}.  A GF(2) solver over (answers + this
    user's cache lines) independently re-derives every block and must agree.
    `system` is the session's AnswerSystem, shared by all users so that the
    answers are reduced once; one is made here when none is given.
    """
    if symbols is None:
        symbols = resolve_symbols(transcript, bundle, answers)
    N, K, S = transcript.N, transcript.K, transcript.S
    sub = S ** (N - 1)
    H = transcript.H
    d = transcript.demand[user - 1]
    slot_of = {u: transcript.user_slots[u - 1] for u in range(1, K + 1)}
    base = transcript.base_set if transcript.base_set is not None else tuple(range(1, K + 1))
    out = {}
    try:
        # 1. slots generated with qset1: full non-demand exposure, H for demand
        for c in base:
            dc = transcript.demand[c - 1]
            j = slot_of[c]
            upto = sub if dc != d else H
            for x in range(1, upto + 1):
                out[(j, x)] = symbols[("w", d, j, x)]
        # 2. own-slot tail via cache lines
        ju = slot_of[user]
        own_rest = {}
        for i in range(1, N + 1):
            if i == d:
                continue
            for tt in range(H + 1, sub + 1):
                if user in base:
                    own_rest[(i, tt)] = symbols[("w", i, ju, tt)]
                else:
                    ref = slot_of[transcript.rho[user][i]]
                    own_rest[(i, tt)] = (symbols[("om", user, i, tt)]
                                         ^ symbols[("w", i, ref, tt)])
        for tt in range(H + 1, sub + 1):
            acc = cache.lines[tt]
            for i in range(1, N + 1):
                if i != d:
                    acc ^= own_rest[(i, tt)]
            out[(ju, tt)] = acc
        # 3. split own paired difference against the demand twin's slot
        if user not in base:
            twin = min(b for b in base if transcript.demand[b - 1] == d)
            jt = slot_of[twin]
            for x in range(1, H + 1):
                out[(ju, x)] = symbols[("om", user, d, x)] ^ out[(jt, x)]
            for x in range(H + 1, sub + 1):
                out[(jt, x)] = symbols[("om", user, d, x)] ^ out[(ju, x)]
        # 4. remaining slots via their paired differences
        for v in range(1, K + 1):
            if v in base or v == user:
                continue
            ref = slot_of[transcript.rho[v][d]]
            jv = slot_of[v]
            for x in range(1, sub + 1):
                out[(jv, x)] = symbols[("om", v, d, x)] ^ out[(ref, x)]
    except KeyError as exc:
        raise UnresolvablePlanError(f"peeling plan missing value for {exc}") from exc
    assert len(out) == K * sub
    if run_oracle:
        if system is None:
            system = AnswerSystem(bundle, answers, K, sub)
        targets = [(d, j, x) for j in range(1, K + 1) for x in range(1, sub + 1)]
        cache_rows = []
        for tt, line in cache.lines.items():
            mask = 0
            for i in range(1, N + 1):
                mask |= 1 << system.column(i, cache.subfile, tt)
            cache_rows.append((mask, line))
        for (i, j, x), val in system.solve(targets, cache_rows):
            if out[(j, x)] != val:
                raise UnresolvablePlanError(
                    f"peeling and GF(2) oracle disagree at ({i},{j},{x})"
                )
    return out
