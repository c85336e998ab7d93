"""Machine-checkable structural symmetry audits and privacy oracles.

`check_structure` verifies the per-database counting contract of every
generator block against the closed-form repetition counts, plus peelability
of the whole block.  `demand_distribution_oracle` exhaustively enumerates all
session randomness on tiny instances and compares the exact per-database
distribution of canonical query keys across demand vectors.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, permutations, product
from math import comb, factorial

from .core import (
    Permutation,
    Query,
    QueryAtom,
    QueryBundle,
    canonical_form,
)
from .errors import TooLargeInstanceError
from .params import h_value, phi, psi
from .protocol import (
    SessionTranscript,
    generate_alg2,
    generate_alg3,
    materialize,
    replay_bundle,
    rho_options,
)
from .single_user import generate_alg1


@dataclass
class AuditReport:
    """Recorded symmetry tables plus a verdict derivable from them alone."""

    ok: bool
    failures: list
    type_tables: dict      # (user, db, fileset) -> count
    file_refs: dict        # (user, db, file) -> reference count
    total_queries: int
    per_db_counts: tuple


def count_rate(bundle: QueryBundle, S: int, N: int, K: int) -> Fraction:
    """Measured rate: answer blocks downloaded over blocks per file."""
    return Fraction(bundle.total_queries(), K * S ** (N - 1))


# Copies of each k-subset type at database s, per generator kind.  File i
# is then referenced sum_k C(N-1, k-1) * reps(s, k) times at database s.
_REPS = {
    "alg1": lambda S, N, s, k: phi(s, S, k),
    "qset1": lambda S, N, s, k: psi(s, S, N, k),
    "qset2": lambda S, N, s, k: k * phi(s, S, k),
}


def _slot_queries(bundle: QueryBundle):
    """Group queries by originating generator block, preserving order."""
    by_user = {}
    for db0, (queries, order) in enumerate(zip(bundle.per_db, bundle.emission)):
        for q, (user, _) in zip(queries, order):
            by_user.setdefault(user, [[] for _ in range(bundle.S)])[db0].append(q)
    return by_user


def _peel_closure(sums):
    """References resolvable from the sums, (db, frozenset of references).

    Source rule, applied once: a sum resolves a reference whose removal
    leaves a sum sent whole by another database.  Then, to a fixpoint: a
    sum with exactly one unknown reference resolves it.  Returns (exposed,
    the unknown references of each sum left unresolved).
    """
    sent = {}  # sum -> the database sending it, or -1 when several do
    for db, refs in sums:
        sent[refs] = db if sent.get(refs, db) == db else -1
    exposed = {r for db, refs in sums for r in refs if sent.get(refs - {r}, db) != db}
    pending = [refs for _, refs in sums]
    changed = True
    while changed:
        changed = False
        rest = []
        for unknown in pending:
            unknown = unknown - exposed
            if len(unknown) == 1:
                exposed |= unknown
                changed = True
            elif unknown:
                rest.append(unknown)
        pending = rest
    return exposed, pending


def _check_counts(user, per_db, info, S, N, reps, failures, tables, refs):
    """Per database: every reference (file, subsub) touches exactly its
    block's subfile slots, no sum repeats a file, and each k-subset type and
    each file occur as often as `reps` prescribes.  Returns each query's
    (database, frozenset of references)."""
    want_slots = {i: sorted(info.subfiles(i)) for i in range(1, N + 1)}
    types = Counter()
    sums = []
    for db0, queries in enumerate(per_db):
        per_file = Counter()
        for q in queries:
            groups = {}
            for f, j, x in q.atoms:
                groups.setdefault((f, x), []).append(j)
            for (f, _), subfiles in groups.items():
                if sorted(subfiles) != want_slots.get(f):
                    failures.append(
                        f"user {user} db {db0 + 1}: reference to file {f} "
                        f"uses slots {sorted(subfiles)}"
                    )
            files = [f for f, _ in groups]
            if len(set(files)) != len(files):
                failures.append(f"user {user} db {db0 + 1}: repeated file within one sum")
            per_file.update(files)
            types[(db0 + 1, tuple(sorted(set(files))))] += 1
            sums.append((db0, frozenset(groups)))
        for i in range(1, N + 1):
            want = sum(comb(N - 1, k - 1) * reps(db0 + 1, k) for k in range(1, N + 1))
            refs[(user, db0 + 1, i)] = per_file[i]
            if per_file[i] != want:
                failures.append(
                    f"user {user} db {db0 + 1}: file {i} referenced "
                    f"{per_file[i]} times, expected {want}"
                )
    for k in range(1, N + 1):
        for s in range(1, S + 1):
            for fileset in combinations(range(1, N + 1), k):
                have = types.pop((s, fileset), 0)
                tables[(user, s, fileset)] = have
                if have != reps(s, k):
                    failures.append(
                        f"user {user}: db {s} holds {have} sums of type {fileset}, "
                        f"expected {reps(s, k)}"
                    )
    for key in types:
        failures.append(f"user {user}: unexpected sum type at {key}")
    return sums


def _check_no_repeats(user, sums, failures):
    """Single-user privacy: no reference repeats within a database."""
    by_db = {}
    for db0, refs in sums:
        by_db.setdefault(db0, []).extend(refs)
    for db0, refs in sorted(by_db.items()):
        failures.extend(f"user {user} db {db0 + 1}: reference {r} appears {n} times"
                        for r, n in Counter(refs).items() if n > 1)


def _wanted_exposure(info, S, N) -> dict:
    """file -> subsubfiles a block's peeling must expose: every subsubfile
    of the demand for alg1, every one but the demand's tail (past H) for
    qset1, every one of every file for qset2."""
    sub = S ** (N - 1)
    if info.kind == "alg1":
        return {info.demand: set(range(1, sub + 1))}
    return {i: set(range(1, (h_value(S, N) if i == info.demand else sub) + 1))
            for i in range(1, N + 1)}


def _check_peel_exposure(user, sums, want, failures):
    """Peeling: every sum with a reference to a file of `want` resolves it,
    and each such file exposes exactly its wanted subsubfiles."""
    exposed, unknowns = _peel_closure(sums)
    unresolved = sum(1 for unknown in unknowns if any(f in want for f, _ in unknown))
    if unresolved:
        failures.append(f"user {user}: {unresolved} sums cannot be peeled")
    for i, wanted in sorted(want.items()):
        got = {x for (f, x) in exposed if f == i}
        if got != wanted:
            failures.append(
                f"user {user}: file {i} exposes {sorted(got)}, expected {sorted(wanted)}"
            )


def check_structure(bundle: QueryBundle, S: int, N: int) -> AuditReport:
    """Verify repetition tables, no-repeat/pairing rules and peelability,
    each generator block against the tables for its own kind."""
    failures, tables, refs = [], {}, {}
    for user, per_db in sorted(_slot_queries(bundle).items()):
        info = bundle.slots.get(user)
        kind = info.kind if info else None
        if kind not in _REPS:
            failures.append(f"user {user}: unknown generator kind {kind!r}")
            continue
        reps = partial(_REPS[kind], S, N)
        sums = _check_counts(user, per_db, info, S, N, reps, failures, tables, refs)
        if kind == "alg1":
            _check_no_repeats(user, sums, failures)
        _check_peel_exposure(user, sums, _wanted_exposure(info, S, N), failures)
    return AuditReport(
        ok=not failures,
        failures=failures,
        type_tables=tables,
        file_refs=refs,
        total_queries=bundle.total_queries(),
        per_db_counts=bundle.counts(),
    )


def verify_replay(bundle: QueryBundle, transcript: SessionTranscript) -> bool:
    """True iff each database's emission order names every record of the
    transcript exactly once and each query equals its record's replay."""
    if len(bundle.emission) != transcript.S:
        return False
    for db0, order in enumerate(bundle.emission):
        if sorted(order) != transcript.record_keys(db0):
            return False
    return replay_bundle(transcript, bundle.emission).per_db == bundle.per_db


def mutate_bundle(bundle: QueryBundle, rng: random.Random, sub: int):
    """Apply one random drop / duplicate / atom-swap; returns (bundle', op)."""
    per_db = [list(q) for q in bundle.per_db]
    emission = [list(o) for o in bundle.emission]
    op = rng.choice(["drop", "duplicate", "swap"])
    db0 = rng.randrange(len(per_db))
    while not per_db[db0]:
        db0 = rng.randrange(len(per_db))
    pos = rng.randrange(len(per_db[db0]))
    if op == "drop":
        per_db[db0].pop(pos)
        emission[db0].pop(pos)
    elif op == "duplicate":
        per_db[db0].append(per_db[db0][pos])
        emission[db0].append(emission[db0][pos])
    else:
        q = per_db[db0][pos]
        ai = rng.randrange(len(q.atoms))
        atom = q.atoms[ai]
        new_sub = rng.randrange(1, sub)
        if new_sub >= atom.subsub:
            new_sub += 1
        atoms = list(q.atoms)
        atoms[ai] = QueryAtom(atom.file, atom.subfile, new_sub)
        per_db[db0][pos] = Query(tuple(sorted(atoms)))
    mutated = QueryBundle(S=bundle.S, per_db=per_db, emission=emission,
                          slots=dict(bundle.slots))
    return mutated, op


@dataclass
class OracleReport:
    """Outcome of an exhaustive distribution-equality enumeration."""

    equal: bool
    scheme: str
    assignments: int
    mismatch: str = None
    distributions: dict = field(default_factory=dict)  # demand -> per-db Counter


def _all_perms(n):
    return [Permutation(p) for p in permutations(range(1, n + 1))]


def _tail_perms(n, H):
    tail = tuple(range(H + 1, n + 1))
    return [Permutation(tuple(head) + tail) for head in permutations(range(1, H + 1))]


def _compare_distributions(dists, S):
    demands = sorted(dists)
    ref = dists[demands[0]]
    for d in demands[1:]:
        for s in range(S):
            if dists[d][s] != ref[s]:
                return False, f"database {s + 1}: demand {demands[0]} vs {d} differ"
    return True, None


def _count_branch(generate, per_user, counters) -> int:
    """Count one branch's assignments into the per-database key counters.

    A branch fixes everything but the users' per-file permutations
    (`per_user[c - 1]` lists user c's options), and a user's queries depend
    only on its own permutations.  So each user's per-database canonical
    lists are materialised once per option, and an assignment's key at a
    database is the sorted union of its users' lists: the per-database
    multiset `canonical_form` takes.  `generate(perms)` runs once, on the
    first assignment, for its validation and its records; the bundle it
    returns cross-checks that assignment's factored key.  Returns the
    number of assignments counted.
    """
    first = {c: dict(enumerate(opts[0], start=1)) for c, opts in enumerate(per_user, start=1)}
    bundle, transcript = generate(first)
    views = []
    for c, opts in enumerate(per_user, start=1):
        records, subfiles = transcript.records[c], transcript.slots[c].subfiles
        views.append([
            [sorted(q.canonical() for q in queries)
             for queries in materialize(records, dict(enumerate(opt, start=1)), subfiles)]
            for opt in opts
        ])
    dbs = range(len(counters))
    count = 0
    for combo in product(*views):
        key = tuple(tuple(sorted(chain.from_iterable(view[s] for view in combo)))
                    for s in dbs)
        if count == 0 and key != canonical_form(bundle):
            raise RuntimeError(
                f"factored oracle key differs from the generated bundle's "
                f"(demand {transcript.demand}, slots {transcript.user_slots})"
            )
        for s in dbs:
            counters[s][key[s]] += 1
        count += 1
    return count


def demand_distribution_oracle(S: int, N: int, K: int = None, scheme: str = "single",
                               guard: int = 10_000_000) -> OracleReport:
    """Enumerate all admissible randomness and compare, per database, the
    exact distribution of canonical query keys across demand vectors."""
    sub = S ** (N - 1)
    if scheme == "single":
        per_d = factorial(sub) ** N
        if per_d * N > guard:
            raise TooLargeInstanceError(
                f"single oracle needs {per_d * N} assignments (> {guard})"
            )
        all_p = _all_perms(sub)
        dists = {}
        for d in range(1, N + 1):
            counters = [Counter() for _ in range(S)]
            for combo in product(all_p, repeat=N):
                perms = {i: combo[i - 1] for i in range(1, N + 1)}
                bundle, _ = generate_alg1(S, N, perms, d)
                key = canonical_form(bundle)
                for s in range(S):
                    counters[s][key[s]] += 1
            dists[d] = counters
        equal, mismatch = _compare_distributions(dists, S)
        return OracleReport(equal=equal, scheme="single", assignments=per_d * N,
                            mismatch=mismatch, distributions=dists)

    if scheme != "mupir":
        raise ValueError(f"unknown scheme {scheme!r}")
    if K is None:
        raise ValueError("mupir oracle needs K")
    H = h_value(S, N)
    free = _all_perms(sub)
    tails = _tail_perms(sub, H)

    def perm_options(theta, c, constrained):
        """Every per-file permutation tuple user c may draw."""
        return list(product(*(tails if constrained and i == theta[c - 1] else free
                              for i in range(1, N + 1))))

    if N == K:
        thetas = list(permutations(range(1, N + 1)))
        per_theta = factorial(K) * (factorial(H) * factorial(sub) ** (N - 1)) ** K
        if per_theta * len(thetas) > guard:
            raise TooLargeInstanceError(
                f"mupir oracle needs {per_theta * len(thetas)} assignments (> {guard})"
            )
        dists, total = {}, 0
        for theta in thetas:
            counters = [Counter() for _ in range(S)]
            per_user = [perm_options(theta, c, True) for c in range(1, K + 1)]
            for P in permutations(range(1, K + 1)):
                generate = partial(generate_alg2, S, N, K, theta, Permutation(P))
                total += _count_branch(generate, per_user, counters)
            dists[theta] = counters
        equal, mismatch = _compare_distributions(dists, S)
        return OracleReport(equal=equal, scheme="mupir", assignments=total,
                            mismatch=mismatch, distributions=dists)

    # N < K: branch over base sets and demand alignments as well
    thetas = [t for t in product(range(1, N + 1), repeat=K)
              if set(t) == set(range(1, N + 1))]

    def valid_bases(theta):
        out = []
        for bset in combinations(range(1, K + 1), N):
            if {theta[b - 1] for b in bset} == set(range(1, N + 1)):
                out.append(bset)
        return out

    # exact count before enumerating
    total_assignments = 0
    for theta in thetas:
        for bset in valid_bases(theta):
            branch = factorial(K)
            for c in range(1, K + 1):
                if c in bset:
                    branch *= factorial(H) * factorial(sub) ** (N - 1)
                else:
                    branch *= len(rho_options(theta, bset, c)) * factorial(sub) ** N
            total_assignments += branch
    if total_assignments > guard:
        raise TooLargeInstanceError(
            f"mupir oracle needs {total_assignments} assignments (> {guard})"
        )
    dists = {}
    for theta in thetas:
        counters = [Counter() for _ in range(S)]
        for bset in valid_bases(theta):
            per_user = [perm_options(theta, c, c in bset) for c in range(1, K + 1)]
            nonbase = [c for c in range(1, K + 1) if c not in bset]
            rho_lists = [rho_options(theta, bset, c) for c in nonbase]
            for P in permutations(range(1, K + 1)):
                puser = Permutation(P)
                for rho_pick in product(*rho_lists):
                    rho = dict(zip(nonbase, rho_pick))
                    generate = partial(generate_alg3, S, N, K, theta, puser, bset, rho)
                    _count_branch(generate, per_user, counters)
        norm = sum(counters[0].values())
        dists[theta] = [
            Counter({k: Fraction(v, norm) for k, v in c.items()}) for c in counters
        ]
    equal, mismatch = _compare_distributions(dists, S)
    return OracleReport(equal=equal, scheme="mupir", assignments=total_assignments,
                        mismatch=mismatch, distributions=dists)
