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
from itertools import combinations, permutations, product
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
    replay_bundle,
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


def _peel_closure(sym_sets):
    """Fixpoint of: a query with exactly one unknown reference resolves it."""
    exposed = set()
    pending = [set(s) for s in sym_sets]
    changed = True
    while changed:
        changed = False
        for syms in pending:
            unknown = syms - exposed
            if len(unknown) == 1:
                exposed.add(unknown.pop())
                changed = True
    unresolved = sum(1 for syms in pending if syms - exposed)
    return exposed, unresolved


def _check_counts(user, per_db, info, S, N, reps, failures, tables, refs):
    """Per database: every reference (file, subsub) touches exactly its
    block's subfile slots, no sum repeats a file, and each k-subset type and
    each file occur as often as `reps` prescribes.  Returns each query's
    set of references."""
    want_slots = {i: sorted(info.subfiles(i)) for i in range(1, N + 1)}
    types = Counter()
    sym_sets = []
    for db0, queries in enumerate(per_db):
        per_file = Counter()
        for q in queries:
            groups = {}
            for a in q.atoms:
                groups.setdefault((a.file, a.subsub), []).append(a.subfile)
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
            sym_sets.append(set(groups))
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
    return sym_sets


def _check_alg1_sources(per_db, d, S, N, failures):
    """Single-user peeling: no reference repeats within a database, each
    demand sum's rest is sent whole by another database, and every demand
    subsubfile is resolved exactly once."""
    canon_by_db = [{q.canonical() for q in queries} for queries in per_db]
    demand_subs = Counter()
    for db0, queries in enumerate(per_db):
        seen = set()
        for q in queries:
            for a in q.atoms:
                if a in seen:
                    failures.append(f"db {db0 + 1}: reference {a} appears twice")
                seen.add(a)
            dem = [a for a in q.atoms if a.file == d]
            if len(dem) > 1:
                failures.append(f"db {db0 + 1}: sum with two demand references")
                continue
            if dem:
                demand_subs[dem[0].subsub] += 1
                rest = tuple(sorted((a.file, a.subfile, a.subsub)
                                    for a in q.atoms if a.file != d))
                if rest and not any(rest in canon_by_db[o]
                                    for o in range(S) if o != db0):
                    failures.append(
                        f"db {db0 + 1}: demand sum has no matching source elsewhere: {rest}"
                    )
    if N == 1:
        return
    if demand_subs != Counter({x: 1 for x in range(1, S ** (N - 1) + 1)}):
        failures.append("demand subsubfile coverage is not one-of-each")


def _check_peel_exposure(user, sym_sets, S, N, demand, failures):
    """Multi-user peeling: every sum resolves by one-unknown steps, exposing
    every subsubfile of each file except `demand` (a qset1 block's demanded
    file, or None), of which only the first H are exposed."""
    exposed, unresolved = _peel_closure(sym_sets)
    if unresolved:
        failures.append(f"user {user}: {unresolved} sums cannot be peeled")
    for i in range(1, N + 1):
        got = {x for (f, x) in exposed if f == i}
        want = set(range(1, (h_value(S, N) if i == demand else S ** (N - 1)) + 1))
        if got != want:
            failures.append(
                f"user {user}: file {i} exposes {sorted(got)}, expected {sorted(want)}"
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
        sym_sets = _check_counts(user, per_db, info, S, N, reps, failures, tables, refs)
        if kind == "alg1":
            _check_alg1_sources(per_db, info.demand, S, N, failures)
        else:
            _check_peel_exposure(user, sym_sets, S, N, info.demand, failures)
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

    def perm_options(demand, constrained):
        opts = []
        for i in range(1, N + 1):
            opts.append(tails if (constrained and i == demand) else free)
        return opts

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
            for P in permutations(range(1, K + 1)):
                puser = Permutation(tuple(P))
                per_user = [
                    list(product(*perm_options(theta[c - 1], True)))
                    for c in range(1, K + 1)
                ]
                for assign in product(*per_user):
                    perms = {
                        c: {i: assign[c - 1][i - 1] for i in range(1, N + 1)}
                        for c in range(1, K + 1)
                    }
                    bundle, _ = generate_alg2(S, N, K, theta, puser, perms)
                    key = canonical_form(bundle)
                    for s in range(S):
                        counters[s][key[s]] += 1
                    total += 1
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

    def rho_options(theta, bset, c):
        dc = theta[c - 1]
        twin = next(b for b in bset if theta[b - 1] == dc)
        rest_files = [i for i in range(1, N + 1) if i != dc]
        rest_users = [b for b in bset if b != twin]
        opts = []
        for perm in permutations(rest_users):
            if all(theta[b - 1] != i for i, b in zip(rest_files, perm)):
                rho = {dc: twin}
                rho.update(dict(zip(rest_files, perm)))
                opts.append(rho)
        if not opts:
            opts = [{i: twin for i in range(1, N + 1)}]
        return opts

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
            for P in permutations(range(1, K + 1)):
                puser = Permutation(tuple(P))
                rho_lists = {
                    c: rho_options(theta, bset, c)
                    for c in range(1, K + 1) if c not in bset
                }
                nonbase = sorted(rho_lists)
                per_user = [
                    list(product(*perm_options(theta[c - 1], c in bset)))
                    for c in range(1, K + 1)
                ]
                for rho_pick in product(*(rho_lists[c] for c in nonbase)):
                    rho = dict(zip(nonbase, rho_pick))
                    for assign in product(*per_user):
                        perms = {
                            c: {i: assign[c - 1][i - 1] for i in range(1, N + 1)}
                            for c in range(1, K + 1)
                        }
                        bundle, _ = generate_alg3(S, N, K, theta, puser, bset,
                                                  rho, perms)
                        key = canonical_form(bundle)
                        for s in range(S):
                            counters[s][key[s]] += 1
        norm = sum(counters[0].values())
        dists[theta] = [
            Counter({k: Fraction(v, norm) for k, v in c.items()}) for c in counters
        ]
    equal, mismatch = _compare_distributions(dists, S)
    return OracleReport(equal=equal, scheme="mupir", assignments=total_assignments,
                        mismatch=mismatch, distributions=dists)
