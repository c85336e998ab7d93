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
from .single_user import generate_alg1, replay_alg1


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


def _slot_queries(bundle: QueryBundle):
    """Group queries by originating generator block, preserving order."""
    by_user = {}
    for db0, (queries, prov) in enumerate(zip(bundle.per_db, bundle.provenance)):
        for q, p in zip(queries, prov):
            by_user.setdefault(p.user, [[] for _ in range(bundle.S)])[db0].append(q)
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


def _expected_type_table(S, N, reps):
    table = {}
    for k in range(1, N + 1):
        for s in range(1, S + 1):
            r = reps(s, k)
            for fileset in combinations(range(1, N + 1), k):
                table[(s, fileset)] = r
    return table


def _check_type_counts(user, per_db, S, N, reps, failures, tables):
    expected = _expected_type_table(S, N, reps)
    got = Counter()
    for db0, queries in enumerate(per_db):
        for q in queries:
            files = tuple(sorted({a.file for a in q.atoms}))
            got[(db0 + 1, files)] += 1
    for key, want in expected.items():
        have = got.get(key, 0)
        tables[(user,) + key] = have
        if have != want:
            s, fileset = key
            failures.append(
                f"user {user}: db {s} holds {have} sums of type {fileset}, expected {want}"
            )
    for key in got:
        if key not in expected:
            failures.append(f"user {user}: unexpected sum type at {key}")


def _audit_alg1(user, per_db, d, S, N, failures, tables, refs):
    sub = S ** (N - 1)
    _check_type_counts(user, per_db, S, N, lambda s, k: phi(s, S, k), failures, tables)
    canon_by_db = []
    for db0, queries in enumerate(per_db):
        seen = set()
        per_file = Counter()
        for q in queries:
            if len({a.file for a in q.atoms}) != len(q.atoms):
                failures.append(f"db {db0 + 1}: repeated file within one sum")
            for a in q.atoms:
                if a in seen:
                    failures.append(f"db {db0 + 1}: reference {a} appears twice")
                seen.add(a)
                per_file[a.file] += 1
        for i in range(1, N + 1):
            want = sum(comb(N - 1, k - 1) * phi(db0 + 1, S, k) for k in range(1, N + 1))
            refs[(user, db0 + 1, i)] = per_file.get(i, 0)
            if per_file.get(i, 0) != want:
                failures.append(
                    f"db {db0 + 1}: file {i} referenced {per_file.get(i, 0)} times, expected {want}"
                )
        canon_by_db.append({q.canonical() for q in queries})
    demand_subs = Counter()
    for db0, queries in enumerate(per_db):
        for q in queries:
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
    if demand_subs != Counter({x: 1 for x in range(1, sub + 1)}):
        failures.append("demand subsubfile coverage is not one-of-each")


def _audit_qset1(user, per_db, j, d, S, N, failures, tables, refs):
    sub = S ** (N - 1)
    H = h_value(S, N)
    _check_type_counts(user, per_db, S, N, lambda s, k: psi(s, S, N, k), failures, tables)
    sym_sets = []
    for db0, queries in enumerate(per_db):
        per_file = Counter()
        for q in queries:
            if any(a.subfile != j for a in q.atoms):
                failures.append(f"user {user}: query touches a foreign subfile slot")
            if len({a.file for a in q.atoms}) != len(q.atoms):
                failures.append(f"user {user}: repeated file within one sum")
            for a in q.atoms:
                per_file[a.file] += 1
            sym_sets.append({(a.file, a.subsub) for a in q.atoms})
        for i in range(1, N + 1):
            want = sum(comb(N - 1, k - 1) * psi(db0 + 1, S, N, k) for k in range(1, N + 1))
            refs[(user, db0 + 1, i)] = per_file.get(i, 0)
            if per_file.get(i, 0) != want:
                failures.append(
                    f"user {user} db {db0 + 1}: file {i} referenced "
                    f"{per_file.get(i, 0)} times, expected {want}"
                )
    exposed, unresolved = _peel_closure(sym_sets)
    if unresolved:
        failures.append(f"user {user}: {unresolved} sums cannot be peeled")
    for i in range(1, N + 1):
        got = {x for (f, x) in exposed if f == i}
        want = set(range(1, H + 1)) if i == d else set(range(1, sub + 1))
        if got != want:
            failures.append(
                f"user {user}: file {i} exposes {sorted(got)}, expected {sorted(want)}"
            )


def _audit_qset2(user, per_db, omega_pairs, S, N, failures, tables, refs):
    sub = S ** (N - 1)
    pair_of = {f: (j1, j2) for f, j1, j2 in omega_pairs}
    sym_sets = []
    rebuilt = [[] for _ in range(S)]
    for db0, queries in enumerate(per_db):
        per_file = Counter()
        for q in queries:
            groups = {}
            for a in q.atoms:
                groups.setdefault((a.file, a.subsub), []).append(a.subfile)
            syms = set()
            bad = False
            for (f, x), subfiles in groups.items():
                if sorted(subfiles) != sorted(pair_of.get(f, ())):
                    failures.append(
                        f"user {user} db {db0 + 1}: reference pair for file {f} "
                        f"uses slots {sorted(subfiles)}"
                    )
                    bad = True
                syms.add((f, x))
                per_file[f] += 1
            if len({f for f, _ in syms}) != len(syms):
                failures.append(f"user {user}: repeated file among paired sums")
                bad = True
            if not bad:
                rebuilt[db0].append(
                    Query(tuple(QueryAtom(f, 1, x) for f, x in sorted(syms)))
                )
            sym_sets.append(syms)
        for i in range(1, N + 1):
            want = sum(comb(N - 1, k - 1) * k * phi(db0 + 1, S, k) for k in range(1, N + 1))
            refs[(user, db0 + 1, i)] = per_file.get(i, 0)
            if per_file.get(i, 0) != want:
                failures.append(
                    f"user {user} db {db0 + 1}: file {i} paired-referenced "
                    f"{per_file.get(i, 0)} times, expected {want}"
                )
    _check_type_counts(user, rebuilt, S, N, lambda s, k: k * phi(s, S, k),
                       failures, tables)
    exposed, unresolved = _peel_closure(sym_sets)
    if unresolved:
        failures.append(f"user {user}: {unresolved} paired sums cannot be peeled")
    for i in range(1, N + 1):
        got = {x for (f, x) in exposed if f == i}
        if got != set(range(1, sub + 1)):
            failures.append(f"user {user}: paired file {i} exposes only {len(got)} values")


def check_structure(bundle: QueryBundle, S: int, N: int, mode: str = None) -> AuditReport:
    """Verify repetition tables, no-repeat/pairing rules and peelability.

    mode overrides the per-slot kind recorded in the bundle (useful for
    hand-built bundles); normally each generator block is checked against
    the tables for its own kind.
    """
    failures, tables, refs = [], {}, {}
    by_user = _slot_queries(bundle)
    for user, per_db in sorted(by_user.items()):
        info = bundle.slots.get(user)
        kind = mode or (info.kind if info else None)
        if kind == "alg1":
            _audit_alg1(user, per_db, info.demand, S, N, failures, tables, refs)
        elif kind == "qset1":
            _audit_qset1(user, per_db, info.subfile, info.demand, S, N,
                         failures, tables, refs)
        elif kind == "qset2":
            _audit_qset2(user, per_db, info.omega_pairs, S, N, failures, tables, refs)
        else:
            failures.append(f"user {user}: unknown generator kind {kind!r}")
    return AuditReport(
        ok=not failures,
        failures=failures,
        type_tables=tables,
        file_refs=refs,
        total_queries=bundle.total_queries(),
        per_db_counts=bundle.counts(),
    )


def verify_replay(bundle: QueryBundle, transcript: SessionTranscript) -> bool:
    """True iff the bundle matches a bit-identical regeneration."""
    rebuilt = replay_alg1(transcript) if transcript.scheme == "single" else replay_bundle(transcript)
    return canonical_form(bundle) == canonical_form(rebuilt)


def mutate_bundle(bundle: QueryBundle, rng: random.Random, sub: int):
    """Apply one random drop / duplicate / atom-swap; returns (bundle', op)."""
    per_db = [list(q) for q in bundle.per_db]
    prov = [list(p) for p in bundle.provenance]
    op = rng.choice(["drop", "duplicate", "swap"])
    db0 = rng.randrange(len(per_db))
    while not per_db[db0]:
        db0 = rng.randrange(len(per_db))
    pos = rng.randrange(len(per_db[db0]))
    if op == "drop":
        per_db[db0].pop(pos)
        prov[db0].pop(pos)
    elif op == "duplicate":
        per_db[db0].append(per_db[db0][pos])
        prov[db0].append(prov[db0][pos])
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
    mutated = QueryBundle(S=bundle.S, per_db=per_db, provenance=prov,
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
