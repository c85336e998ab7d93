"""Audits: structure tables, mutation detection, distribution oracles."""
import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from functools import partial
from math import factorial
from pathlib import Path

import pytest

from mupir import audit, cli, protocol
from mupir.audit import (
    check_structure,
    count_rate,
    demand_distribution_oracle,
    verify_replay,
)
from mupir.core import (
    Permutation,
    Query,
    QueryBundle,
    SlotInfo,
    atom,
    atom_triple,
    canonical_form,
)
from mupir.errors import (
    InvalidDimensionError,
    RegimeError,
    TooLargeInstanceError,
    UnresolvablePlanError,
)
from mupir.harness import run_mupir_session, run_single_session
from mupir.params import h_value, pir_rate, proposed_rate
from mupir.protocol import assemble_bundle, generate_alg1, generate_alg2, generate_alg3

from conftest import identity, mutate_bundle
from test_golden import BLOCK_BYTES, GOLDEN, SEED


def reference_mupir_oracle(S, N, K):
    """The unfactored exhaustive oracle: run the session generator and take
    `canonical_form` for every assignment of every branch.  Returns
    (equal, assignments, mismatch, distributions)."""
    sub = S ** (N - 1)
    H = h_value(S, N)
    free = [Permutation(p) for p in permutations(range(1, sub + 1))]
    tail = tuple(range(H + 1, sub + 1))
    tails = [Permutation(h + tail) for h in permutations(range(1, H + 1))]
    files = set(range(1, N + 1))
    if N == K:
        thetas = list(permutations(range(1, N + 1)))
    else:
        thetas = [t for t in product(range(1, N + 1), repeat=K) if set(t) == files]

    def rho_options(theta, bset, c):
        dc = theta[c - 1]
        twin = next(b for b in bset if theta[b - 1] == dc)
        rest_files = [i for i in range(1, N + 1) if i != dc]
        opts = [dict([(dc, twin)] + list(zip(rest_files, perm)))
                for perm in permutations([b for b in bset if b != twin])
                if all(theta[b - 1] != i for i, b in zip(rest_files, perm))]
        return opts or [{i: twin for i in range(1, N + 1)}]

    dists, total = {}, 0
    for theta in thetas:
        counters = [Counter() for _ in range(S)]
        bsets = [None] if N == K else [
            b for b in combinations(range(1, K + 1), N) if {theta[u - 1] for u in b} == files
        ]
        for bset in bsets:
            base = range(1, K + 1) if bset is None else bset
            nonbase = [c for c in range(1, K + 1) if c not in base]
            per_user = [
                list(product(*(tails if c in base and i == theta[c - 1] else free
                               for i in range(1, N + 1))))
                for c in range(1, K + 1)
            ]
            for P in permutations(range(1, K + 1)):
                puser = Permutation(P)
                for rho_pick in product(*(rho_options(theta, bset, c) for c in nonbase)):
                    rho = dict(zip(nonbase, rho_pick))
                    for assign in product(*per_user):
                        perms = {c: dict(enumerate(assign[c - 1], start=1))
                                 for c in range(1, K + 1)}
                        if bset is None:
                            tr = generate_alg2(S, N, K, theta, puser, perms)
                        else:
                            tr = generate_alg3(S, N, K, theta, puser, bset, rho, perms)
                        bundle = assemble_bundle(tr)
                        for counter, key in zip(counters, canonical_form(bundle)):
                            counter[key] += 1
                        total += 1
        if N < K:
            norm = sum(counters[0].values())
            counters = [Counter({k: Fraction(v, norm) for k, v in c.items()})
                        for c in counters]
        dists[theta] = counters
    mismatch = next(
        (f"database {s + 1}: demand {thetas[0]} vs {d} differ"
         for d in thetas[1:] for s in range(S) if dists[d][s] != dists[thetas[0]][s]),
        None,
    )
    return mismatch is None, total, mismatch, dists


def reference_single_oracle(S, N):
    """The unfactored single-user oracle: run `generate_alg1` and take
    `canonical_form` for every permutation assignment of every demand.
    Returns (equal, assignments, mismatch, distributions)."""
    sub = S ** (N - 1)
    all_p = [Permutation(p) for p in permutations(range(1, sub + 1))]
    dists, total = {}, 0
    for d in range(1, N + 1):
        counters = [Counter() for _ in range(S)]
        for combo in product(all_p, repeat=N):
            perms = {i: combo[i - 1] for i in range(1, N + 1)}
            bundle = assemble_bundle(generate_alg1(S, N, perms, d))
            for counter, key in zip(counters, canonical_form(bundle)):
                counter[key] += 1
            total += 1
        dists[d] = counters
    mismatch = next(
        (f"database {s + 1}: demand 1 vs {d} differ"
         for d in range(2, N + 1) for s in range(S) if dists[d][s] != dists[1][s]),
        None,
    )
    return mismatch is None, total, mismatch, dists


def _reference_peel_closure(sums):
    """The peel closure as first written: the source rule on every sum."""
    sent = {}
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


def _reference_check_counts(user, per_db, info, S, N, K, reps, failures, tables):
    want_slots = {i: tuple(sorted(info.subfiles(i))) for i in range(1, N + 1)}
    types = Counter()
    sums = []
    for db0, queries in enumerate(per_db):
        for q in queries:
            groups = {}
            for f, j, x in (atom_triple(a, K, S ** (N - 1)) for a in q.atoms):
                key = (f, x)
                groups[key] = groups.get(key, ()) + (j,)
            for (f, _), subfiles in groups.items():
                if len(subfiles) > 1:
                    subfiles = tuple(sorted(subfiles))
                if subfiles != want_slots.get(f):
                    failures.append(f"user {user} db {db0 + 1}: reference to file {f} "
                                    f"uses slots {list(subfiles)}")
            files = {f for f, _ in groups}
            if len(files) != len(groups):
                failures.append(f"user {user} db {db0 + 1}: repeated file within one sum")
            types[(db0 + 1, tuple(sorted(files)))] += 1
            sums.append((db0, frozenset(groups)))
    for k in range(1, N + 1):
        for s in range(1, S + 1):
            for fileset in combinations(range(1, N + 1), k):
                have = types.pop((s, fileset), 0)
                tables[(user, s, fileset)] = have
                if have != reps(s, k):
                    failures.append(f"user {user}: db {s} holds {have} sums of type "
                                    f"{fileset}, expected {reps(s, k)}")
    for key in types:
        failures.append(f"user {user}: unexpected sum type at {key}")
    return sums


def _reference_wanted_exposure(info, S, N):
    """file -> subsubfiles a block's peeling must expose: every subsubfile
    of the demand for alg1, every one but the demand's tail (past H) for
    qset1, every one of every file for qset2."""
    sub = S ** (N - 1)
    if info.kind == "alg1":
        return {info.demand: set(range(1, sub + 1))}
    return {i: set(range(1, (h_value(S, N) if i == info.demand else sub) + 1))
            for i in range(1, N + 1)}


def reference_check_structure(bundle, S, N):
    """The structure audit as first written, with a regrouping pass for the
    no-repeat rule and one scan of the exposed set per file."""
    failures, tables = [], {}
    for user, per_db in sorted(audit._slot_queries(bundle)[0].items()):
        info = bundle.slots.get(user)
        kind = info.kind if info else None
        if kind not in audit._REPS:
            failures.append(f"user {user}: unknown generator kind {kind!r}")
            continue
        reps = partial(audit._REPS[kind], S, N)
        sums = _reference_check_counts(user, per_db, info, S, N, bundle.K, reps, failures,
                                       tables)
        if kind == "alg1":
            by_db = {}
            for db0, refs in sums:
                by_db.setdefault(db0, []).extend(refs)
            for db0, refs in sorted(by_db.items()):
                failures.extend(f"user {user} db {db0 + 1}: reference {r} appears {n} times"
                                for r, n in Counter(refs).items() if n > 1)
        want = _reference_wanted_exposure(info, S, N)
        exposed, unknowns = _reference_peel_closure(sums)
        unresolved = sum(1 for unknown in unknowns if any(f in want for f, _ in unknown))
        if unresolved:
            failures.append(f"user {user}: {unresolved} sums cannot be peeled")
        for i, wanted in sorted(want.items()):
            got = {x for (f, x) in exposed if f == i}
            if got != wanted:
                failures.append(f"user {user}: file {i} exposes {sorted(got)}, "
                                f"expected {sorted(wanted)}")
    return audit.AuditReport(ok=not failures, failures=failures, type_tables=tables,
                             per_db_counts=bundle.counts())


def distributions_digest(dists, K, sub):
    """sha256 of every (demand, database, key, value) row, sorted, with the
    keys' atoms as plain (file, subfile, subsub) tuples and the values as
    strings."""
    rows = sorted((theta, s, tuple(tuple(atom_triple(a, K, sub) for a in q) for q in key), str(v))
                  for theta, counters in dists.items()
                  for s, counter in enumerate(counters) for key, v in counter.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def run_distribution_cli(S, N, K, timeout=20):
    """`mupir audit --mode distribution` in a child process, killed (and the
    test failed) if it runs past `timeout` seconds."""
    src = str(Path(audit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-m", "mupir.cli", "audit", "--mode", "distribution",
         "--scheme", "mupir", "-S", str(S), "-N", str(N), "-K", str(K)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def four_database_sets():
    """The (S=4, N=3, d=1) alg1 query sets as lists of atoms, files a/b/c
    as 1/2/3 in a one-subfile store of 16 subsubfiles."""
    a, b, c = (lambda x, f=f: atom(f, 1, x, 1, 16) for f in (1, 2, 3))
    return [
        [[a(1)], [b(1)], [c(1)], [a(8), b(2), c(2)], [a(9), b(3), c(3)], [a(10), b(4), c(4)]],
        [[a(2), b(1)], [a(3), c(1)], [b(2), c(2)], [a(11), b(3), c(3)], [a(12), b(4), c(4)]],
        [[a(4), b(1)], [a(5), c(1)], [b(3), c(3)], [a(13), b(2), c(2)], [a(14), b(4), c(4)]],
        [[a(6), b(1)], [a(7), c(1)], [b(4), c(4)], [a(15), b(2), c(2)], [a(16), b(3), c(3)]],
    ]


def alg1_bundle(dbs):
    """A one-user (S=4) alg1 bundle of the given per-database atom lists."""
    per_db = [[Query(tuple(sorted(q))) for q in db] for db in dbs]
    return QueryBundle(S=4, N=3, K=1, per_db=per_db,
                       emission=[[(1, i) for i in range(len(db))] for db in per_db],
                       slots={1: SlotInfo(kind="alg1", subfile=1, demand=1)})


class TestCheckStructure:
    def test_passes_on_generated_bundles(self):
        for S, N, K in [(2, 2, 2), (3, 3, 3), (2, 2, 4), (3, 3, 5), (4, 3, 4)]:
            _, art = run_mupir_session(S, N, K, 1, seed=S + N + K)
            report = check_structure(art["bundle"])
            assert report.ok, report.failures[:3]

    def test_alg1_table_pass(self):
        perms = {i: identity(16) for i in (1, 2, 3)}
        bundle = assemble_bundle(generate_alg1(4, 3, perms, 1))
        report = check_structure(bundle)
        assert report.ok
        # the distinguished database carries its triple sums three times
        assert report.type_tables[(1, 1, (1, 2, 3))] == 3

    def test_hand_built_four_database_bundle(self):
        bundle = alg1_bundle(four_database_sets())
        report = check_structure(bundle)
        assert report.ok, report.failures
        assert report.type_tables[(1, 1, (1, 2, 3))] == 3
        assert report.per_db_counts == (6, 5, 5, 5)

    def test_dropped_query_fails_at_cell(self):
        _, art = run_mupir_session(3, 3, 3, 1, seed=0)
        bundle = art["bundle"]
        bundle.per_db[0].pop(0)
        bundle.emission[0].pop(0)
        report = check_structure(bundle)
        assert not report.ok

    def test_missing_block_fails(self):
        # every query of user 2 dropped: its block is empty, not absent
        _, art = run_mupir_session(2, 2, 3, 1, 0)
        bundle = art["bundle"]
        kept = [[(q, e) for q, e in zip(queries, order) if e[0] != 2]
                for queries, order in zip(bundle.per_db, bundle.emission)]
        stripped = QueryBundle(S=2, N=2, K=3, per_db=[[q for q, _ in db] for db in kept],
                               emission=[[e for _, e in db] for db in kept],
                               slots=dict(bundle.slots))
        report = check_structure(stripped)
        assert not report.ok
        assert all(f.startswith("user 2:") for f in report.failures)
        assert "user 2: db 1 holds 0 sums of type (1,), expected 1" in report.failures

    def test_user_without_a_slot_fails_alone(self):
        # user 2 keeps its queries but loses its slot record: it fails as an
        # unknown kind, and every other user's tables are unchanged, since
        # the atoms are read in the bundle's K, never in len(slots)
        _, art = run_mupir_session(2, 2, 3, 1, 0)
        bundle = art["bundle"]
        full = check_structure(bundle)
        assert full.ok
        slots = {u: info for u, info in bundle.slots.items() if u != 2}
        report = check_structure(QueryBundle(S=2, N=2, K=3, per_db=bundle.per_db,
                                             emission=bundle.emission, slots=slots))
        assert report.failures == ["user 2: unknown generator kind None"]
        assert report.type_tables == {key: n for key, n in full.type_tables.items()
                                      if key[0] != 2}

    def test_mutations_detected(self):
        _, art = run_mupir_session(3, 3, 4, 1, seed=11)
        bundle, tr = art["bundle"], art["transcript"]
        rng = random.Random(99)
        for _ in range(200):
            mutated, op = mutate_bundle(bundle, rng)
            structure_ok = check_structure(mutated).ok
            replay_ok = verify_replay(mutated, tr)
            assert not (structure_ok and replay_ok), op

    @pytest.mark.parametrize("S,N", [(3, 3), (2, 3), (4, 3), (3, 4)])
    def test_structure_alone_rejects_every_single_user_mutation(self, S, N):
        # no replay check: a drop or duplicate breaks the counts, a swapped
        # atom leaves some demand subsubfile unexposed by peeling
        _, art = run_single_session(S, N, 1, seed=11)
        rng = random.Random(11)
        for _ in range(300):
            mutated, op = mutate_bundle(art["bundle"], rng)
            assert not check_structure(mutated).ok, op

    @pytest.mark.parametrize("dims", [(4, 5), (3, 3), (2, 3, 5), (3, 4, 4), (2, 2, 3), (3, 3, 5)],
                             ids=lambda d: "-".join(map(str, d)))
    def test_matches_reference_on_mutated_bundles(self, dims):
        if len(dims) == 2:
            _, art = run_single_session(*dims, 1, seed=13)
        else:
            _, art = run_mupir_session(*dims, 1, seed=13)
        S, N = dims[:2]
        rng = random.Random(13)
        bundles = [art["bundle"]] + [mutate_bundle(art["bundle"], rng)[0]
                                     for _ in range(150)]
        failing = 0
        for bundle in bundles:
            got, want = check_structure(bundle), reference_check_structure(bundle, S, N)
            assert (got.ok, got.type_tables, got.per_db_counts) == (
                want.ok, want.type_tables, want.per_db_counts)
            assert sorted(got.failures) == sorted(want.failures)
            failing += not got.ok
        assert bundles[0] is art["bundle"] and check_structure(bundles[0]).ok
        assert failing > len(bundles) // 2

    def test_drop_and_duplicate_always_fail_structure(self):
        _, art = run_mupir_session(2, 2, 3, 1, seed=4)
        bundle = art["bundle"]
        rng = random.Random(1)
        for _ in range(50):
            mutated, op = mutate_bundle(bundle, rng)
            if op in ("drop", "duplicate"):
                assert not check_structure(mutated).ok


def _malformed(bundle, how):
    """A copy of the bundle whose query and emission lists at database 2
    (or past its last database) no longer pair up, or, for "duplicate", do
    but repeat a query."""
    per_db = [list(queries) for queries in bundle.per_db]
    emission = [list(order) for order in bundle.emission]
    if how in ("extra-query", "duplicate"):
        per_db[1].append(per_db[1][0])
    if how in ("extra-emission-entry", "duplicate"):
        emission[1].append(emission[1][0])
    if how in ("extra-query-list", "extra-database"):
        per_db.append([per_db[0][0]])
    if how == "extra-database":
        emission.append([emission[0][0]])
    return QueryBundle(S=bundle.S, N=bundle.N, K=bundle.K, per_db=per_db, emission=emission,
                       slots=dict(bundle.slots))


class TestBundleShape:
    """A query without its emission entry, or a database past S, is never
    audited as a block, so the structure audit fails it by name."""

    FAILURES = {
        "extra-query": "db 2: 5 queries but 4 emission entries",
        "extra-emission-entry": "db 2: 4 queries but 5 emission entries",
        "extra-query-list": "db 4: past the bundle's 3 databases",
        "extra-database": "db 4: past the bundle's 3 databases",
    }

    @pytest.mark.parametrize("how", sorted(FAILURES))
    def test_unpaired_lists_fail_by_database(self, how):
        _, art = run_single_session(3, 3, 1, seed=0)
        bundle = art["bundle"]
        assert bundle.counts() == (5, 4, 4) and check_structure(bundle).ok
        report = check_structure(_malformed(bundle, how))
        assert not report.ok
        assert report.failures == [self.FAILURES[how]]

    def test_missing_lists_fail_by_database(self):
        _, art = run_mupir_session(2, 2, 3, 1, seed=0)
        bundle = dataclasses.replace(art["bundle"], per_db=art["bundle"].per_db[:1],
                                     emission=art["bundle"].emission[:1])
        report = check_structure(bundle)
        assert report.failures[0] == "db 2: no query list or no emission list"

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 3), (3, 3, 5)],
                             ids=lambda d: "-".join(map(str, d)))
    def test_a_duplicate_with_its_entry_still_fails(self, dims):
        run = run_single_session if len(dims) == 2 else run_mupir_session
        _, art = run(*dims, 1, seed=0)
        report = check_structure(_malformed(art["bundle"], "duplicate"))
        assert not report.ok
        assert not any(f.startswith("db ") for f in report.failures)


class TestPeelClosure:
    def test_source_rule_needs_the_sub_sum_from_another_database(self):
        s = lambda *refs: frozenset(refs)
        assert audit._peel_closure([(0, s(1, 2, 3)), (0, s(2, 3))]) == (
            set(), [s(1, 2, 3), s(2, 3)])
        assert audit._peel_closure([(0, s(1, 2, 3)), (1, s(2, 3))])[0] == {1}
        # {2, 4} has the total 10 - 4 and is a subset, but it is not {1, 2, 3}
        assert audit._peel_closure([(0, s(1, 2, 3, 4)), (1, s(2, 4))])[0] == set()

    def test_matches_the_reference_closure_on_random_sums(self):
        rng = random.Random(5)
        for _ in range(2000):
            sums = [(rng.randrange(3), frozenset(rng.sample(range(8), rng.randint(1, 4))))
                    for _ in range(rng.randint(1, 8))]
            assert audit._peel_closure(sums) == _reference_peel_closure(sums), sums


class TestFailureMessages:
    """References are ints inside the audit; each message still names them
    as (file, subsub) pairs, slot lists and subsubfile lists."""

    def test_a_repeated_reference(self):
        # db 2 sends a_3 twice and a_2 never, so a_2 is never exposed
        dbs = four_database_sets()
        dbs[1][0] = [atom(1, 1, 3, 1, 16), atom(2, 1, 1, 1, 16)]
        assert check_structure(alg1_bundle(dbs)).failures == [
            "user 1 db 2: reference (1, 3) appears 2 times",
            "user 1: file 1 exposes [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16], "
            "expected [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]",
        ]

    def test_a_dropped_query(self):
        # without b_1 the three sums a_2+b_1, a_4+b_1, a_6+b_1 cannot be peeled
        dbs = four_database_sets()
        del dbs[0][1]
        assert check_structure(alg1_bundle(dbs)).failures == [
            "user 1: db 1 holds 0 sums of type (2,), expected 1",
            "user 1: 3 sums cannot be peeled",
            "user 1: file 1 exposes [1, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16], "
            "expected [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]",
        ]

    def test_a_qset2_reference_on_a_wrong_slot(self):
        # (2, 2, 3): user 3 is the qset2 block, its pairs on slots 1 and 2;
        # one atom of its first query moves to slot 3
        _, art = run_mupir_session(2, 2, 3, 1, 0)
        bundle = art["bundle"]
        assert bundle.slots[3].kind == "qset2"
        db0 = 0
        pos = next(n for n, (user, _) in enumerate(bundle.emission[db0]) if user == 3)
        atoms = list(bundle.per_db[db0][pos].atoms)
        f, j, x = atom_triple(atoms[-1], 3, 2)
        assert j == 2
        atoms[-1] = atom(f, 3, x, 3, 2)
        per_db = [list(queries) for queries in bundle.per_db]
        per_db[db0][pos] = Query(tuple(sorted(atoms)))
        mutated = QueryBundle(S=2, N=2, K=3, per_db=per_db, emission=bundle.emission,
                              slots=dict(bundle.slots))
        report = check_structure(mutated)
        assert f"user 3 db 1: reference to file {f} uses slots [1, 3]" in report.failures
        assert report.failures == reference_check_structure(mutated, 2, 2).failures

    @pytest.mark.parametrize("dims", [(4, 5), (3, 3, 5)], ids=lambda d: "-".join(map(str, d)))
    @pytest.mark.parametrize("where", ["negative", "past-the-end"])
    def test_an_atom_outside_the_store_is_named(self, dims, where):
        # the block fails by the atom alone, with the store's size, and
        # replay refuses the bundle
        run = run_single_session if len(dims) == 2 else run_mupir_session
        _, art = run(*dims, 1, seed=0)
        bundle, tr = art["bundle"], art["transcript"]
        size = bundle.N * bundle.K * bundle.sub
        bad = -1 if where == "negative" else size
        per_db = [list(queries) for queries in bundle.per_db]
        atoms = list(per_db[1][0].atoms)
        atoms[0] = bad
        per_db[1][0] = Query(tuple(atoms))
        mutated = dataclasses.replace(bundle, per_db=per_db)
        user = bundle.emission[1][0][0]
        assert check_structure(mutated).failures == [
            f"user {user} db 2: atom {bad} lies outside the store's {size} blocks"]
        assert not verify_replay(mutated, tr)


class TestCountRate:
    def test_examples(self):
        _, art = run_mupir_session(3, 3, 3, 1, seed=0, demand=(2, 1, 3))
        assert count_rate(art["bundle"]) == Fraction(23, 9)
        _, art = run_mupir_session(3, 3, 5, 1, seed=0, demand=(2, 3, 2, 1, 3))
        assert count_rate(art["bundle"]) == Fraction(41, 15)
        _, art = run_single_session(4, 3, 1, seed=0)
        assert count_rate(art["bundle"]) == Fraction(21, 16)

    @pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
    def test_golden_sessions_rate_exactly_and_pass(self, case):
        scheme, *dims = case
        if scheme == "mupir":
            _, art = run_mupir_session(*dims, BLOCK_BYTES, SEED)
            want = proposed_rate(*dims)
        else:
            _, art = run_single_session(*dims, BLOCK_BYTES, SEED)
            want = pir_rate(*dims)
        assert count_rate(art["bundle"]) == want
        assert check_structure(art["bundle"]).ok


class TestDistributionOracle:
    def test_single_two_by_two(self):
        report = demand_distribution_oracle(2, 2, scheme="single")
        assert report.equal
        assert report.assignments == 8

    def test_mupir_two_by_two(self):
        report = demand_distribution_oracle(2, 2, K=2, scheme="mupir")
        assert report.equal
        assert report.assignments == 16

    @pytest.mark.parametrize("S,N", [(2, 2), (3, 2), (4, 2)])
    def test_single_oracle_matches_reference(self, S, N):
        report = demand_distribution_oracle(S, N, scheme="single")
        equal, assignments, mismatch, dists = reference_single_oracle(S, N)
        assert report.scheme == "single"
        assert report.equal == equal
        assert report.assignments == assignments
        assert report.mismatch == mismatch
        assert report.distributions == dists
        assert all(type(d) is int for d in report.distributions)
        assert all(type(v) is int for counters in report.distributions.values()
                   for counter in counters for v in counter.values())

    @pytest.mark.parametrize("S,N,K", [(2, 2, 2), (3, 2, 2), (2, 2, 3)])
    def test_factored_oracle_matches_reference(self, S, N, K):
        report = demand_distribution_oracle(S, N, K=K, scheme="mupir")
        equal, assignments, mismatch, dists = reference_mupir_oracle(S, N, K)
        assert report.equal == equal
        assert report.assignments == assignments
        assert report.mismatch == mismatch
        assert report.distributions == dists
        value_type = int if N == K else Fraction
        assert all(type(v) is value_type for counters in report.distributions.values()
                   for counter in counters for v in counter.values())

    @pytest.mark.parametrize("S,N,K,assignments,mismatch,digest", [
        (2, 2, 4, 73728, "database 1: demand (1, 1, 1, 2) vs (1, 1, 2, 2) differ",
         "778803efd33517c2e9a7df99f1b6a621c865aeb063be2d6a6ba39c7ff6c714d7"),
        (3, 2, 3, 93312, "database 1: demand (1, 1, 2) vs (1, 2, 2) differ",
         "1b8a9eab42dfb7ab084b5c47cf0a242b2ad5bb750f7ebc7526b2872369064509"),
    ], ids=["2-2-4", "3-2-3"])
    def test_oracle_pinned_beyond_the_reference_loops(self, S, N, K, assignments,
                                                      mismatch, digest):
        # too large for reference_mupir_oracle in a test run; pinned from the
        # per-assignment factored oracle, which matched the reference wherever
        # that ran
        report = demand_distribution_oracle(S, N, K=K, scheme="mupir")
        assert report.equal is False
        assert report.assignments == assignments
        assert report.mismatch == mismatch
        assert distributions_digest(report.distributions, K, S ** (N - 1)) == digest

    @pytest.mark.parametrize("S,N,K", [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 3), (2, 2, None)])
    def test_every_count_is_positive(self, S, N, K):
        # _compare_distributions compares the counters as dicts, which is
        # Counter equality only while no counter holds a count <= 0
        report = demand_distribution_oracle(S, N, K=K, scheme="single" if K is None else "mupir")
        values = [v for counters in report.distributions.values()
                  for counter in counters for v in counter.values()]
        assert values and all(v > 0 for v in values)

    def test_compare_distributions_names_the_first_differing_database(self):
        compare = audit._compare_distributions
        ref = [Counter({"a": 2, "b": 1}), Counter({"c": 3})]
        same = [Counter({"b": 1, "a": 2}), Counter({"c": 3})]
        assert compare({(1, 2): ref, (2, 1): same}, 2) == (True, None)
        cases = {
            "a key on one side only, at database 2": [same[0], Counter({"c": 3, "d": 1})],
            "a key on the first demand's side only": [same[0], Counter()],
            "one count differs": [Counter({"a": 2, "b": 2}), same[1]],
            "both databases differ": [Counter({"a": 2}), Counter({"c": 1})],
        }
        want_db = {"a key on one side only, at database 2": 2,
                   "a key on the first demand's side only": 2,
                   "one count differs": 1, "both databases differ": 1}
        for name, other in cases.items():
            # demands are compared in sorted order, each against the first
            got = compare({(2, 1): other, (1, 2): ref, (2, 2): same}, 2)
            assert got == (False, f"database {want_db[name]}: demand (1, 2) vs (2, 1) differ"), name

    @pytest.mark.parametrize("S,N,K,multisets", [(2, 2, 3, 12), (2, 2, 4, 48), (3, 2, 3, 12)])
    def test_each_view_multiset_is_expanded_once(self, monkeypatch, S, N, K, multisets):
        # (2, 2, 3) has 72 branches, (2, 2, 4) 1152 and (3, 2, 3) 72; they
        # share this many multisets of user views, across demand vectors
        expanded = []
        real = audit._expand_views

        def counted(multiset, *args):
            expanded.append(multiset)
            return real(multiset, *args)

        monkeypatch.setattr(audit, "_expand_views", counted)
        demand_distribution_oracle(S, N, K=K, scheme="mupir")
        assert len(expanded) == len(set(expanded)) == multisets

    def test_mupir_two_two_three_leaks(self):
        # N = 2 < K: non-base users pair both files with their demand twin
        # (see README), which the per-database distributions reveal
        report = demand_distribution_oracle(2, 2, K=3, scheme="mupir")
        assert report.equal is False
        assert report.assignments == 1152
        assert report.mismatch == "database 1: demand (1, 1, 2) vs (1, 2, 2) differ"

    @pytest.mark.parametrize("S,N,K,name", [(2, 2, 2, "generate_alg2"),
                                            (2, 2, 3, "generate_alg3"),
                                            (2, 2, None, "generate_alg1")])
    def test_branch_cross_check_catches_a_diverging_generator(self, monkeypatch,
                                                              S, N, K, name):
        # a bundle that is not what its transcript's records materialise to
        # makes the factored key disagree with canonical_form on the first
        # assignment of a branch; the scheme's generator returns only the
        # transcript, so the bundle's one builder drops a query
        real = audit.assemble_bundle
        real_generate = getattr(audit, name)
        generated = []

        def drop_first_query(*args, **kwargs):
            bundle = real(*args, **kwargs)
            bundle.per_db[0].pop(0)
            bundle.emission[0].pop(0)
            return bundle

        monkeypatch.setattr(audit, "assemble_bundle", drop_first_query)
        monkeypatch.setattr(audit, name, lambda *a: generated.append(a) or real_generate(*a))
        with pytest.raises(RuntimeError, match="factored oracle key"):
            demand_distribution_oracle(S, N, K=K, scheme="single" if K is None else "mupir")
        assert len(generated) == 1

    @pytest.mark.parametrize("S,N,K,name,change,at", [
        (2, 2, 2, "generate_alg2", "option", 4), (2, 2, 3, "generate_alg3", "option", 40),
        (2, 2, None, "generate_alg1", "option", 2), (2, 2, 2, "generate_alg2", "slot", 4),
        (2, 2, 3, "generate_alg3", "slot", 40)])
    def test_branch_cross_check_catches_a_branch_off_its_labels(self, monkeypatch,
                                                                 S, N, K, name, change, at):
        # in branch `at` (for mupir, its labels' blocks are all in the
        # walk's memo by then) one user is generated with a non-first
        # option, or two users trade slots in the bundle but not in the
        # transcript: the memo, keyed by exact inputs, must build that block
        # for real, and the factored key must then disagree with
        # canonical_form.  The bundle's one builder, assemble_bundle, is
        # handed the traded transcript.
        real = getattr(audit, name)
        real_assemble = audit.assemble_bundle
        calls, traded = [], []

        def off_label(*args):
            calls.append(args)
            if len(calls) != at:
                return real(*args)
            args = list(args)
            if name == "generate_alg1":
                # the single user draws any permutation on every file
                args[2] = {**args[2], 1: Permutation((2, 1))}
                return real(*args)
            demands, P, user_perms = args[3], args[4], args[-1]
            if change == "option":
                # a file other than its demand is free for every user
                f = next(i for i in range(1, N + 1) if i != demands[K - 1])
                args[-1] = {**user_perms, K: {**user_perms[K], f: Permutation((2, 1))}}
                return real(*args)
            swap = Permutation(P.images[1::-1] + P.images[2:])
            traded.append(real(*args[:4], swap, *args[5:]))
            return real(*args)

        def assemble_traded(transcript, *args, **kwargs):
            return real_assemble(traded.pop() if traded else transcript, *args, **kwargs)

        monkeypatch.setattr(audit, name, off_label)
        monkeypatch.setattr(audit, "assemble_bundle", assemble_traded)
        with pytest.raises(RuntimeError, match="factored oracle key differs"):
            demand_distribution_oracle(S, N, K=K, scheme="single" if K is None else "mupir")
        assert len(calls) == at

    def test_walk_materializes_each_distinct_block_once(self, monkeypatch):
        # the walk's memo builds each distinct (schedule, permutations,
        # slot) once and is dropped when the oracle returns; sessions keep
        # calling materialize for every block, at generation and in
        # verify_replay.  Before the memo, (2, 2, 3) made 252 calls and
        # (2, 2, 4) 4,672.
        calls = []
        real = protocol.materialize
        monkeypatch.setattr(protocol, "materialize", lambda *a: calls.append(a) or real(*a))
        memos = []
        real_memo = audit.block_memo

        def held():
            memo = real_memo()
            memos.append(weakref.ref(memo))
            return memo

        monkeypatch.setattr(audit, "block_memo", held)
        for K, blocks in [(3, 36), (4, 64)]:
            calls.clear()
            demand_distribution_oracle(2, 2, K=K, scheme="mupir")
            assert len(calls) == blocks
            assert memos[-1]() is None
        calls.clear()
        run_single_session(3, 3, 1, 7)
        assert len(calls) == 2
        calls.clear()
        run_mupir_session(2, 2, 3, 1, 7)
        assert len(calls) == 6

    def test_guard_trips(self):
        with pytest.raises(TooLargeInstanceError):
            demand_distribution_oracle(3, 3, K=3, scheme="mupir")

    @pytest.mark.parametrize("S,N,K,scheme", [(2, 2, None, "single"), (3, 2, None, "single"),
                                              (2, 2, 2, "mupir"), (2, 2, 3, "mupir")])
    def test_guard_is_exact_at_the_reported_count(self, S, N, K, scheme):
        # the count the guard sums is the one reported: a guard of exactly
        # that many passes, one fewer refuses
        n = demand_distribution_oracle(S, N, K=K, scheme=scheme).assignments
        assert demand_distribution_oracle(S, N, K=K, scheme=scheme, guard=n).assignments == n
        with pytest.raises(TooLargeInstanceError):
            demand_distribution_oracle(S, N, K=K, scheme=scheme, guard=n - 1)

    def test_single_refuses_a_user_count_but_one(self):
        assert demand_distribution_oracle(2, 2, K=1, scheme="single").assignments == 8
        with pytest.raises(RegimeError, match="single-user oracle has K = 1, got 3"):
            demand_distribution_oracle(2, 2, K=3, scheme="single")

    def test_guard_fires_before_any_permutation_is_built(self, monkeypatch):
        # (2, 5, 5) has 16! permutations per file: building them before the
        # guard would exhaust memory long before the refusal
        def no_permutations(*args):
            raise AssertionError("a permutation was built before the guard")

        monkeypatch.setattr(audit, "Permutation", no_permutations)
        for S, N, K, scheme in [(3, 3, 3, "mupir"), (2, 5, 5, "mupir"), (3, 3, None, "single")]:
            with pytest.raises(TooLargeInstanceError, match=f"{scheme} oracle needs"):
                demand_distribution_oracle(S, N, K=K, scheme=scheme)
        assert cli.main(["audit", "--mode", "distribution", "--scheme", "mupir",
                         "-S", "2", "-N", "5", "-K", "5"]) == 2

    def test_guard_refuses_at_the_first_branch_past_it(self, monkeypatch):
        # (2, 3, 8) has 5796 covering demand vectors; listing every branch's
        # rho options before refusing made 408,240 rho_options calls
        calls = []
        real = audit.rho_options
        monkeypatch.setattr(audit, "rho_options", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(TooLargeInstanceError, match="mupir oracle needs more than"):
            demand_distribution_oracle(2, 3, K=8, scheme="mupir")
        assert len(calls) < 100

    def test_negative_guard_is_refused_before_any_branch(self, monkeypatch, capsys):
        def no_walk(*args):
            raise AssertionError("a branch was walked")

        monkeypatch.setattr(audit, "_covering_demands", no_walk)
        monkeypatch.setattr(audit, "rho_options", no_walk)
        for scheme, K in [("mupir", 2), ("mupir", 3), ("single", None)]:
            with pytest.raises(ValueError, match=r"^the oracle guard must be >= 0, got -1$") as err:
                demand_distribution_oracle(2, 2, K=K, scheme=scheme, guard=-1)
            assert err.type is ValueError
        assert cli.main(["audit", "--mode", "distribution", "--scheme", "mupir",
                         "-S", "2", "-N", "2", "-K", "2", "--guard", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: the oracle guard must be >= 0, got -1\n"
        assert demand_distribution_oracle(2, 2, K=1, scheme="single", guard=8).assignments == 8

    def test_guard_message_for_a_count_past_the_int_str_limit(self):
        # (5, 6, 6): the exact count has more than 4300 digits
        with pytest.raises(TooLargeInstanceError, match="mupir oracle needs more than"):
            demand_distribution_oracle(5, 6, K=6, scheme="mupir")

    def test_capped_factorial(self):
        for n in range(12):
            assert audit._capped_factorial(n, 10**9) == factorial(n)
        assert audit._capped_factorial(13, factorial(13)) == factorial(13)
        assert audit._capped_factorial(14, factorial(13)) == factorial(13) + 1
        # 10^8! would take gigabytes; the cap stops after a dozen products
        assert audit._capped_factorial(10**8, 10**7) == 10**7 + 1

    @pytest.mark.parametrize("S,N,K", [(7, 7, 7), (10, 9, 9)])
    def test_large_instances_are_refused_at_once(self, S, N, K):
        # (7, 7, 7) once spent 91 s on the exact (7^6)! before refusing, and
        # (10, 9, 9) scanned ~6e6 non-covering demand vectors to reach its
        # first branch
        proc = run_distribution_cli(S, N, K)
        assert proc.returncode == 2, proc.stderr
        assert "mupir oracle needs more than 10000000 assignments" in proc.stderr

    @pytest.mark.parametrize("N", range(1, 6))
    def test_covering_demands_match_the_filtered_product(self, N):
        for K in range(N, 6):
            want = [t for t in product(range(1, N + 1), repeat=K)
                    if set(t) == set(range(1, N + 1))]
            assert list(audit._covering_demands(N, K)) == want

    def test_more_files_than_users_is_refused(self):
        with pytest.raises(RegimeError, match="K>=N"):
            demand_distribution_oracle(2, 3, K=2, scheme="mupir")
        assert cli.main(["audit", "--mode", "distribution", "--scheme", "mupir",
                         "-S", "2", "-N", "3", "-K", "2"]) == 2

    @pytest.mark.parametrize("scheme", ["single", "mupir"])
    @pytest.mark.parametrize("S,N", [(1, 2), (2, 1), (1, 1)])
    def test_fewer_than_two_databases_or_files_is_refused(self, scheme, S, N):
        # as sessions are: one database sees every query, one file hides nothing
        with pytest.raises(InvalidDimensionError, match=rf"got S={S}, N={N}"):
            demand_distribution_oracle(S, N, scheme=scheme)

    def test_single_uniform_over_keys(self):
        # each database's view is exactly uniform over its possible keys
        report = demand_distribution_oracle(2, 2, scheme="single")
        for d, counters in report.distributions.items():
            for counter in counters:
                assert len(set(counter.values())) == 1


def guess_from_one_database(queries, S, N, K):
    """Guess non-base users' demands from one database's queries alone.

    1. Label the base slots: a base user's demanded file draws its tail
       fixed, so at the user's slot it never shows a subsubfile index past
       H.  A slot whose one-slot queries show an index past H for every file
       but one is labelled with that file.
    2. Read each non-base slot's partner map (file -> base slot) from its
       paired references.
    3. A non-base user's demanded file pairs with its twin's slot and every
       other file with a slot not demanding it, so the one file i with
       label(partner(i)) = i is its demand.
    Returns {non-base slot: guessed file} for the slots where step 3 finds
    exactly one such file.
    """
    H = h_value(S, N)
    queries = [[atom_triple(a, K, S ** (N - 1)) for a in q.atoms] for q in queries]
    high = {}  # base slot -> files showing an index past H there
    for q in queries:
        slots = {j for _, j, _ in q}
        if len(slots) == 1:
            high.setdefault(slots.pop(), set()).update(f for f, _, x in q if x > H)
    labels = {}
    for slot, files in high.items():
        rest = set(range(1, N + 1)) - files
        if len(rest) == 1:
            labels[slot] = rest.pop()
    partner = {}  # non-base slot -> {file: base slot}
    for q in queries:
        pairs = {}
        for f, j, x in q:
            pairs.setdefault((f, x), set()).add(j)
        for (f, _), slots in pairs.items():
            if len(slots) == 2:
                # only base slots carry one-slot (qset1) queries
                (own,), (base,) = slots - high.keys(), slots & high.keys()
                partner.setdefault(own, {})[f] = base
    guesses = {}
    for own, f in partner.items():
        matches = [i for i, base in f.items() if labels.get(base) == i]
        if len(matches) == 1:
            guesses[own] = matches[0]
    return guesses


class TestSingleDatabaseLeak:
    @pytest.mark.parametrize("S,N,demand,min_right", [
        (3, 3, (1, 2, 3, 1), 40),
        (3, 3, (2, 1, 3, 3), 40),
        (2, 3, (1, 2, 3, 1), 25),
        (2, 3, (1, 2, 3, 1, 2), 44),
    ], ids=["3-3-1231", "3-3-2133", "2-3-1231", "2-3-12312"])
    def test_database_one_guesses_non_base_demands(self, S, N, demand, min_right):
        # every N < K session measured tells database 1 the non-base users'
        # demands: the guess is never wrong, and made in most sessions
        right = wrong = 0
        for seed in range(40):
            _, art = run_mupir_session(S, N, len(demand), 1, seed=seed, demand=demand)
            bundle = art["bundle"]
            truth = {info.subfile: demand[c - 1]
                     for c, info in bundle.slots.items() if info.kind == "qset2"}
            for slot, guess in guess_from_one_database(bundle.per_db[0], S, N,
                                                       len(demand)).items():
                right += guess == truth[slot]
                wrong += guess != truth[slot]
        assert wrong == 0
        assert right >= min_right


class TestReplayVerification:
    def test_replay_matches(self):
        for scheme, args in [("m", (2, 2, 2)), ("m", (3, 3, 5)), ("s", (3, 3))]:
            if scheme == "m":
                _, art = run_mupir_session(*args, 1, seed=8)
            else:
                _, art = run_single_session(*args, 1, seed=8)
            assert verify_replay(art["bundle"], art["transcript"])

    def test_replay_alone_rejects_every_mutation(self):
        # without the structure audit: a dropped or duplicated query leaves
        # a record emitted zero or two times, a swapped atom breaks a query
        for run, args in [(run_mupir_session, (3, 3, 4, 1)), (run_single_session, (3, 3, 1))]:
            _, art = run(*args, seed=11)
            rng = random.Random(5)
            ops = set()
            for _ in range(150):
                mutated, op = mutate_bundle(art["bundle"], rng)
                assert not verify_replay(mutated, art["transcript"]), op
                ops.add(op)
            assert ops == {"drop", "duplicate", "swap"}

    def test_replay_refuses_a_bundle_of_another_shape(self):
        # the structure audit reads S, N and K from the bundle, so replay is
        # what ties them to the transcript's
        for run, args in [(run_mupir_session, (2, 2, 3, 1)), (run_single_session, (3, 3, 1))]:
            _, art = run(*args, seed=8)
            bundle, tr = art["bundle"], art["transcript"]
            assert verify_replay(bundle, tr)
            for name in ("S", "N", "K"):
                other = dataclasses.replace(bundle, **{name: getattr(bundle, name) + 1})
                assert not verify_replay(other, tr), name

    def test_replay_detects_tampering(self):
        _, art = run_mupir_session(2, 2, 2, 1, seed=8)
        bundle = art["bundle"]
        q = bundle.per_db[0][0]
        atoms = list(q.atoms)
        f, j, x = atom_triple(atoms[0], 2, 2)
        atoms[0] = atom(f, j, 3 - x, 2, 2)
        bundle.per_db[0][0] = Query(tuple(atoms))
        assert not verify_replay(bundle, art["transcript"])


class TestMalformedEmissionEntry:
    """An emission entry that is not a (user, local) pair of ints fails each
    check by name: replay is refused, the structure audit names the database
    and the position, and `resolve_symbols` names the entry.  No check
    raises anything else on it."""

    # (entry, resolve_symbols' message for it at database 2)
    BAD = [
        (None, "emission entry None, which is no (user, local) pair of ints"),
        (("x", 0), "record (user x, local 0), which the transcript does not have"),
        ((1, 2, 3), "emission entry (1, 2, 3), which is no (user, local) pair of ints"),
        (([1], 0), "emission entry ([1], 0), which is no (user, local) pair of ints"),
    ]

    @staticmethod
    def tampered(entry):
        """The (2,2,3,1) seed-0 session with database 2's entry 3 replaced."""
        _, art = run_mupir_session(2, 2, 3, 1, seed=0)
        emission = [list(order) for order in art["bundle"].emission]
        emission[1][3] = entry
        return art, dataclasses.replace(art["bundle"], emission=emission)

    @pytest.mark.parametrize("entry, message", BAD, ids=[repr(e) for e, _ in BAD])
    def test_every_check_fails_it_by_name(self, entry, message):
        art, bundle = self.tampered(entry)
        assert not verify_replay(bundle, art["transcript"])
        report = check_structure(bundle)
        assert not report.ok
        assert report.failures[0] == (f"db 2: emission entry 3 is {entry!r}, "
                                      "not a (user, local) pair with an int user")
        with pytest.raises(UnresolvablePlanError) as exc:
            protocol.resolve_symbols(art["transcript"], bundle, art["answers"])
        assert str(exc.value) == "database 2 answers " + message

    @pytest.mark.parametrize("as_float", [False, True], ids=["None", "float"])
    def test_a_bad_local_index_is_left_to_replay(self, as_float):
        # the structure audit groups by user alone; replay reads the index,
        # and a float equal to it sorts as the int would
        user, local = self.tampered(None)[0]["bundle"].emission[1][3]
        entry = (user, float(local) if as_float else None)
        art, bundle = self.tampered(entry)
        assert check_structure(bundle).ok
        assert not verify_replay(bundle, art["transcript"])
        with pytest.raises(UnresolvablePlanError) as exc:
            protocol.resolve_symbols(art["transcript"], bundle, art["answers"])
        assert str(exc.value) == (f"database 2 answers emission entry {entry!r}, "
                                  "which is no (user, local) pair of ints")
