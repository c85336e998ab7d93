"""Audits: structure tables, mutation detection, distribution oracles."""
import random
from fractions import Fraction

import pytest

from mupir.audit import (
    check_structure,
    count_rate,
    demand_distribution_oracle,
    mutate_bundle,
    verify_replay,
)
from mupir.core import Query, QueryAtom, identity_permutation
from mupir.errors import TooLargeInstanceError
from mupir.harness import run_mupir_session, run_single_session
from mupir.single_user import generate_alg1


class TestCheckStructure:
    def test_passes_on_generated_bundles(self):
        for S, N, K in [(2, 2, 2), (3, 3, 3), (2, 2, 4), (3, 3, 5), (4, 3, 4)]:
            _, art = run_mupir_session(S, N, K, 1, seed=S + N + K)
            report = check_structure(art["bundle"], S, N)
            assert report.ok, report.failures[:3]

    def test_alg1_table_pass(self):
        perms = {i: identity_permutation(16) for i in (1, 2, 3)}
        bundle, _ = generate_alg1(4, 3, perms, 1)
        report = check_structure(bundle, 4, 3)
        assert report.ok
        # the distinguished database carries its triple sums three times
        assert report.type_tables[(1, 1, (1, 2, 3))] == 3

    def test_hand_built_four_database_bundle(self):
        # the (S=4, N=3, d=1) query sets written out explicitly: files a/b/c
        # as 1/2/3, a_i meaning subsubfile i of file 1, etc.
        a = lambda i: (1, 1, i)
        b = lambda i: (2, 1, i)
        c = lambda i: (3, 1, i)
        dbs = [
            [[a(1)], [b(1)], [c(1)],
             [a(8), b(2), c(2)], [a(9), b(3), c(3)], [a(10), b(4), c(4)]],
            [[a(2), b(1)], [a(3), c(1)], [b(2), c(2)],
             [a(11), b(3), c(3)], [a(12), b(4), c(4)]],
            [[a(4), b(1)], [a(5), c(1)], [b(3), c(3)],
             [a(13), b(2), c(2)], [a(14), b(4), c(4)]],
            [[a(6), b(1)], [a(7), c(1)], [b(4), c(4)],
             [a(15), b(2), c(2)], [a(16), b(3), c(3)]],
        ]
        from mupir.core import Query, QueryBundle, QueryAtom, SlotInfo

        per_db = [[Query(tuple(QueryAtom(*t) for t in q)) for q in db] for db in dbs]
        emission = [[(1, i) for i in range(len(db))] for db in per_db]
        bundle = QueryBundle(
            S=4, per_db=per_db, emission=emission,
            slots={1: SlotInfo(user=1, kind="alg1", subfile=1, demand=1)},
        )
        report = check_structure(bundle, 4, 3)
        assert report.ok, report.failures
        assert report.type_tables[(1, 1, (1, 2, 3))] == 3
        assert report.per_db_counts == (6, 5, 5, 5)

    def test_dropped_query_fails_at_cell(self):
        _, art = run_mupir_session(3, 3, 3, 1, seed=0)
        bundle = art["bundle"]
        bundle.per_db[0].pop(0)
        bundle.emission[0].pop(0)
        report = check_structure(bundle, 3, 3)
        assert not report.ok

    def test_mutations_detected(self):
        _, art = run_mupir_session(3, 3, 4, 1, seed=11)
        bundle, tr = art["bundle"], art["transcript"]
        sub = 9
        rng = random.Random(99)
        for _ in range(200):
            mutated, op = mutate_bundle(bundle, rng, sub)
            structure_ok = check_structure(mutated, 3, 3).ok
            replay_ok = verify_replay(mutated, tr)
            assert not (structure_ok and replay_ok), op

    def test_drop_and_duplicate_always_fail_structure(self):
        _, art = run_mupir_session(2, 2, 3, 1, seed=4)
        bundle = art["bundle"]
        rng = random.Random(1)
        for _ in range(50):
            mutated, op = mutate_bundle(bundle, rng, 2)
            if op in ("drop", "duplicate"):
                assert not check_structure(mutated, 2, 2).ok


class TestCountRate:
    def test_examples(self):
        _, art = run_mupir_session(3, 3, 3, 1, seed=0, demand=(2, 1, 3))
        assert count_rate(art["bundle"], 3, 3, 3) == Fraction(23, 9)
        _, art = run_mupir_session(3, 3, 5, 1, seed=0, demand=(2, 3, 2, 1, 3))
        assert count_rate(art["bundle"], 3, 3, 5) == Fraction(41, 15)
        _, art = run_single_session(4, 3, 1, seed=0)
        assert count_rate(art["bundle"], 4, 3, 1) == Fraction(21, 16)


class TestDistributionOracle:
    def test_single_two_by_two(self):
        report = demand_distribution_oracle(2, 2, scheme="single")
        assert report.equal
        assert report.assignments == 8

    def test_mupir_two_by_two(self):
        report = demand_distribution_oracle(2, 2, K=2, scheme="mupir")
        assert report.equal
        assert report.assignments == 16

    def test_guard_trips(self):
        with pytest.raises(TooLargeInstanceError):
            demand_distribution_oracle(3, 3, K=3, scheme="mupir")

    def test_single_uniform_over_keys(self):
        # each database's view is exactly uniform over its possible keys
        report = demand_distribution_oracle(2, 2, scheme="single")
        for d, counters in report.distributions.items():
            for counter in counters:
                assert len(set(counter.values())) == 1


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
                mutated, op = mutate_bundle(art["bundle"], rng, 9)
                assert not verify_replay(mutated, art["transcript"]), op
                ops.add(op)
            assert ops == {"drop", "duplicate", "swap"}

    def test_replay_detects_tampering(self):
        _, art = run_mupir_session(2, 2, 2, 1, seed=8)
        bundle = art["bundle"]
        q = bundle.per_db[0][0]
        atoms = list(q.atoms)
        atoms[0] = QueryAtom(atoms[0].file, atoms[0].subfile, 3 - atoms[0].subsub)
        bundle.per_db[0][0] = Query(tuple(atoms))
        assert not verify_replay(bundle, art["transcript"])
