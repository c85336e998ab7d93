"""Single-user scheme: generation counts, decoding, structural symmetry."""
import hashlib
import random
from collections import Counter

import pytest

from mupir.audit import check_structure, count_rate
from mupir.core import (
    answer_bundle,
    atom_triple,
    build_file_store,
    canonical_view,
    sample_permutation,
)
from mupir.errors import DemandError, InvalidDimensionError, UnresolvablePlanError
from mupir.params import phi, pir_rate
from mupir.protocol import (
    _alg1_schedule, assemble_bundle, generate_alg1, replay_bundle, resolve_symbols)
from mupir.single_user import decode_single

from conftest import identity


def _random_perms(S, N, seed):
    rng = random.Random(seed)
    sub = S ** (N - 1)
    return {i: sample_permutation(sub, rng) for i in range(1, N + 1)}


def _files(q, sub):
    """The sorted files a single-user (K = 1) query sums over."""
    return tuple(sorted({atom_triple(a, 1, sub)[0] for a in q.atoms}))


# sha256 over every alg1 record's (sorted refs, fresh, source), taken over
# _alg1_schedule(S, N, d) for each pair in ALG1_PAIRS and then d = 1..N;
# recorded from the record that kept its sum size and fresh (file,
# position) next to its refs, fresh being a fresh file that is not None.
ALG1_PAIRS = ((2, 3), (3, 3), (4, 5), (3, 6))
ALG1_DIGEST = "b901a5990cbdb83df2f5053db5687f1ca6de45e0d1b8781f32c53b5c8caada63"


def test_alg1_schedule_digest():
    h = hashlib.sha256()
    for S, N in ALG1_PAIRS:
        for d in range(1, N + 1):
            for db_list in _alg1_schedule(S, N, d):
                for r in db_list:
                    h.update(repr((tuple(sorted(r.refs)), r.fresh, r.source)).encode())
    assert h.hexdigest() == ALG1_DIGEST


class TestGeneration:
    def test_table_counts_four_databases(self):
        for d in (1, 2, 3):
            perms = {i: identity(16) for i in (1, 2, 3)}
            bundle = assemble_bundle(generate_alg1(4, 3, perms, d))
            assert bundle.counts() == (6, 5, 5, 5)
            assert bundle.total_queries() == 21

    def test_hand_example_two_by_two(self):
        perms = {1: identity(2), 2: identity(2)}
        bundle = assemble_bundle(generate_alg1(2, 2, perms, 2))
        keys = [[tuple(atom_triple(a, 1, 2) for a in q) for q in canonical_view(db)]
                for db in bundle.per_db]
        assert keys[0] == [((1, 1, 1),), ((2, 1, 1),)]
        assert keys[1] == [((1, 1, 1), (2, 1, 2))]

    def test_degenerate_single_file(self):
        perms = {1: identity(1)}
        transcript = generate_alg1(2, 1, perms, 1)
        bundle = assemble_bundle(transcript)
        assert bundle.counts() == (1, 0)
        store = build_file_store(2, 1, 2, 1, seed=0)  # N=2 store, use file 1
        answers = answer_bundle(store, bundle)
        out = decode_single(transcript, bundle, answers)
        assert out[1] == store.block(1, 1, 1)

    def test_invalid_demand(self):
        perms = {i: identity(4) for i in (1, 2, 3)}
        with pytest.raises(DemandError):
            generate_alg1(2, 3, perms, 4)

    def test_permutations_must_be_over_the_subsubfiles(self):
        # (2, 3) has 4 subsubfiles: a permutation of [3] or of [5], or none,
        # for a file is refused before anything is built
        for n, missing in ((3, None), (5, None), (4, 2)):
            perms = {i: identity(n) for i in (1, 2, 3) if i != missing}
            with pytest.raises(InvalidDimensionError,
                               match=rf"^user 1, file {missing or 1}: no permutation of "):
                generate_alg1(2, 3, perms, 1)

    def test_replay_bit_identical(self):
        perms = _random_perms(3, 3, seed=9)
        rng = random.Random(11)
        transcript = generate_alg1(3, 3, perms, 2)
        bundle = assemble_bundle(transcript, rng)
        assert replay_bundle(transcript, bundle.emission).per_db == bundle.per_db


class TestStructuralProperties:
    """Reference uniqueness, type counts and per-file totals on every bundle."""

    GRID = [(S, N) for S in (2, 3, 4, 5) for N in (2, 3, 4)]

    @pytest.mark.parametrize("S,N", GRID)
    def test_structure_over_draws(self, S, N):
        for d in range(1, N + 1):
            for trial in range(100):
                perms = _random_perms(S, N, seed=(S, N, d, trial).__hash__())
                bundle = assemble_bundle(generate_alg1(S, N, perms, d))
                report = check_structure(bundle)
                assert report.ok, report.failures[:3]
                rate = count_rate(bundle)
                assert rate == pir_rate(S, N)

    @pytest.mark.parametrize("S,N", [(2, 2), (3, 3), (4, 3)])
    def test_type_multiplicity_matches_phi(self, S, N):
        perms = _random_perms(S, N, seed=5)
        bundle = assemble_bundle(generate_alg1(S, N, perms, 1))
        for db0, queries in enumerate(bundle.per_db):
            by_type = Counter(_files(q, S ** (N - 1)) for q in queries)
            for t, cnt in by_type.items():
                assert cnt == phi(db0 + 1, S, len(t))

    def test_structural_demand_indistinguishability(self):
        # per database, the multiset of type multiplicities is demand-independent
        for S, N in [(2, 3), (3, 2), (4, 3)]:
            profiles = []
            for d in range(1, N + 1):
                perms = _random_perms(S, N, seed=d)
                bundle = assemble_bundle(generate_alg1(S, N, perms, d))
                per_db = []
                for queries in bundle.per_db:
                    by_type = Counter(_files(q, S ** (N - 1)) for q in queries)
                    per_db.append(sorted(
                        (len(t), c) for t, c in by_type.items()
                    ))
                profiles.append(per_db)
            assert all(p == profiles[0] for p in profiles)


class TestDecoding:
    def test_round_trip_all_demands(self):
        store = build_file_store(3, 1, 4, 2, seed=3)
        for d in (1, 2, 3):
            perms = _random_perms(4, 3, seed=d * 17)
            transcript = generate_alg1(4, 3, perms, d)
            bundle = assemble_bundle(transcript)
            answers = answer_bundle(store, bundle)
            out = decode_single(transcript, bundle, answers)
            for x in range(1, 17):
                assert out[x] == store.block(d, 1, x)

    def test_hand_example_recovery(self):
        store = build_file_store(2, 1, 2, 1, seed=8)
        perms = {1: identity(2), 2: identity(2)}
        transcript = generate_alg1(2, 2, perms, 2)
        bundle = assemble_bundle(transcript)
        answers = answer_bundle(store, bundle)
        out = decode_single(transcript, bundle, answers)
        assert out == {1: store.block(2, 1, 1), 2: store.block(2, 1, 2)}

    def test_tampered_answer_detected(self):
        store = build_file_store(3, 1, 3, 1, seed=2)
        perms = _random_perms(3, 3, seed=21)
        transcript = generate_alg1(3, 3, perms, 1)
        bundle = assemble_bundle(transcript)
        answers = answer_bundle(store, bundle)
        answers[1][0] ^= 0xFF
        out = decode_single(transcript, bundle, answers)
        mismatch = any(out[x] != store.block(1, 1, x) for x in range(1, 10))
        assert mismatch

    def test_reference_resolved_twice_raises(self):
        # database 1 lists the demand seed twice: an error, not an assert
        tr = generate_alg1(2, 3, _random_perms(2, 3, seed=4), 2)
        db1 = tr.records[1][0]
        seed = next(rec for rec in db1 if rec.fresh)
        tr.records = {1: (db1 + (seed,),) + tr.records[1][1:]}
        bundle = assemble_bundle(tr)
        answers = answer_bundle(build_file_store(3, 1, 2, 1, seed=0), bundle)
        f, pos = seed.refs[0]
        message = rf"^reference \({f}, 1, {tr.perms[1][f].images[pos - 1]}\) resolved twice$"
        with pytest.raises(UnresolvablePlanError, match=message):
            resolve_symbols(tr, bundle, answers)
        with pytest.raises(UnresolvablePlanError, match=message):
            decode_single(tr, bundle, answers)

    def test_answer_linearity(self):
        # answers to {a}, {b}, and {a+b} XOR to zero
        store = build_file_store(2, 1, 2, 4, seed=1)
        a = store.block(1, 1, 1)
        b = store.block(2, 1, 1)
        from mupir.core import xor_combine
        assert xor_combine([a, b, a ^ b]) == 0
