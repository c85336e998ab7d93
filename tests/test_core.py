"""Core model: blocks, stores, permutations, demands, canonical keys."""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mupir.core import (
    Permutation,
    Query,
    QueryAtom,
    QueryBundle,
    build_file_store,
    canonical_form,
    file_store_from_bytes,
    identity_permutation,
    sample_permutation,
    validate_demands,
    xor_combine,
)
from mupir.errors import DemandError, InvalidDimensionError, LengthMismatchError

blocks = st.integers(min_value=0, max_value=2 ** 128 - 1)  # up to 16 bytes


@given(blocks)
def test_xor_self_inverse(b):
    assert xor_combine([b, b]) == 0


@given(blocks)
def test_xor_identity(b):
    assert xor_combine([b]) == b
    assert xor_combine([b, 0]) == b


@given(st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1), min_size=2, max_size=6),
       st.randoms(use_true_random=False))
def test_xor_order_independent(bs, rnd):
    shuffled = list(bs)
    rnd.shuffle(shuffled)
    assert xor_combine(bs) == xor_combine(shuffled)


def test_xor_errors():
    with pytest.raises(LengthMismatchError):
        xor_combine([])


class TestFileStore:
    def test_dimensions(self):
        store = build_file_store(3, 1, 4, 1, seed=7)
        assert store.subpackets == 16
        assert len(store.data) == 3
        assert len(store.data[0][0]) == 16
        assert 0 <= store.block(1, 1, 1) < 2 ** 8

    def test_file_bits_matches_example(self):
        # 3 files x 3 subfiles x 9 subsubfiles of 1 byte: 27 blocks per file
        store = build_file_store(3, 3, 3, 1, seed=1)
        assert store.file_bits == 27 * 8
        assert store.subpackets == 9

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidDimensionError):
            build_file_store(1, 1, 2, 1, seed=0)
        with pytest.raises(InvalidDimensionError):
            build_file_store(2, 1, 1, 1, seed=0)

    def test_deterministic_from_seed(self):
        a = build_file_store(2, 2, 2, 4, seed=5)
        b = build_file_store(2, 2, 2, 4, seed=5)
        c = build_file_store(2, 2, 2, 4, seed=6)
        assert a.data == b.data
        assert a.data != c.data

    def test_import_from_raw(self):
        raw = bytes(range(2 * 2 * 2 * 1))
        store = file_store_from_bytes(raw, N=2, K=2, S=2, block_bytes=1)
        assert store.block(1, 1, 1) == 0x00
        assert store.block(2, 2, 2) == 0x07
        with pytest.raises(InvalidDimensionError):
            file_store_from_bytes(raw[:-1], N=2, K=2, S=2, block_bytes=1)

    def test_import_reads_slices_little_endian(self):
        raw = bytes(range(2 * 2 * 2 * 3))
        store = file_store_from_bytes(raw, N=2, K=2, S=2, block_bytes=3)
        assert store.block(1, 1, 1) == 0x020100
        assert store.block(1, 1, 2) == 0x050403
        assert store.block(2, 2, 2) == 0x171615

    @pytest.mark.parametrize("N,K,S,b,seed", [(2, 2, 2, 1, 0), (3, 2, 2, 5, 9),
                                              (2, 1, 3, 4096, "x")])
    def test_store_data_equals_randbytes_draws(self, N, K, S, b, seed):
        # blocks are ints, but the data is what randbytes would have drawn
        store = build_file_store(N, K, S, b, seed)
        rng = random.Random(f"{seed}:store")
        for i in range(1, N + 1):
            for j in range(1, K + 1):
                for x in range(1, S ** (N - 1) + 1):
                    assert store.block(i, j, x) == int.from_bytes(rng.randbytes(b), "little")


class TestPermutation:
    def test_forced_identity(self):
        rng = random.Random(0)
        p = sample_permutation(2, rng, tail_fixed=1)
        assert p.images == (1, 2)

    def test_tail_fixed_example(self):
        rng = random.Random(3)
        p = sample_permutation(9, rng, tail_fixed=5)
        for t in range(6, 10):
            assert p(t) == t
        assert sorted(p(t) for t in range(1, 6)) == [1, 2, 3, 4, 5]

    @given(st.integers(2, 10), st.integers(0, 10), st.integers(0, 2 ** 30))
    def test_tail_never_moved(self, n, H, seed):
        H = min(H, n)
        p = sample_permutation(n, random.Random(seed), tail_fixed=H)
        assert p.tail_fixed_from(H)

    def test_uniformity_chi_square(self):
        # 10^4 draws of a 5-permutation: every one of the 120 outcomes within
        # 5 sigma of the uniform expectation
        rng = random.Random(2024)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            p = sample_permutation(5, rng)
            counts[p.images] = counts.get(p.images, 0) + 1
        assert len(counts) == 120
        expect = draws / 120
        sigma = (draws * (1 / 120) * (119 / 120)) ** 0.5
        for c in counts.values():
            assert abs(c - expect) <= 5 * sigma

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidDimensionError):
            Permutation((1, 1, 3))


class TestDemands:
    def test_distinct_mode(self):
        assert validate_demands((2, 1, 3), 3, 3) == (2, 1, 3)
        with pytest.raises(DemandError):
            validate_demands((1, 1, 2), 3, 3)

    def test_covering_mode(self):
        assert validate_demands((1, 1, 2), 2, 3) == (1, 1, 2)
        with pytest.raises(DemandError):
            validate_demands((1, 1, 1), 2, 3)

    def test_range_and_regime(self):
        with pytest.raises(DemandError):
            validate_demands((0, 1), 2, 2)
        with pytest.raises(DemandError):
            validate_demands((1, 2), 3, 2)  # N > K


def _bundle_of(queries_per_db):
    per_db = [[Query(tuple(QueryAtom(*a) for a in q)) for q in db] for db in queries_per_db]
    emission = [[None] * len(db) for db in per_db]
    return QueryBundle(S=len(per_db), per_db=per_db, emission=emission)


class TestCanonicalForm:
    def test_order_invariant(self):
        a = _bundle_of([[((1, 1, 1),), ((2, 1, 2),)], []])
        b = _bundle_of([[((2, 1, 2),), ((1, 1, 1),)], []])
        assert canonical_form(a) == canonical_form(b)

    def test_content_sensitive(self):
        a = _bundle_of([[((1, 1, 1),)]])
        b = _bundle_of([[((1, 1, 2),)]])
        assert canonical_form(a) != canonical_form(b)

    @given(st.integers(0, 10_000))
    def test_order_invariance_on_generated_bundles(self, seed):
        from mupir.single_user import generate_alg1

        rng = random.Random(seed)
        perms = {i: sample_permutation(4, rng) for i in (1, 2, 3)}
        bundle, _ = generate_alg1(2, 3, perms, 1 + seed % 3)
        shuffled = QueryBundle(
            S=bundle.S,
            per_db=[sorted(db, key=lambda q: rng.random()) for db in bundle.per_db],
            emission=bundle.emission,
        )
        assert canonical_form(shuffled) == canonical_form(bundle)

    def test_slot_block_shape(self):
        # one demanded-file slot at S=3, N=3: first database sends three
        # singletons and four triple sums
        from mupir.core import identity_permutation
        from mupir.protocol import qset1

        perms = {i: identity_permutation(9) for i in (1, 2, 3)}
        per_db = qset1(1, perms, 2, 3, 3)
        bundle = QueryBundle(S=3, per_db=per_db, emission=[[None] * len(d) for d in per_db])
        key = canonical_form(bundle)
        sizes = sorted(len(q) for q in key[0])
        assert sizes == [1, 1, 1, 3, 3, 3, 3]
        assert sorted(len(q) for q in key[1]) == [2, 2, 2, 2, 2, 2, 3, 3]
