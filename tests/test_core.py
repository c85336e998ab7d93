"""Core model: blocks, stores, permutations, demands, canonical keys."""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mupir.core import (
    Permutation,
    Query,
    QueryBundle,
    answer_bundle,
    atom,
    atom_triple,
    build_file_store,
    canonical_form,
    canonical_view,
    query_refs,
    sample_permutation,
    shuffle,
    validate_demands,
    xor_combine,
)
from mupir.errors import DemandError, InvalidDimensionError
from mupir.harness import run_mupir_session

from conftest import identity

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
    with pytest.raises(InvalidDimensionError):
        xor_combine([])


class TestFileStore:
    def test_dimensions(self):
        store = build_file_store(3, 1, 4, 1, seed=7)
        assert store.subpackets == 16
        assert len(store.data) == 3 * 1 * 16  # flat: N files of K subfiles of 16
        assert 0 <= store.block(1, 1, 1) < 2 ** 8

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


shapes = st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 30))  # N, K, sub


def triples(shape):
    N, K, sub = shape
    return st.tuples(st.integers(1, N), st.integers(1, K), st.integers(1, sub))


class TestAtom:
    """An atom is its subsubfile's index in the store's flat block tuple."""

    @given(shapes.flatmap(lambda shape: st.tuples(st.just(shape), triples(shape))))
    def test_atom_triple_inverts_atom(self, case):
        (N, K, sub), t = case
        a = atom(*t, K, sub)
        assert 0 <= a < N * K * sub
        assert atom_triple(a, K, sub) == t

    @given(shapes.flatmap(lambda shape: st.tuples(st.just(shape),
                                                  st.lists(triples(shape), max_size=20))))
    def test_sorting_atoms_sorts_their_triples(self, case):
        (_, K, sub), ts = case
        atoms = sorted(atom(*t, K, sub) for t in ts)
        assert [atom_triple(a, K, sub) for a in atoms] == sorted(ts)

    @given(shapes.flatmap(lambda shape: st.tuples(st.just(shape),
                                                  st.lists(triples(shape), max_size=8))))
    def test_query_refs_groups_atoms_by_subsubfile(self, case):
        # any atoms, repeats and any order included: a reference is the
        # slot-1 atom of its (file, subsub), with its slots in atom order
        (_, K, sub), ts = case
        groups = {}
        for f, j, x in ts:
            groups[(f, x)] = groups.get((f, x), ()) + (j,)
        files, slots, refs = query_refs(tuple(atom(*t, K, sub) for t in ts), K, sub)
        assert sorted(refs) == [atom(f, 1, x, K, sub) for f, x in sorted(groups)]
        assert files == [f for f, _ in groups]
        assert slots == list(groups.values())

    @given(st.integers(2, 3), st.integers(1, 3), st.integers(2, 3), st.data())
    def test_answer_bundle_xors_the_blocks_its_atoms_name(self, N, K, S, data):
        store = build_file_store(N, K, S, 2, seed=(N, K, S))
        n = N * K * store.subpackets
        queries = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=5),
                                     max_size=6))
        # every query goes to database 1 of the store's S
        per_db = [[Query(tuple(q)) for q in queries]] + [[] for _ in range(S - 1)]
        bundle = QueryBundle(S=S, N=N, K=K, per_db=per_db,
                             emission=[[None] * len(db) for db in per_db])
        want = [xor_combine([store.block(*atom_triple(a, K, store.subpackets)) for a in q])
                for q in queries]
        assert answer_bundle(store, bundle) == [want] + [[] for _ in range(S - 1)]


class TestShuffle:
    """`core.shuffle` must make `random.Random.shuffle`'s draws exactly:
    sessions, golden reports and bundles depend on every draw.  A change in
    a future Python's shuffle shows up here before the golden digests."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_matches_stdlib_draw_for_draw(self, seed):
        for n in [*range(301), 4096]:
            ours, stdlib = random.Random(f"{seed}:{n}"), random.Random(f"{seed}:{n}")
            got, want = list(range(n)), list(range(n))
            shuffle(got, ours)
            stdlib.shuffle(want)
            assert got == want, n
            assert ours.getstate() == stdlib.getstate(), n

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_tail_fixed_draw_matches_stdlib(self, seed):
        # the free draw is checked in TestPermutation.test_free_draw_is_the_whole_head
        for n in range(1, 60):
            for H in (0, 1, n // 2, n - 1):
                ours, stdlib = random.Random(seed), random.Random(seed)
                head = list(range(1, H + 1))
                stdlib.shuffle(head)
                p = sample_permutation(n, ours, tail_fixed=H)
                assert p.images == tuple(head) + tuple(range(H + 1, n + 1))
                assert ours.getstate() == stdlib.getstate()


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

    def test_free_draw_is_the_whole_head(self):
        # no tail_fixed is tail_fixed = n, and both are one shuffle of [n]:
        # the same draw, leaving the generator in the same state
        for n in range(40):
            for seed in range(30):
                free, fixed, plain = (random.Random(seed) for _ in range(3))
                vals = list(range(1, n + 1))
                plain.shuffle(vals)
                p = sample_permutation(n, free)
                assert p == sample_permutation(n, fixed, tail_fixed=n)
                assert p.images == tuple(vals)
                assert free.getstate() == fixed.getstate() == plain.getstate()

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
    """A bundle of (file, subfile, subsub) triples, as atoms of 2 subfiles of 4
    (S = 2, N = 3); a database not listed gets no queries."""
    per_db = [[Query(tuple(atom(*t, 2, 4) for t in q)) for q in db] for db in queries_per_db]
    per_db += [[] for _ in range(2 - len(per_db))]
    emission = [[None] * len(db) for db in per_db]
    return QueryBundle(S=2, N=3, K=2, per_db=per_db, emission=emission)


def test_query_repr_equality_hash_and_canonical():
    # reports, canonical keys and replay compare queries by these; the hash
    # is that of the one-field tuple (atoms,).  With 2 subfiles of 3, the
    # atoms are (2, 1, 3), (1, 2, 1) and (1, 1, 2).
    atoms = (8, 3, 1)
    assert atoms == tuple(atom(*t, 2, 3) for t in ((2, 1, 3), (1, 2, 1), (1, 1, 2)))
    q = Query(atoms)
    assert repr(q) == "Query(atoms=(8, 3, 1))"
    assert q == Query(atoms=atoms) and q != Query(atoms[:2])
    assert hash(q) == hash(Query(atoms)) == hash((atoms,))
    assert len({q, Query(atoms), Query(atoms[:2])}) == 2
    assert canonical_view([q]) == ((1, 3, 8),)
    assert q.atoms is atoms
    with pytest.raises(AttributeError):
        q.atoms = ()


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
        from mupir.protocol import assemble_bundle, generate_alg1

        rng = random.Random(seed)
        perms = {i: sample_permutation(4, rng) for i in (1, 2, 3)}
        bundle = assemble_bundle(generate_alg1(2, 3, perms, 1 + seed % 3))
        shuffled = QueryBundle(
            S=bundle.S, N=bundle.N, K=bundle.K,
            per_db=[sorted(db, key=lambda q: rng.random()) for db in bundle.per_db],
            emission=bundle.emission,
        )
        assert canonical_form(shuffled) == canonical_form(bundle)

    def test_slot_block_shape(self):
        # one demanded-file slot at S=3, N=3: first database sends three
        # singletons and four triple sums
        from mupir.core import SlotInfo
        from mupir.protocol import materialize, qset1_schedule

        perms = {i: identity(9) for i in (1, 2, 3)}
        per_db = materialize(qset1_schedule(3, 3, 2), perms, SlotInfo(kind="qset1", subfile=1),
                             1)
        bundle = QueryBundle(S=3, N=3, K=1, per_db=per_db,
                             emission=[[None] * len(d) for d in per_db])
        key = canonical_form(bundle)
        sizes = sorted(len(q) for q in key[0])
        assert sizes == [1, 1, 1, 3, 3, 3, 3]
        assert sorted(len(q) for q in key[1]) == [2, 2, 2, 2, 2, 2, 3, 3]


def test_answer_bundle_matches_per_atom_reference(block_session):
    _, art = block_session
    store, bundle = art["store"], art["bundle"]
    triple = lambda a: atom_triple(a, store.K, store.subpackets)
    want = [[xor_combine([store.block(*triple(a)) for a in q.atoms]) for q in queries]
            for queries in bundle.per_db]
    got = answer_bundle(store, bundle)
    assert got == want
    # a one-atom answer is the store's own block, never a copy
    singles = [(q.atoms[0], a) for queries, row in zip(bundle.per_db, got)
               for q, a in zip(queries, row) if len(q.atoms) == 1]
    assert singles
    assert all(a is store.block(*triple(first)) for first, a in singles)


@pytest.mark.parametrize("db0,n,query,message", [
    (0, 0, Query(()), r"^database 1, query 1 has no atoms$"),
    (1, 1, Query((0, 8)), r"^database 2, query 2 names an atom past the store's 8 blocks$"),
])
def test_answer_bundle_refuses_a_malformed_query(db0, n, query, message):
    _, art = run_mupir_session(2, 2, 2, 1, seed=0)
    bundle = art["bundle"]
    bundle.per_db[db0][n] = query
    with pytest.raises(InvalidDimensionError, match=message):
        answer_bundle(art["store"], bundle)
