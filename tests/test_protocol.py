"""Multi-user protocol: placement, slot generators, sessions, decoding."""
import random
from collections import Counter

import pytest

from mupir.audit import check_structure
from mupir.core import (
    Permutation,
    build_file_store,
    identity_permutation,
    xor_combine,
)
from mupir.errors import (
    DemandError,
    InfeasibleSwapError,
    RegimeError,
    UnresolvablePlanError,
)
from mupir.gf2 import AnswerSystem
from mupir.harness import run_mupir_session
from mupir.params import cache_fraction, h_value, q_value
from mupir.protocol import (
    OmegaSpec,
    _run_symmetric_rounds,
    choose_base_and_rho,
    decode_user,
    generate_alg2,
    generate_alg3,
    placement,
    qset1,
    qset2,
    replay_bundle,
)


def _session(S, N, K, seed, demand=None, block_bytes=1):
    report, art = run_mupir_session(S, N, K, block_bytes, seed, demand=demand)
    return report, art


class TestPlacement:
    def test_cache_lines_example(self):
        store = build_file_store(3, 3, 3, 1, seed=0)
        _, caches = placement(store, identity_permutation(3))
        for u in (1, 2, 3):
            assert sorted(caches[u].lines) == [6, 7, 8, 9]

    def test_broadcast_size_and_cache_bits(self):
        # bits count block_bytes per line, not the bit length of the line's int
        M = cache_fraction(3, 3, 5)
        for block_bytes in (1, 2, 4096):
            store = build_file_store(3, 5, 3, block_bytes, seed=0)
            broadcast, caches = placement(store, identity_permutation(5))
            assert len(broadcast) == 5 * 4
            for u in caches:
                assert caches[u].bits == M * store.file_bits

    def test_line_peeling(self):
        store = build_file_store(3, 3, 3, 4, seed=9)
        _, caches = placement(store, identity_permutation(3))
        line = caches[2].lines[7]
        rest = xor_combine([store.block(i, 2, 7) for i in (1, 2)])
        assert line ^ rest == store.block(3, 2, 7)

    def test_regime_error(self):
        store = build_file_store(3, 2, 3, 1, seed=0)
        with pytest.raises(RegimeError):
            placement(store, identity_permutation(2))


class TestQset1:
    def test_counts_and_split(self):
        perms = {i: identity_permutation(9) for i in (1, 2, 3)}
        per_db = qset1(1, perms, 2, 3, 3)
        assert [len(db) for db in per_db] == [7, 8, 8]
        assert sum(len(db) for db in per_db) == q_value(3, 3)

    def test_fresh_exposure_totals(self):
        # all 9 subsubfiles of the off-demand files, 5 of the demand file
        from mupir.protocol import qset1_schedule

        fresh = Counter()
        for db in qset1_schedule(3, 3, 2):
            for rec in db:
                fresh[rec.fresh_file] += 1
        assert fresh == Counter({1: 9, 2: 5, 3: 9})

    def test_small_case_count(self):
        perms = {1: identity_permutation(2), 2: identity_permutation(2)}
        per_db = qset1(1, perms, 1, 2, 2)
        assert sum(len(db) for db in per_db) == q_value(2, 2) == 3

    def test_demand_tail_untouched(self):
        # demand-file references stay within the first H permutation slots
        from mupir.protocol import qset1_schedule

        H = h_value(3, 3)
        for d in (1, 2, 3):
            for db in qset1_schedule(3, 3, d):
                for rec in db:
                    for f, pos in [(rec.fresh_file, rec.fresh_pos)] + list(rec.old_picks):
                        if f == d:
                            assert pos <= H


class TestQset2:
    def test_counts(self):
        perms = {i: identity_permutation(9) for i in (1, 2, 3)}
        omega = OmegaSpec(pairs=((1, 1, 2), (2, 3, 2), (3, 1, 2)))
        per_db = qset2(omega, perms, 3, 3)
        assert [len(db) for db in per_db] == [9, 9, 9]

    def test_atom_pairing(self):
        perms = {i: identity_permutation(2) for i in (1, 2)}
        omega = OmegaSpec(pairs=((1, 1, 3), (2, 2, 3)))
        per_db = qset2(omega, perms, 2, 2)
        assert sum(len(db) for db in per_db) == 2 * 2  # N * S^(N-1)
        for db in per_db:
            for q in db:
                groups = Counter((a.file, a.subsub) for a in q.atoms)
                assert all(c == 2 for c in groups.values())
                assert len(q.atoms) == 2 * len(groups)

    def test_rejects_degenerate_pair(self):
        with pytest.raises(DemandError):
            OmegaSpec(pairs=((1, 2, 2),))


class TestSwapRebalancing:
    @staticmethod
    def _mult(s, k):
        return 1 if s == 1 and k in (1, 2) else 0

    def test_swap_path_preserves_counts(self):
        # synthetic quotas that strand the second file-2 insertion: pool runs
        # out of 2-containing types and the engine must rebalance via an
        # earlier query of this block
        quota = lambda s, k, i: (
            1 if (s, k) == (1, 1) else {1: 1, 2: 2, 3: 0}[i] if (s, k) == (1, 2) else 0
        )
        per_db, t = _run_symmetric_rounds(3, 3, self._mult, quota)
        block = [q for q in per_db[0] if q.k == 2]
        types = Counter(q.type_set for q in block)
        assert types == Counter({(1, 2): 1, (1, 3): 1, (2, 3): 1})
        fresh = Counter(q.fresh_file for q in block)
        assert fresh == Counter({1: 1, 2: 2})
        for q in block:
            assert q.fresh_pos > 1
            assert all(pos == 1 for _, pos in q.old_picks)

    def test_swap_error_when_unsalvageable(self):
        quota = lambda s, k, i: (
            1 if (s, k) == (1, 1) else {1: 3, 2: 0, 3: 0}[i] if (s, k) == (1, 2) else 0
        )
        with pytest.raises(InfeasibleSwapError):
            _run_symmetric_rounds(3, 3, self._mult, quota)

    def test_swap_fires_on_real_parameters_and_stays_correct(self):
        # with eight files and two databases the ceiling-induced quota
        # asymmetry strands several insertions per slot, so the swap path runs
        # on genuine counting parameters; the session must still audit and
        # decode exactly for every user
        import random

        from mupir.core import answer_bundle, sample_permutation
        from mupir.protocol import resolve_symbols

        S, N, K = 2, 8, 8
        rng = random.Random(5)
        store = build_file_store(N, K, S, 1, seed=5)
        demands = list(range(1, N + 1))
        rng.shuffle(demands)
        demands = tuple(demands)
        P = sample_permutation(K, rng)
        H = h_value(S, N)
        sub = S ** (N - 1)
        _, caches = placement(store, P)
        perms = {
            c: {
                i: sample_permutation(
                    sub, rng, tail_fixed=H if i == demands[c - 1] else None)
                for i in range(1, N + 1)
            }
            for c in range(1, K + 1)
        }
        bundle, tr = generate_alg2(S, N, K, demands, P, perms)
        assert check_structure(bundle, S, N).ok
        answers = answer_bundle(store, bundle)
        syms = resolve_symbols(tr, bundle, answers)
        for u in (1, K):
            got = decode_user(u, tr, bundle, answers, caches[u], symbols=syms,
                              run_oracle=False)
            d = demands[u - 1]
            assert all(got[(j, x)] == store.block(d, j, x)
                       for j in range(1, K + 1) for x in range(1, sub + 1))


class TestBaseAndRho:
    def test_five_user_alignment_example(self):
        rng = random.Random(0)
        base, rho = choose_base_and_rho((2, 3, 2, 1, 3), 3, 5, rng)
        assert base == (1, 2, 4)
        assert rho[3] == {1: 2, 2: 1, 3: 4}
        assert rho[5] == {1: 1, 2: 4, 3: 2}

    def test_two_file_fallback(self):
        rng = random.Random(0)
        base, rho = choose_base_and_rho((1, 1, 2), 2, 3, rng)
        assert base == (1, 3)
        assert rho[2] == {1: 1, 2: 1}  # both files pair with the demand twin

    def test_coverage_error(self):
        with pytest.raises(DemandError):
            choose_base_and_rho((1, 1, 1), 2, 3, random.Random(0))

    def test_regime(self):
        with pytest.raises(RegimeError):
            choose_base_and_rho((1, 2), 2, 2, random.Random(0))


class TestSessions:
    def test_equal_demands_example(self):
        report, art = _session(3, 3, 3, seed=42, demand=(2, 1, 3))
        assert report["rate_exact"] == "23/9"
        assert sum(report["per_db_query_counts"]) == 3 * q_value(3, 3) == 69
        assert report["decode_ok"] and report["audit_ok"]

    def test_covering_demands_example(self):
        report, art = _session(3, 3, 5, seed=7, demand=(2, 3, 2, 1, 3))
        assert report["rate_exact"] == "41/15"
        assert sum(report["per_db_query_counts"]) == 3 * 23 + 3 * 2 * 9 == 123
        assert report["decode_ok"] and report["audit_ok"]

    def test_small_covering_count(self):
        report, _ = _session(2, 2, 3, seed=1, demand=(1, 2, 1))
        assert sum(report["per_db_query_counts"]) == 2 * 3 + 2 * 1 * 2 == 10
        assert report["rate_exact"] == "5/3"
        assert report["decode_ok"]

    def test_duplicate_demands_rejected_when_equal(self):
        with pytest.raises(DemandError):
            _session(2, 2, 2, seed=0, demand=(1, 1))

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            run_mupir_session(3, 3, 2, 1, seed=0)
        store_perms = {
            c: {i: identity_permutation(9) for i in (1, 2, 3)} for c in (1, 2, 3)
        }
        with pytest.raises(RegimeError):
            generate_alg3(3, 3, 3, (1, 2, 3), identity_permutation(3), (1, 2, 3),
                          {}, store_perms)
        with pytest.raises(RegimeError):
            generate_alg2(3, 3, 4, (1, 2, 3, 1), identity_permutation(4), {})

    def test_tail_constraint_enforced(self):
        perms = {
            c: {i: identity_permutation(2) for i in (1, 2)} for c in (1, 2)
        }
        # make user 1's demand permutation move position 2: invalid
        perms[1][1] = Permutation((2, 1))
        with pytest.raises(DemandError):
            generate_alg2(2, 2, 2, (1, 2), identity_permutation(2), perms)

    def test_replay_bit_identical(self):
        for demand in [(2, 1, 3), None]:
            report, art = _session(3, 3, 3, seed=5, demand=demand)
            bundle = art["bundle"]
            assert replay_bundle(art["transcript"], bundle.emission).per_db == bundle.per_db
        report, art = _session(2, 2, 4, seed=6)
        bundle = art["bundle"]
        assert replay_bundle(art["transcript"], bundle.emission).per_db == bundle.per_db


class TestDecodeDetail:
    def test_user_one_decode_breakdown(self):
        # demand vector (2,1,3): user 1 sees its demanded file completely at
        # the other users' slots and only the first 5 subsubfiles at its own;
        # the cache supplies the remaining 4
        report, art = _session(3, 3, 3, seed=42, demand=(2, 1, 3))
        tr = art["transcript"]
        symbols = art["symbols"]
        own_slot = tr.user_slots[0]
        H = tr.H
        exposed_own = sorted(
            x for (tag, f, j, x) in symbols
            if tag == "w" and f == 2 and j == own_slot
        )
        assert exposed_own == list(range(1, H + 1))
        for other in (2, 3):
            slot = tr.user_slots[other - 1]
            exposed = sorted(
                x for (tag, f, j, x) in symbols
                if tag == "w" and f == 2 and j == slot
            )
            assert exposed == list(range(1, 10))

    def test_pair_split_user(self):
        # the covering example: a non-base user reassembles both the twin's
        # subfile and its own from the paired differences
        report, art = _session(3, 3, 5, seed=7, demand=(2, 3, 2, 1, 3))
        store, tr = art["store"], art["transcript"]
        assert tr.base_set == (1, 2, 4)
        got = art["decoded"][3]
        for j in range(1, 6):
            for x in range(1, 10):
                assert got[(j, x)] == store.block(2, j, x)

    def test_every_user_every_grid_cell(self):
        for S in (2, 3):
            for N in (2, 3):
                for K in range(N, 6):
                    report, art = _session(S, N, K, seed=13 * S + K)
                    assert report["decode_ok"], (S, N, K)

    def test_oracle_agreement_is_checked(self):
        # decode_user runs the GF(2) oracle; corrupting one answer must be
        # caught as a mismatch against the store or a plan failure
        report, art = _session(2, 2, 2, seed=3, demand=(1, 2))
        store, tr, bundle = art["store"], art["transcript"], art["bundle"]
        answers = [list(row) for row in art["answers"]]
        answers[0][0] ^= 1
        try:
            out = decode_user(1, tr, bundle, answers, art["caches"][1])
            changed = any(
                out[(j, x)] != store.block(tr.demand[0], j, x)
                for j in (1, 2) for x in (1, 2)
            )
            assert changed
        except UnresolvablePlanError:
            pass

    def test_oracle_catches_tampered_symbol(self):
        # correct answers, one wrong peeled symbol: only the oracle sees it
        report, art = _session(3, 3, 3, seed=42, demand=(2, 1, 3), block_bytes=4)
        tr, bundle, answers = art["transcript"], art["bundle"], art["answers"]
        symbols = dict(art["symbols"])
        key = ("w", 2, tr.user_slots[1], 1)
        symbols[key] ^= 0xFFFFFFFF  # every bit of the 4-byte block
        cache = art["caches"][1]
        out = decode_user(1, tr, bundle, answers, cache, symbols=symbols,
                          run_oracle=False)
        assert out[(tr.user_slots[1], 1)] == symbols[key]
        with pytest.raises(UnresolvablePlanError, match="disagree"):
            decode_user(1, tr, bundle, answers, cache, symbols=symbols)

    def test_shared_system_gives_same_output(self):
        for args in [(3, 3, 5, 7), (2, 3, 3, 2)]:
            report, art = _session(*args, block_bytes=3)
            tr, bundle, answers = art["transcript"], art["bundle"], art["answers"]
            system = AnswerSystem(bundle, answers, tr.K, tr.S ** (tr.N - 1))
            for u in range(1, tr.K + 1):
                shared = decode_user(u, tr, bundle, answers, art["caches"][u],
                                     system=system)
                own = decode_user(u, tr, bundle, answers, art["caches"][u])
                assert shared == own == art["decoded"][u]
