"""Exact combinatorics: repetition counts, q/H/M, rates, dominance."""
from fractions import Fraction
from math import comb

import pytest

from mupir.errors import RegimeError
from mupir.params import (
    SchemeParams,
    base_reps,
    cache_fraction,
    f_rep,
    h_value,
    pd_rate,
    phi,
    pir_rate,
    proposed_rate,
    psi,
    q_value,
    _pd_points,
)

# every supported triple with S 2-6, N 2-7 and K from N to 12
GRID = [(S, N, K) for S in range(2, 7) for N in range(2, 8) for K in range(N, 13)]


class TestBaseReps:
    def test_golden_values(self):
        assert base_reps(3, 3) == (2, 1)
        assert base_reps(4, 3) == (3, 2)
        for S in range(2, 8):
            assert base_reps(S, 1) == (1, 0)
            assert base_reps(S, 2) == (0, 1)

    def test_parity_at_two_databases(self):
        for k in range(1, 12):
            g, f = base_reps(2, k)
            assert g == (1 if k % 2 == 1 else 0)
            assert f == 1 - g

    def test_closed_form_matches_recurrence_everywhere(self):
        # base_reps itself asserts agreement; drive it across the range,
        # past its memo so that every (S, k) is computed here
        for S in range(2, 17):
            for k in range(1, 17):
                base_reps.__wrapped__(S, k)


class TestPhiPsi:
    def test_phi_examples(self):
        assert phi(1, 4, 2) == 0
        assert phi(2, 4, 2) == 1
        assert phi(1, 3, 3) == 2

    def test_psi_examples(self):
        assert psi(1, 3, 3, 3) == 4
        assert psi(2, 3, 3, 3) == 2
        for S in range(2, 7):
            for N in range(2, 7):
                assert psi(2, S, N, 1) == 0

    def test_psi_at_most_k_phi(self):
        for S in range(2, 7):
            for N in range(2, 7):
                for k in range(1, N + 1):
                    for s in (1, 2):
                        assert psi(s, S, N, k) <= k * phi(s, S, k)


class TestFRep:
    def test_examples(self):
        assert f_rep(1, 1, 2, 3, 3, 3) == 2  # off-demand file, triple sums
        assert f_rep(1, 2, 2, 3, 3, 3) == 0  # demand file gets none there

    def test_row_sums(self):
        for S in range(2, 7):
            for N in range(2, 7):
                for d in range(1, N + 1):
                    for k in range(1, N + 1):
                        for s in range(1, S + 1):
                            total = sum(f_rep(s, i, d, k, S, N) for i in range(1, N + 1))
                            assert total == comb(N, k) * psi(s, S, N, k)

    def test_column_sums(self):
        for S in range(2, 7):
            for N in range(2, 7):
                H = h_value(S, N)
                for d in range(1, N + 1):
                    for i in range(1, N + 1):
                        total = sum(
                            f_rep(s, i, d, k, S, N)
                            for k in range(1, N + 1)
                            for s in range(1, S + 1)
                        )
                        assert total == (H if i == d else S ** (N - 1))


class TestCountingIdentities:
    def test_per_file_reference_total(self):
        for S in range(2, 7):
            for N in range(2, 7):
                total = sum(
                    comb(N - 1, k - 1) * phi(s, S, k)
                    for k in range(1, N + 1)
                    for s in range(1, S + 1)
                )
                assert total == S ** (N - 1)

    def test_total_query_count(self):
        for S in range(2, 7):
            for N in range(2, 7):
                total = sum(
                    comb(N, k) * phi(s, S, k)
                    for k in range(1, N + 1)
                    for s in range(1, S + 1)
                )
                assert total == (S ** N - 1) // (S - 1)


class TestQHM:
    def test_q_golden(self):
        assert q_value(3, 3) == 23

    def test_q_closed_forms(self):
        for N in range(2, 11):
            assert q_value(2, N) == N * 2 ** (N - 1) - 1
        for S in range(2, 11):
            assert q_value(S, 2) == S + 1

    def test_h_golden(self):
        assert h_value(3, 3) == 5

    def test_h_range(self):
        for S in range(2, 7):
            for N in range(2, 7):
                assert 0 < h_value(S, N) <= S ** (N - 1)

    def test_h_memo_matches_uncached_grid(self):
        # h_value is memoised; compute every (S, N) past the memo, which
        # also runs its range check, and compare with the cached value
        for S in range(2, 9):
            for N in range(2, 9):
                H = h_value.__wrapped__(S, N)
                assert H == q_value(S, N) - (N - 1) * S ** (N - 1)
                assert h_value(S, N) == H

    def test_cache_fraction_examples(self):
        assert cache_fraction(3, 3, 3) == Fraction(4, 27)
        assert cache_fraction(3, 3, 5) == Fraction(4, 45)
        # at L = 27 bits and L = 45 bits both give 4-bit caches
        assert cache_fraction(3, 3, 3) * 27 == 4
        assert cache_fraction(3, 3, 5) * 45 == 4

    def test_cache_fraction_regime(self):
        with pytest.raises(RegimeError):
            cache_fraction(3, 3, 2)


class TestRates:
    def test_proposed_rate_examples(self):
        assert proposed_rate(3, 3, 3) == Fraction(23, 9)
        assert proposed_rate(3, 3, 5) == Fraction(41, 15)
        assert proposed_rate(2, 2, 2) == Fraction(3, 2)

    def test_proposed_rate_regime(self):
        with pytest.raises(RegimeError):
            proposed_rate(3, 3, 2)

    def test_rate_is_n_times_one_minus_the_cache_fraction(self):
        # R = N(1 - M) exactly wherever K >= N: the s = N term of the
        # cut-set bound, so at N = K the scheme downloads no more than any
        # scheme could at its M
        triples = [(S, N, K) for S in range(2, 7) for N in range(2, 8)
                   for K in range(N, 13)]
        assert len(triples) == 255
        for S, N, K in triples:
            assert proposed_rate(S, N, K) == N * (1 - cache_fraction(S, N, K)), (S, N, K)

    def test_pir_rate(self):
        assert pir_rate(4, 3) == Fraction(21, 16)
        assert pir_rate(2, 3) == Fraction(7, 4)
        assert pir_rate(5, 1) == 1

    def test_pd_rate_values(self):
        assert abs(float(pd_rate(3, 3, 3, Fraction(4, 27))) - 2.769) < 1e-3
        assert pd_rate(3, 3, 3, Fraction(4, 27)) == Fraction(673, 243)

    def test_pd_rate_full_cache(self):
        for S, N, K in [(2, 2, 2), (3, 3, 4), (4, 2, 5)]:
            assert pd_rate(S, N, K, N) == 0

    def test_pd_rate_corner_points(self):
        # integer corner points return the defining min() value
        S, N, K = 3, 3, 3
        A = pir_rate(S, N)
        for t in range(1, K + 1):
            got = pd_rate(S, N, K, Fraction(t * N, K))
            want = min(N * (1 - Fraction(t, K)), Fraction(K - t, t + 1) * A)
            assert got == want

    def test_pd_rate_is_the_lower_envelope_at_every_corner(self):
        # at a corner M = tN/K the baseline is the lowest chord between two
        # points of (0, N) and the corners that straddle it (memory sharing),
        # not the corner's own min(): 590 corners of the grid lie above it
        above = 0
        for S, N, K in GRID:
            pts = _pd_points(S, N, K)
            for M, R in pts:
                chords = [y1 + (y2 - y1) * (M - x1) / (x2 - x1)
                          for x1, y1 in pts if x1 < M for x2, y2 in pts if x2 > M]
                envelope = min([R] + chords)
                assert pd_rate(S, N, K, M) == envelope, (S, N, K, M)
                above += R > envelope
        assert above == 590
        assert pd_rate(3, 3, 4, Fraction(3, 4)) == Fraction(107, 54)

    def test_cache_fraction_is_never_a_corner(self):
        # q > 0 puts M below N/K, the first corner, and M > 0 above (0, N),
        # so no session's M sits on a breakpoint of the envelope
        for S, N, K in GRID:
            assert cache_fraction(S, N, K) not in {M for M, _ in _pd_points(S, N, K)}

    def test_pd_rate_range_check(self):
        with pytest.raises(Exception):
            pd_rate(2, 2, 2, Fraction(5, 2))


class TestDominance:
    def test_example_margin(self):
        rep = SchemeParams.compute(3, 3, 3)
        assert rep.ok
        assert rep.envelope_margin == Fraction(673, 243) - Fraction(23, 9)
        assert abs(float(rep.envelope_margin) - 0.213) < 1.5e-3

    def test_small_case(self):
        assert SchemeParams.compute(2, 2, 2).ok

    def test_exhaustive_grid(self):
        for S in range(2, 7):
            for N in range(2, 7):
                for K in range(N, 9):
                    rep = SchemeParams.compute(S, N, K)
                    assert rep.ok, (S, N, K)
                    assert rep.slack_nsq == N * S ** (N - 1) - q_value(S, N)


def test_scheme_params_container():
    p = SchemeParams.compute(3, 3, 5)
    assert (p.q, p.H) == (23, 5)
    assert p.M == Fraction(4, 45)
    assert p.R_proposed == Fraction(41, 15)
    assert p.R_pir == Fraction(13, 9)


class TestSchemeParamsRecord:
    """`SchemeParams` is the one record of a triple's exact analysis, the
    rate-dominance margins included."""

    def test_matches_explicit_formulas(self):
        for S in range(2, 7):
            for N in range(2, 7):
                A = pir_rate(S, N)
                for K in range(N, 9):
                    p = SchemeParams.compute(S, N, K)
                    M, R = cache_fraction(S, N, K), proposed_rate(S, N, K)
                    assert (p.q, p.H, p.M, p.R_proposed, p.R_pir) == (
                        q_value(S, N), h_value(S, N), M, R, A)
                    assert p.R_pd == pd_rate(S, N, K, M)
                    assert p.envelope_margin == p.R_pd - R
                    assert p.slack_nsq == N * S ** (N - 1) - q_value(S, N)
                    corners = [(Fraction(t * N, K),
                                min(N * (1 - Fraction(t, K)), Fraction(K - t, t + 1) * A))
                               for t in range(1, K + 1)]
                    assert p.chord_margins == tuple(N - (N - Rt) * M / Mt - R
                                                    for Mt, Rt in corners)

    def test_more_files_than_users_fails_in_cache_fraction(self):
        with pytest.raises(RegimeError, match="cache_fraction needs K>=N"):
            SchemeParams.compute(2, 3, 2)
