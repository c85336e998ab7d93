"""Exact-rational scheme parameters, repetition counts and rate formulas.

Everything here is computed over exact integers/fractions; decimals appear
only at presentation time.  The strict rate-dominance inequalities are
decided in exact arithmetic so floating error can never flip them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import InvalidDimensionError, RegimeError

# Rational numbers are plain fractions.Fraction values: arbitrary precision,
# always reduced, positive denominator.
Rational = Fraction


def _g_closed(S: int, k: int) -> Fraction:
    return Fraction(S - 1, S) * ((-1) ** (k - 1) + Fraction(S - 1) ** (k - 2))


def _f_closed(S: int, k: int) -> Fraction:
    return Fraction(1, S) * ((-1) ** k + Fraction(S - 1) ** (k - 1))


@lru_cache(maxsize=None)
def base_reps(S: int, k: int) -> tuple:
    """Per-database repetition counts (g, f) of a k-sum type.

    g counts repetitions in the distinguished first database, f in each of
    the others.  Computed both by recurrence and closed form; the two must
    agree exactly.  Memoised, so the check runs once per (S, k).
    """
    if S < 2 or k < 1:
        raise InvalidDimensionError(f"base_reps needs S>=2, k>=1, got S={S}, k={k}")
    if k == 1:
        g_rec, f_rec = 1, 0
    else:
        g_rec, f_rec = 0, 1  # k = 2
        for _ in range(k - 2):
            g_rec, f_rec = (S - 1) * f_rec, (S - 2) * f_rec + g_rec
    gc, fc = _g_closed(S, k), _f_closed(S, k)
    assert gc == g_rec and fc == f_rec, (S, k, gc, g_rec, fc, f_rec)
    return g_rec, f_rec


def phi(s: int, S: int, k: int) -> int:
    """Repetition count of each k-sum type in database s (single-user scheme)."""
    g, f = base_reps(S, k)
    return g if s == 1 else f


def psi(s: int, S: int, N: int, k: int) -> int:
    """Repetition count of each k-sum type in database s (multi-user scheme)."""
    return math.ceil(Fraction(k * (N - 1), N) * phi(s, S, k))


def f_rep(s: int, i: int, d: int, k: int, S: int, N: int) -> int:
    """How many k-sums in database s carry a fresh subsubfile of file i,
    given demand d.  Nonnegative by construction."""
    if i != d:
        val = comb(N - 1, k - 1) * phi(s, S, k)
    else:
        val = comb(N, k) * psi(s, S, N, k) - (N - 1) * comb(N - 1, k - 1) * phi(s, S, k)
    assert val >= 0, (s, i, d, k, S, N, val)
    return val


@lru_cache(maxsize=None)
def q_value(S: int, N: int) -> int:
    """Total queries one qset1 block sends across all S databases.  Memoised:
    `SchemeParams.compute` reads it three times."""
    if S < 2 or N < 2:
        raise InvalidDimensionError(f"q_value needs S>=2, N>=2, got S={S}, N={N}")
    return sum(
        comb(N, k) * psi(s, S, N, k) for k in range(1, N + 1) for s in range(1, S + 1)
    )


@lru_cache(maxsize=None)
def h_value(S: int, N: int) -> int:
    """Subsubfiles of the demanded subfile recovered directly (the rest come
    from the cache).  Memoised, so its range check runs once per (S, N)."""
    H = q_value(S, N) - (N - 1) * S ** (N - 1)
    assert 0 < H <= S ** (N - 1), (S, N, H)
    return H


def cache_fraction(S: int, N: int, K: int) -> Rational:
    """Per-user cache size M as a fraction of one file."""
    if K < N:
        raise RegimeError(f"cache_fraction needs K>=N, got N={N}, K={K}")
    M = Fraction(N * S ** (N - 1) - q_value(S, N), K * S ** (N - 1))
    assert 0 < M < Fraction(N, K)
    return M


def proposed_rate(S: int, N: int, K: int) -> Rational:
    """Download rate of the cache-aided scheme (exact)."""
    if N > K:
        raise RegimeError(f"unsupported regime N={N} > K={K}")
    return Fraction(N, K) * (Fraction(q_value(S, N), S ** (N - 1)) + (K - N))


def pir_rate(S: int, N: int) -> Rational:
    """Single-user PIR rate 1 + 1/S + ... + 1/S^(N-1) (exact)."""
    if S < 2 or N < 1:
        raise InvalidDimensionError(f"pir_rate needs S>=2, N>=1, got S={S}, N={N}")
    return Fraction(S ** N - 1, (S - 1) * S ** (N - 1))


def _pd_points(S: int, N: int, K: int) -> list:
    """Memory/rate corner points of the product-design baseline, plus (0, N)."""
    A = pir_rate(S, N)
    pts = [(Fraction(0), Fraction(N))]
    for t in range(1, K + 1):
        M = Fraction(t * N, K)
        rate = min(N * (1 - Fraction(t, K)), Fraction(K - t, t + 1) * A)
        pts.append((M, rate))
    return pts


def _lower_hull(points: list) -> list:
    hull = []
    for p in points:  # points sorted by x, x strictly increasing
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            s_prev = Fraction(y2 - y1, x2 - x1)
            s_new = Fraction(p[1] - y2, p[0] - x2)
            if s_prev >= s_new:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _envelope(points: list, M: Rational) -> Rational:
    """The lower convex envelope of `points` (x strictly increasing) at M."""
    hull = _lower_hull(points)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= M <= x2:
            return y1 + Fraction(y2 - y1, x2 - x1) * (M - x1)
    raise InvalidDimensionError(f"M={M} not covered by envelope")  # pragma: no cover


def pd_rate(S: int, N: int, K: int, M) -> Rational:
    """Product-design baseline rate at cache size M: the lower convex
    envelope over (0, N) and all corner points M = tN/K, corners included."""
    M = Fraction(M)
    if not 0 <= M <= N:
        raise InvalidDimensionError(f"M={M} outside [0, {N}]")
    return _envelope(_pd_points(S, N, K), M)


@dataclass(frozen=True)
class SchemeParams:
    """All derived quantities for one (S, N, K) triple, exact, with the
    margins of the three rate-dominance checks against the product design
    at the scheme's cache size M.  `ok` is the verdict: positive memory
    slack, strictly below every chord from (0, N) to a baseline corner
    point, and below the envelope."""

    S: int
    N: int
    K: int
    q: int
    H: int
    M: Rational
    R_proposed: Rational
    R_pir: Rational
    R_pd: Rational                 # product-design rate at M
    slack_nsq: int                 # N*S^(N-1) - q, must be > 0
    chord_margins: tuple           # per t in [K]: chord(M) - R, all must be > 0

    @property
    def envelope_margin(self) -> Rational:
        """R_PD(M) - R(M), must be > 0."""
        return self.R_pd - self.R_proposed

    @property
    def ok(self) -> bool:
        return (
            self.slack_nsq > 0
            and all(m > 0 for m in self.chord_margins)
            and self.envelope_margin > 0
        )

    @classmethod
    def compute(cls, S: int, N: int, K: int) -> "SchemeParams":
        """The triple's record; N > K fails first in `cache_fraction`."""
        q, H, M = q_value(S, N), h_value(S, N), cache_fraction(S, N, K)
        R, corners = proposed_rate(S, N, K), _pd_points(S, N, K)
        return cls(
            S=S, N=N, K=K, q=q, H=H, M=M, R_proposed=R, R_pir=pir_rate(S, N),
            R_pd=_envelope(corners, M), slack_nsq=N * S ** (N - 1) - q,
            chord_margins=tuple(N - (N - Rt) * M / Mt - R for Mt, Rt in corners[1:]),
        )

