"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Criterion 5/6/9 share one session grid (S in {2,3,4}, N in {2,3},
N <= K <= 6, 20 seeded sessions per cell with random valid demand vectors).
"""
import random
from fractions import Fraction
from math import comb

import pytest

from mupir.audit import (
    check_structure,
    count_rate,
    demand_distribution_oracle,
    verify_replay,
)
from mupir.core import answer_bundle, build_file_store, sample_permutation
from mupir.harness import run_mupir_session, run_session, to_json
from mupir.params import (
    SchemeParams,
    cache_fraction,
    f_rep,
    h_value,
    pd_rate,
    phi,
    proposed_rate,
    psi,
    q_value,
)
from mupir.protocol import assemble_bundle, generate_alg1
from mupir.single_user import decode_single

from conftest import mutate_bundle

GRID = [
    (S, N, K)
    for S in (2, 3, 4)
    for N in (2, 3)
    for K in range(N, 7)
]
SESSIONS_PER_CELL = 20


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion}: {status}{' - ' + detail if detail else ''}")
    return ok


@pytest.fixture(scope="module")
def grid_sessions():
    sessions = []
    for S, N, K in GRID:
        for trial in range(SESSIONS_PER_CELL):
            seed = 1_000 * S + 100 * N + 10 * K + trial
            report, art = run_mupir_session(S, N, K, 1, seed=seed)
            sessions.append((S, N, K, report, art))
    return sessions


def test_criterion_01_parameter_golden_values():
    ok = (
        q_value(3, 3) == 23
        and h_value(3, 3) == 5
        and cache_fraction(3, 3, 3) == Fraction(4, 27)
        and cache_fraction(3, 3, 5) == Fraction(4, 45)
    )
    assert _report(1, ok, "q=23, H=5, M=4/27 and 4/45 exactly")


def test_criterion_02_rate_reproduction():
    exact_ok = (
        proposed_rate(3, 3, 3) == Fraction(23, 9)
        and proposed_rate(3, 3, 5) == Fraction(41, 15)
    )
    _, art3 = run_mupir_session(3, 3, 3, 1, seed=2, demand=(2, 1, 3))
    _, art5 = run_mupir_session(3, 3, 5, 1, seed=2, demand=(2, 3, 2, 1, 3))
    measured_ok = (
        count_rate(art3["bundle"]) == Fraction(23, 9)
        and count_rate(art5["bundle"]) == Fraction(41, 15)
    )
    pd3 = float(pd_rate(3, 3, 3, cache_fraction(3, 3, 3)))
    pd5 = float(pd_rate(3, 3, 5, cache_fraction(3, 3, 5)))
    pd3_ok = abs(pd3 - 2.769) <= 1e-3
    pd5_ok = abs(pd5 - 2.926) <= 1e-3
    ok = exact_ok and measured_ok and pd3_ok and pd5_ok
    _report(
        2,
        ok,
        f"rates exact={exact_ok} measured={measured_ok} "
        f"pd(3,3,3)={pd3:.4f} ok={pd3_ok} pd(3,3,5)={pd5:.4f} ok={pd5_ok}",
    )
    assert exact_ok and measured_ok and pd3_ok
    # Known red: 2.926 is not attainable from the baseline's defining
    # formula at K=5 (it equals the K=6 first chord at its M=2/27); the
    # envelope at M=4/45 is 701/243 ~ 2.885.  See README.
    assert pd5_ok


def test_criterion_03_single_user_pir():
    store = build_file_store(3, 1, 4, 1, seed=33)
    ok = True
    for d in (1, 2, 3):
        for trial in range(50):
            rng = random.Random(f"{d}:{trial}")
            perms = {i: sample_permutation(16, rng) for i in (1, 2, 3)}
            transcript = generate_alg1(4, 3, perms, d)
            bundle = assemble_bundle(transcript)
            if bundle.counts() != (6, 5, 5, 5) or bundle.total_queries() != 21:
                ok = False
            if count_rate(bundle) != Fraction(21, 16):
                ok = False
            answers = answer_bundle(store, bundle)
            decoded = decode_single(transcript, bundle, answers)
            if any(decoded[x] != store.block(d, 1, x) for x in range(1, 17)):
                ok = False
    assert _report(3, ok, "21 queries split 6/5/5/5, rate 21/16, exact decode")


def test_criterion_04_counting_identities():
    ok = True
    for S in range(2, 7):
        for N in range(2, 7):
            sub = S ** (N - 1)
            if sum(comb(N - 1, k - 1) * phi(s, S, k)
                   for k in range(1, N + 1) for s in range(1, S + 1)) != sub:
                ok = False
            if sum(comb(N, k) * phi(s, S, k)
                   for k in range(1, N + 1) for s in range(1, S + 1)) != (S ** N - 1) // (S - 1):
                ok = False
            H = h_value(S, N)
            for d in range(1, N + 1):
                for k in range(1, N + 1):
                    for s in range(1, S + 1):
                        if sum(f_rep(s, i, d, k, S, N) for i in range(1, N + 1)) != \
                                comb(N, k) * psi(s, S, N, k):
                            ok = False
                for i in range(1, N + 1):
                    tot = sum(f_rep(s, i, d, k, S, N)
                              for k in range(1, N + 1) for s in range(1, S + 1))
                    if tot != (H if i == d else sub):
                        ok = False
    for N in range(2, 11):
        if q_value(2, N) != N * 2 ** (N - 1) - 1:
            ok = False
    for S in range(2, 11):
        if q_value(S, 2) != S + 1:
            ok = False
    assert _report(4, ok, "reference/query/freshness sums and closed forms, exact")


def test_criterion_05_end_to_end_decode(grid_sessions):
    bad = [(S, N, K) for S, N, K, report, _ in grid_sessions if not report["decode_ok"]]
    ok = not bad
    assert _report(5, ok, f"{len(grid_sessions)} sessions, all users exact"
                          + (f"; failures: {sorted(set(bad))}" if bad else ""))


def test_criterion_06_structural_privacy(grid_sessions):
    ok = True
    for S, N, K, report, art in grid_sessions:
        if not check_structure(art["bundle"]).ok:
            ok = False
    rng = random.Random(606)
    detected = 0
    trials = 1000
    for m in range(trials):
        S, N, K, report, art = grid_sessions[rng.randrange(len(grid_sessions))]
        mutated, op = mutate_bundle(art["bundle"], rng)
        if not (check_structure(mutated).ok and verify_replay(mutated, art["transcript"])):
            detected += 1
    ok = ok and detected == trials
    assert _report(6, ok, f"all bundles pass; {detected}/{trials} mutations detected")


def test_criterion_07_distribution_oracle():
    single = demand_distribution_oracle(2, 2, scheme="single")
    multi = demand_distribution_oracle(2, 2, K=2, scheme="mupir")
    ok = single.equal and multi.equal
    assert _report(
        7, ok,
        f"single (2,2): {single.assignments} assignments equal={single.equal}; "
        f"mupir (2,2,2): {multi.assignments} assignments equal={multi.equal}",
    )


def test_criterion_08_dominance_checks():
    ok = True
    for S in range(2, 7):
        for N in range(2, 7):
            for K in range(N, 9):
                rep = SchemeParams.compute(S, N, K)
                if not (rep.slack_nsq > 0
                        and all(m > 0 for m in rep.chord_margins)
                        and rep.envelope_margin > 0):
                    ok = False
    assert _report(8, ok, "memory slack, every chord, and envelope margins positive")


def test_criterion_09_query_count_identities(grid_sessions):
    ok = True
    for S, N, K, report, art in grid_sessions:
        total = art["bundle"].total_queries()
        q = q_value(S, N)
        want = K * q if N == K else N * q + N * (K - N) * S ** (N - 1)
        if total != want:
            ok = False
    assert _report(9, ok, "K*q and N*q+N(K-N)S^(N-1) hold on every session")


def test_criterion_10_determinism():
    cfg = {"scheme": "mupir", "S": 3, "N": 3, "K": 4, "block_bytes": 2, "seed": 77}
    r1, _ = run_session(dict(cfg))
    r2, _ = run_session(dict(cfg))
    ok = to_json(r1).encode() == to_json(r2).encode()
    cfg_s = {"scheme": "single", "S": 3, "N": 2, "seed": 12}
    s1, _ = run_session(dict(cfg_s))
    s2, _ = run_session(dict(cfg_s))
    ok = ok and to_json(s1).encode() == to_json(s2).encode()
    assert _report(10, ok, "identical config+seed gives byte-identical reports")
