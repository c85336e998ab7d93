"""Multi-user protocol: placement, slot generators, sessions, decoding."""
import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from mupir.audit import check_structure
from mupir.core import (
    Permutation,
    Query,
    QueryBundle,
    SlotInfo,
    build_file_store,
    xor_combine,
)
from mupir.errors import (
    DemandError,
    InfeasibleSwapError,
    RegimeError,
    UnresolvablePlanError,
)
from mupir.harness import run_mupir_session, run_single_session
from mupir.params import cache_fraction, h_value, q_value
from mupir.protocol import (
    _run_symmetric_rounds,
    assemble_bundle,
    check_decoded,
    choose_base_and_rho,
    decode_user,
    generate_alg2,
    generate_alg3,
    materialize,
    placement,
    qset1_schedule,
    qset2_schedule,
    replay_bundle,
    resolve_symbols,
)

from conftest import identity


def _session(S, N, K, seed, demand=None, block_bytes=1):
    report, art = run_mupir_session(S, N, K, block_bytes, seed, demand=demand)
    return report, art


class TestPlacement:
    def test_cache_lines_example(self):
        store = build_file_store(3, 3, 3, 1, seed=0)
        _, caches = placement(store, identity(3))
        for u in (1, 2, 3):
            assert sorted(caches[u]) == [6, 7, 8, 9]

    def test_broadcast_size_and_cache_bits(self):
        # the measured M is lines per file of K * S^(N-1) blocks, at any
        # block size
        M = cache_fraction(3, 3, 5)
        for block_bytes in (1, 2, 4096):
            store = build_file_store(3, 5, 3, block_bytes, seed=0)
            broadcast, caches = placement(store, identity(5))
            assert len(broadcast) == 5 * 4
            for u in caches:
                assert Fraction(len(caches[u]), 5 * store.subpackets) == M

    def test_line_peeling(self):
        store = build_file_store(3, 3, 3, 4, seed=9)
        _, caches = placement(store, identity(3))
        line = caches[2][7]
        rest = xor_combine([store.block(i, 2, 7) for i in (1, 2)])
        assert line ^ rest == store.block(3, 2, 7)

    @pytest.mark.parametrize("demand", [(2, 1, 3), (1, 2, 3, 1)])
    def test_cache_slot_is_the_one_slot_info_records(self, demand):
        # a cache is exactly its lines {t: XOR_i W(i, j, t)}, t in H+1..sub,
        # over the slot j that the user's SlotInfo.subfile records and that
        # decoding's GF(2) cache rows read too; it holds nothing else
        report, art = _session(3, 3, len(demand), seed=4, demand=demand)
        assert report["decode_ok"]
        store, tr = art["store"], art["transcript"]
        assert sorted(art["caches"]) == list(range(1, len(demand) + 1))
        for u, cache in art["caches"].items():
            j = tr.slots[u].subfile
            assert type(cache) is dict
            assert cache == {
                tt: xor_combine([store.block(i, j, tt) for i in (1, 2, 3)])
                for tt in range(tr.H + 1, 10)}

    def test_regime_error(self):
        store = build_file_store(3, 2, 3, 1, seed=0)
        with pytest.raises(RegimeError):
            placement(store, identity(2))


class TestQset1:
    def test_counts_and_split(self):
        perms = {i: identity(9) for i in (1, 2, 3)}
        per_db = materialize(qset1_schedule(3, 3, 2), perms, SlotInfo(kind="qset1", subfile=1))
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
        perms = {1: identity(2), 2: identity(2)}
        per_db = materialize(qset1_schedule(2, 2, 1), perms, SlotInfo(kind="qset1", subfile=1))
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
        perms = {i: identity(9) for i in (1, 2, 3)}
        omega = SlotInfo(kind="qset2", omega_pairs=((1, 1, 2), (2, 3, 2), (3, 1, 2)))
        per_db = materialize(qset2_schedule(3, 3), perms, omega)
        assert [len(db) for db in per_db] == [9, 9, 9]

    def test_atom_pairing(self):
        perms = {i: identity(2) for i in (1, 2)}
        omega = SlotInfo(kind="qset2", omega_pairs=((1, 1, 3), (2, 2, 3)))
        per_db = materialize(qset2_schedule(2, 2), perms, omega)
        assert sum(len(db) for db in per_db) == 2 * 2  # N * S^(N-1)
        for db in per_db:
            for q in db:
                groups = Counter((f, x) for f, _, x in q.atoms)
                assert all(c == 2 for c in groups.values())
                assert len(q.atoms) == 2 * len(groups)

    def test_rejects_degenerate_pair(self):
        with pytest.raises(DemandError):
            SlotInfo(kind="qset2", omega_pairs=((1, 2, 2),))


def reference_materialize(records, perms, subfiles):
    """The per-atom reference for `materialize`: every reference's
    subsubfile through the permutation's call, one atom at a time."""
    out = []
    for db_list in records:
        row = []
        for rec in db_list:
            atoms = []
            for f, pos in rec.refs:
                for j in subfiles(f):
                    atoms.append((f, j, perms[f](pos)))
            row.append(Query(tuple(sorted(atoms))))
        out.append(row)
    return out


def test_materialize_matches_per_atom_reference(block_session):
    kind, art = block_session
    tr = art["transcript"]
    kinds = set()
    for user, records in tr.records.items():
        info = tr.slots[user]
        kinds.add(info.kind)
        if info.kind == "qset2":
            assert all(len(info.subfiles(f)) == 2 for f in range(1, tr.N + 1))
        want = reference_materialize(records, tr.perms[user], info.subfiles)
        assert materialize(records, tr.perms[user], info) == want
    assert kind in kinds


def test_materialize_and_replay_build_real_queries(block_session):
    # a Query equals the plain tuple (atoms,), so the comparisons above
    # cannot tell a construction shortcut that yields plain tuples
    _, art = block_session
    tr, bundle = art["transcript"], art["bundle"]
    lists = [queries for user, records in tr.records.items()
             for queries in materialize(records, tr.perms[user], tr.slots[user])]
    lists += bundle.per_db + replay_bundle(tr, bundle.emission).per_db
    queries = [q for qs in lists for q in qs]
    assert queries
    assert all(type(q) is Query and list(q.atoms) == sorted(q.atoms) for q in queries)


# sha256 over every record's (k, refs, fresh_file, fresh_pos, old_picks,
# source), taken over qset1_schedule(S, N, d) for d = 1..N and then
# qset2_schedule(S, N); recorded from the engine before its emit path and
# reuse picker were rewritten, all but (3, 7), which was recorded from the
# rewritten engine.  (2, 8) and (3, 7) are pairs where the swap fires (63
# and 42 times); (3, 7) is the one pinned pair with N = 7.
SCHEDULE_DIGESTS = {
    (2, 2): "a60c2097c68ff64ed75faa6ee469c46ace94ef5615ae78d82a47a393af25af05",
    (2, 3): "c9080573c57b9a941d92d21c5807c28aeaadd09420c120c2465d17181ac6a9fc",
    (2, 4): "5b39ba2b3bf242adf9010f1df56592a6ca88309c68ff95c7f3c1feea297fd5eb",
    (3, 2): "b60edf5c053fe1f0441a2ecccb23b841112fe6aa7af58fda003fedeb79153513",
    (3, 3): "76813e38a87637177c69ed885844dd60e1fb3ab830f89696850ae472c3528e25",
    (3, 4): "a068ab35e4318516dfbcbe7acd191c635a32210b6c79b847eb74501bf4fe2a3b",
    (4, 2): "2df6f29fb72654f6428816f015091eacc4a36c8430fff7b55f1f5cf3b3cc5686",
    (4, 3): "93f1e35498c611051223488c5bdcc5cbbefd83a05a5aa3581b74082754054fb3",
    (4, 4): "ce68c3685afe45fde4b3ecf466a39e50e6335be6524324d235ed00af65bc96c2",
    (2, 8): "576d88c70461d9ce990a49c0467c9d20819eee02a024c7672f73844f103745f5",
    (3, 7): "9101dffa23d0a6cf210fd58ad650f999c4a4b2bae5c42f4efefe502b455ec09f",
}


@pytest.mark.parametrize("S,N", sorted(SCHEDULE_DIGESTS))
def test_schedule_digest(S, N):
    h = hashlib.sha256()
    blocks = [qset1_schedule(S, N, d) for d in range(1, N + 1)] + [qset2_schedule(S, N)]
    for per_db in blocks:
        for db_list in per_db:
            for r in db_list:
                fields = (r.k, r.refs, r.fresh_file, r.fresh_pos, r.old_picks, r.source)
                h.update(repr(fields).encode())
    assert h.hexdigest() == SCHEDULE_DIGESTS[(S, N)]


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
        types = Counter(tuple(sorted(f for f, _ in q.refs)) for q in block)
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
        tr = generate_alg2(S, N, K, demands, P, perms)
        bundle = assemble_bundle(tr)
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
            c: {i: identity(9) for i in (1, 2, 3)} for c in (1, 2, 3)
        }
        with pytest.raises(RegimeError):
            generate_alg3(3, 3, 3, (1, 2, 3), identity(3), (1, 2, 3),
                          {}, store_perms)
        with pytest.raises(RegimeError):
            generate_alg2(3, 3, 4, (1, 2, 3, 1), identity(4), {})

    def test_tail_constraint_enforced(self):
        perms = {
            c: {i: identity(2) for i in (1, 2)} for c in (1, 2)
        }
        # make user 1's demand permutation move position 2: invalid
        perms[1][1] = Permutation((2, 1))
        with pytest.raises(DemandError):
            generate_alg2(2, 2, 2, (1, 2), identity(2), perms)

    def test_rho_pairing_a_file_with_the_users_own_slot_is_rejected(self):
        # user 4's file 2 aligned with user 4 itself: both halves of the
        # pair would be its own slot, and the paired difference is zero
        perms = {c: {i: identity(4) for i in (1, 2, 3)} for c in (1, 2, 3, 4)}
        with pytest.raises(DemandError, match="identical subfiles"):
            generate_alg3(2, 3, 4, (1, 2, 3, 1), identity(4), (1, 2, 3),
                          {4: {1: 1, 2: 4, 3: 2}}, perms)

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
        own_slot = tr.slots[1].subfile
        H = tr.H
        exposed_own = sorted(
            x for (tag, f, j, x) in symbols
            if tag == "w" and f == 2 and j == own_slot
        )
        assert exposed_own == list(range(1, H + 1))
        for other in (2, 3):
            slot = tr.slots[other].subfile
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
        assert tuple(u for u, s in sorted(tr.slots.items()) if s.kind == "qset1") == (1, 2, 4)
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
        key = ("w", 2, tr.slots[2].subfile, 1)
        symbols[key] ^= 0xFFFFFFFF  # every bit of the 4-byte block
        cache = art["caches"][1]
        out = decode_user(1, tr, bundle, answers, cache, symbols=symbols,
                          run_oracle=False)
        assert out[(tr.slots[2].subfile, 1)] == symbols[key]
        with pytest.raises(UnresolvablePlanError, match="disagree"):
            decode_user(1, tr, bundle, answers, cache, symbols=symbols)
        # the same for a single-user session, decoded with no cache lines
        _, art = run_single_session(3, 3, 4, seed=42)
        tr, bundle, answers = art["transcript"], art["bundle"], art["answers"]
        symbols = resolve_symbols(tr, bundle, answers)
        key = ("w", tr.demand[0], 1, 1)
        symbols[key] ^= 0xFFFFFFFF
        out = decode_user(1, tr, bundle, answers, None, symbols=symbols,
                          run_oracle=False)
        assert out[(1, 1)] == symbols[key]
        with pytest.raises(UnresolvablePlanError, match="disagree"):
            decode_user(1, tr, bundle, answers, None, symbols=symbols)

    @pytest.mark.parametrize("session,message", [
        (lambda: run_single_session(2, 3, 1, seed=0),
         r"source answer of record \(user 1, db 1, local 3\) is missing"),
        (lambda: run_mupir_session(2, 3, 3, 1, seed=0),
         r"^answer of record \(user 1, db 2, local 1\) is missing"),
    ], ids=["single", "mupir"])
    def test_missing_answer_names_its_record(self, session, message):
        # the first query of database 2 dropped: the record that needs its
        # answer, directly or as its source, is named
        _, art = session()
        bundle = art["bundle"]
        per_db = [list(db) for db in bundle.per_db]
        emission = [list(order) for order in bundle.emission]
        answers = [list(row) for row in art["answers"]]
        for rows in (per_db, emission, answers):
            rows[1].pop(0)
        dropped = QueryBundle(S=bundle.S, per_db=per_db, emission=emission,
                              slots=dict(bundle.slots))
        with pytest.raises(UnresolvablePlanError, match=message):
            resolve_symbols(art["transcript"], dropped, answers)

    def test_shared_system_gives_same_output(self):
        # one oracle pass shared by every user agrees with each user's own
        # pass, and neither changes what peeling decoded
        for args in [(3, 3, 5, 7), (2, 3, 3, 2)]:
            report, art = _session(*args, block_bytes=3)
            tr, bundle, answers = art["transcript"], art["bundle"], art["answers"]
            peeled = {u: decode_user(u, tr, bundle, answers, art["caches"][u],
                                     run_oracle=False)
                      for u in range(1, tr.K + 1)}
            check_decoded(bundle, answers, tr.N, tr.demand, art["caches"], peeled)
            for u in range(1, tr.K + 1):
                own = decode_user(u, tr, bundle, answers, art["caches"][u])
                assert peeled[u] == own == art["decoded"][u]


def _peel_reach(bundle, rows=()):
    """Every atom that peeling the bundle's answers, then `rows` (atom
    sets), reaches: a row with one atom left unknown fixes it."""
    rows = [set(q.atoms) for queries in bundle.per_db for q in queries] + list(rows)
    known = set()
    changed = True
    while changed:
        changed = False
        for row in rows:
            left = row - known
            if len(left) == 1:
                known |= left
                changed = True
    return known


def _cache_rows(art, u, N):
    j = art["bundle"].slots[u].subfile
    return [{(i, j, t) for i in range(1, N + 1)} for t in art["caches"][u]]


class TestSessionOracle:
    """The one GF(2) pass over a session's decoded blocks catches a wrong
    block wherever its check of that block sits: in the answer peel, in a
    user's cache peel, or in the reduction of the core."""

    def _flip(self, art, u, j, x):
        tr = art["transcript"]
        decoded = {v: dict(out) for v, out in art["decoded"].items()}
        decoded[u][(j, x)] ^= 1
        d = tr.demand[u - 1]
        with pytest.raises(UnresolvablePlanError, match=rf"disagree at \({d},{j},{x}\)"):
            check_decoded(art["bundle"], art["answers"], tr.N, tr.demand, art["caches"],
                          decoded)

    def test_flipped_peeled_block_is_caught(self):
        _, art = _session(3, 4, 4, seed=11)
        tr = art["transcript"]
        j = tr.slots[2].subfile  # user 2's qset1 block exposes user 1's file there
        assert (tr.demand[0], j, 1) in _peel_reach(art["bundle"])
        self._flip(art, 1, j, 1)

    def test_flipped_cache_tail_block_is_caught(self):
        _, art = _session(3, 4, 4, seed=11)
        tr = art["transcript"]
        j, x = tr.slots[1].subfile, 3 ** 3  # the own slot's last position, x > H
        assert x > tr.H
        atom = (tr.demand[0], j, x)
        assert atom not in _peel_reach(art["bundle"])
        assert atom in _peel_reach(art["bundle"], _cache_rows(art, 1, tr.N))
        self._flip(art, 1, j, x)

    def test_flipped_core_block_is_caught(self):
        _, art = _session(3, 3, 5, seed=11)
        tr = art["transcript"]
        core = [(u, j, x) for u in range(1, 6)
                for reach in [_peel_reach(art["bundle"], _cache_rows(art, u, tr.N))]
                for j in range(1, 6) for x in range(1, 10)
                if (tr.demand[u - 1], j, x) not in reach]
        assert core  # peeling reaches 196 of the 225 targets here
        self._flip(art, *core[0])

    def test_oracle_peak_memory_is_small(self):
        # the oracle carries the decoder's own blocks: at 64 KiB per block,
        # keeping its own copy of each would take tens of MiB
        _, art = _session(3, 4, 4, seed=1, block_bytes=65536)
        tr = art["transcript"]
        tracemalloc.start()
        try:
            check_decoded(art["bundle"], art["answers"], tr.N, tr.demand, art["caches"],
                          art["decoded"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
