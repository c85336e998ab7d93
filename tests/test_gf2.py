"""GF(2) oracle: the forward echelon whose rows carry their blocks and the
peel-then-core cross-check, both checked against brute force."""
import random
from collections import Counter

import pytest

from mupir import gf2
from mupir.core import Query, QueryBundle, atom, atom_triple
from mupir.errors import UnresolvablePlanError
from mupir.gf2 import _echelon, _express, _insert, _pair, cross_check
from mupir.harness import run_mupir_session, run_single_session
from mupir.protocol import check_decoded

# the hand-built systems' atoms: two files of one subfile of 16 subsubfiles,
# in a store of S = 16 databases, since S^(N-1) = S at N = 2
N, K, S = 2, 1, 16
SUB = S ** (N - 1)


def a(i, j, x):
    return atom(i, j, x, K, SUB)


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _brute_force(n, masks, secret):
    """Per unknown, its value if every assignment consistent with the
    equations' values agrees on it, else None."""
    values = [_parity(m & secret) for m in masks]
    seen = [set() for _ in range(n)]
    for x in range(1 << n):
        if all(_parity(m & x) == v for m, v in zip(masks, values)):
            for t in range(n):
                seen[t].add((x >> t) & 1)
    return [s.pop() if len(s) == 1 else None for s in seen]


def _rows(blocks, masks, extra=()):
    """The echelon of the equations `masks` over unknowns with the given
    blocks, with the `extra` equations inserted into a copy."""
    def value(mask):
        v = 0
        for t, b in enumerate(blocks):
            if mask >> t & 1:
                v ^= b
        return v

    rows = _echelon(masks, [value(m) for m in masks])
    if extra:
        rows = dict(rows)
        for m in extra:
            _insert(rows, m, value(m))
    return rows


def _check_against_brute_force(n, masks, extra, rng):
    """Each unknown's 16-bit block comes back exactly where brute force
    over its low bits determines it, and None elsewhere."""
    blocks = [rng.getrandbits(16) for _ in range(n)]
    rows = _rows(blocks, masks, extra)
    secret = sum((b & 1) << t for t, b in enumerate(blocks))
    for t, want in enumerate(_brute_force(n, masks + extra, secret)):
        got = _express(rows, 1 << t)
        if want is None:
            assert got is None, (n, masks, extra, t)
        else:
            assert want == blocks[t] & 1 and got == blocks[t], (n, masks, extra, t)


def test_random_systems_match_brute_force():
    rng = random.Random(2212)
    for _ in range(300):
        n = rng.randint(1, 10)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, n + 2))]
        extra = [rng.getrandbits(n) for _ in range(rng.randint(0, 3))]
        _check_against_brute_force(n, masks, extra, rng)
    # more equations than unknowns, so rows are dependent: a target may be
    # reached along several row combinations, and each gives its block
    rng = random.Random(2213)
    for _ in range(200):
        n = rng.randint(1, 8)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(n + 1, 2 * n + 3))]
        masks += [masks[rng.randrange(len(masks))] ^ masks[rng.randrange(len(masks))]]
        extra = [rng.getrandbits(n) for _ in range(rng.randint(1, 3))]
        extra += [masks[0] ^ extra[0]]
        _check_against_brute_force(n, masks, extra, rng)


def test_undetermined_unknown_returns_none():
    # x0 ^ x1 alone fixes neither unknown
    rows = _rows([3, 6], [0b11])
    assert [_express(rows, 1 << t) for t in (0, 1)] == [None, None]


def test_determined_zero_block_comes_back_as_zero():
    # x0 = 0 directly, and x2 = 0 only as x1 ^ (x1 ^ x2): both are
    # determined, so both come back as 0, not as None
    rows = _rows([0, 5, 0], [0b001, 0b010, 0b110])
    assert [_express(rows, 1 << t) for t in range(3)] == [0, 5, 0]
    # the same through a row inserted into a copy
    rows = _rows([0, 5], [0b10], [0b11])
    assert [_express(rows, 1 << t) for t in range(2)] == [0, 5]


def test_target_fixed_only_by_sum_of_two_extra_rows():
    # shared x2; extra rows x0^x1 and x1^x2.  Neither extra row alone fixes
    # x0, but their sum with the shared row does.
    blocks = [0x11, 0x22, 0x44]
    assert _express(_rows(blocks, [0b100], [0b011]), 1) is None
    assert _express(_rows(blocks, [0b100], [0b110]), 1) is None
    assert _express(_rows(blocks, [0b100], [0b011, 0b110]), 1) == 0x11
    # with no shared rows at all, the two extra rows still fix x0 together
    assert _express(_rows(blocks, [], [0b011, 0b010]), 1) == 0x11


def _sent(atom_lists):
    """A bundle of the hand-built store's shape: one query per atom tuple,
    all sent to database 1."""
    per_db = [[Query(atoms) for atoms in atom_lists]] + [[] for _ in range(S - 1)]
    return QueryBundle(S=S, N=N, K=K, per_db=per_db, emission=[[None] * len(q) for q in per_db])


def _bundle(queries):
    """One query per atom list over file i, subfile 1."""
    return _sent([tuple(a(i, 1, x) for i, x in atoms) for atoms in queries])


def test_cross_check_solves_with_cache_rows():
    blocks = {(1, 1): 0x0110, (1, 2): 0x0220, (2, 1): 0x0440, (2, 2): 0x0880}

    def xor(*keys):
        acc = 0
        for k in keys:
            acc ^= blocks[k]
        return acc

    bundle = _bundle([[(2, 2)], [(1, 2), (2, 1)]])
    answers = [[xor((2, 2)), xor((1, 2), (2, 1))]]
    # cache-like rows over both files: x(1,1)^x(2,1) and x(1,1)^x(2,2)
    cache = [((a(1, 1, 1), a(2, 1, 1)), xor((1, 1), (2, 1))),
             ((a(1, 1, 1), a(2, 1, 2)), xor((1, 1), (2, 2)))]

    def decoded(i):
        return {(1, x): blocks[(i, x)] for x in (1, 2)}

    # one user per file, each holding the same cache rows
    cross_check(bundle, answers, {1: (1, decoded(1), cache), 2: (2, decoded(2), cache)})
    with pytest.raises(UnresolvablePlanError, match=r"disagree at \(2,1,1\)"):
        wrong = decoded(2)
        wrong[(1, 1)] ^= 1
        cross_check(bundle, answers, {2: (2, wrong, cache)})
    # without the cache only (2,1,2) is determined
    cross_check(bundle, answers, {2: (2, {(1, 2): blocks[(2, 2)]}, [])})
    with pytest.raises(UnresolvablePlanError, match="undetermined"):
        cross_check(bundle, answers, {1: (1, decoded(1), [])})


def _cross_check_against_brute_force(rng, n, targets, masks, extra, monkeypatch):
    """Unknown t < targets is the user's file-1 block (1, 1, t + 1), any
    other a file-2 block; `masks` are answer rows, `extra` the user's cache
    rows, each over random 16-bit blocks.  The check must pass on the true
    blocks exactly when brute force determines every target, and a flipped
    block must then be named.  Returns how many core echelons it built."""
    blocks = [rng.getrandbits(16) for _ in range(n)]

    def equation(mask):
        atoms, value = [], 0
        for t in range(n):
            if mask >> t & 1:
                atoms.append(a(1, 1, t + 1) if t < targets else a(2, 1, t - targets + 1))
                value ^= blocks[t]
        return tuple(atoms), value

    answers = [equation(m) for m in masks]
    bundle = _sent([atoms for atoms, _ in answers])
    answers = [[v for _, v in answers]]
    cache = [equation(m) for m in extra]
    decoded = {(1, t + 1): blocks[t] for t in range(targets)}
    built = []
    monkeypatch.setattr(gf2, "_echelon", lambda m, v: built.append(m) or _echelon(m, v))
    want = _brute_force(n, masks + extra, 0)
    if any(want[t] is None for t in range(targets)):
        with pytest.raises(UnresolvablePlanError, match="undetermined"):
            cross_check(bundle, answers, {1: (1, decoded, cache)})
        return len(built)
    cross_check(bundle, answers, {1: (1, decoded, cache)})
    echelons = len(built)
    t = rng.randrange(targets)
    wrong = dict(decoded)
    wrong[(1, t + 1)] ^= 1 << rng.randrange(16)
    with pytest.raises(UnresolvablePlanError, match=rf"disagree at \(1,1,{t + 1}\)"):
        cross_check(bundle, answers, {1: (1, wrong, cache)})
    return echelons


def _triangular(rng, order):
    """Rows that peel one by one: each adds one new unknown of `order` to
    a random set of earlier ones."""
    rows, seen = [], 0
    for t in order:
        rows.append(1 << t | rng.getrandbits(len(order)) & seen)
        seen |= 1 << t
    return rows


def test_cross_check_fully_peelable_matches_brute_force(monkeypatch):
    rng = random.Random(2214)
    for _ in range(100):
        n = rng.randint(1, 9)
        order = rng.sample(range(n), n)
        masks = _triangular(rng, order)
        rng.shuffle(masks)
        built = _cross_check_against_brute_force(
            rng, n, rng.randint(1, n), masks, [], monkeypatch)
        assert built == 0  # peeling alone fixes every unknown


def test_cross_check_pure_core_matches_brute_force(monkeypatch):
    # no row of degree one, and no cache row: all goes to the reduction
    rng = random.Random(2215)
    determined = 0
    for _ in range(150):
        n = rng.randint(2, 8)
        masks = []
        while len(masks) < rng.randint(n - 1, n + 2):
            m = rng.getrandbits(n)
            if m.bit_count() >= 2:
                masks.append(m)
        targets = rng.randint(1, n)
        built = _cross_check_against_brute_force(rng, n, targets, masks, [], monkeypatch)
        determined += built > 0 and all(_brute_force(n, masks, 0)[t] is not None
                                        for t in range(targets))
    assert determined >= 20  # both outcomes are covered


def test_cross_check_mixed_matches_brute_force(monkeypatch):
    # a peelable part, a dense part and cache rows that join the two
    rng = random.Random(2216)
    for _ in range(200):
        n = rng.randint(2, 10)
        split = rng.randint(1, n - 1)
        masks = _triangular(rng, rng.sample(range(split), split))
        masks += [rng.getrandbits(n) for _ in range(rng.randint(0, n - split + 1))]
        extra = [rng.getrandbits(n) for _ in range(rng.randint(0, 3))]
        rng.shuffle(masks)
        _cross_check_against_brute_force(rng, n, rng.randint(1, n), masks, extra, monkeypatch)


def test_cross_check_target_fixed_only_by_two_cache_rows(monkeypatch):
    # answers fix x3 only; cache rows x0^x1^x2 and x1^x2^x3 have two
    # unknowns each after it, and only their sum fixes the target x0
    rng = random.Random(2217)
    for _ in range(20):
        built = _cross_check_against_brute_force(
            rng, 4, 1, [0b1000], [0b0111, 0b1110], monkeypatch)
        assert built == 1
    # either cache row alone leaves it undetermined
    for extra in ([0b0111], [0b1110]):
        _cross_check_against_brute_force(rng, 4, 1, [0b1000], extra, monkeypatch)


def test_cross_check_keeps_each_users_cache_rows_to_itself():
    # x0 = (1,1,1), x1..x3 = (2,1,1..3).  The answers fix only x3; user 1's
    # cache rows x0^x1^x2 and x1^x2^x3 fix its target x0 only in the core.
    # User 2 demands the same file with no cache rows and comes after user
    # 1, so a shared echelon that kept user 1's rows would fix x0 for it too.
    x = [0x0101, 0x0202, 0x0404, 0x0808]
    bundle = _sent([(a(2, 1, 3),)])
    answers = [[x[3]]]
    cache = [((a(1, 1, 1), a(2, 1, 1), a(2, 1, 2)), x[0] ^ x[1] ^ x[2]),
             ((a(2, 1, 1), a(2, 1, 2), a(2, 1, 3)), x[1] ^ x[2] ^ x[3])]
    user1 = (1, {(1, 1): x[0]}, cache)
    cross_check(bundle, answers, {1: user1})
    with pytest.raises(UnresolvablePlanError, match=r"\(1,1,1\) undetermined"):
        cross_check(bundle, answers, {1: user1, 2: (1, {(1, 1): x[0]}, [])})


def test_cross_check_user_peel_never_uses_another_users_cache_rows():
    # x0 = (1,1,1), x1 = (2,1,1); the one answer is over an unrelated atom.
    # Both users demand file 1.  User 1's only cache row is x1; user 2's
    # are x1 and x0^x1, which would fix x0 for user 1 too if its peel could
    # push them.
    x0, x1 = 0x0101, 0x0202
    bundle = _sent([(a(2, 1, 2),)])
    answers = [[0x0404]]
    user1 = (1, {(1, 1): x0}, [((a(2, 1, 1),), x1)])
    user2 = (1, {(1, 1): x0}, [((a(2, 1, 1),), x1), ((a(1, 1, 1), a(2, 1, 1)), x0 ^ x1)])
    cross_check(bundle, answers, {2: user2})
    with pytest.raises(UnresolvablePlanError, match=r"\(1,1,1\) undetermined"):
        cross_check(bundle, answers, {1: user1, 2: user2})


def test_cross_check_undetermined_target_is_named(monkeypatch):
    # x0 ^ x1 fixes neither, so target (1,1,1) is named as undetermined;
    # a target in no equation at all is too
    bundle = _bundle([[(1, 1), (2, 1)]])
    with pytest.raises(UnresolvablePlanError, match=r"\(1,1,1\) undetermined"):
        cross_check(bundle, [[5]], {1: (1, {(1, 1): 3}, [])})
    with pytest.raises(UnresolvablePlanError, match=r"\(1,1,2\) undetermined"):
        cross_check(bundle, [[5]], {1: (1, {(1, 2): 3}, [])})


def _paired(bundle):
    """Every atom that two answer rows pin down: the atom multisets of the
    two differ by exactly that atom."""
    rows = [Counter(q.atoms) for queries in bundle.per_db for q in queries]
    out = set()
    for long in rows:
        for short in rows:
            diff = long - short
            if sum(diff.values()) == 1 and not short - long:
                out |= set(diff)
    return out


def _peel_sets(rows, known):
    """The atoms known after peeling the rows (sets of atoms) from `known`:
    a row with one unknown atom fixes it."""
    known = set(known)
    changed = True
    while changed:
        changed = False
        for row in rows:
            left = row - known
            if len(left) == 1:
                known |= left
                changed = True
    return known


def _reference_core(bundle, sub, users):
    """Sizes of the answer rows the reduction must see.  `users` maps each
    user to (its file, its cache rows as atom sets).  Peel the answers
    (sets of atoms), then each user's own cache rows; when a target is
    still unknown and no pair of answer rows fixes it, every answer row
    left counts, known atoms removed, and none does when every target is
    peeled or paired."""
    answer_rows = [set(q.atoms) for queries in bundle.per_db for q in queries]
    known = _peel_sets(answer_rows, ())
    left = set()
    for d, rows in users.values():
        mine = _peel_sets(answer_rows + rows, known)
        left |= {c for row in answer_rows + rows for c in row
                 if atom_triple(c, bundle.K, sub)[0] == d} - mine
    if not left - _paired(bundle):
        return []
    return sorted(len(row - known) for row in answer_rows if row - known)


def test_reduction_masks_match_column_reference(block_session, monkeypatch):
    # the reduction sees only the core: its masks are the answer rows that a
    # reference peel over atom sets leaves, one bit per unknown column
    kind, art = block_session
    bundle, tr = art["bundle"], art["transcript"]
    caches = art.get("caches", {})
    decoded = art["decoded"] if caches else {1: {(1, x): b for x, b in art["decoded"].items()}}
    sub = tr.S ** (tr.N - 1)
    users = {u: (tr.demand[u - 1],
                 [{atom(i, bundle.slots[u].subfile, t, tr.K, sub) for i in range(1, tr.N + 1)}
                  for t in caches[u]] if caches else [])
             for u in decoded}
    seen = []
    monkeypatch.setattr(gf2, "_echelon",
                        lambda masks, values: seen.append(masks) or _echelon(masks, values))
    check_decoded(bundle, art["answers"], tr.demand, caches, decoded)
    got = sorted(m.bit_count() for masks in seen for m in masks)
    assert got == _reference_core(bundle, sub, users)
    # N = K peels every target, and a pair of answer rows fixes every
    # single-user target peeling leaves: nothing is left to reduce
    assert (got == []) == (kind in ("alg1", "qset1"))


def test_reduction_masks_match_column_reference_past_components(monkeypatch):
    # at (3,3,5) seed 7, 2 of the 26 answer rows peeling leaves share no
    # column with any target's component; the core still takes them
    _, art = run_mupir_session(3, 3, 5, 1, seed=7)
    test_reduction_masks_match_column_reference(("qset2", art), monkeypatch)


def _no_elimination(masks, values):
    raise AssertionError("the core was reduced")


@pytest.mark.parametrize("S,N", [(3, 3), (4, 3), (4, 5)])
def test_single_user_sessions_need_no_elimination(monkeypatch, S, N):
    # pairs of answer rows fix every target peeling leaves in an alg1
    # block, so no echelon is built
    monkeypatch.setattr(gf2, "_echelon", _no_elimination)
    for seed in range(3):
        report, art = run_single_session(S, N, 1, seed)
        assert report["decode_ok"] and report["audit_ok"]
        tr = art["transcript"]
        decoded = {1: {(1, x): b for x, b in art["decoded"].items()}}
        check_decoded(art["bundle"], art["answers"], tr.demand, {}, decoded)


def test_multi_user_core_still_reaches_elimination(monkeypatch):
    # a qset2 core target has no pair: the elimination still runs
    monkeypatch.setattr(gf2, "_echelon", _no_elimination)
    with pytest.raises(AssertionError, match="the core was reduced"):
        run_mupir_session(3, 3, 5, 1, seed=0)


def test_flipped_alg1_core_target_is_caught_by_its_pair(monkeypatch):
    # a (4,5) target that peeling does not reach: its pair fixes it, and a
    # flipped decoded block there is named
    monkeypatch.setattr(gf2, "_echelon", _no_elimination)
    _, art = run_single_session(4, 5, 1, seed=2)
    bundle, tr = art["bundle"], art["transcript"]
    d, sub = tr.demand[0], 4 ** 4
    known = _peel_sets([set(q.atoms) for queries in bundle.per_db for q in queries], ())
    x = next(x for x in range(1, sub + 1) if atom(d, 1, x, 1, sub) not in known)
    decoded = {1: {(1, y): b for y, b in art["decoded"].items()}}
    decoded[1][(1, x)] ^= 1
    with pytest.raises(UnresolvablePlanError, match=rf"disagree at \({d},1,{x}\)$"):
        check_decoded(bundle, art["answers"], tr.demand, {}, decoded)


def _value(blocks, mask):
    """The XOR of the blocks a mask names."""
    v = 0
    for t, b in enumerate(blocks):
        if mask >> t & 1:
            v ^= b
    return v


def test_cross_check_pairs_and_core_match_brute_force(monkeypatch):
    # targets below `paired` each come with a pair of answer rows, a row of
    # two other unknowns and the same row with the target added; the rest
    # lie in random rows only.  The outcome must match brute force, and the
    # targets past the paired ones are all that the elimination reduces.
    rng = random.Random(2218)
    both = 0
    for _ in range(200):
        targets = rng.randint(2, 5)
        paired = rng.randint(1, targets - 1)
        n = targets + rng.randint(2, 4)
        masks = []
        for t in range(paired):
            short = sum(1 << o for o in rng.sample(range(targets, n), 2))
            masks += [short, short | 1 << t]
        masks += [rng.getrandbits(n) | 1 << rng.randrange(paired, targets)
                  for _ in range(rng.randint(targets - paired, n - paired))]
        rng.shuffle(masks)
        _cross_check_against_brute_force(rng, n, targets, masks, [], monkeypatch)
        if any(_brute_force(n, masks, 0)[t] is None for t in range(targets)):
            continue
        # once more on the true blocks, counting what pairs and the
        # elimination fix
        blocks = [rng.getrandbits(16) for _ in range(n)]
        atoms = [tuple(a(1, 1, t + 1) if t < targets else a(2, 1, t - targets + 1)
                       for t in range(n) if m >> t & 1) for m in masks]
        found, reduced = [], []

        def pair(c, *rest):
            v = _pair(c, *rest)
            found.append(v is not None)
            return v

        monkeypatch.setattr(gf2, "_pair", pair)
        monkeypatch.setattr(gf2, "_express", lambda e, m: reduced.append(m) or _express(e, m))
        cross_check(_sent(atoms), [[_value(blocks, m) for m in masks]],
                    {1: (1, {(1, t + 1): blocks[t] for t in range(targets)}, [])})
        assert len(reduced) <= targets - paired
        both += any(found) and bool(reduced)
    assert both >= 20  # pairs and elimination both fix targets of one system


def test_core_takes_only_the_cache_rows_of_users_with_a_target_there(monkeypatch):
    # (3,3,5) seed 0: users 2, 4 and 5 have targets left after peeling,
    # users 1 and 3 none, so the rows reduced are the core's answer rows
    # and the cache rows of users 2, 4 and 5 that hold an unknown
    _, art = run_mupir_session(3, 3, 5, 1, seed=0)
    bundle, tr, caches = art["bundle"], art["transcript"], art["caches"]
    sub = 9
    answer_rows = [set(q.atoms) for queries in bundle.per_db for q in queries]
    known = _peel_sets(answer_rows, ())
    cache_rows, left = {}, {}
    for u in art["decoded"]:
        j = bundle.slots[u].subfile
        cache_rows[u] = [{atom(i, j, t, 5, sub) for i in (1, 2, 3)} for t in caches[u]]
        reach = _peel_sets(answer_rows + cache_rows[u], known)
        left[u] = [(j, x) for j in range(1, 6) for x in range(1, sub + 1)
                   if atom(tr.demand[u - 1], j, x, 5, sub) not in reach]
    core_users = [u for u in left if left[u]]
    assert core_users == [2, 4, 5]
    core_answers = sum(1 for row in answer_rows if row - known)
    held = {u: sum(1 for row in rows if row - known) for u, rows in cache_rows.items()}
    assert held[1] + held[3] > 0  # rows the core no longer takes
    inserted = []
    monkeypatch.setattr(gf2, "_insert",
                        lambda rows, mask, block: inserted.append(mask) or _insert(rows, mask, block))
    check_decoded(bundle, art["answers"], tr.demand, caches, art["decoded"])
    assert len(inserted) == core_answers + sum(held[u] for u in core_users)
