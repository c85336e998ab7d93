"""GF(2) oracle: the value-free reduction and the peel-then-core cross-check,
both checked against brute force."""
import random

import pytest

from mupir import gf2
from mupir.core import Query, QueryBundle
from mupir.errors import UnresolvablePlanError
from mupir.gf2 import Reduction, cross_check
from mupir.protocol import check_decoded


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _xor_named(comb, values):
    acc = 0
    for e, v in enumerate(values):
        if comb >> e & 1:
            acc ^= v
    return acc


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


def _check_against_brute_force(n, masks, extra, secret):
    combs = Reduction(masks).combinations(range(n), extra)
    rows = masks + extra
    values = [_parity(m & secret) for m in rows]
    for t, (comb, want) in enumerate(zip(combs, _brute_force(n, rows, secret))):
        if want is None:
            assert comb is None, (n, rows, t)
        else:
            assert comb is not None, (n, rows, t)
            assert _xor_named(comb, rows) == 1 << t
            assert _xor_named(comb, values) == want


def test_random_systems_match_brute_force():
    rng = random.Random(2212)
    for _ in range(300):
        n = rng.randint(1, 10)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, n + 2))]
        extra = [rng.getrandbits(n) for _ in range(rng.randint(0, 3))]
        _check_against_brute_force(n, masks, extra, rng.getrandbits(n))
    # more equations than unknowns, so rows are dependent: a target may have
    # several combinations, and any one that names it is right
    rng = random.Random(2213)
    for _ in range(200):
        n = rng.randint(1, 8)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(n + 1, 2 * n + 3))]
        masks += [masks[rng.randrange(len(masks))] ^ masks[rng.randrange(len(masks))]]
        extra = [rng.getrandbits(n) for _ in range(rng.randint(1, 3))]
        extra += [masks[0] ^ extra[0]]
        _check_against_brute_force(n, masks, extra, rng.getrandbits(n))


def test_extra_rows_leave_the_shared_rows_unchanged():
    red = Reduction([0b100])
    assert red.combinations([0], [0b011, 0b110]) == [0b111]
    assert red.combinations([0, 2]) == [None, 0b1]


def test_undetermined_unknown_returns_none():
    # x0 ^ x1 alone fixes neither unknown
    assert Reduction([0b11]).combinations([0, 1]) == [None, None]


def test_target_fixed_only_by_sum_of_two_extra_rows():
    # shared x2; extra rows x0^x1 and x1^x2.  Neither extra row alone fixes
    # x0, but their sum with the shared row does.
    red = Reduction([0b100])
    assert red.combinations([0], [0b011]) == [None]
    assert red.combinations([0], [0b110]) == [None]
    assert red.combinations([0], [0b011, 0b110]) == [0b111]
    # with no shared rows at all, the two extra rows still fix x0 together
    assert Reduction([]).combinations([0], [0b011, 0b010]) == [0b11]


def _bundle(queries):
    """One database, one query per atom list over file i, subfile 1."""
    per_db = [[Query(tuple((i, 1, x) for i, x in atoms)) for atoms in queries]]
    return QueryBundle(S=1, per_db=per_db, emission=[[None] * len(queries)])


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
    cache = [(((1, 1, 1), (2, 1, 1)), xor((1, 1), (2, 1))),
             (((1, 1, 1), (2, 1, 2)), xor((1, 1), (2, 2)))]

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
    block must then be named.  Returns how many reductions it built."""
    blocks = [rng.getrandbits(16) for _ in range(n)]

    def equation(mask):
        atoms, value = [], 0
        for t in range(n):
            if mask >> t & 1:
                atoms.append((1, 1, t + 1) if t < targets else (2, 1, t - targets + 1))
                value ^= blocks[t]
        return tuple(atoms), value

    answers = [equation(m) for m in masks]
    bundle = QueryBundle(S=1, per_db=[[Query(a) for a, _ in answers]],
                         emission=[[None] * len(answers)])
    answers = [[v for _, v in answers]]
    cache = [equation(m) for m in extra]
    decoded = {(1, t + 1): blocks[t] for t in range(targets)}
    built = []
    monkeypatch.setattr(gf2, "Reduction", lambda m: built.append(m) or Reduction(m))
    want = _brute_force(n, masks + extra, 0)
    if any(want[t] is None for t in range(targets)):
        with pytest.raises(UnresolvablePlanError, match="undetermined"):
            cross_check(bundle, answers, {1: (1, decoded, cache)})
        return len(built)
    cross_check(bundle, answers, {1: (1, decoded, cache)})
    reductions = len(built)
    t = rng.randrange(targets)
    wrong = dict(decoded)
    wrong[(1, t + 1)] ^= 1 << rng.randrange(16)
    with pytest.raises(UnresolvablePlanError, match=rf"disagree at \(1,1,{t + 1}\)"):
        cross_check(bundle, answers, {1: (1, wrong, cache)})
    return reductions


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


def test_cross_check_undetermined_target_is_named(monkeypatch):
    # x0 ^ x1 fixes neither, so target (1,1,1) is named as undetermined;
    # a target in no equation at all is too
    bundle = _bundle([[(1, 1), (2, 1)]])
    with pytest.raises(UnresolvablePlanError, match=r"\(1,1,1\) undetermined"):
        cross_check(bundle, [[5]], {1: (1, {(1, 1): 3}, [])})
    with pytest.raises(UnresolvablePlanError, match=r"\(1,1,2\) undetermined"):
        cross_check(bundle, [[5]], {1: (1, {(1, 2): 3}, [])})


def _reference_core(bundle, users):
    """Sizes of the answer rows the reduction must see.  `users` maps each
    user to (its file, its cache rows as atom sets).  Peel the answers
    (sets of atoms), then each user's own cache rows; the targets still
    unknown pick their connected components of what is left (answer rows
    and every user's cache rows, known atoms removed), and every answer
    row of those components counts."""
    answer_rows = [set(q.atoms) for queries in bundle.per_db for q in queries]

    def peel(rows, known):
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

    known = peel(answer_rows, ())
    left = set()
    for d, rows in users.values():
        mine = peel(answer_rows + rows, known)
        left |= {a for row in answer_rows + rows for a in row if a[0] == d} - mine
    residual = [(row - known, True) for row in answer_rows if row - known]
    residual += [(row - known, False) for _, rows in users.values() for row in rows
                 if row - known]
    reached, frontier = set(), left
    while frontier:
        reached |= frontier
        frontier = {a for row, _ in residual if row & frontier for a in row} - reached
    return sorted(len(row) for row, is_answer in residual if is_answer and row & reached)


def test_reduction_masks_match_column_reference(block_session, monkeypatch):
    # the reduction sees only the core: its masks are the answer rows that a
    # reference peel over atom sets leaves, one bit per unknown column
    kind, art = block_session
    bundle, tr = art["bundle"], art["transcript"]
    caches = art.get("caches", {})
    decoded = art["decoded"] if caches else {1: {(1, x): b for x, b in art["decoded"].items()}}
    users = {u: (tr.demand[u - 1],
                 [{(i, bundle.slots[u].subfile, t) for i in range(1, tr.N + 1)}
                  for t in caches[u]] if caches else [])
             for u in decoded}
    seen = []
    monkeypatch.setattr(gf2, "Reduction", lambda masks: seen.append(masks) or Reduction(masks))
    check_decoded(bundle, art["answers"], tr.N, tr.demand, caches, decoded)
    got = sorted(m.bit_count() for masks in seen for m in masks)
    assert got == _reference_core(bundle, users)
    # N = K peels every target: nothing is left to reduce
    assert (got == []) == (kind == "qset1")
