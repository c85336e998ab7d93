"""GF(2) oracle solver: value-free reduction checked against brute force."""
import random

import pytest

from mupir.core import Query, QueryAtom, QueryBundle
from mupir.errors import UnresolvablePlanError
from mupir.gf2 import AnswerSystem, Reduction


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


def test_random_systems_match_brute_force():
    rng = random.Random(2212)
    for _ in range(300):
        n = rng.randint(1, 10)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, n + 2))]
        extra = [rng.getrandbits(n) for _ in range(rng.randint(0, 3))]
        secret = rng.getrandbits(n)
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
    per_db = [[Query(tuple(QueryAtom(i, 1, x) for i, x in atoms)) for atoms in queries]]
    return QueryBundle(S=1, per_db=per_db, emission=[[None] * len(queries)])


def test_answer_system_solves_with_cache_rows():
    blocks = {(1, 1): 0x0110, (1, 2): 0x0220, (2, 1): 0x0440, (2, 2): 0x0880}

    def xor(*keys):
        acc = 0
        for k in keys:
            acc ^= blocks[k]
        return acc

    bundle = _bundle([[(2, 2)], [(1, 2), (2, 1)]])
    answers = [[xor((2, 2)), xor((1, 2), (2, 1))]]
    system = AnswerSystem(bundle, answers, K=1, sub=2)
    c = system.column
    # cache-like rows over both files: x(1,1)^x(2,1) and x(1,1)^x(2,2)
    cache = [(1 << c(1, 1, 1) | 1 << c(2, 1, 1), xor((1, 1), (2, 1))),
             (1 << c(1, 1, 1) | 1 << c(2, 1, 2), xor((1, 1), (2, 2)))]
    targets = [(i, 1, x) for i in (1, 2) for x in (1, 2)]
    got = dict(system.solve(targets, cache))
    assert got == {(i, 1, x): blocks[(i, x)] for i, _, x in targets}
    # the shared reduction is reused, and without the cache nothing but
    # (2,1,2) is determined
    assert dict(system.solve([(2, 1, 2)])) == {(2, 1, 2): blocks[(2, 2)]}
    with pytest.raises(UnresolvablePlanError, match="undetermined"):
        dict(system.solve([(1, 1, 1)]))
