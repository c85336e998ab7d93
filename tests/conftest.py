"""Shared fixtures and helpers."""
import random

import pytest

from mupir.core import Permutation, Query, QueryBundle, atom, atom_triple
from mupir.harness import run_mupir_session, run_single_session


def identity(n):
    """The identity permutation of [n]."""
    return Permutation(tuple(range(1, n + 1)))


def mutate_bundle(bundle: QueryBundle, rng: random.Random):
    """Apply one random drop / duplicate / atom-swap; returns (bundle', op).
    A dropped or duplicated query takes its emission entry along, so the
    two lists stay aligned."""
    sub = bundle.sub
    per_db = [list(q) for q in bundle.per_db]
    emission = [list(o) for o in bundle.emission]
    op = rng.choice(["drop", "duplicate", "swap"])
    db0 = rng.randrange(len(per_db))
    while not per_db[db0]:
        db0 = rng.randrange(len(per_db))
    pos = rng.randrange(len(per_db[db0]))
    if op == "drop":
        per_db[db0].pop(pos)
        emission[db0].pop(pos)
    elif op == "duplicate":
        per_db[db0].append(per_db[db0][pos])
        emission[db0].append(emission[db0][pos])
    else:
        q = per_db[db0][pos]
        ai = rng.randrange(len(q.atoms))
        f, j, x = atom_triple(q.atoms[ai], bundle.K, sub)
        new_sub = rng.randrange(1, sub)
        if new_sub >= x:
            new_sub += 1
        atoms = list(q.atoms)
        atoms[ai] = atom(f, j, new_sub, bundle.K, sub)
        per_db[db0][pos] = Query(tuple(sorted(atoms)))
    mutated = QueryBundle(S=bundle.S, N=bundle.N, K=bundle.K, per_db=per_db,
                          emission=emission, slots=dict(bundle.slots))
    return mutated, op


# one session per generator block kind: single-user (alg1), N = K (qset1
# only) and N < K (qset2 next to qset1, two slots per file); 64-byte blocks
# are not interned small ints, so answers can be checked by identity
_BLOCK_SESSIONS = {
    "alg1": lambda: run_single_session(3, 3, 64, seed=4),
    "qset1": lambda: run_mupir_session(3, 3, 3, 64, seed=4),
    "qset2": lambda: run_mupir_session(2, 3, 4, 64, seed=4),
}


@pytest.fixture(params=sorted(_BLOCK_SESSIONS))
def block_session(request):
    """(block kind, artifacts) of a session that holds that kind of block."""
    return request.param, _BLOCK_SESSIONS[request.param]()[1]
