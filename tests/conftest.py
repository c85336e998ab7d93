"""Shared fixtures and helpers."""
import pytest

from mupir.core import Permutation
from mupir.harness import run_mupir_session, run_single_session


def identity(n):
    """The identity permutation of [n]."""
    return Permutation(tuple(range(1, n + 1)))


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
