"""Sessions and the distribution oracle leave no reference cycles behind.

With CPython's cyclic collector paused, memory is freed by reference
counting alone; that is only safe while nothing a run builds refers back to
itself.  Each run below goes with the collector off, and a collection right
after it must find nothing to free.
"""
import gc

import pytest

from mupir.audit import demand_distribution_oracle
from mupir.harness import run_mupir_session, run_single_session

RUNS = {
    "mupir-3-4-4": lambda: run_mupir_session(3, 4, 4, 1, seed=1),
    "mupir-3-3-5": lambda: run_mupir_session(3, 3, 5, 1, seed=1),
    "mupir-2-3-5": lambda: run_mupir_session(2, 3, 5, 1, seed=1),
    "mupir-3-4-4-64B": lambda: run_mupir_session(3, 4, 4, 64, seed=1),
    "single-4-5": lambda: run_single_session(4, 5, 1, seed=1),
    "oracle-2-2-3": lambda: demand_distribution_oracle(2, 2, 3, scheme="mupir"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_leaves_no_cycles(name):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        RUNS[name]()
        freed = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert freed == 0
