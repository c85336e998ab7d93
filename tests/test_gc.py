"""Sessions and the distribution oracle run with CPython's cyclic collector
paused, and leave no reference cycles behind.

`harness.run_single_session`, `harness.run_mupir_session` and
`audit.demand_distribution_oracle` pause the collector themselves
(`core.collector_paused`), so memory is freed by reference counting alone.
That is only safe while nothing a run builds refers back to itself: the
no-cycles property is load-bearing, not only a measurement.  Each run below
goes with the collector off, and a collection right after it must find
nothing to free.  The pause must also end at every exit, normal or by an
exception, and leave a collector the caller turned off still off.
"""
import gc

import pytest

from mupir import audit, harness
from mupir.audit import demand_distribution_oracle
from mupir.core import collector_paused
from mupir.errors import DemandError, TooLargeInstanceError
from mupir.harness import run_mupir_session, run_single_session

RUNS = {
    "mupir-3-4-4": lambda: run_mupir_session(3, 4, 4, 1, seed=1),
    "mupir-3-3-5": lambda: run_mupir_session(3, 3, 5, 1, seed=1),
    "mupir-2-3-5": lambda: run_mupir_session(2, 3, 5, 1, seed=1),
    "mupir-3-4-4-64B": lambda: run_mupir_session(3, 4, 4, 64, seed=1),
    # N < K with qset2 blocks at K = 8, and a larger N < K session
    "mupir-3-5-8": lambda: run_mupir_session(3, 5, 8, 1, seed=1),
    "mupir-4-5-7": lambda: run_mupir_session(4, 5, 7, 1, seed=1),
    "single-4-5": lambda: run_single_session(4, 5, 1, seed=1),
    "oracle-2-2-3": lambda: demand_distribution_oracle(2, 2, 3, scheme="mupir"),
    "oracle-2-2-4": lambda: demand_distribution_oracle(2, 2, 4, scheme="mupir"),
}


@pytest.fixture
def collector_on():
    """The collector enabled for the test, and enabled again after it
    whatever the test left behind."""
    gc.enable()
    yield
    gc.enable()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_leaves_no_cycles(name, collector_on):
    gc.collect()
    gc.disable()
    RUNS[name]()
    freed = gc.collect()
    assert freed == 0


def _spy(monkeypatch, module, name, seen):
    """Rebind module.name to record, per call, whether the collector runs."""
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


EXITS = {
    "single-normal": (lambda: run_single_session(3, 3, 1, seed=1), None),
    "mupir-normal": (lambda: run_mupir_session(3, 3, 3, 1, seed=1), None),
    "mupir-demand-error": (
        lambda: run_mupir_session(3, 3, 3, 1, 0, demand=(1, 1, 2)), DemandError),
    "oracle-normal": (lambda: demand_distribution_oracle(2, 2, 2, scheme="mupir"), None),
    "oracle-refusal": (
        lambda: demand_distribution_oracle(2, 5, 5, scheme="mupir"), TooLargeInstanceError),
}


class TestPause:
    @pytest.mark.parametrize("name", sorted(EXITS))
    def test_collector_enabled_after_every_exit(self, name, collector_on):
        run, error = EXITS[name]
        if error is None:
            run()
        else:
            with pytest.raises(error):
                run()
        assert gc.isenabled()

    @pytest.mark.parametrize("name", sorted(EXITS))
    def test_caller_disabled_collector_stays_disabled(self, name, collector_on):
        run, error = EXITS[name]
        gc.disable()
        if error is None:
            run()
        else:
            with pytest.raises(error):
                run()
        assert not gc.isenabled()

    def test_sessions_run_paused(self, monkeypatch, collector_on):
        seen = []
        _spy(monkeypatch, harness, "answer_bundle", seen)
        run_single_session(3, 3, 1, seed=1)
        run_mupir_session(2, 3, 4, 1, seed=1)
        assert seen == [False, False]
        assert gc.isenabled()

    def test_oracle_runs_paused(self, monkeypatch, collector_on):
        seen = []
        _spy(monkeypatch, audit, "_covering_demands", seen)
        demand_distribution_oracle(2, 2, 3, scheme="mupir")
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_nested(self, collector_on):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            run_mupir_session(3, 3, 3, 1, seed=1)
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_exception_inside(self, collector_on):
        with pytest.raises(KeyError):
            with collector_paused():
                with collector_paused():
                    raise KeyError("x")
        assert gc.isenabled()
