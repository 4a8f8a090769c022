"""Fixtures shared by the test modules."""

import pytest

from optlab import training


@pytest.fixture
def run_with_iterates(monkeypatch):
    """``run_with_iterates(ds, spec, iters, **options)``: one `run_training`
    run, and the full-length iterates it went through, read where the run
    loop steps them (`training.step`, its one update path).

    They are w_0 up to the last iterate that had a finite loss and did not
    fail to step: for a run that ends "ok", its final iterate.
    """
    step = training.step

    def run(ds, spec, iters, **options):
        stepped = []

        def recorded(state, *args):
            stepped.append(ds.orbits.expand(state.w[0]))
            return step(state, *args)

        with monkeypatch.context() as patch:
            patch.setattr(training, "step", recorded)
            result = training.run_training(ds, spec, iters, **options)
        return result, stepped + ([result.w] if result.status == "ok" else [])

    return run
