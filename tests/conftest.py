"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from optlab import training


@pytest.fixture
def run_with_iterates(monkeypatch):
    """``run_with_iterates(ds, spec, iters, **options)``: one `run_training`
    run, and the full-length iterates it went through, read where the run
    loop steps them (`training.step`, its one update path).

    They are w_0 up to the last iterate that had a finite loss and did not
    fail to step: for a run that ends "ok", its final iterate, the last
    step's result (or w_0), which an untraced run builds no `w` for.
    """
    step = training.step

    def run(ds, spec, iters, **options):
        stepped, last = [], [np.zeros(ds.d)]

        def recorded(state, *args):
            stepped.append(ds.orbits.expand(state.w[0]))
            new = step(state, *args)
            last[0] = new.w[0]
            return new

        with monkeypatch.context() as patch:
            patch.setattr(training, "step", recorded)
            result = training.run_training(ds, spec, iters, **options)
        if result.status == "ok":
            stepped.append(ds.orbits.expand(last[0]) if stepped else last[0])
            assert result.w is None or result.w.tobytes() == stepped[-1].tobytes()
        return result, stepped

    return run
