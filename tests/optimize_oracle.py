"""Reference descent for the decomposition search.

``descend`` is the penalty-schedule coordinate descent as it was built
before line evaluators: every zoom round repeats the whole parameter
vector once per grid point, sets the moving coordinate, and scores the
batch with one full ``evaluate_many`` call, recomputing both parameter
blocks.  The library's ``_descend`` scores the same rows through
``_Problem.line``; the differential tests run the search with each and
compare the decompositions byte for byte.
"""

from __future__ import annotations

import numpy as np

from coordsim.optimize import _MAX_PASSES, _PENALTY_SCHEDULE, _Problem, _zoom_min


def descend(problem: _Problem, x0: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(params, objective value, marginal gap) at the final iterate of the
    descent from x0, one full ``evaluate_many`` call per zoom round."""
    x = x0.copy()
    for lam in _PENALTY_SCHEDULE:

        def penalized(xs: np.ndarray) -> np.ndarray:
            values, gaps = problem.evaluate_many(xs)
            return values + lam * gaps * gaps

        current = float(penalized(x[None, :])[0])
        for _ in range(_MAX_PASSES):
            before = current
            for i in range(x.size):

                def line(ts: np.ndarray) -> np.ndarray:
                    xs = np.repeat(x[None, :], ts.size, axis=0)
                    xs[:, i] = ts
                    return penalized(xs)

                x[i], current = _zoom_min(line, x[i], current, 2.5)
            if before - current < 1e-11:
                break
    value, gap = problem.evaluate(x)
    return x, value, gap
