"""Search for good auxiliary decompositions of a target (U,V) correlation.

The rate bounds hold *per decomposition*; realizing the region means
exhibiting a W that splits the target into U - W - V while keeping the
finite-n rate expressions small.  This is a non-convex problem over a
product of simplices, attacked here with a deliberately simple derivative-
free scheme:

* rows of P(w|u) and P(v|w) live on simplices via a logistic (softmax)
  transform with the last logit pinned to 0;
* the target (U,V) marginal is enforced as a quadratic penalty
  lam * gap^2 on the L1 mismatch, with lam swept over an increasing
  schedule so early stages can move mass freely;
* each stage runs coordinate-wise line searches to convergence; each
  line search is a batched grid zoom over the +-2.5 bracket around the
  current coordinate: a few rounds, each one vectorized evaluation of a
  whole grid, so it sees the whole bracket instead of assuming the line
  unimodal;
* a coordinate line moves one row of one block, P(w|u) or P(v|w), so its
  grids are scored by a line evaluator (``_Problem.line``) that builds
  everything else once per line -- the fixed block's softmax rows, the
  (u, w) joint and, on a P(v|w) line, the whole (W;U) term, which is all
  r_min reads -- and per round only the moving row's softmax for the grid;
* random restarts (each with a seed derived from (seed, restart_index))
  run one after another and independently, and the best objective among
  those matching the target marginal wins, ties broken by lowest restart
  index;
* restart 0 starts instead from the best closed-form corner -- W = V,
  W = U or W = (U,V), each when w_size has room for it -- and keeps that
  corner if its descent ends above it or off the marginal, so the search
  never ends worse than the best corner (below min(|U|,|V|) letters no
  corner fits and restart 0 starts from the all-zero point).

The objective is the same finite-n rate expression ``region.inner_bound``
reports, computed on plain arrays through the shared ``pair_density`` /
``moments`` / ``backoff`` core, for a whole batch of parameter vectors in
one numpy pass, so each evaluation skips the validating value types.  One
scorer (``_Problem._score``) serves both ``evaluate_many``, where nothing
is fixed, and the line evaluator, with the same floating-point operations
per row, so a line scores its grid bit for bit as ``evaluate_many`` would.

The U marginal is pinned to the target's own U marginal: every valid chain
reproduces it exactly, so searching it would only fight the penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SearchError
from .measures import backoff, gaussian_q_inv, moments
from .probability import ConditionalPmf, JointPmf, Pmf, _shown, check_blocklength, check_eps, check_seed, pair_density
from .region import Decomposition, GammaTriple, _gamma_split, check_w_size, parse_gamma_rule

MARGINAL_TOL = 1e-6
_PENALTY_SCHEDULE = (1e2, 1e4, 1e6, 1e9)
# line-search grid on [-1, 1], odd so that its middle entry is exactly 0.0;
# each round shrinks the interval 28-fold, so 5 rounds take the +-2.5 bracket
# down to cells of 1.5e-7
_ZOOM_GRID = np.linspace(-1.0, 1.0, 57)
_ZOOM_ROUNDS = 5
# coordinate sweeps per penalty stage, unless a sweep gains under 1e-11
_MAX_PASSES = 30

OBJECTIVES = ("r_min", "r_plus_r0_min", "max_slack")


def _softmax(full: np.ndarray) -> np.ndarray:
    """Rows of full logits (last axis) -> stochastic rows."""
    e = np.exp(full - full.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Rows of free logits (last axis) -> stochastic rows (implicit trailing logit 0)."""
    return _softmax(np.concatenate([logits, np.zeros(logits.shape[:-1] + (1,))], axis=-1))


def _logits_for(rows: np.ndarray, floor: float = 1e-9) -> np.ndarray:
    """Inverse of _softmax_rows (last axis) up to the floor used to avoid -inf."""
    r = np.clip(rows, floor, None)
    r = r / r.sum(axis=-1, keepdims=True)
    return np.log(r[..., :-1]) - np.log(r[..., -1:])


@dataclass
class _Problem:
    p_u: np.ndarray
    target: np.ndarray
    w_size: int
    objective: str
    q_inv: float
    n: int
    g_r: float  # the two terms of region._gamma_split
    g_rr0: float

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P(w|u) logits, P(v|w) logits) of a parameter vector, or of each
        row of a batch of them."""
        u, w, v = self.target.shape[0], self.w_size, self.target.shape[1]
        n_wu = u * (w - 1)
        logits_wu = x[..., :n_wu].reshape(x.shape[:-1] + (u, w - 1))
        logits_vw = x[..., n_wu:].reshape(x.shape[:-1] + (w, v - 1))
        return logits_wu, logits_vw

    def n_params(self) -> int:
        u, w, v = self.target.shape[0], self.w_size, self.target.shape[1]
        return u * (w - 1) + w * (v - 1)

    def _term(self, pair: np.ndarray, g: float) -> tuple:
        """(mutual information, backoff + gamma term) of the pair laws
        ``pair`` over their last two axes, one per leading index (floats
        for one law)."""
        _, dens = pair_density(pair)
        lead = pair.shape[:-2]
        mu, v, _ = moments(dens.reshape(lead + (-1,)), pair.reshape(lead + (-1,)), third=False)
        return mu, backoff(v, self.q_inv, self.n) + g

    def _wu_term(self, joint_uw: np.ndarray) -> tuple:
        """The (W;U) constraint's ``_term`` of the (..., u, w) joints."""
        return self._term(joint_uw.swapaxes(-1, -2), self.g_r)

    def _score(self, joint_uw: np.ndarray, rows_vw: np.ndarray, wu_term: tuple | None = None) -> tuple:
        """(objective values, marginal L1 gaps) of the K chains with (u, w)
        joints ``joint_uw`` and P(v|w) rows ``rows_vw``: one of the two is a
        (K, ...) batch, the other either a batch too or one law shared by
        all K.  ``wu_term`` is the (W;U) term of a shared ``joint_uw``,
        already computed, or None.

        Only the constraints the objective reads are computed.  Where the
        value reads only a given ``wu_term`` (r_min), it is one float for
        all K rows."""
        joint = joint_uw[..., None] * rows_vw[..., None, :, :]  # (k, u, w, v)
        gap = np.abs(joint.sum(axis=2) - self.target).sum(axis=(1, 2))
        if wu_term is None and self.objective != "r_plus_r0_min":
            wu_term = self._wu_term(joint_uw)
        if self.objective == "r_min":
            mu, q = wu_term
            return mu + q, gap
        mu, q = self._term(joint.transpose(0, 2, 1, 3).reshape(joint.shape[0], self.w_size, -1), self.g_rr0)
        if self.objective == "max_slack":  # worst finite-n backoff over the two constraints
            return np.maximum(wu_term[1], q), gap
        return mu + q, gap

    def evaluate_many(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(objective values, marginal L1 gaps) at each row of the
        (K, n_params) batch ``xs``, in one numpy pass."""
        rows_wu, rows_vw = (_softmax_rows(logits) for logits in self.split(xs))
        return self._score(self.p_u[:, None] * rows_wu, rows_vw)

    def line(self, x: np.ndarray, i: int):
        """Evaluator of the line through ``x`` along coordinate ``i``:
        ``ts`` -> (objective values, marginal L1 gaps) of x with x[i] = t,
        for each t of ``ts``; bit for bit what ``evaluate_many`` gives on
        those rows (the values may be one float, see ``_score``).

        A line moves one row of one block, P(w|u) or P(v|w).  Everything
        else is built here, once: both blocks' softmax rows, the (u, w)
        joint and, on a P(v|w) line, the whole (W;U) term.  Each call builds
        only the moving row's softmax for the ts and scores the batch."""
        logits_wu, logits_vw = self.split(x)
        rows_vw = _softmax_rows(logits_vw)
        joint_uw = self.p_u[:, None] * _softmax_rows(logits_wu)
        on_wu = i < logits_wu.size
        logits = logits_wu if on_wu else logits_vw
        row, col = divmod(i if on_wu else i - logits_wu.size, logits.shape[-1])
        full = np.append(logits[row], 0.0)  # the moving row's logits, pinned trailing 0 included

        def moving_rows(ts: np.ndarray) -> np.ndarray:  # (K, size) softmax rows, one per t
            grid = np.repeat(full[None], ts.size, axis=0)
            grid[:, col] = ts
            return _softmax(grid)

        def with_row(fixed: np.ndarray, rows: np.ndarray) -> np.ndarray:  # fixed once per row, row replaced
            batch = np.repeat(fixed[None], rows.shape[0], axis=0)
            batch[:, row] = rows
            return batch

        if on_wu:
            p_row = self.p_u[row]
            return lambda ts: self._score(with_row(joint_uw, p_row * moving_rows(ts)), rows_vw)
        wu_term = None if self.objective == "r_plus_r0_min" else self._wu_term(joint_uw)
        return lambda ts: self._score(joint_uw, with_row(rows_vw, moving_rows(ts)), wu_term)

    def evaluate(self, x: np.ndarray) -> tuple[float, float]:
        """(objective value, marginal L1 gap) at parameter vector x."""
        values, gaps = self.evaluate_many(x[None, :])
        return float(values[0]), float(gaps[0])


def _zoom_min(fn_many, t0: float, f0: float, half: float) -> tuple[float, float]:
    """Minimum of fn over [t0 - half, t0 + half] by batched grid zoom, from
    f0 = fn(t0).  Each round evaluates ``_ZOOM_GRID`` on the interval in one
    ``fn_many`` call (the first grid is centred exactly on t0), keeps its
    first argmin when strictly below the best so far, and shrinks the
    interval to the two grid cells beside that argmin.  Looks at the whole
    bracket, so it does not assume fn unimodal; never returns above f0."""
    t_best, f_best = t0, f0
    mid = t0
    for _ in range(_ZOOM_ROUNDS):
        ts = mid + half * _ZOOM_GRID
        fs = fn_many(ts)
        j = int(np.argmin(fs))
        if fs[j] < f_best:
            t_best, f_best = float(ts[j]), float(fs[j])
        lo, hi = ts[max(j - 1, 0)], ts[min(j + 1, ts.size - 1)]
        mid, half = (lo + hi) / 2, (hi - lo) / 2
    return t_best, f_best


def _descend(problem: _Problem, x0: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Penalty-schedule coordinate descent from x0.

    Returns (params, objective value, marginal gap) at the final iterate.
    """
    x = x0.copy()
    for lam in _PENALTY_SCHEDULE:

        def penalized(scores: tuple) -> np.ndarray:
            values, gaps = scores
            return values + lam * gaps * gaps

        current = float(penalized(problem.evaluate_many(x[None, :]))[0])
        for _ in range(_MAX_PASSES):
            before = current
            for i in range(x.size):
                line = problem.line(x, i)
                x[i], current = _zoom_min(lambda ts: penalized(line(ts)), x[i], current, 2.5)
            if before - current < 1e-11:
                break
    value, gap = problem.evaluate(x)
    return x, value, gap


def _best_corner(problem: _Problem) -> tuple[np.ndarray, float, float] | None:
    """(params, objective value, marginal gap) of the best closed-form corner
    that matches the target marginal, or None when none fits in ``w_size``.

    A corner is W = g(U, V) for g one of v, u and the pair (u, v), each
    only when ``w_size`` has room for its letters: P(w|u) = P(g = w | u)
    and P(v|w) = P(v | g = w), so U - W - V reproduces the target exactly
    up to the 1e-9 floor of the unused letters.  All corners are scored in
    one ``evaluate_many`` call."""
    u_size, v_size = problem.target.shape
    uu, vv = np.indices((u_size, v_size))
    maps = [g for g in (vv, uu, uu * v_size + vv) if g.max() < problem.w_size]
    if not maps:  # below min(|U|, |V|) letters
        return None
    joint = problem.target[..., None] * (np.stack(maps)[..., None] == np.arange(problem.w_size))

    def logits(mass: np.ndarray) -> np.ndarray:  # rows without mass stay 0 and come out uniform
        total = mass.sum(axis=-1, keepdims=True)
        return _logits_for(mass / np.where(total > 0, total, 1.0)).reshape(len(maps), -1)

    # P(w|u) from the (K, u, w) and P(v|w) from the (K, w, v) marginals
    xs = np.concatenate([logits(joint.sum(axis=2)), logits(joint.sum(axis=1).swapaxes(1, 2))], axis=1)
    values, gaps = problem.evaluate_many(xs)
    feasible = np.flatnonzero(gaps <= MARGINAL_TOL)
    if feasible.size == 0:
        return None
    j = feasible[np.argmin(values[feasible])]
    return xs[j], float(values[j]), float(gaps[j])


def optimize_decomposition(
    target: JointPmf,
    w_size: int,
    objective: str = "r_min",
    restarts: int = 4,
    seed: int = 0,
    *,
    eps: float = 0.1,
    n: int = 10_000,
    gamma: GammaTriple | None = None,
) -> Decomposition:
    """Best decomposition found for ``target`` with auxiliary size ``w_size``.

    ``objective`` is one of "r_min", "r_plus_r0_min", "max_slack", evaluated
    at the given (eps, n) with the given gamma triple (default: the
    (log n, log n / 2, log n) rule).  The returned decomposition's (U,V)
    marginal matches the target within 1e-6 in L1; if no restart gets there,
    ``SearchError`` carries the best-found diagnostics.  ``seed`` must be an
    integer in [0, 2^64), as for the simulator, whatever the restart count.
    """
    if target.probs.ndim != 2:
        raise DomainError(f"target must be a two-axis joint, got rank {target.probs.ndim}")
    if objective not in OBJECTIVES:
        raise DomainError(f"objective must be one of {OBJECTIVES}, got {_shown(objective)}")
    u_size, v_size = target.shape
    w_size = check_w_size(w_size, u_size, v_size)
    restarts = check_blocklength(restarts, "restarts")
    seed = check_seed(seed)  # checked even when one restart draws nothing from it
    n = check_blocklength(n)
    eps = check_eps(eps, "eps must lie in (0, 1)")
    g_r, g_rr0 = _gamma_split(gamma if gamma is not None else parse_gamma_rule("logn", n), n)
    problem = _Problem(
        p_u=target.probs.sum(axis=1),
        target=target.probs,
        w_size=w_size,
        objective=objective,
        q_inv=gaussian_q_inv(eps),
        n=n,
        g_r=g_r,
        g_rr0=g_rr0,
    )

    corner = _best_corner(problem)
    starts = [np.zeros(problem.n_params()) if corner is None else corner[0]]
    starts += [np.random.default_rng([seed, i]).normal(scale=2.0, size=problem.n_params()) for i in range(1, restarts)]
    results = []
    for idx, x0 in enumerate(starts):
        x, value, gap = _descend(problem, x0)
        results.append((value, gap, idx, x))
    if corner is not None and (results[0][1] > MARGINAL_TOL or results[0][0] > corner[1]):
        results[0] = (corner[1], corner[2], 0, corner[0])  # restart 0 ended worse than its corner

    feasible = [r for r in results if r[1] <= MARGINAL_TOL]
    if not feasible:
        best = min(results, key=lambda r: (r[1], r[2]))
        raise SearchError(
            "no restart matched the target marginal within tolerance",
            diagnostics={
                "best_gap": best[1],
                "best_objective": best[0],
                "restart": best[2],
                "tolerance": MARGINAL_TOL,
            },
        )
    value, gap, idx, x = min(feasible, key=lambda r: (r[0], r[2]))
    logits_wu, logits_vw = problem.split(x)
    return Decomposition(
        p_u=Pmf(problem.p_u),
        w_given_u=ConditionalPmf(_softmax_rows(logits_wu)),
        v_given_w=ConditionalPmf(_softmax_rows(logits_vw)),
    )
