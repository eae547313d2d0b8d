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
* each stage runs coordinate-wise golden-section line searches to
  convergence;
* random restarts (each with a seed derived from (seed, restart_index))
  run one after another and independently -- restart 0 warm-starts from
  the copy-through construction W = (U,V) whenever the alphabet allows
  it -- and the best objective among those matching the target marginal
  wins, ties broken by lowest restart index.  The search is pure-Python
  bound, so running restarts in threads would only add lock contention.

The objective is the same finite-n rate expression ``region.inner_bound``
reports, computed on plain arrays through the shared ``pair_density`` /
``moments`` / ``backoff`` core so each evaluation skips the validating
value types.

The U marginal is pinned to the target's own U marginal: every valid chain
reproduces it exactly, so searching it would only fight the penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SearchError
from .measures import backoff, gaussian_q_inv, moments
from .probability import ConditionalPmf, JointPmf, Pmf, pair_density
from .region import Decomposition, GammaTriple, parse_gamma_rule

MARGINAL_TOL = 1e-6
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PENALTY_SCHEDULE = (1e2, 1e4, 1e6, 1e9)

OBJECTIVES = ("r_min", "r_plus_r0_min", "max_slack")


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Rows of free logits -> stochastic rows (implicit trailing logit 0)."""
    full = np.concatenate([logits, np.zeros((logits.shape[0], 1))], axis=1)
    full -= full.max(axis=1, keepdims=True)
    e = np.exp(full)
    return e / e.sum(axis=1, keepdims=True)


def _logits_for(rows: np.ndarray, floor: float = 1e-9) -> np.ndarray:
    """Inverse of _softmax_rows up to the floor used to avoid -inf."""
    r = np.clip(rows, floor, None)
    r = r / r.sum(axis=1, keepdims=True)
    return np.log(r[:, :-1]) - np.log(r[:, -1:])


@dataclass
class _Problem:
    p_u: np.ndarray
    target: np.ndarray
    w_size: int
    objective: str
    q_inv: float
    n: int
    g_r: float  # (g1+g2)/n
    g_rr0: float  # (g2+g3)/n

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u, w, v = self.target.shape[0], self.w_size, self.target.shape[1]
        n_wu = u * (w - 1)
        logits_wu = x[:n_wu].reshape(u, w - 1)
        logits_vw = x[n_wu:].reshape(w, v - 1)
        return logits_wu, logits_vw

    def n_params(self) -> int:
        u, w, v = self.target.shape[0], self.w_size, self.target.shape[1]
        return u * (w - 1) + w * (v - 1)

    def _info_and_backoff(self, pair: np.ndarray) -> tuple[float, float]:
        """(mutual information, dispersion backoff) of a (w, other) pair law."""
        _, masses, dens = pair_density(pair)
        mu, v, _ = moments(dens, masses, third=False)
        return mu, backoff(v, self.q_inv, self.n)

    def evaluate(self, x: np.ndarray) -> tuple[float, float]:
        """(objective value, marginal L1 gap) at parameter vector x.

        Only the constraints the objective reads are computed.
        """
        logits_wu, logits_vw = self.split(x)
        rows_wu = _softmax_rows(logits_wu)
        rows_vw = _softmax_rows(logits_vw)
        joint = self.p_u[:, None, None] * rows_wu[:, :, None] * rows_vw[None, :, :]
        gap = float(np.abs(joint.sum(axis=1) - self.target).sum())
        pair_wu = joint.sum(axis=2).T  # (w, u)
        pair_wuv = joint.transpose(1, 0, 2).reshape(self.w_size, -1)  # (w, uv)
        if self.objective == "r_min":
            mu, q = self._info_and_backoff(pair_wu)
            return mu + q + self.g_r, gap
        if self.objective == "r_plus_r0_min":
            mu, q = self._info_and_backoff(pair_wuv)
            return mu + q + self.g_rr0, gap
        # max_slack: worst finite-n backoff over the two constraints
        q_r = self._info_and_backoff(pair_wu)[1]
        q_rr0 = self._info_and_backoff(pair_wuv)[1]
        return max(q_r + self.g_r, q_rr0 + self.g_rr0), gap


def _golden_min(fn, lo: float, hi: float, iters: int = 36) -> tuple[float, float]:
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def _descend(problem: _Problem, x0: np.ndarray, max_passes: int) -> tuple[np.ndarray, float, float]:
    """Penalty-schedule coordinate descent from x0.

    Returns (params, objective value, marginal gap) at the final iterate.
    """
    x = x0.copy()
    for lam in _PENALTY_SCHEDULE:

        def penalized(vec: np.ndarray) -> float:
            value, gap = problem.evaluate(vec)
            return value + lam * gap * gap

        current = penalized(x)
        for _ in range(max_passes):
            before = current
            for i in range(x.size):
                xi = x[i]

                def line(t: float) -> float:
                    x[i] = t
                    out = penalized(x)
                    x[i] = xi
                    return out

                t_best, f_best = _golden_min(line, xi - 2.5, xi + 2.5)
                if f_best < current:
                    x[i] = t_best
                    current = f_best
            if before - current < 1e-11:
                break
    value, gap = problem.evaluate(x)
    return x, value, gap


def _copy_through_start(problem: _Problem) -> np.ndarray | None:
    """W identified with (u,v) pairs: exact marginal match, the safe but
    rate-expensive corner of the search space."""
    u_size, v_size = problem.target.shape
    if problem.w_size < u_size * v_size:
        return None
    rows_wu = np.full((u_size, problem.w_size), 1e-9)
    rows_vw = np.full((problem.w_size, v_size), 1e-9)
    for u in range(u_size):
        pu = problem.p_u[u]
        cond_v = problem.target[u] / pu if pu > 0 else np.full(v_size, 1.0 / v_size)
        for v in range(v_size):
            w = u * v_size + v
            rows_wu[u, w] = max(cond_v[v], 1e-9)
            rows_vw[w, v] = 1.0
    for w in range(u_size * v_size, problem.w_size):
        rows_vw[w, 0] = 1.0
    rows_wu /= rows_wu.sum(axis=1, keepdims=True)
    rows_vw /= rows_vw.sum(axis=1, keepdims=True)
    return np.concatenate([_logits_for(rows_wu).ravel(), _logits_for(rows_vw).ravel()])


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
    max_passes: int = 30,
) -> Decomposition:
    """Best decomposition found for ``target`` with auxiliary size ``w_size``.

    ``objective`` is one of "r_min", "r_plus_r0_min", "max_slack", evaluated
    at the given (eps, n) with the given gamma triple (default: the
    (log n, log n / 2, log n) rule).  The returned decomposition's (U,V)
    marginal matches the target within 1e-6 in L1; if no restart gets there,
    ``SearchError`` carries the best-found diagnostics.
    """
    if target.probs.ndim != 2:
        raise DomainError(f"target must be a two-axis joint, got rank {target.probs.ndim}")
    if objective not in OBJECTIVES:
        raise DomainError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    u_size, v_size = target.shape
    if not 1 <= w_size <= u_size * v_size + 1:
        raise DomainError(f"w_size must lie in [1, |U|*|V|+1] = [1, {u_size * v_size + 1}], got {w_size}")
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    g = gamma if gamma is not None else parse_gamma_rule("logn", n)
    problem = _Problem(
        p_u=target.probs.sum(axis=1),
        target=target.probs,
        w_size=w_size,
        objective=objective,
        q_inv=gaussian_q_inv(eps),
        n=n,
        g_r=(g.g1 + g.g2) / n,
        g_rr0=(g.g2 + g.g3) / n,
    )

    def run_restart(idx: int) -> tuple[float, float, int, np.ndarray]:
        if idx == 0:
            x0 = _copy_through_start(problem)
            if x0 is None:
                x0 = np.zeros(problem.n_params())
        else:
            rng = np.random.default_rng([seed, idx])
            x0 = rng.normal(scale=2.0, size=problem.n_params())
        x, value, gap = _descend(problem, x0, max_passes)
        return value, gap, idx, x

    results = [run_restart(idx) for idx in range(restarts)]

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
