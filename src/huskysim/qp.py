"""Dense strictly-convex QP solver: minimize 0.5 x'Px + q'x subject to Gx <= h.

Dual active-set method of Goldfarb and Idnani (Math. Programming 27, 1983)
in the space of the Cholesky factor of P = L L': with x = L^-T y the problem
is min 0.5 y'y + c'y subject to W'y <= h, where c = L^-1 q and W = L^-1 G'
come from one triangular solve. Start at the unconstrained minimum y = -c,
repeatedly pick the most violated constraint and take primal/dual steps that
keep the iterate optimal for the active rows A and all multipliers
non-negative. The iterate is y = -c - W_A lam_A, so a step needs only blocks
of K = W'W = G P^-1 G' (slacks s0 - K[:, A] lam_A, the k x k factor of
K[A, A]); x = L^-T y comes last. P must be positive definite.

A warm start seeds A from a previous solve: the seeded block of K is factored
at once, and a seed dependent on earlier ones or of negative multiplier is
dropped. The result is the cold start's (the optimum is unique).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

_potrf, _potrs, _trtrs = get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=np.float64)


class QpError(Exception):
    pass


class NotPositiveDefinite(QpError):
    pass


class Infeasible(QpError):
    pass


class MaxIterations(QpError):
    pass


@dataclass
class QpProblem:
    P: np.ndarray  # n x n, symmetric positive definite
    q: np.ndarray  # n
    G: np.ndarray = None  # m x n
    h: np.ndarray = None  # m

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        n = self.q.shape[0]
        if self.G is None:
            self.G = np.zeros((0, n))
            self.h = np.zeros(0)
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.h = np.atleast_1d(np.asarray(self.h, dtype=float))

    def validate(self):
        for name in ("P", "q", "G", "h"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has a non-finite entry")
        n = self.q.shape[0]
        if self.P.shape != (n, n):
            raise ValueError(f"P shape {self.P.shape} inconsistent with q length {n}")
        # the test of np.allclose(P, P.T, atol=1e-10), at under half its cost
        if not (np.abs(self.P - self.P.T) <= 1e-10 + 1e-5 * np.abs(self.P.T)).all():
            raise ValueError("P must be symmetric (tolerance 1e-10)")
        if self.G.shape[1] != n or self.h.shape[0] != self.G.shape[0]:
            raise ValueError("G/h dimensions inconsistent with q")
        return self


@dataclass
class QpSolution:
    x_star: np.ndarray
    active_set: list
    objective_value: float
    iterations: int
    lam: np.ndarray  # multipliers for Gx <= h, zero off the active set


@dataclass
class KktReport:
    stationarity: float
    primal_feasibility: float
    dual_feasibility: float
    complementary_slackness: float

    def max_residual(self) -> float:
        return max(
            self.stationarity,
            self.primal_feasibility,
            self.dual_feasibility,
            self.complementary_slackness,
        )


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, of which only the lower
    triangle is read. Raises np.linalg.LinAlgError when a is not positive
    definite; its args[1] is the index of the first pivot that is not."""
    factor, info = _potrf(a, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} is not positive definite", info - 1)
    return factor


def _tri_solve(L, b, trans=0):
    # L^-1 b, or L^-T b with trans=1; LAPACK rejects the empty system
    return _trtrs(L, b, lower=1, trans=trans)[0] if L.size else b


def solve(problem: QpProblem, warm_active=None, max_iters: int = None) -> QpSolution:
    """Solve the QP; deterministic for fixed input.

    warm_active: optional iterable of constraint indices used to seed the
    active set; indices out of range are ignored. Raises Infeasible,
    NotPositiveDefinite, or MaxIterations.
    """
    problem.validate()
    P, q, G, h = problem.P, problem.q, problem.G, problem.h
    n, m = q.shape[0], G.shape[0]
    if max_iters is None:
        max_iters = 10 * (n + m) + 1  # + 1: the pass that finds x optimal

    try:
        L = cho_factor(P)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky factorization of P failed") from exc
    cw = _tri_solve(L, np.vstack([q, G]).T)
    c, W = cw[:, 0], cw[:, 1:]
    K = W.T @ W  # G P^-1 G'
    s0 = -(c @ W) - h  # slacks at the unconstrained minimum y = -c
    viol_tol = 1e-10 * (1.0 + np.abs(h).max(initial=0.0))

    active: list[int] = []
    lam = np.zeros(0)  # multipliers of the active rows, in their order

    def factor_active():  # R, the Cholesky factor of K[A, A]; fails only for dependent rows
        return cho_factor(K[np.array(active)[:, None], active]) if active else None

    if warm_active:
        active = sorted({int(j) for j in warm_active if 0 <= int(j) < m})
        while active:
            try:
                R = factor_active()
            except np.linalg.LinAlgError as exc:
                del active[exc.args[1]]  # dependent on the seeds before it
                continue
            # relative curvature test, as for a row the main loop adds
            tiny = np.flatnonzero(np.diag(R) ** 2 <= 1e-10 * K[active, active])
            if tiny.size == 0:
                break
            del active[tiny[0]]
        # equality-restricted optimum of the seeds; retire negative multipliers
        while active:
            lam = _potrs(R, s0[active], lower=1)[0]
            if lam.min() >= 0.0:
                break
            del active[int(np.argmin(lam))]
            R = factor_active()
        else:
            lam = np.zeros(0)

    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iters:
            raise MaxIterations(f"no convergence in {max_iters} iterations")

        s = s0 - K[:, active] @ lam
        if m == 0 or s.max() <= viol_tol:
            break
        p = int(np.argmax(s))  # most violated; argmax takes the lowest index on ties
        curv_full = K[p, p]  # > 0: P is positive definite and g_p is not zero
        lam_p = 0.0

        while True:
            k_ap = K[active, p]
            rvec = _potrs(R, k_ap, lower=1)[0] if active else np.zeros(0)

            blocking = np.flatnonzero(rvec > 1e-9 * np.abs(rvec).max(initial=1.0))
            ratios = lam[blocking] / rvec[blocking]
            t1 = ratios.min(initial=np.inf)
            drop = blocking[np.argmin(ratios)] if blocking.size else -1
            # relative curvature test: g_p numerically dependent on the active
            # normals leaves no usable primal direction, so the step is dual-only
            curv_proj = curv_full - k_ap @ rvec
            s_p = s0[p] - k_ap @ lam - curv_full * lam_p
            t2 = s_p / curv_proj if curv_proj > 1e-10 * curv_full else np.inf  # makes p tight

            if t1 == np.inf and t2 == np.inf:
                raise Infeasible(f"constraint {p} cannot be satisfied (unbounded dual step)")

            t = min(t1, t2)
            lam = lam - t * rvec
            lam_p += t

            if t2 <= t1:
                active.append(p)
                lam = np.append(lam, lam_p)
                try:
                    R = factor_active()
                except np.linalg.LinAlgError as exc:
                    raise NotPositiveDefinite("active constraint rows are linearly dependent") from exc
                break
            # partial step: retire the blocking constraint, keep working on p
            del active[drop]
            lam = np.delete(lam, drop)
            R = factor_active()
            iterations += 1
            if iterations > max_iters:
                raise MaxIterations(f"no convergence in {max_iters} iterations")

    x = _tri_solve(L, -c - W[:, active] @ lam, trans=1)
    lam_full = np.zeros(m)
    lam_full[active] = np.maximum(lam, 0.0)
    return QpSolution(
        x_star=x,
        active_set=sorted(active),
        objective_value=float(0.5 * x @ P @ x + q @ x),
        iterations=iterations,
        lam=lam_full,
    )


def check_kkt(problem: QpProblem, solution: QpSolution) -> KktReport:
    """Named KKT residuals; all four are below 1e-6 for a valid solution."""
    P, q, G, h = problem.P, problem.q, problem.G, problem.h
    x = solution.x_star
    lam = solution.lam
    grad = P @ x + q + G.T @ lam
    slack = G @ x - h
    return KktReport(
        stationarity=float(np.abs(grad).max(initial=0.0)),
        primal_feasibility=float(slack.max(initial=0.0)),
        dual_feasibility=float(np.maximum(-lam, 0.0).max(initial=0.0)),
        complementary_slackness=float(np.abs(lam * slack).max(initial=0.0)),
    )
