"""Dense strictly-convex QP solver: minimize 0.5 x'Px + q'x subject to Gx <= h.

Dual active-set method in the Goldfarb-Idnani style: start at the
unconstrained minimum, repeatedly pick the most violated constraint and take
primal/dual steps that keep the iterate optimal for the current active set
and keep all multipliers non-negative. Strict convexity of P is required.

An optional warm start seeds the active set from a previous solve; the
result is identical to a cold start (the optimum of a strictly convex QP is
unique), it just gets there in fewer iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve


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
        n = self.q.shape[0]
        if self.P.shape != (n, n):
            raise ValueError(f"P shape {self.P.shape} inconsistent with q length {n}")
        if not np.allclose(self.P, self.P.T, atol=1e-10):
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
    lam: np.ndarray = None  # multipliers for Gx <= h, zero off the active set


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


def solve(problem: QpProblem, warm_active=None, max_iters: int = None) -> QpSolution:
    """Solve the QP; deterministic for fixed input.

    warm_active: optional iterable of constraint indices used to seed the
    active set. Raises Infeasible, NotPositiveDefinite, or MaxIterations.
    """
    problem.validate()
    P, q, G, h = problem.P, problem.q, problem.G, problem.h
    n, m = q.shape[0], G.shape[0]
    if max_iters is None:
        max_iters = 10 * (n + m) + 1  # + 1: the pass that finds x optimal

    try:
        chol = cho_factor(P, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky factorization of P failed") from exc
    x = -cho_solve(chol, q)

    active: list[int] = []
    lam_active: list[float] = []
    pinv_ga = np.zeros((n, 0))  # columns P^{-1} g_j for j in active

    h_scale = 1.0 + (np.abs(h).max() if m else 0.0)
    viol_tol = 1e-10 * h_scale

    def factor_m():
        # Cholesky factor of G_A P^-1 G_A'; it fails only for dependent active rows
        M = G[active] @ pinv_ga
        try:
            return cho_factor(0.5 * (M + M.T), lower=True)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("active constraint rows are linearly dependent") from exc

    def solve_m(rhs):
        return cho_solve(factor_m(), rhs)

    def eq_restricted_optimum():
        # argmin over {x : G_A x = h_A}, with its multipliers
        nonlocal x, lam_active
        if not active:
            x = -cho_solve(chol, q)
            lam_active = []
            return
        rhs = -(h[active] + G[active] @ cho_solve(chol, q))
        lam = solve_m(rhs)
        x = -cho_solve(chol, q + G[active].T @ lam)
        lam_active = list(lam)

    if warm_active:
        for j in sorted(set(int(j) for j in warm_active)):
            if not (0 <= j < m):
                continue
            active_save, pinv_save = list(active), pinv_ga
            active.append(j)
            pinv_ga = np.column_stack([pinv_ga, cho_solve(chol, G[j])])
            try:
                factor_m()
            except NotPositiveDefinite:
                active, pinv_ga = active_save, pinv_save  # dependent row, skip
        eq_restricted_optimum()
        while lam_active and min(lam_active) < 0.0:
            k = int(np.argmin(lam_active))
            active.pop(k)
            pinv_ga = np.delete(pinv_ga, k, axis=1)
            eq_restricted_optimum()

    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iters:
            raise MaxIterations(f"no convergence in {max_iters} iterations")

        s = G @ x - h if m else np.zeros(0)
        if m == 0 or s.max() <= viol_tol:
            break
        p = int(np.argmax(s))  # most violated; argmax takes the lowest index on ties
        gp = G[p]
        pinv_gp = cho_solve(chol, gp)
        curv_full = gp @ pinv_gp  # > 0: P is positive definite and gp is not zero
        lam_p = 0.0

        while True:
            if active:
                rvec = solve_m(G[active] @ pinv_gp)
                z = -(pinv_gp - pinv_ga @ rvec)
            else:
                rvec = np.zeros(0)
                z = -pinv_gp

            rvec_scale = max(1.0, float(np.abs(rvec).max()) if rvec.size else 1.0)
            t1 = np.inf
            drop = -1
            for k, rk in enumerate(rvec):
                if rk > 1e-9 * rvec_scale:
                    tk = lam_active[k] / rk
                    if tk < t1:
                        t1, drop = tk, k
            # relative curvature test: gp numerically dependent on the active
            # normals leaves no usable primal direction, so the step is
            # dual-only and must not move x at all
            curv_proj = -(gp @ z)
            if curv_proj > 1e-10 * curv_full:
                t2 = (gp @ x - h[p]) / curv_proj  # step that makes p tight
            else:
                z = np.zeros(n)
                t2 = np.inf

            if t1 == np.inf and t2 == np.inf:
                raise Infeasible(f"constraint {p} cannot be satisfied (unbounded dual step)")

            t = min(t1, t2)
            x = x + t * z
            lam_p += t
            lam_active = [lv - t * rk for lv, rk in zip(lam_active, rvec)]

            if t2 <= t1:
                active.append(p)
                lam_active.append(lam_p)
                pinv_ga = np.column_stack([pinv_ga, pinv_gp])
                break
            # partial step: retire the blocking constraint, keep working on p
            active.pop(drop)
            lam_active.pop(drop)
            pinv_ga = np.delete(pinv_ga, drop, axis=1)
            iterations += 1
            if iterations > max_iters:
                raise MaxIterations(f"no convergence in {max_iters} iterations")

    lam = np.zeros(m)
    for j, lv in zip(active, lam_active):
        lam[j] = max(lv, 0.0)
    return QpSolution(
        x_star=x,
        active_set=sorted(active),
        objective_value=float(0.5 * x @ P @ x + q @ x),
        iterations=iterations,
        lam=lam,
    )


def check_kkt(problem: QpProblem, solution: QpSolution) -> KktReport:
    """Named KKT residuals; all four are below 1e-6 for a valid solution."""
    P, q, G, h = problem.P, problem.q, problem.G, problem.h
    x = solution.x_star
    lam = solution.lam if solution.lam is not None else np.zeros(G.shape[0])
    grad = P @ x + q + (G.T @ lam if G.size else 0.0)
    slack = G @ x - h if G.size else np.zeros(0)
    return KktReport(
        stationarity=float(np.abs(grad).max(initial=0.0)),
        primal_feasibility=float(slack.max(initial=0.0)) if slack.size else 0.0,
        dual_feasibility=float(np.maximum(-lam, 0.0).max(initial=0.0)),
        complementary_slackness=float(np.abs(lam * slack).max(initial=0.0)),
    )
