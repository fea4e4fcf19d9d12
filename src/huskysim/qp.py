"""Dense strictly-convex QP solver: minimize 0.5 x'Px + q'x subject to Gx <= h.

On numpy alone. The Cholesky factor P = L L' tests that P is positive definite.
A warm seed A (a cold start's is empty) is checked first: one solve of the KKT
system [[P, G_A'], [G_A, 0]] [x; lam_A] = [-q; h_A] gives the optimum when
lam_A >= 0, Gx <= h and the solve's residual is round-off. A warm seed that
fails is corrected once (rows of negative multiplier out, violated rows in) and
checked again. Otherwise the dual active-set method of Goldfarb and Idnani
(Math. Programming 27, 1983) runs in the space of L (x = L^-T y, c = L^-1 q,
W = L^-1 G', all from one L^-1), from the corrected seed less its dependent
rows and negative multipliers, keeping y = -c - W_A lam_A optimal for the
active rows A with lam_A >= 0. Z with Z K[A, A] Z' = I, for K = W'W, grows by
bordering and shrinks by a Householder reflection (Powell, Math. Programming
Study 25, 1985): the loop factors nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
        self.P, self.q = np.asarray(self.P, dtype=float), np.asarray(self.q, dtype=float)
        n = self.q.shape[0]
        if self.G is None:
            self.G, self.h = np.zeros((0, n)), np.zeros(0)
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.h = np.atleast_1d(np.asarray(self.h, dtype=float))

    def validate(self):
        for name in ("P", "q", "G", "h"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has a non-finite entry")
        n, P = self.q.shape[0], self.P
        if P.shape != (n, n):
            raise ValueError(f"P shape {P.shape} inconsistent with q length {n}")
        # exact symmetry first, as assembled; then the test of np.allclose(P, P.T, atol=1e-10)
        if not (P == P.T).all() and not (np.abs(P - P.T) <= 1e-10 + 1e-5 * np.abs(P.T)).all():
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
        return max(vars(self).values())


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, of which only the lower
    triangle is read. Raises np.linalg.LinAlgError when a is not positive
    definite; its args[1] is the index of the first pivot that is not."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        lo, hi = 0, len(a)  # the leading minor of order lo factors, that of order hi does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                np.linalg.cholesky(a[:mid, :mid])
                lo = mid
            except np.linalg.LinAlgError:
                hi = mid
        raise np.linalg.LinAlgError(f"leading minor {hi} is not positive definite", hi - 1) from None


def _border(Z, v, d):
    """Z for K[A, A] bordered by row p, from v = Z K[A, p] and d = sqrt(curv_proj)."""
    out = np.zeros((len(v) + 1, len(v) + 1))
    out[:-1, :-1], out[-1, :-1], out[-1, -1] = Z, (v @ Z) / -d, 1.0 / d
    return out


def _unborder(Z, j):
    """Z for K[A, A] without its j-th row: a Householder reflection maps column
    j of Z onto the last axis, and the other rows, without column j, remain."""
    u = Z[:, j].copy()
    u[-1] += math.copysign(math.sqrt(u @ u), u[-1])
    Z = Z[:-1] - u[:-1, None] * ((u @ Z) * (2.0 / (u @ u)))
    return np.concatenate((Z[:, :j], Z[:, j + 1 :]), axis=1)


def solve(problem: QpProblem, warm_active=None, max_iters: int = None) -> QpSolution:
    """Solve the QP; deterministic for fixed input.

    warm_active: optional iterable of constraint indices used to seed the
    active set; indices out of range are ignored. The solution's iterations
    count the KKT guess accepted or the dual loop's passes. Raises
    NotPositiveDefinite (P), Infeasible or MaxIterations.
    """
    problem.validate()
    P, q, G, h = problem.P, problem.q, problem.G, problem.h
    n, m = q.shape[0], G.shape[0]
    max_iters = 10 * (n + m) + 1 if max_iters is None else max_iters  # + 1: the pass that finds x optimal
    try:
        L = cho_factor(P)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky factorization of P failed") from exc
    # a pivot within round-off of P's scale factors by the luck of rounding alone
    if L.diagonal().min(initial=np.inf) ** 2 <= n * np.finfo(float).eps * P.diagonal().max(initial=0.0):
        raise NotPositiveDefinite("P is singular to working precision")
    viol_tol = 1e-10 * (1.0 + np.abs(h).max(initial=0.0))
    seed = sorted({int(j) for j in warm_active if 0 <= int(j) < m}) if warm_active is not None else []

    # the first iterations: a guess's rows as equalities, the QP's optimum on most ticks of a
    # closed loop; a warm guess that fails is corrected, less its rows of negative multiplier
    # and with the rows its x violates, tried once more, and corrected again for the dual loop
    for attempt in (1, 2):
        G_A, k = G[seed], len(seed)
        kkt, rhs = np.zeros((n + k, n + k)), np.concatenate([-q, h[seed]])
        kkt[:n, :n], kkt[:n, n:], kkt[n:, :n] = P, G_A.T, G_A
        try:
            z = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:  # the guess's rows are exactly dependent
            break
        x, lam = z[:n], z[n:]
        slack = G @ x - h
        if attempt <= max_iters and lam.min(initial=0.0) >= 0.0 and slack.max(initial=0.0) <= viol_tol:
            # dependent rows leave a solve that is round-off: its residual is not
            if np.abs(kkt @ z - rhs).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(rhs).max(initial=0.0)):
                return _solution(P, q, x, seed, lam, attempt, m)
        if warm_active is None:  # a cold start's dual loop starts from no rows
            break
        held = {j for j, l in zip(seed, lam) if l >= 0.0}
        seed = sorted(held | set(np.flatnonzero(slack > viol_tol).tolist()))

    # numpy has no triangular solve: L^-1 is formed once, then c and W by matmuls
    Linv = np.linalg.inv(L)
    c, W = Linv @ q, Linv @ G.T
    s0, W_S, k = -(c @ W) - h, W[:, seed], len(seed)  # s0: the slacks at y = -c
    # the seed's block of K is factored at once: a row dependent on the rows before it
    # fails a pivot or the relative curvature test of the loop, and leaves the seed; then
    # the rows of negative multiplier at the seed's equality-restricted optimum leave together
    K_S, kept = W_S.T @ W_S, list(range(k))
    while kept:
        try:
            R = cho_factor(K_S[np.ix_(kept, kept)])
        except np.linalg.LinAlgError as exc:
            del kept[exc.args[1]]
            continue
        tiny = np.flatnonzero(np.diag(R) ** 2 <= 1e-10 * K_S[kept, kept])
        if tiny.size:
            del kept[tiny[0]]
            continue
        Z = np.linalg.inv(R)  # Z K[A, A] Z' = I
        lam = Z.T @ (Z @ s0[[seed[i] for i in kept]])  # the multipliers of A, in its order
        if lam.min() >= 0.0:
            break
        kept = [i for i, l in zip(kept, lam) if l >= 0.0]
    else:
        Z, lam = np.zeros((0, 0)), np.zeros(0)
    active = [seed[i] for i in kept]
    W_A = W[:, active]  # the active rows' columns of W, in their order

    iterations = 0
    p = None  # the violated row being made tight; it stays through partial steps
    while True:
        iterations += 1
        if iterations > max_iters:
            raise MaxIterations(f"no convergence in {max_iters} iterations")
        if p is None:
            y = -c - W_A @ lam
            s = y @ W - h
            if s.max(initial=0.0) <= viol_tol:
                break
            p = int(np.argmax(s))  # most violated; argmax takes the lowest index on ties
            w_p = W[:, p]
            curv_full = w_p @ w_p  # K[p, p] > 0: P is positive definite and g_p is not zero
            lam_p = 0.0
        k_ap = w_p @ W_A  # K[A, p]
        v = Z @ k_ap
        rvec = Z.T @ v  # K[A, A]^-1 k_ap

        blocking = np.flatnonzero(rvec > 1e-9 * np.abs(rvec).max(initial=1.0))
        ratios = lam[blocking] / rvec[blocking]
        t1 = ratios.min(initial=np.inf)
        drop = blocking[np.argmin(ratios)] if blocking.size else -1
        # relative curvature test: g_p numerically dependent on the active
        # normals leaves no usable primal direction, so the step is dual-only
        curv_proj = curv_full - v @ v
        s_p = s0[p] - k_ap @ lam - curv_full * lam_p
        t2 = s_p / curv_proj if curv_proj > 1e-10 * curv_full else np.inf  # makes p tight

        if t1 == np.inf and t2 == np.inf:
            raise Infeasible(f"constraint {p} cannot be satisfied (unbounded dual step)")
        t = min(t1, t2)
        lam = lam - t * rvec
        lam_p += t

        if t2 <= t1:
            Z, W_A = _border(Z, v, np.sqrt(curv_proj)), np.concatenate((W_A, w_p[:, None]), axis=1)
            active.append(p)
            lam = np.concatenate((lam, [lam_p]))
            p = None
        else:  # partial step: retire the blocking constraint, keep working on p
            Z, W_A = _unborder(Z, drop), np.concatenate((W_A[:, :drop], W_A[:, drop + 1 :]), axis=1)
            del active[drop]
            lam = np.concatenate((lam[:drop], lam[drop + 1 :]))

    return _solution(P, q, Linv.T @ y, active, lam, iterations, m)


def _solution(P, q, x, active, lam, iterations, m) -> QpSolution:
    lam_full = np.zeros(m)
    lam_full[active] = np.maximum(lam, 0.0)
    return QpSolution(x, sorted(active), float(0.5 * x @ P @ x + q @ x), iterations, lam_full)


def check_kkt(problem: QpProblem, solution: QpSolution) -> KktReport:
    """Named KKT residuals; all four are below 1e-6 for a valid solution."""
    x, lam = solution.x_star, solution.lam
    slack = problem.G @ x - problem.h
    return KktReport(
        stationarity=float(np.abs(problem.P @ x + problem.q + problem.G.T @ lam).max(initial=0.0)),
        primal_feasibility=float(slack.max(initial=0.0)),
        dual_feasibility=float(np.maximum(-lam, 0.0).max(initial=0.0)),
        complementary_slackness=float(np.abs(lam * slack).max(initial=0.0)),
    )
