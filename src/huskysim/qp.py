"""Dense strictly-convex QP solver: minimize 0.5 x'Px + q'x subject to Gx <= h.

On numpy alone. A QpProblem checks its data when built, and the Cholesky factor
P = L L' tests that P is positive definite. A warm seed A is checked first: one
solve of the KKT system [[P, G_A'], [G_A, 0]] [x; lam_A] = [-q; h_A] gives the
optimum when lam_A >= 0, Gx <= h and the solve's residual is round-off. A seed
that fails is corrected once (rows of negative multiplier out, violated rows in)
and checked again. Otherwise, and from the outset of a cold solve, the dual
active-set method of Goldfarb and Idnani (Math. Programming 27, 1983) runs in
the space of L (x = L^-T y, c = L^-1 q, W = L^-1 G', from one L^-1 formed by
blocks), keeping y = -c - W_A lam_A optimal for the active rows A with
lam_A >= 0, and entering the violated row farthest from y: of largest s_i / |w_i|,
for slack s_i and column w_i of W. It starts from the first guess's independent
rows of non-negative multiplier, or from none. Z with Z K[A, A] Z' = I, K = W'W,
grows by bordering and shrinks by a Householder reflection (Powell, Math.
Programming Study 25, 1985), in place in buffers that A never outgrows: the loop
factors nothing and copies no matrix.
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
        n, P = self.q.shape[0], self.P
        if self.G is None:
            self.G, self.h = np.zeros((0, n)), np.zeros(0)
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.h = np.atleast_1d(np.asarray(self.h, dtype=float))
        for name in ("P", "q", "G", "h"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has a non-finite entry")
        if P.shape != (n, n):
            raise ValueError(f"P shape {P.shape} inconsistent with q length {n}")
        # exact symmetry first, as assembled; then the test of np.allclose(P, P.T, atol=1e-10)
        if not (P == P.T).all() and not (np.abs(P - P.T) <= 1e-10 + 1e-5 * np.abs(P.T)).all():
            raise ValueError("P must be symmetric (tolerance 1e-10)")
        if self.G.shape[1] != n or self.h.shape[0] != self.G.shape[0]:
            raise ValueError("G/h dimensions inconsistent with q")


@dataclass
class QpSolution:
    x_star: np.ndarray
    active_set: list
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
    definite."""
    return np.linalg.cholesky(a)


def _border(Z, k, rvec, d):
    """Z[:k + 1, :k + 1] for K[A, A] bordered by row p, in place (Z[:k, k] is zero), from
    rvec = K[A, A]^-1 K[A, p] and d = sqrt(K[p, p] - K[p, A] rvec). Returns A's new size, k + 1."""
    Z[k, :k], Z[k, k] = rvec / -d, 1.0 / d
    return k + 1


def _unborder(Z, k, j, *rows):
    """Z[:k, :k] for K[A, A] without A's j-th row, and rows without their row j, in place: a
    Householder reflection maps column j of Z onto the last axis. Returns A's new size, k - 1."""
    Zk = Z[:k, :k]
    u = Zk[:, j].copy()
    u[-1] += math.copysign(math.sqrt(u @ u), u[-1])
    Zk[:-1] -= np.outer(u[:-1], (u @ Zk) * (2.0 / (u @ u)))
    for a in (Zk[:-1].T, *rows):
        a[j : k - 1] = a[j + 1 : k]
    Zk[:, -1] = 0.0  # a border's column holds zeros above its diagonal
    return k - 1


def solve(problem: QpProblem, warm_active=None, max_iters: int = None) -> QpSolution:
    """Solve the QP; deterministic for fixed input.

    warm_active: optional iterable of constraint indices that seed the active
    set; indices out of range are ignored, and its rows need not be independent.
    Without it the solve is cold: the dual loop alone, from no rows. iterations
    counts the KKT guesses or the dual loop's passes. Raises NotPositiveDefinite
    (P), Infeasible or MaxIterations.
    """
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

    # a warm solve's first iterations: the seed's rows as equalities, the QP's optimum on most
    # ticks of a closed loop; a guess that fails is corrected, less its rows of negative
    # multiplier and with the rows its x violates, and tried once more
    start = []  # the dual loop's first rows: the first guess's of non-negative multiplier
    for attempt in (1, 2) if warm_active is not None else ():
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
                return _solution(x, seed, lam, attempt, m)
        if attempt == 2:
            break
        start = [j for j, l in zip(seed, lam.tolist()) if l >= 0.0]
        seed = sorted({*start, *np.flatnonzero(slack > viol_tol).tolist()})

    # numpy has no triangular solve: L^-1 is formed once, from the inverses of L's two
    # diagonal blocks, then c and W by matmuls
    b, Linv = n // 2, np.zeros_like(L)
    Linv[:b, :b], Linv[b:, b:] = np.linalg.inv(L[:b, :b]), np.linalg.inv(L[b:, b:])
    Linv[b:, :b] = -(Linv[b:, b:] @ (L[b:, :b] @ Linv[:b, :b]))
    c, W = Linv @ q, Linv @ G.T
    inv_norm = 1.0 / np.maximum(np.sqrt(np.einsum("ij,ij->j", W, W)), 1e-150)  # 1 / |w_i|, at most 1e150
    s0, K_S = -(c @ W) - h, W[:, start].T @ W  # s0: the slacks at y = -c; K_S: the start's rows of K
    # the start's rows are independent, as the first guess's system solved: its rows of negative
    # multiplier at the equality-restricted optimum of the rest leave in rounds, one factor of
    # their block of K each. A block that does not factor, or has a pivot of relative curvature
    # <= 1e-10, holds rows dependent to working precision: the loop then starts from no rows
    K_SS, kept = K_S[:, start], list(range(len(start)))
    while kept:
        K_A = K_SS.take(kept, 0).take(kept, 1)
        try:
            R = np.linalg.cholesky(K_A)
        except np.linalg.LinAlgError:
            R = None
        if R is None or (R.diagonal() ** 2 <= 1e-10 * K_A.diagonal()).any():
            kept = []
            break
        lam_S = np.linalg.solve(K_A, s0[[start[i] for i in kept]])  # the multipliers of A, in its order
        if lam_S.min() >= 0.0:
            break
        kept = [i for i, l in zip(kept, lam_S.tolist()) if l >= 0.0]
    # the first k rows of the buffers Z, K_A (the active rows of K) and lam are A's
    k, active, cap = len(kept), [start[i] for i in kept], min(n, m) + 1  # A's rows are independent
    Z, K_A, lam = np.zeros((cap, cap)), np.zeros((cap, m)), np.zeros(cap)
    if k:
        Z[:k, :k], K_A[:k], lam[:k] = np.linalg.inv(R), K_S[kept], lam_S  # Z K[A, A] Z' = I

    iterations, p = 0, None  # p: the violated row being made tight; it stays through partial steps
    while True:
        iterations += 1
        if iterations > max_iters:
            raise MaxIterations(f"no convergence in {max_iters} iterations")
        Z_A, lam_A = Z[:k, :k], lam[:k]
        if p is None:
            s = s0 - lam_A @ K_A[:k]  # the slacks at y = -c - W_A lam_A
            if not m or s.max() <= viol_tol:
                break
            p = int(np.where(s > viol_tol, s * inv_norm, -np.inf).argmax())  # the farthest; the lowest on ties
            w_p, lam_p, s_p = W[:, p], 0.0, float(s[p])  # s_p: p's slack, through partial steps too
            curv_full = float(w_p.dot(w_p))  # K[p, p] > 0: P is positive definite and g_p is not zero
        k_ap = K_A[:k, p]
        v = Z_A @ k_ap
        rvec = v @ Z_A  # K[A, A]^-1 k_ap

        r, t1, drop = rvec.tolist(), math.inf, -1
        tol = 1e-9 * max(1.0, max(r), -min(r)) if k else 0.0
        for j, l in enumerate(lam_A.tolist()):  # the ratio test, on the rows that block
            if r[j] > tol and l / r[j] < t1:
                t1, drop = l / r[j], j
        # relative curvature test: g_p numerically dependent on the active
        # normals leaves no usable primal direction, so the step is dual-only
        curv_proj = curv_full - float(v.dot(v))
        t2 = s_p / curv_proj if curv_proj > 1e-10 * curv_full else math.inf  # makes p tight

        if t1 == t2 == math.inf:
            raise Infeasible(f"constraint {p} cannot be satisfied (unbounded dual step)")
        t = min(t1, t2)
        lam_A -= t * rvec
        lam_p, s_p = lam_p + t, s_p - t * curv_proj

        if t2 <= t1:  # p joins A
            lam[k] = lam_p
            np.dot(w_p, W, out=K_A[k])
            k = _border(Z, k, rvec, math.sqrt(curv_proj))
            active.append(p)
            p = None
        else:  # partial step: retire the blocking constraint, keep working on p
            k = _unborder(Z, k, drop, K_A, lam)
            del active[drop]

    return _solution(Linv.T @ (-c - W[:, active] @ lam[:k]), active, lam[:k], iterations, m)


def _solution(x, active, lam, iterations, m) -> QpSolution:
    lam_full = np.zeros(m)
    lam_full[active] = np.maximum(lam, 0.0)
    return QpSolution(x, sorted(active), iterations, lam_full)


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
