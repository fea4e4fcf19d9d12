import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import calls, objective, pgd_oracle, recording
from huskysim import qp
from huskysim.mpc import MpcConfig, input_constraints


def random_problem(rng, with_pin_pair=False):
    n = int(rng.integers(3, 12))
    A = rng.normal(size=(n, n))
    P = A @ A.T + np.eye(n) * rng.uniform(0.3, 2.0)
    q = rng.normal(size=n) * 3
    m = int(rng.integers(1, 2 * n + 1))
    G = rng.normal(size=(m, n))
    x_feas = rng.normal(size=n)
    h = G @ x_feas + rng.uniform(0.0, 1.5, size=m)
    if with_pin_pair and n >= 2:
        pin = np.zeros((2, n))
        pin[0, 1], pin[1, 1] = 1.0, -1.0
        G = np.vstack([G, pin])
        h = np.concatenate([h, [max(0.0, x_feas[1]), max(0.0, -x_feas[1])]])
    return qp.QpProblem(P=P, q=q, G=G, h=h)


def test_unconstrained_minimum():
    prob = qp.QpProblem(P=np.eye(3), q=np.zeros(3))
    sol = qp.solve(prob)
    assert np.allclose(sol.x_star, 0.0)
    assert objective(prob, sol.x_star) == pytest.approx(0.0)
    assert sol.active_set == []


def test_box_corner_projection():
    prob = qp.QpProblem(
        P=np.eye(2), q=np.zeros(2), G=-np.eye(2), h=np.array([-1.0, -1.0])
    )
    sol = qp.solve(prob)
    assert np.allclose(sol.x_star, [1.0, 1.0], atol=1e-10)
    assert sol.active_set == [0, 1]


def test_cold_solve_is_the_dual_loop_alone():
    """A cold solve takes no KKT guess, so it calls np.linalg.solve not once.
    Its first pass returns the unconstrained minimum when that meets every
    row; on rows that bind it matches the oracle. A warm solve guesses."""

    def solve_counting(prob, warm_active=None):
        with recording((np.linalg, "solve")) as events:
            sol = qp.solve(prob, warm_active=warm_active)
        return sol, len(calls(events, "solve"))

    inside = qp.QpProblem(P=np.diag([2.0, 1.0]), q=[-2.0, 1.0], G=np.eye(2), h=[3.0, 3.0])
    sol, solves = solve_counting(inside)
    assert solves == 0 and sol.iterations == 1 and sol.active_set == []
    assert np.abs(sol.x_star - np.array([1.0, -1.0])).max() < 1e-12
    bound = random_problem(np.random.default_rng(12))
    sol, solves = solve_counting(bound)
    assert solves == 0 and sol.active_set and sol.iterations > 1
    x_oracle = pgd_oracle(bound.P, bound.q, bound.G, bound.h)
    assert abs(objective(bound, sol.x_star) - objective(bound, x_oracle)) < 1e-6
    assert qp.check_kkt(bound, sol).max_residual() < 1e-6
    warm, solves = solve_counting(bound, sol.active_set)  # seeded with the optimum's rows: one guess
    assert solves == 1 and warm.iterations == 1
    assert np.abs(warm.x_star - sol.x_star).max() <= 1e-8


def test_random_problems_match_pgd_oracle():
    rng = np.random.default_rng(42)
    for trial in range(50):
        prob = random_problem(rng, with_pin_pair=(trial % 4 == 0))
        sol = qp.solve(prob)
        x_oracle = pgd_oracle(prob.P, prob.q, prob.G, prob.h)
        assert abs(objective(prob, sol.x_star) - objective(prob, x_oracle)) < 1e-6
        assert qp.check_kkt(prob, sol).max_residual() < 1e-6


def test_check_kkt_flags_perturbed_solution():
    rng = np.random.default_rng(1)
    prob = random_problem(rng)
    sol = qp.solve(prob)
    assert qp.check_kkt(prob, sol).max_residual() < 1e-6
    bad = qp.QpSolution(
        x_star=sol.x_star + 0.1,
        active_set=sol.active_set,
        iterations=sol.iterations,
        lam=sol.lam,
    )
    assert qp.check_kkt(prob, bad).stationarity > 1e-3


def test_check_kkt_unconstrained_closed_form():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 4))
    P = A @ A.T + np.eye(4)
    q = rng.normal(size=4)
    prob = qp.QpProblem(P=P, q=q)
    x = -np.linalg.solve(P, q)
    report = qp.check_kkt(prob, qp.QpSolution(x, [], 0, np.zeros(0)))
    assert report.stationarity < 1e-10


def test_row_permutation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        prob = random_problem(rng)
        sol = qp.solve(prob)
        perm = rng.permutation(prob.G.shape[0])
        sol_p = qp.solve(qp.QpProblem(P=prob.P, q=prob.q, G=prob.G[perm], h=prob.h[perm]))
        assert np.abs(sol.x_star - sol_p.x_star).max() < 1e-8


def test_objective_recompute():
    """The objective at x_star, recomputed from the multipliers as the dual
    objective -0.5 x'Px - h'lam, is the primal one: no duality gap."""
    rng = np.random.default_rng(4)
    prob = random_problem(rng)
    sol = qp.solve(prob)
    dual = -0.5 * sol.x_star @ prob.P @ sol.x_star - prob.h @ sol.lam
    assert abs(objective(prob, sol.x_star) - dual) < 1e-9


def test_positive_scaling_invariance():
    rng = np.random.default_rng(5)
    prob = random_problem(rng)
    sol = qp.solve(prob)
    alpha = 37.5
    sol_s = qp.solve(qp.QpProblem(P=alpha * prob.P, q=alpha * prob.q, G=prob.G, h=prob.h))
    assert np.abs(sol.x_star - sol_s.x_star).max() < 1e-8


def test_warm_start_matches_cold():
    rng = np.random.default_rng(6)
    for _ in range(10):
        prob = random_problem(rng, with_pin_pair=True)
        cold = qp.solve(prob)
        warm = qp.solve(prob, warm_active=cold.active_set)
        assert np.abs(cold.x_star - warm.x_star).max() < 1e-8
        # a stale or partial warm set must not change the answer either
        stale = list(cold.active_set)[:-1] + [0]
        warm2 = qp.solve(prob, warm_active=stale)
        assert np.abs(cold.x_star - warm2.x_star).max() < 1e-8
        # an array of indices is an iterable of them too
        warm3 = qp.solve(prob, warm_active=np.array(cold.active_set))
        assert np.abs(cold.x_star - warm3.x_star).max() < 1e-8


def test_partial_step_counts_as_an_iteration():
    """From x = -q = (0, -4), row 3 is the farthest violated (by 8 / sqrt(13))
    and joins, then row 0; row 2 then retires row 3 in a partial step and joins
    in a full one: five iterations with the pass that finds x optimal, at
    (-2, -2) with rows 0 and 2 active."""
    G = np.array([[0.0, -1.0], [-1.0, 2.0], [1.0, 0.0], [3.0, -2.0]])
    prob = qp.QpProblem(P=np.eye(2), q=np.array([0.0, 4.0]), G=G, h=np.array([2.0, 0.0, -2.0, 0.0]))
    sol = qp.solve(prob)
    assert sol.iterations == 5 and sol.active_set == [0, 2]
    assert np.abs(sol.x_star - np.array([-2.0, -2.0])).max() < 1e-12
    assert qp.solve(prob, max_iters=5).iterations == 5
    with pytest.raises(qp.MaxIterations):
        qp.solve(prob, max_iters=4)


def test_infeasible_detection():
    prob = qp.QpProblem(
        P=np.eye(1), q=np.zeros(1), G=np.array([[1.0], [-1.0]]), h=np.array([-1.0, 0.0])
    )
    with pytest.raises(qp.Infeasible):
        qp.solve(prob)


def test_infeasible_dependent_rows_with_round_off():
    """g x <= h1 and -c g x <= h2 with h1 < -h2 / c: a row and a scaled negation
    that no x satisfies together. The second row's projected curvature is
    round-off, at times just above zero, which the relative curvature test
    calls dependent; taking it as positive solves or breaks these problems."""
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        g, c, h1 = rng.standard_normal(n), rng.uniform(0.1, 10.0), rng.uniform(-1.0, 1.0)
        prob = qp.QpProblem(P=a @ a.T + n * np.eye(n), q=rng.standard_normal(n), G=np.vstack([g, -c * g]),
                            h=np.array([h1, -c * (h1 + rng.uniform(0.01, 1.0))]))
        with pytest.raises(qp.Infeasible):
            qp.solve(prob)


def test_not_positive_definite():
    prob = qp.QpProblem(P=np.diag([1.0, -1.0]), q=np.zeros(2))
    with pytest.raises(qp.NotPositiveDefinite):
        qp.solve(prob)


def test_near_singular_hessian_regularized():
    # conditioning on the edge: tiny but positive pivots still factor exactly
    P = np.diag([1.0, 1e-14])
    sol = qp.solve(qp.QpProblem(P=P, q=np.array([1.0, 0.0])))
    assert sol.x_star[0] == pytest.approx(-1.0, abs=1e-6)


def test_hessian_singular_to_working_precision():
    """A pivot within round-off of P's scale (pivot^2 <= n eps max P_ii) is
    not positive definite, although the Cholesky factor exists."""
    P = np.diag([1.0, 1e-17])
    np.linalg.cholesky(P)
    with pytest.raises(qp.NotPositiveDefinite, match="working precision"):
        qp.solve(qp.QpProblem(P=P, q=np.array([1.0, 0.0])))


def test_max_iterations_guard():
    rng = np.random.default_rng(8)
    prob = random_problem(rng)
    with pytest.raises(qp.MaxIterations):
        qp.solve(prob, max_iters=0)


@pytest.mark.parametrize("h", [[np.nan, 0.0], [np.inf, -1.0]], ids=["h_nan", "h_inf"])
def test_validate_rejects_nonfinite_h(h):
    # x = -q violates row 1, which an infinite violation tolerance would accept
    with pytest.raises(ValueError, match="h has a non-finite entry"):
        qp.QpProblem(P=np.eye(2), q=np.ones(2), G=-np.eye(2), h=np.array(h))


@pytest.mark.parametrize("name", ["P", "q", "G"])
def test_validate_rejects_nonfinite_data(name):
    data = {"P": np.eye(2), "q": np.ones(2), "G": -np.eye(2), "h": np.array([-1.0, -1.0])}
    data[name] = np.where(data[name] != 0.0, np.nan, data[name])
    with pytest.raises(ValueError, match=f"{name} has a non-finite entry"):
        qp.QpProblem(**data)


def test_cho_factor_is_lower_and_rejects_matrices_not_positive_definite():
    a = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # row 1 = row 0 / 2
    with pytest.raises(np.linalg.LinAlgError):
        qp.cho_factor(a)
    a[1, 1] = 2.0
    L = qp.cho_factor(a)
    assert np.array_equal(L, np.tril(L))
    assert np.abs(L @ L.T - a).max() < 1e-14


def test_warm_seed_drops_nearly_dependent_row():
    # rows 0 and 1 are a +/- pair 2e-9 out of parallel: seeded together, their
    # block of G P^-1 G' has a relative pivot near 1e-18 that may still factor
    G = np.array([[-2.0, -3.0], [2.0 - 2e-9, 3.0 - 2e-9], [-3.0, 1.0]])
    prob = qp.QpProblem(P=np.eye(2), q=np.array([-2.0, 1.0]), G=G, h=np.array([2.0, -2.0, 3.0]))
    sol = qp.solve(prob, warm_active=[0, 1, 2])
    assert np.abs(sol.x_star - np.array([20.0, -22.0]) / 13.0).max() <= 1e-8  # x = -q projected on row 1
    assert qp.check_kkt(prob, sol).max_residual() < 1e-6


@st.composite
def warm_started_problems(draw):
    """A strictly convex QP that x_feas satisfies, with +/- row pairs and
    repeated rows, and a warm set with duplicates and out-of-range indices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    A = rng.normal(size=(n, n))
    P = A @ A.T + rng.uniform(0.3, 2.0) * np.eye(n)
    pairs = rng.normal(size=(draw(st.integers(0, 3)), n))
    rows = np.vstack([rng.normal(size=(draw(st.integers(0, 2 * n)), n)), pairs, -pairs])
    x_feas = rng.normal(size=n)
    # about a third of the rows tight at x_feas: a pair with both tight is an equality
    h = rows @ x_feas + rng.uniform(0.0, 1.5, len(rows)) * (rng.random(len(rows)) < 0.7)
    repeated = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)) if len(rows) else []
    G, h = np.vstack([rows, rows[repeated]]), np.concatenate([h, h[repeated]])
    warm = draw(st.lists(st.integers(-2, len(h) + 2), max_size=2 * len(h) + 2))
    return qp.QpProblem(P=P, q=3.0 * rng.normal(size=n), G=G, h=h), warm


@settings(max_examples=200, deadline=None, derandomize=True)
@given(warm_started_problems())
def test_warm_start_property(case):
    prob, warm = case
    sol = qp.solve(prob, warm_active=warm)
    assert np.abs(sol.x_star - qp.solve(prob).x_star).max() <= 1e-8
    x_oracle = pgd_oracle(prob.P, prob.q, prob.G, prob.h)
    assert abs(objective(prob, sol.x_star) - objective(prob, x_oracle)) < 1e-6
    assert qp.check_kkt(prob, sol).max_residual() < 1e-6


@st.composite
def pyramid_apex_problems(draw):
    """A QP with the MPC's rows: per step, the four friction faces of each
    stance leg, which pass through a zero force, and [0, cap] per thrust. q
    presses some legs into their apex, where all four faces are tight; the warm
    set holds those faces, duplicates and out-of-range indices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    horizon = draw(st.integers(1, 3))
    stance = rng.random((horizon, 4)) < 0.6
    stance[0, 0] = True
    G, h = input_constraints(stance, MpcConfig(horizon=horizon, u_t_max=draw(st.sampled_from([0.0, 20.0]))), 0.5)
    n, m = G.shape[1], len(h)
    A = rng.normal(size=(n, n))
    P = 0.05 * A @ A.T + rng.uniform(0.03, 1.0) * np.eye(n)
    q = 10.0 * rng.normal(size=n)
    faces = np.flatnonzero(np.count_nonzero(G, axis=1) == 2)  # a face is over fx or fy, and fz
    legs = faces.reshape(-1, 4)
    apex = legs[rng.random(len(legs)) < 0.5]
    q[np.argmin(G[apex[:, 0]], axis=1)] = 50.0  # fz (under -mu): a large cost makes the leg's optimal force zero
    warm = apex.reshape(-1).tolist() + draw(st.lists(st.integers(-2, m + 2), max_size=m))
    return qp.QpProblem(P=P, q=q, G=G, h=h), warm + warm[: draw(st.integers(0, 3))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pyramid_apex_problems())
def test_warm_start_at_pyramid_apexes(case):
    prob, warm = case
    cold, sol = qp.solve(prob), qp.solve(prob, warm_active=warm)
    assert np.abs(sol.x_star - cold.x_star).max() <= 1e-8
    assert max(qp.check_kkt(prob, s).max_residual() for s in (sol, cold)) <= 1e-6


def test_border_and_unborder_keep_a_factor():
    """Random sequences of rows joining A (qp._border) and leaving it
    (qp._unborder) on the buffers: Z K[A, A] Z' stays I, so Z'Z s0[A] is
    K[A, A]^-1 s0[A], and the rows of the buffers passed along follow A's rows."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = 8, 14
        W, s0 = rng.normal(size=(n, m)), rng.normal(size=m)
        K = W.T @ W
        Z, tags, active, k = np.zeros((n + 1, n + 1)), np.zeros(n + 1), [], 0
        for _ in range(40):
            out = [p for p in range(m) if p not in active]
            if k and (k == n or rng.random() < 0.4):
                j = int(rng.integers(k))
                k = qp._unborder(Z, k, j, tags)
                del active[j]
            else:
                p = out[int(rng.integers(len(out)))]
                rvec = Z[:k, :k].T @ (Z[:k, :k] @ K[active, p])
                curv = K[p, p] - K[active, p] @ rvec
                if curv <= 1e-3 * K[p, p]:  # p is nearly dependent on A
                    continue
                tags[k] = p
                k = qp._border(Z, k, rvec, np.sqrt(curv))
                active.append(p)
            Z_A, K_AA = Z[:k, :k], K[np.ix_(active, active)]
            assert np.abs(Z_A @ K_AA @ Z_A.T - np.eye(k)).max(initial=0.0) <= 1e-9
            lam = np.linalg.solve(K_AA, s0[active]) if k else np.zeros(0)
            assert np.abs(Z_A.T @ (Z_A @ s0[active]) - lam).max(initial=0.0) <= 1e-9 * (1 + np.abs(lam).max(initial=0.0))
            assert tags[:k].tolist() == active


def test_corrected_warm_seed_is_accepted_at_the_second_guess():
    """x >= 0, x + y <= 2 and y - x <= 1 with q = (3, -2). The warm seed, row
    1, has a negative multiplier, and its x violates rows 0 and 2; the
    corrected guess, rows 0 and 2, is the optimum (0, 1) at the second KKT
    solve. From row 1 alone the dual loop takes three passes."""
    prob = qp.QpProblem(P=np.eye(2), q=[3.0, -2.0], G=[[-1.0, 0.0], [1.0, 1.0], [-1.0, 1.0]], h=[0.0, 2.0, 1.0])
    sol = qp.solve(prob, warm_active=[1])
    assert sol.iterations == 2 and sol.active_set == [0, 2]
    assert np.abs(sol.x_star - np.array([0.0, 1.0])).max() < 1e-12
    assert np.abs(qp.solve(prob).x_star - sol.x_star).max() < 1e-12


def test_dependent_warm_seed_is_not_accepted_from_round_off():
    """Two rows in one variable are dependent, so the seed's KKT system is
    singular; its solve can return a feasible x with multipliers of 1e16.
    Such a solve leaves a residual of the order of the data and is not
    accepted: x is the projection of the unconstrained minimum on row 0."""
    g, h = np.array([[0.9158797060109467], [-0.7423993161312834]]), np.array([-0.03046557000517458, 1.260565352911109])
    prob = qp.QpProblem(P=[[2.1538201725244512]], q=[-3.5612773844324455], G=g, h=h)
    sol = qp.solve(prob, warm_active=[1, 0])
    assert abs(sol.x_star[0] - h[0] / g[0, 0]) < 1e-12 and sol.active_set == [0]
    assert qp.check_kkt(prob, sol).max_residual() < 1e-9


def test_dependent_warm_seed_factors_only_P():
    """All four faces of a stance leg's friction pyramid meet at its apex, so
    as a warm seed they are four dependent rows in three variables: the first
    guess's KKT system is singular, and the dual loop starts from no rows. The
    only factor the solve takes is P's."""
    G, h = input_constraints(np.array([[True, False, False, False]]), MpcConfig(horizon=1, u_t_max=0.0), 0.5)
    prob = qp.QpProblem(P=np.eye(3), q=[1.0, -2.0, 50.0], G=G, h=h)
    with recording((qp, "cho_factor")) as events:
        sol = qp.solve(prob, warm_active=[0, 1, 2, 3])
    factored = [call.args[0] for call in calls(events, "cho_factor")]
    assert len(factored) == 1 and np.array_equal(factored[0], prob.P)
    assert np.abs(sol.x_star - qp.solve(prob).x_star).max() <= 1e-8
    assert qp.check_kkt(prob, sol).max_residual() <= 1e-6


@pytest.mark.parametrize("data, message", [
    ({"P": np.eye(3), "q": np.ones(2)}, "P shape (3, 3) inconsistent with q length 2"),
    ({"P": np.eye(2), "q": np.ones(2), "G": np.ones((1, 3)), "h": [0.0]}, "G/h dimensions inconsistent with q"),
    ({"P": np.eye(2), "q": np.ones(2), "G": np.ones((2, 2)), "h": [0.0]}, "G/h dimensions inconsistent with q"),
], ids=["P", "G", "h"])
def test_validate_rejects_inconsistent_shapes(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        qp.QpProblem(**data)


def test_validate_rejects_asymmetric():
    P = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        qp.QpProblem(P=P, q=np.zeros(2))


def test_validate_symmetry_tolerance():
    """An exactly symmetric P passes on the first test; otherwise the
    tolerance test of np.allclose(P, P.T, atol=1e-10) decides."""
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    qp.QpProblem(P=P, q=np.zeros(2))
    for off, ok in ((1e-11, True), (4e-6, True), (1e-9, True), (1e-5, False)):
        P_off = P.copy()
        P_off[0, 1] += off
        assert np.allclose(P_off, P_off.T, atol=1e-10) == ok
        if ok:
            qp.QpProblem(P=P_off, q=np.zeros(2))
        else:
            with pytest.raises(ValueError, match="symmetric"):
                qp.QpProblem(P=P_off, q=np.zeros(2))
    P_off = np.diag([1.0, 1e-3])
    P_off[0, 1] = 2e-10  # beyond atol 1e-10 + 1e-5 * |P[1, 0]| = 1e-10
    with pytest.raises(ValueError, match="symmetric"):
        qp.QpProblem(P=P_off, q=np.zeros(2))


def test_solution_respects_constraints_tightly():
    rng = np.random.default_rng(9)
    for _ in range(20):
        prob = random_problem(rng, with_pin_pair=True)
        sol = qp.solve(prob)
        slack = prob.G @ sol.x_star - prob.h
        assert slack.max() <= 1e-8
        assert sol.lam.min() >= -1e-12


def _hex(*values):
    return np.array([float.fromhex(v) for v in values])


@pytest.mark.xfail(strict=True, raises=qp.MaxIterations,
                   reason="the dual loop does not converge on a row, its near copy and its near negation")
def test_copy_negation_instance_is_solved_cold():
    """A strictly convex QP that holds a row (2), a copy (6) and a negation (7)
    of it, each perturbed by up to 3.6e-6, all tight at the feasible point x_feas.
    It is instance 3776 of the copy/negation fuzz described in CHANGES.md: P 3x3,
    G 8x3, drawn from np.random.default_rng(0). Solved cold it has an optimum;
    the loop gives up after 111 iterations instead."""
    P = _hex("0x1.3c162eb32fcbap+0", "-0x1.72bc63558750ep-2", "0x1.3bcc337c0ae9fp+0",
             "-0x1.72bc63558750ep-2", "0x1.89f6132a9fdfdp-1", "-0x1.97f6efb2a43e0p-1",
             "0x1.3bcc337c0ae9fp+0", "-0x1.97f6efb2a43e0p-1", "0x1.d6686a101b178p+1").reshape(3, 3)
    q = _hex("0x1.53c50ef4dfd5ep+1", "-0x1.aec5a1e189ad4p+1", "0x1.aa441d9b22f2ap+3")
    G = _hex("0x1.5791abedce07dp-4", "0x1.605a75a3c0b48p+0", "-0x1.a874ab2d0c372p+0",
             "0x1.ed438a2366009p-1", "0x1.6d7ec42559655p-4", "-0x1.45f6930f44b09p-3",
             "-0x1.fc8c7a4d0db12p-3", "0x1.3fe1b014cb78ap-2", "-0x1.554691a540ea9p-1",
             "0x1.3861343fee7b9p-4", "-0x1.84d7105b68b06p-1", "-0x1.5514c1c7120c6p-2",
             "-0x1.088bc20885c78p+0", "0x1.f305400df5167p-3", "-0x1.577d47df48d22p+1",
             "0x1.172a88a267aefp-1", "-0x1.9721d01c9caa5p-2", "0x1.035334a3f7978p+0",
             "-0x1.fc8bd66bbeb4ap-3", "0x1.3fe1bf1ae08b7p-2", "-0x1.554617b1ff95fp-1",
             "0x1.fc8e30c46d8f3p-3", "-0x1.3fe294e6473afp-2", "0x1.55463bb3536efp-1").reshape(8, 3)
    h = _hex("0x1.e6d46f36a20a1p+1", "0x1.e7bc5891f6822p+0", "0x1.dd2d369637080p-1", "0x1.4b95f3cbe5f9fp+0",
             "0x1.28b2927537beap+2", "-0x1.a92f91e999cb5p-1", "0x1.dd2c918bf0783p-1", "-0x1.dd2ca904eb870p-1")
    x_feas = _hex("0x1.0daafa26fbf0bp-2", "0x1.a50bbb14abfd5p-4", "-0x1.72b9ac5e9acc0p+0")
    assert (G @ x_feas <= h).all()
    problem = qp.QpProblem(P=P, q=q, G=G, h=h)
    sol = qp.solve(problem)
    assert qp.check_kkt(problem, sol).max_residual() <= 1e-6
