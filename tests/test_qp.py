import numpy as np
import pytest

from conftest import pgd_oracle
from huskysim import qp


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
    sol = qp.solve(qp.QpProblem(P=np.eye(3), q=np.zeros(3)))
    assert np.allclose(sol.x_star, 0.0)
    assert sol.objective_value == pytest.approx(0.0)
    assert sol.active_set == []


def test_box_corner_projection():
    prob = qp.QpProblem(
        P=np.eye(2), q=np.zeros(2), G=-np.eye(2), h=np.array([-1.0, -1.0])
    )
    sol = qp.solve(prob)
    assert np.allclose(sol.x_star, [1.0, 1.0], atol=1e-10)
    assert sol.active_set == [0, 1]


def test_random_problems_match_pgd_oracle():
    rng = np.random.default_rng(42)
    for trial in range(50):
        prob = random_problem(rng, with_pin_pair=(trial % 4 == 0))
        sol = qp.solve(prob)
        x_oracle = pgd_oracle(prob.P, prob.q, prob.G, prob.h)
        obj_oracle = 0.5 * x_oracle @ prob.P @ x_oracle + prob.q @ x_oracle
        assert abs(sol.objective_value - obj_oracle) < 1e-6
        assert qp.check_kkt(prob, sol).max_residual() < 1e-6


def test_check_kkt_flags_perturbed_solution():
    rng = np.random.default_rng(1)
    prob = random_problem(rng)
    sol = qp.solve(prob)
    assert qp.check_kkt(prob, sol).max_residual() < 1e-6
    bad = qp.QpSolution(
        x_star=sol.x_star + 0.1,
        active_set=sol.active_set,
        objective_value=sol.objective_value,
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
    report = qp.check_kkt(prob, qp.QpSolution(x, [], 0.0, 0, np.zeros(0)))
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
    rng = np.random.default_rng(4)
    prob = random_problem(rng)
    sol = qp.solve(prob)
    direct = 0.5 * sol.x_star @ prob.P @ sol.x_star + prob.q @ sol.x_star
    assert abs(sol.objective_value - direct) < 1e-9


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


def test_infeasible_detection():
    prob = qp.QpProblem(
        P=np.eye(1), q=np.zeros(1), G=np.array([[1.0], [-1.0]]), h=np.array([-1.0, 0.0])
    )
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


def test_max_iterations_guard():
    rng = np.random.default_rng(8)
    prob = random_problem(rng)
    with pytest.raises(qp.MaxIterations):
        qp.solve(prob, max_iters=0)


def test_validate_rejects_asymmetric():
    P = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        qp.QpProblem(P=P, q=np.zeros(2)).validate()


def test_solution_respects_constraints_tightly():
    rng = np.random.default_rng(9)
    for _ in range(20):
        prob = random_problem(rng, with_pin_pair=True)
        sol = qp.solve(prob)
        slack = prob.G @ sol.x_star - prob.h
        assert slack.max() <= 1e-8
        assert sol.lam.min() >= -1e-12
