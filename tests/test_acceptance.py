"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time
import warnings

import numpy as np
import pytest

from mkinterp import (
    Domain,
    FeatureModel,
    FeatureGram,
    NodeSet,
    SingularDesignWarning,
    SolverOptions,
    banach_norm_direct,
    banach_norm_via_tensor,
    contract_m,
    contract_m_minus_1,
    convergence_study,
    domain_grid,
    evaluate,
    evaluate_many,
    feature_coefficients,
    fit,
    power_function,
    solve_multilinear,
)
from mkinterp.cli import main as cli_main
from oracles import (
    check_strict_monotone,
    dense_tensor,
    eval_kernel2,
    evaluate_tensor_basis,
    power_function_p2_closed,
    zero_start_solve,
)

BOX = Domain([-1.0], [1.0])


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def jittered_grid(rng, n, dim, lo=-0.9, hi=0.9):
    """Quasi-uniform random nodes: separated, so Grams stay well conditioned."""
    per_axis = int(np.ceil(n ** (1.0 / dim)))
    axes = [np.linspace(lo, hi, per_axis) for _ in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)[:n]
    jitter = min(0.25 * (hi - lo) / max(per_axis - 1, 1), 0.09)
    return pts + rng.uniform(-jitter, jitter, size=pts.shape)


def test_criterion_1_m2_classical_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 21))
        # K >= n + 5 keeps the classical Gram away from near-singularity,
        # so both routes solve the same well-posed system
        K = int(rng.integers(n + 5, n + 21))
        domain = Domain([-1.0] * d, [1.0] * d)
        model = FeatureModel.trigonometric(domain, K, decay=0.8)
        pts = jittered_grid(rng, n, d)
        values = rng.standard_normal(n)
        nodes = NodeSet(pts, values)
        s = fit(model, nodes, 2, SolverOptions(residual_tol=1e-11))
        # independent oracle: assemble A_2 entrywise from the kernel, solve
        A2 = np.array([[eval_kernel2(model, xi, xj) for xj in pts] for xi in pts])
        direct = np.linalg.solve(A2, values)
        scale = 1.0 + float(np.abs(direct).max())
        worst = max(worst, float(np.abs(s.coefficients - direct).max()) / scale)
    elapsed = time.perf_counter() - start
    report(1, "m=2 interpolant matches the direct linear-system solve",
           worst <= 1e-10 and elapsed < 10.0,
           f"worst coefficientwise diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_multilinear_residual():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    successes = 0
    opts = SolverOptions(residual_tol=1e-8, max_iterations=200)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        K = int(rng.integers(n, 101))
        gram = FeatureGram(rng.standard_normal((n, K)))
        y = rng.standard_normal(n)
        m = int(rng.choice([4, 6]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularDesignWarning)
            rep = solve_multilinear(gram, m, y, opts)
        if rep.converged and rep.iterations <= 200:
            successes += 1
    elapsed = time.perf_counter() - start
    report(2, "multi-linear solver reaches 1e-8 residual within 200 iterations",
           successes >= 99 and elapsed < 60.0,
           f"{successes}/100 converged, {elapsed:.1f}s")


def test_criterion_3_uniqueness_across_initializations():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        K = int(rng.integers(2 * n, 2 * n + 8))
        gram = FeatureGram(rng.standard_normal((n, K)))
        y = rng.standard_normal(n)
        m = int(rng.choice([2, 4, 6]))
        base = SolverOptions(residual_tol=1e-12, max_iterations=400)
        a = solve_multilinear(gram, m, y, base)
        b = zero_start_solve(gram, m, y, 1e-12, 400)
        assert a.converged and b.converged
        worst = max(worst, float(np.linalg.norm(a.coefficients - b.coefficients)))
    report(3, "fits from the l2 start and from zero agree", worst <= 1e-6,
           f"worst 2-norm gap {worst:.2e}")


def test_criterion_4_dense_oracle_equivalence():
    rng = np.random.default_rng(104)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 7))
        K = int(rng.integers(1, 9))
        gram = FeatureGram(rng.standard_normal((n, K)))
        c = rng.standard_normal(n)
        for m in (2, 4, 6):
            t = dense_tensor(gram, m)
            fast = contract_m_minus_1(gram, m, c)
            brute = t.contract_m_minus_1(c)
            scale = 1.0 + float(np.abs(brute).max())
            worst = max(worst, float(np.abs(fast - brute).max()) / scale)
            scalar_scale = 1.0 + abs(t.contract_m(c))
            worst = max(worst,
                        abs(contract_m(gram, m, c) - t.contract_m(c)) / scalar_scale)
    # interpolant evaluation against the tensor-basis brute force
    model = FeatureModel.trigonometric(BOX, 6, decay=0.8)
    for m, n in ((2, 4), (4, 4), (6, 3)):
        pts = jittered_grid(rng, n, 1)
        nodes = NodeSet(pts, rng.standard_normal(n))
        s = fit(model, nodes, m, SolverOptions(residual_tol=1e-12))
        for _ in range(3):
            x = rng.uniform(-1, 1, size=1)
            fast = evaluate(s, x)
            brute = evaluate_tensor_basis(s, x)
            worst = max(worst, abs(fast - brute) / (1.0 + abs(brute)))
    report(4, "rank-one contractions and evaluation match dense brute force",
           worst <= 1e-10, f"worst relative diff {worst:.2e}")


def test_criterion_5_norm_identity():
    # documented closed form: alpha = (8, 1), norm 17^{3/4}
    model = FeatureModel.power_series(BOX, 2, weights=np.ones(2))
    nodes = NodeSet(np.array([[0.0], [1.0]]), np.array([8.0, 9.0]))
    s = fit(model, nodes, 4)
    ok = abs(banach_norm_via_tensor(s) - 17 ** 0.75) <= 1e-8 * 17 ** 0.75
    ok &= np.allclose(feature_coefficients(s), [8.0, 1.0], atol=1e-7)

    rng = np.random.default_rng(105)
    worst = 0.0
    for m in (2, 4, 6):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            K = int(rng.integers(n + 2, n + 14))
            trig = FeatureModel.trigonometric(BOX, K, decay=0.8)
            pts = jittered_grid(rng, n, 1)
            fitted = fit(trig, NodeSet(pts, rng.standard_normal(n)), m,
                         SolverOptions(residual_tol=1e-12, max_iterations=400))
            via_tensor = banach_norm_via_tensor(fitted)
            direct = banach_norm_direct(feature_coefficients(fitted), m / (m - 1))
            worst = max(worst, abs(via_tensor - direct) / (1.0 + direct))
    report(5, "tensor norm (A_m c^m)^{1-1/m} equals the sequence norm",
           ok and worst <= 1e-8, f"worst relative gap {worst:.2e}")


def test_criterion_6_optimal_recovery():
    rng = np.random.default_rng(106)
    opts = SolverOptions(residual_tol=1e-12, max_iterations=400)
    ok = True
    strict = True
    count = 0
    for m in (4, 6):
        n, K = 5, 14
        model = FeatureModel.trigonometric(BOX, K, decay=0.8)
        pts = jittered_grid(rng, n, 1)
        s = fit(model, NodeSet(pts, rng.standard_normal(n)), m, opts)
        p = m / (m - 1)
        alpha_s = feature_coefficients(s)
        base = banach_norm_direct(alpha_s, p)
        for _ in range(50):
            f_alpha = rng.standard_normal(K)
            s_f = fit(s.model, NodeSet(pts, s.gram.V @ f_alpha), m, opts)
            g_alpha = f_alpha - feature_coefficients(s_f)
            competitor = banach_norm_direct(alpha_s + g_alpha, p)
            ok &= base <= competitor + 1e-8
            if np.linalg.norm(g_alpha) > 1e-6:
                strict &= competitor > base
            count += 1
    report(6, "interpolant is norm-minimal among span perturbations",
           ok and strict and count >= 100,
           f"{count} perturbations, strict inequality away from g=0")


def test_criterion_7_strict_monotonicity():
    rng = np.random.default_rng(107)
    min_gap = np.inf
    for m in (4, 6):
        n = int(rng.integers(2, 7))
        gram = FeatureGram(rng.standard_normal((n, n + 6)))
        assert np.linalg.matrix_rank(gram.V) == n
        rep = check_strict_monotone(gram, m, trials=1000, rng_seed=int(rng.integers(1 << 30)))
        min_gap = min(min_gap, rep.min_gap)
    # rank-deficient witness: c - d orthogonal to the single feature column
    deficient = FeatureGram(np.array([[1.0], [1.0]]))
    c, d = np.array([1.0, -1.0]), np.zeros(2)
    witness_gap = float(
        (c - d) @ (contract_m_minus_1(deficient, 4, c)
                   - contract_m_minus_1(deficient, 4, d))
    )
    report(7, "monotonicity gap positive for full rank, zero for the witness",
           min_gap > 0.0 and abs(witness_gap) <= 1e-15,
           f"min gap {min_gap:.2e}, witness gap {witness_gap:.1e}")


def test_criterion_8_power_function():
    model3 = FeatureModel.power_series(BOX, 3, weights=np.ones(3))
    nodes = NodeSet(np.array([[0.0], [1.0]]), np.zeros(2))
    grid = np.linspace(-1.0, 1.0, 101)
    worst_closed = 0.0
    monotone = True
    for x in grid:
        p2_solve = power_function(model3, nodes, 2, [x])
        p2_closed = power_function_p2_closed(model3, nodes, [x])
        worst_closed = max(worst_closed, abs(p2_solve - p2_closed))
        p4 = power_function(model3, nodes, 4, [x])
        p6 = power_function(model3, nodes, 6, [x])
        monotone &= p4 <= p2_solve + 1e-8 and p6 <= p4 + 1e-8
    sqrt2_ok = abs(power_function(model3, nodes, 2, [-1.0]) - np.sqrt(2)) <= 1e-10
    node_ok = all(
        power_function(model3, nodes, m, x) <= 1e-6
        for m in (2, 4, 6) for x in nodes.points
    )
    report(8, "power function: closed form, node zeros, order monotonicity",
           worst_closed <= 1e-8 and sqrt2_ok and node_ok and monotone,
           f"worst closed-form gap {worst_closed:.2e}")


def test_criterion_9_error_bound():
    rng = np.random.default_rng(109)
    m = 4
    model = FeatureModel.trigonometric(BOX, 15, decay=0.7)
    pts = (np.arange(7) + 0.5)[:, None] * (2.0 / 7) - 1.0
    grid = np.linspace(-1.0, 1.0, 201)[:, None]
    opts = SolverOptions(residual_tol=1e-12, max_iterations=400)
    # P_m depends only on the nodes: compute once over the grid
    dummy = NodeSet(pts, np.zeros(7))
    p_m = np.array([power_function(model, dummy, m, x, opts) for x in grid])
    worst = -np.inf
    ok = True
    for _ in range(20):
        f_alpha = rng.standard_normal(15)
        V = FeatureGram.from_model(model, pts).V
        s = fit(model, NodeSet(pts, V @ f_alpha), m, opts)
        f_norm = banach_norm_direct(f_alpha, m / (m - 1))
        f_vals = np.array(
            [float(f_alpha @ row) for row in
             FeatureGram.from_model(model, grid).V]
        )
        excess = np.abs(f_vals - evaluate_many(s, grid)) - 2.0 * f_norm * p_m
        worst = max(worst, float(excess.max()))
        ok &= float(excess.max()) <= 1e-6 * (1.0 + f_norm)
    report(9, "pointwise error never exceeds 2*||f||*P_m",
           ok, f"worst excess {worst:.2e}")


def test_criterion_10_convergence_study():
    model = FeatureModel.trigonometric(BOX, 21, decay=0.5)
    rng = np.random.default_rng(110)
    f_alpha = rng.standard_normal(21)
    grid = domain_grid(BOX, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularDesignWarning)
        result = convergence_study(
            model, f_alpha, 4, [4, 8, 16, 32], grid,
            SolverOptions(residual_tol=1e-11, max_iterations=400),
            grid_per_dim=201,
        )
    errors = [row.max_error for row in result.rows]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    f_norm = banach_norm_direct(f_alpha, 4 / 3)
    dominated = result.bound_dominates(1e-6 * (1.0 + f_norm))
    report(10, "errors shrink at each node doubling under a dominating bound",
           decreasing and dominated and result.slope is not None,
           f"errors {['%.2e' % e for e in errors]}, log-log slope "
           f"{result.slope:.2f}" if result.slope is not None else "no slope")


def test_criterion_11_cli_round_trip(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x1,y\n0,8\n1,9\n")
    args = ["fit", str(data), "--out", None, "--kernel", "power",
            "--order", "4", "--truncation", "2", "--decay", "1.0",
            "--seed", "3"]
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        args[3] = str(out)
        assert cli_main(list(args)) == 0
        outs.append(out.read_bytes())
    byte_identical = outs[0] == outs[1]

    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n0\n1\n")
    vals = tmp_path / "vals.csv"
    assert cli_main(["eval", str(tmp_path / "a.json"), "--points", str(pts),
                     "--out", str(vals)]) == 0
    rows = vals.read_text().strip().splitlines()[1:]
    got = [float(r.split(",")[1]) for r in rows]
    tol = 10 * SolverOptions().residual_tol
    round_trip = (abs(got[0] - 8.0) <= tol and abs(got[1] - 9.0) <= tol)
    report(11, "CLI fit/serialize/eval round-trip is exact and deterministic",
           byte_identical and round_trip,
           f"node values {got}")
