"""The benchmark's workloads: seeded inputs, the CLI command sequence, the
same work through the library API, and the checks on both outputs.

Each operation ends in one of three outcomes:

* ``OK``: it finished and its output passed the check.
* ``UNSOLVED``: the solver did not converge, and the program said so the
  way its contract documents (the CLI exits 3 and writes a report saying
  ``converged: false``; the library raises ``NotConverged``), and what it
  wrote agrees with that. Not a wrong answer, but not a result either.
* ``FAILED``: any other exit code, or output that fails its check.

Why each workload exists is written in ``README.md`` next to this file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import mkinterp as mk

OK, UNSOLVED, FAILED = "ok", "unsolved", "failed"

TOL = 1e-10  # the CLI's default residual tolerance, also given to the library
ORDER = 4
FIT_ORDERS = (4, 6, 8)
DECAY = 0.5
# Nodes closer than this are redrawn, so every seed gives a well-posed design.
MIN_NODE_SEPARATION = 0.05
# Eval rows and p_2 values recomputed point by point per check.
SAMPLED_ROWS = 25
# The study's target coefficients come from this fixed seed: for some other
# seeds (8 and 11 among 0..11) its fits stall just above the tolerance,
# which is the defect that fit_large reproduces on purpose.
STUDY_SEED = 0


@dataclass(frozen=True)
class Sizes:
    eval_grid: int = 201
    eval_points: int = 4000
    n2: int = 60
    k2: int = 120
    n3: int = 400
    k3: int = 800
    power_grid: int = 15
    study_counts: tuple = (8, 16, 32, 64)
    study_k: int = 81
    study_grid: int = 101


FULL = Sizes()
SMOKE = Sizes(eval_grid=21, eval_points=200, n3=40, k3=100, power_grid=4,
              study_counts=(8, 16), study_k=21, study_grid=21)


@dataclass
class CliStep:
    name: str
    args: list  # arguments after `python -m mkinterp.cli`
    check: Callable  # check(exit_code) -> outcome


@dataclass
class LibStep:
    name: str
    call: Callable  # call() -> result; an expected exception is returned
    check: Callable  # check(result) -> outcome


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def box(dim: int) -> mk.Domain:
    return mk.Domain([-1.0] * dim, [1.0] * dim)


def domain_flag(dim: int) -> str:
    return "--domain=" + ",".join(["-1:1"] * dim)


def spread_points(rng, n: int, dim: int) -> np.ndarray:
    """n uniform points in [-1, 1]^dim, none closer than MIN_NODE_SEPARATION."""
    pts = np.empty((n, dim))
    count = 0
    while count < n:
        p = rng.uniform(-1.0, 1.0, dim)
        if count == 0 or np.min(np.sum((pts[:count] - p) ** 2, axis=1)) > MIN_NODE_SEPARATION ** 2:
            pts[count] = p
            count += 1
    return pts


def target(points: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * points[:, 0]) + 0.5 * np.cos(3.0 * points[:, -1])


def node_set(seed: int, n: int, dim: int):
    points = spread_points(np.random.default_rng([seed, dim]), n, dim)
    return points, target(points)


def write_csv(path: Path, points, values=None) -> None:
    dim = points.shape[1]
    header = [f"x{i + 1}" for i in range(dim)] + (["y"] if values is not None else [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, p in enumerate(points):
            row = [repr(float(v)) for v in p]
            if values is not None:
                row.append(repr(float(values[i])))
            writer.writerow(row)


def read_csv(path: Path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def uniform_grid(dim: int, per_dim: int) -> np.ndarray:
    axes = [np.linspace(-1.0, 1.0, per_dim)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def fit_args(data: str, out: str, kernel: str, k: int, m: int, dim: int,
             decay: float = DECAY) -> list:
    return ["fit", data, "--out", out, "--kernel", kernel, "--truncation", str(k),
            "--decay", repr(decay), "--order", str(m), domain_flag(dim)]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_model_file(work: Path, model_file: str, exit_code: int, points, values,
                     order: int) -> str:
    """A fitted model reproduces its data at the nodes, as its exit code says."""
    if exit_code not in (0, 3):
        return FAILED
    s = mk.from_json((work / model_file).read_text(encoding="utf-8"))
    report = json.loads((work / (model_file + ".report.json")).read_text(encoding="utf-8"))
    if (s.order != order or not np.array_equal(s.nodes.points, points)
            or not np.array_equal(s.nodes.values, values)):
        return FAILED
    residual = mk.residual_norm(s.gram, s.order, s.coefficients, values)
    if exit_code == 0:
        return OK if report["converged"] and residual <= TOL else FAILED
    agrees = math.isclose(residual, report["residual_norm"], rel_tol=1e-6)
    return UNSOLVED if not report["converged"] and residual > TOL and agrees else FAILED


def check_interpolant(s, values) -> str:
    if isinstance(s, mk.NotConverged):
        report = s.report
        return UNSOLVED if not report.converged and report.residual_norm > TOL else FAILED
    residual = mk.residual_norm(s.gram, s.order, s.coefficients, values)
    return OK if residual <= TOL else FAILED


def values_match(s, points, got, rows) -> bool:
    """Rows of ``got`` equal ``feature_coefficients(s) @ eval_features(x)``."""
    alpha = mk.feature_coefficients(s)
    for i in rows:
        terms = alpha * mk.eval_features(s.model, points[i])
        if not abs(got[i] - float(np.sum(terms))) <= 1e-9 * (1.0 + float(np.sum(np.abs(terms)))):
            return False
    return True


def check_eval_csv(path: Path, s, points, rows) -> str:
    header, body = read_csv(path)
    dim = points.shape[1]
    if header != [f"x{i + 1}" for i in range(dim)] + ["s", "flag"] or len(body) != len(points):
        return FAILED
    if any(row[-1] for row in body):
        return FAILED
    table = np.array([[float(v) for v in row[:-1]] for row in body])
    if not np.array_equal(table[:, :dim], points) or not np.all(np.isfinite(table[:, dim])):
        return FAILED
    return OK if values_match(s, points, table[:, dim], rows) else FAILED


def p2_matches(model, nodes, points, p2, rows) -> bool:
    """Sampled ``p_2`` values equal ``power_function(..., 2, x)``."""
    for i in rows:
        expected = mk.power_function(model, nodes, 2, points[i])
        if not abs(p2[i] - expected) <= 1e-6 * (1.0 + expected):
            return False
    return True


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Seeded inputs in ``work`` plus the steps that run on them."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.sample = np.random.default_rng([seed, 99])

    def generate(self) -> None:
        """Write the input files."""

    def prerequisites(self) -> list:
        """CLI fits the timed work needs, as (args, check) pairs."""
        return []

    def prepare(self) -> None:
        """Load what the library steps take as input."""

    def cli_steps(self) -> list:
        raise NotImplementedError

    def lib_steps(self) -> list:
        raise NotImplementedError

    def rows(self, count: int):
        return self.sample.choice(count, size=min(SAMPLED_ROWS, count), replace=False)


class EvalGrid(Workload):
    name = "eval_grid"

    def generate(self):
        sz = self.sizes
        self.p2, self.y2 = node_set(self.seed, sz.n2, 2)
        self.p3, self.y3 = node_set(self.seed, sz.n3, 3)
        self.q3 = np.random.default_rng([self.seed, 7]).uniform(-1.0, 1.0, (sz.eval_points, 3))
        write_csv(self.work / "data2.csv", self.p2, self.y2)
        write_csv(self.work / "data3.csv", self.p3, self.y3)
        write_csv(self.work / "points3.csv", self.q3)

    def prerequisites(self):
        sz = self.sizes
        return [
            (fit_args("data2.csv", "model2.json", "trig", sz.k2, ORDER, 2),
             lambda code: check_model_file(self.work, "model2.json", code, self.p2, self.y2, ORDER)),
            (fit_args("data3.csv", "model3.json", "trig", sz.k3, ORDER, 3),
             lambda code: check_model_file(self.work, "model3.json", code, self.p3, self.y3, ORDER)),
        ]

    def prepare(self):
        self.text2 = (self.work / "model2.json").read_text(encoding="utf-8")
        self.text3 = (self.work / "model3.json").read_text(encoding="utf-8")
        self.ref2 = mk.from_json(self.text2)
        self.ref3 = mk.from_json(self.text3)
        self.grid = uniform_grid(2, self.sizes.eval_grid)

    def cli_steps(self):
        return [
            CliStep(f"eval --grid {self.sizes.eval_grid}",
                    ["eval", "model2.json", "--grid", str(self.sizes.eval_grid), "--out", "eval2.csv"],
                    lambda code: check_eval_csv(self.work / "eval2.csv", self.ref2, self.grid,
                                                self.rows(len(self.grid))) if code == 0 else FAILED),
            CliStep(f"eval --points ({self.sizes.eval_points})",
                    ["eval", "model3.json", "--points", "points3.csv", "--out", "eval3.csv"],
                    lambda code: check_eval_csv(self.work / "eval3.csv", self.ref3, self.q3,
                                                self.rows(len(self.q3))) if code == 0 else FAILED),
        ]

    def lib_steps(self):
        def check(ref, points):
            return lambda v: OK if (len(v) == len(points) and values_match(
                ref, points, v, self.rows(len(points)))) else FAILED
        return [
            LibStep("evaluate 2-d grid", lambda: mk.evaluate_many(mk.from_json(self.text2), self.grid),
                    check(self.ref2, self.grid)),
            LibStep("evaluate 3-d points", lambda: mk.evaluate_many(mk.from_json(self.text3), self.q3),
                    check(self.ref3, self.q3)),
        ]


# The solver-stall repro listed in ROADMAP.md: 1-d power series, K=20,
# decay 0.7, n=10, m=6. It stops unconverged; kept on purpose.
REPRO_K, REPRO_DECAY, REPRO_ORDER = 20, 0.7, 6
REPRO_POINTS = np.linspace(-0.95, 0.95, 10)[:, None]
REPRO_VALUES = np.sin(3.0 * REPRO_POINTS[:, 0])


class FitLarge(Workload):
    name = "fit_large"

    def generate(self):
        self.p3, self.y3 = node_set(self.seed, self.sizes.n3, 3)
        write_csv(self.work / "data3.csv", self.p3, self.y3)
        write_csv(self.work / "repro.csv", REPRO_POINTS, REPRO_VALUES)

    def prepare(self):
        self.model3 = mk.FeatureModel.trigonometric(box(3), self.sizes.k3, DECAY)
        self.nodes3 = mk.NodeSet(self.p3, self.y3)
        self.repro_model = mk.FeatureModel.power_series(box(1), REPRO_K, REPRO_DECAY)
        self.repro_nodes = mk.NodeSet(REPRO_POINTS, REPRO_VALUES)
        self.opts = mk.SolverOptions(residual_tol=TOL)

    def cli_steps(self):
        steps = []
        for m in FIT_ORDERS:
            out = f"fit{m}.json"
            steps.append(CliStep(
                f"fit 3-d m={m}", fit_args("data3.csv", out, "trig", self.sizes.k3, m, 3),
                lambda code, out=out, m=m: check_model_file(self.work, out, code, self.p3, self.y3, m)))
        steps.append(CliStep(
            "fit repro m=6",
            fit_args("repro.csv", "repro.json", "power", REPRO_K, REPRO_ORDER, 1, REPRO_DECAY),
            lambda code: check_model_file(self.work, "repro.json", code, REPRO_POINTS,
                                          REPRO_VALUES, REPRO_ORDER)))
        return steps

    def _fit_and_serialize(self, model, nodes, m):
        try:
            s = mk.fit(model, nodes, m, self.opts)
        except mk.NotConverged as err:
            return err
        mk.to_json(s)
        return s

    def lib_steps(self):
        steps = [LibStep(f"fit 3-d m={m}",
                         lambda m=m: self._fit_and_serialize(self.model3, self.nodes3, m),
                         lambda s: check_interpolant(s, self.y3))
                 for m in FIT_ORDERS]
        steps.append(LibStep(
            "fit repro m=6",
            lambda: self._fit_and_serialize(self.repro_model, self.repro_nodes, REPRO_ORDER),
            lambda s: check_interpolant(s, REPRO_VALUES)))
        return steps


class PowerBound(Workload):
    name = "power_bound"

    def generate(self):
        self.p2, self.y2 = node_set(self.seed, self.sizes.n2, 2)
        write_csv(self.work / "data2.csv", self.p2, self.y2)

    def prepare(self):
        sz = self.sizes
        self.model2 = mk.FeatureModel.trigonometric(box(2), sz.k2, DECAY)
        self.nodes2 = mk.NodeSet(self.p2, self.y2)
        self.grid = uniform_grid(2, sz.power_grid)
        self.study_model = mk.FeatureModel.trigonometric(box(1), sz.study_k, DECAY)
        self.f_alpha = np.random.default_rng(STUDY_SEED).standard_normal(sz.study_k)
        self.study_grid = uniform_grid(1, sz.study_grid)
        self.opts = mk.SolverOptions(residual_tol=TOL, rng_seed=STUDY_SEED)
        self.power_opts = mk.SolverOptions(residual_tol=TOL)

    def cli_steps(self):
        sz = self.sizes
        counts = ",".join(str(n) for n in sz.study_counts)
        return [
            CliStep(f"power --grid {sz.power_grid}",
                    ["power", "data2.csv", "--out", "power.csv", "--kernel", "trig",
                     "--truncation", str(sz.k2), "--decay", repr(DECAY), "--order", str(ORDER),
                     "--grid", str(sz.power_grid), domain_flag(2)],
                    self._check_power_csv),
            CliStep(f"study {counts}",
                    ["study", "--node-counts", counts, "--out", "study.csv", "--kernel", "trig",
                     "--truncation", str(sz.study_k), "--decay", repr(DECAY), "--order", str(ORDER),
                     "--grid", str(sz.study_grid), "--seed", str(STUDY_SEED), domain_flag(1)],
                    self._check_study_csv),
        ]

    def _check_power_csv(self, code):
        if code != 0:
            return FAILED
        header, body = read_csv(self.work / "power.csv")
        if header != ["x1", "x2", "p_m", "p_2", "bound"] or len(body) != len(self.grid):
            return FAILED
        table = np.array([[float(v) for v in row] for row in body])
        pm, p2, bound = table[:, 2], table[:, 3], table[:, 4]
        return self._power_ok(table[:, :2], pm, p2, bound)

    def _power_ok(self, points, pm, p2, bound):
        if not np.array_equal(points, self.grid) or not np.all(np.isfinite(pm)):
            return FAILED
        if np.any(pm < 0) or not np.allclose(bound, 2.0 * pm, rtol=1e-15, atol=0.0):
            return FAILED
        ok = p2_matches(self.model2, self.nodes2, self.grid, p2, self.rows(len(self.grid)))
        return OK if ok else FAILED

    def _check_study_csv(self, code):
        if code == 3:
            return UNSOLVED
        if code != 0:
            return FAILED
        header, body = read_csv(self.work / "study.csv")
        ns = [int(row[0]) for row in body]
        return OK if header[0] == "n" and ns == list(self.sizes.study_counts) else FAILED

    def _study(self):
        try:
            return mk.convergence_study(self.study_model, self.f_alpha, ORDER,
                                        list(self.sizes.study_counts), self.study_grid, self.opts)
        except mk.NotConverged as err:
            return err

    def _check_study(self, result):
        if isinstance(result, mk.NotConverged):
            return UNSOLVED
        f_norm = mk.banach_norm_direct(self.f_alpha, ORDER / (ORDER - 1))
        ns = [row.n for row in result.rows]
        ok = ns == list(self.sizes.study_counts) and result.bound_dominates(1e-6 * (1.0 + f_norm))
        return OK if ok else FAILED

    def lib_steps(self):
        return [
            LibStep("power_report",
                    lambda: mk.power_report(self.model2, self.nodes2, ORDER, self.grid,
                                            opts=self.power_opts),
                    lambda r: self._power_ok(r.eval_points, r.p_m, r.p_2, r.bound)),
            LibStep("convergence_study", self._study, self._check_study),
        ]


WORKLOADS = {cls.name: cls for cls in (EvalGrid, FitLarge, PowerBound)}
