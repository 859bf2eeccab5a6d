"""Which package modules each entry point loads, checked in a fresh interpreter.

``import mkinterp`` loads no submodule; an exported name loads its own on
first use, and a CLI subcommand imports only the modules it runs.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np

import mkinterp
from mkinterp import Domain, FeatureModel, NodeSet, fit, to_json

SRC = Path(__file__).resolve().parent.parent / "src"

EVAL_MODULES = ["mkinterp", "mkinterp.cli", "mkinterp.exceptions", "mkinterp.features",
                "mkinterp.interpolant", "mkinterp.tensors"]

EXPORTED = [
    "DimensionMismatch", "DuplicateNodes", "InvalidExponent",
    "NotConverged", "OddOrderUnsupported", "PointOutsideDomain",
    "SingularDesignWarning", "UntabulatedPoint", "ZeroFunction",
    "Domain", "FeatureModel", "eval_features",
    "graded_multi_indices",
    "Interpolant", "NodeSet", "banach_norm_direct", "banach_norm_via_tensor",
    "evaluate", "evaluate_many",
    "feature_coefficients", "fit", "from_json", "gateaux_coefficients", "to_json",
    "PowerReport", "StudyResult", "StudyRow", "convergence_study", "domain_grid",
    "error_bound", "fill_distance", "power_function", "power_report",
    "SolveReport", "SolverOptions", "residual_norm", "solve_multilinear",
    "solve_regularized",
    "FeatureGram", "contract_m", "contract_m_minus_1",
]


def loaded_after(code: str) -> list:
    """Sorted names of the ``mkinterp`` modules loaded once ``code`` has run."""
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted(\n"
                    "    m for m in sys.modules if m.split('.')[0] == 'mkinterp')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return json.loads(done.stdout.splitlines()[-1])


def cli_run(*argv) -> str:
    return f"from mkinterp.cli import main\nassert main({list(argv)!r}) == 0\n"


def test_cli_import_loads_the_evaluation_modules_only():
    assert loaded_after("import mkinterp.cli") == EVAL_MODULES


def test_eval_loads_neither_the_solver_nor_power(tmp_path):
    box = Domain([-1.0, -1.0], [1.0, 1.0])
    nodes = NodeSet(np.array([[0.0, 0.0], [0.5, -0.5], [-0.5, 0.25]]), np.array([1.0, 2.0, 0.5]))
    model = tmp_path / "m.json"
    model.write_text(to_json(fit(FeatureModel.trigonometric(box, 9, 0.5), nodes, 4)))
    points = tmp_path / "p.csv"
    points.write_text("x1,x2\n0,0.5\n-1,1\n")
    code = (cli_run("eval", str(model), "--grid", "3", "--out", str(tmp_path / "g.csv"))
            + cli_run("eval", str(model), "--points", str(points),
                      "--out", str(tmp_path / "v.csv")))
    assert loaded_after(code) == EVAL_MODULES


def test_fit_loads_the_solver_but_not_power(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("x1,y\n0,8\n1,9\n")
    code = cli_run("fit", str(data), "--order", "4", "--truncation", "2",
                   "--out", str(tmp_path / "m.json"))
    assert loaded_after(code) == sorted(EVAL_MODULES + ["mkinterp.solver"])


def test_package_names_load_on_first_use():
    assert loaded_after("import mkinterp") == ["mkinterp"]
    code = ("import mkinterp\n"
            "assert callable(mkinterp.power.power_report) and callable(mkinterp.fit)\n"
            "assert mkinterp.power_report is mkinterp.power.power_report\n"
            "assert not hasattr(mkinterp, 'no_such_name')\n"
            "from mkinterp import *\n"
            "assert all(name in globals() for name in mkinterp.__all__)\n")
    assert loaded_after(code) == sorted(EVAL_MODULES[:1] + EVAL_MODULES[2:]
                                        + ["mkinterp.power", "mkinterp.solver"])


def test_cli_is_a_lazy_attribute():
    assert mkinterp.__getattr__("cli") is import_module("mkinterp.cli")
    assert loaded_after("import mkinterp\nassert callable(mkinterp.cli.main)") == EVAL_MODULES


def test_exported_names_are_unchanged():
    assert mkinterp.__all__ == EXPORTED
    assert mkinterp.domain_grid.__module__ == "mkinterp.features"
