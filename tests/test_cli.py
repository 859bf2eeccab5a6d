import contextlib
import csv
import functools
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkinterp import (
    DimensionMismatch,
    Domain,
    FeatureGram,
    FeatureModel,
    NodeSet,
    PointOutsideDomain,
    SingularDesignWarning,
    UntabulatedPoint,
    evaluate,
    fit,
    from_json,
    solve_multilinear,
    to_json,
)
from mkinterp import commands
from mkinterp.cli import main
from oracles import scan_points_csv

DATA_2ROW = "x1,y\n0,8\n1,9\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def fitted_paths(tmp_path):
    data = write(tmp_path / "data.csv", DATA_2ROW)
    out = tmp_path / "interp.json"
    code = main(["fit", data, "--out", str(out), "--kernel", "power",
                 "--order", "4", "--truncation", "2", "--decay", "1.0",
                 "--domain=-1:1"])
    assert code == 0
    return data, out, tmp_path


class TestFit:
    def test_documented_example(self, fitted_paths):
        _, out, _ = fitted_paths
        doc = json.loads(out.read_text())
        np.testing.assert_allclose(doc["coefficients"], [1.0, 1.0], atol=1e-8)
        report = json.loads((out.parent / "interp.json.report.json").read_text())
        assert report["converged"] is True
        assert report["norm"] == pytest.approx(17 ** 0.75, rel=1e-8)

    def test_empty_value_field_exits_2(self, tmp_path, capsys):
        data = write(tmp_path / "bad.csv", "x1,y\n0,8\n1,\n")
        code = main(["fit", data, "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert ":3:" in capsys.readouterr().err

    def test_duplicate_points_exit_2(self, tmp_path, capsys):
        data = write(tmp_path / "dup.csv", "x1,y\n0,8\n0,9\n")
        code = main(["fit", data, "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "rows 2 and 3" in err

    def test_missing_header_exit_2(self, tmp_path):
        data = write(tmp_path / "bad.csv", "a,b\n0,8\n")
        assert main(["fit", data, "--out", str(tmp_path / "o.json")]) == 2

    def assert_singular_exit(self, tmp_path, capsys, x, flags, model, cause):
        """``fit`` exits 4 with one error line and writes nothing; afterwards the
        library solve of the same design still only warns, with the same text."""
        y = np.arange(1.0, len(x) + 1.0)
        data = write(tmp_path / "d.csv", "x1,y\n" + "".join(f"{a},{b}\n" for a, b in zip(x, y)))
        out = tmp_path / "o.json"
        message = f"singular design ({cause})"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SingularDesignWarning)
            assert main(["fit", data, "--out", str(out), "--order", "4", *flags]) == 4
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists() and not (tmp_path / "o.json.report.json").exists()
            gram = FeatureGram.from_model(model, np.array(x)[:, None])
            solve_multilinear(gram, 4, y)
        assert [(w.category, str(w.message)) for w in caught] == [(SingularDesignWarning, message)]

    def test_truncation_below_n_exits_4(self, tmp_path, capsys):
        model = FeatureModel.power_series(Domain([-1.0], [1.0]), 2, 0.5)
        self.assert_singular_exit(tmp_path, capsys, [0.0, 0.5, 1.0], ["--truncation", "2"],
                                  model, "truncation K=2 < n=3")

    def test_rank_deficient_design_exits_4(self, tmp_path, capsys):
        # the trig features cannot tell x = -1 from x = 1: two equal rows, K >= n
        model = FeatureModel.trigonometric(Domain([-1.0], [1.0]), 3, 0.5)
        self.assert_singular_exit(tmp_path, capsys, [-1.0, 1.0],
                                  ["--kernel", "trig", "--truncation", "3"],
                                  model, "rank-deficient feature Gram")

    def test_certified_fit_forms_v_vt_once(self, tmp_path, outer_gram_count):
        x = np.linspace(-0.9, 0.9, 12).tolist()
        data = write(tmp_path / "d.csv",
                     "x1,y\n" + "".join(f"{a!r},{math.sin(3 * a)!r}\n" for a in x))
        assert main(["fit", data, "--out", str(tmp_path / "o.json"), "--kernel", "trig",
                     "--truncation", "40", "--order", "4"]) == 0
        assert outer_gram_count == [1]

    def test_not_converged_exits_3_but_writes_report(self, tmp_path, capsys):
        # non-integer data keeps the residual above an unreachable tolerance
        data = write(tmp_path / "d.csv", "x1,y\n0,8.1\n1,9.7\n")
        out = tmp_path / "o.json"
        code = main(["fit", data, "--out", str(out), "--truncation", "2",
                     "--decay", "1.0", "--order", "4", "--tol", "1e-300"])
        assert code == 3
        report = json.loads((tmp_path / "o.json.report.json").read_text())
        assert report["converged"] is False
        assert report["stop_reason"] in ("max_iterations", "stalled")
        assert f"({report['stop_reason']})" in capsys.readouterr().err
        assert out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, value):
        data = write(tmp_path / "bad.csv", f"x1,y\n0,8\n1,{value}\n")
        out = tmp_path / "o.json"
        assert main(["fit", data, "--out", str(out)]) == 2
        assert ":3: non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("order", ["0", "3", "-2"])
    def test_bad_order_exits_2(self, tmp_path, capsys, order):
        data = write(tmp_path / "d.csv", DATA_2ROW)
        code = main(["fit", data, "--out", str(tmp_path / "o.json"),
                     "--order", order, "--truncation", "2"])
        assert code == 2
        assert "order must be even" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_overflow_exits_3_without_writing_nan(self, tmp_path, capsys):
        data = write(tmp_path / "big.csv", "x1,y\n0,1e308\n0.5,-1e308\n1,1e308\n")
        out = tmp_path / "o.json"
        assert main(["fit", data, "--out", str(out), "--order", "4"]) == 3
        assert "overflowed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kernel", ["power", "trig"])
    @pytest.mark.parametrize("truncation", ["0", "-3"])
    def test_truncation_below_one_exits_2(self, tmp_path, capsys, kernel, truncation):
        data = write(tmp_path / "d.csv", DATA_2ROW)
        assert main(["fit", data, "--out", str(tmp_path / "o.json"), "--kernel", kernel,
                     "--truncation", truncation]) == 2
        assert "truncation K must be at least 1" in capsys.readouterr().err

    def test_non_numeric_config_setting_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "order = four\n")
        data = write(tmp_path / "d.csv", DATA_2ROW)
        assert main(["fit", data, "--out", str(tmp_path / "o.json"), "--config", cfg]) == 2
        assert "bad setting" in capsys.readouterr().err

    def test_report_is_strict_json(self, fitted_paths):
        _, out, _ = fitted_paths

        def reject(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        text = (out.parent / "interp.json.report.json").read_text()
        assert json.loads(text, parse_constant=reject)["converged"] is True

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = write(tmp_path / "run.cfg",
                    "kernel = power\norder = 2\ntruncation = 2\n"
                    "decay = 1.0\ndomain = -1:1\n")
        data = write(tmp_path / "d.csv", DATA_2ROW)
        out = tmp_path / "o.json"
        code = main(["fit", data, "--out", str(out), "--config", cfg,
                     "--order", "4"])
        assert code == 0
        assert json.loads(out.read_text())["order"] == 4


def fit_custom_model():
    """A 1-d custom-table interpolant tabulated at 0, 0.5 and 1."""
    table = [[0.0], [0.5], [1.0]]
    model = FeatureModel.custom_table(table, [[1.0, 0.0, 0.0], [1.0, 0.5, 0.25],
                                              [1.0, 1.0, 1.0]])
    return fit(model, NodeSet(np.array(table), np.array([1.0, 2.0, 4.0])), 2)


class TestDocumentedInputChecks:
    @pytest.mark.parametrize("domain, message", [
        ("1:2:3", "bad domain segment '1:2:3'; expected lo:hi"),
        ("a:1", "bad domain segment 'a:1'"),
        ("-1:1,-1:1", "domain has dimension 2 but data has dimension 1")])
    def test_bad_domain_exits_2(self, tmp_path, capsys, domain, message):
        data = write(tmp_path / "d.csv", DATA_2ROW)
        assert main(["fit", data, "--out", str(tmp_path / "o.json"), f"--domain={domain}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("kernel, flags, message", [
        ("power", ["--decay", "1e-300"], "decay 1e-300 gives weight 0.0 at degree 2"),
        ("trig", ["--decay", "1e-300"], "decay 1e-300 gives weight 0.0 at degree 2"),
        ("power", ["--decay", "1e300"], "decay 1e+300 gives weight inf at degree 2"),
        ("power", ["--truncation", "1076"], "decay 0.5 gives weight 0.0 at degree 1075")])
    def test_default_weights_out_of_range_exit_2(self, tmp_path, capsys, kernel, flags, message):
        data = write(tmp_path / "d.csv", DATA_2ROW)
        out = tmp_path / "o.json"
        assert main(["fit", data, "--out", str(out), "--kernel", kernel, *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: {message}; weights must be finite positive reals\n")
        assert not out.exists()

    @pytest.mark.parametrize("kernel", ["power", "trig"])
    def test_truncation_too_large_to_enumerate_exits_2(self, tmp_path, capsys, kernel):
        data = write(tmp_path / "d.csv", DATA_2ROW)
        out = tmp_path / "o.json"
        assert main(["fit", data, "--out", str(out), "--kernel", kernel,
                     "--truncation", str(10 ** 12)]) == 2
        assert capsys.readouterr().err == (
            f"error: truncation K must be at most 1048576, got {10 ** 12}\n")
        assert not out.exists()

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        data = write(tmp_path / "empty.csv", "")
        assert main(["fit", data, "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == f"error: {data}: empty file\n"

    def test_fit_reads_no_grid(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "grid = 1\n")
        data = write(tmp_path / "d.csv", DATA_2ROW)
        assert main(["fit", data, "--out", str(tmp_path / "o.json"), "--config", cfg]) == 0

    @pytest.mark.parametrize("command", ["eval", "power", "study"])
    def test_grid_below_two_exits_2(self, fitted_paths, capsys, command):
        data, model, tmp = fitted_paths
        inputs = {"eval": [str(model)], "power": [data], "study": ["--node-counts", "2,4"]}
        out = tmp / "o.csv"
        capsys.readouterr()
        assert main([command, *inputs[command], "--grid", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: grid must be at least 2 points per dimension, got 1\n")
        assert not out.exists()

    def test_power_reads_its_nodes_before_the_grid(self, tmp_path, capsys):
        nodes = write(tmp_path / "n.csv", "x1\nabc\n")
        assert main(["power", nodes, "--grid", "1", "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == f"error: {nodes}:2: non-numeric field\n"

    def test_non_integer_node_count_exits_2(self, tmp_path, capsys):
        assert main(["study", "--node-counts", "4,x", "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: node_counts must be a comma-separated integer list\n"

    def test_config_comment_and_blank_lines_are_skipped(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "# a comment line\n\norder = 4  # trailing\n"
                                          "truncation = 2\ndecay = 1.0\n")
        out = tmp_path / "o.json"
        assert main(["fit", write(tmp_path / "d.csv", DATA_2ROW), "--out", str(out),
                     "--config", cfg]) == 0
        doc = json.loads(out.read_text())
        assert (doc["order"], doc["truncation"]) == (4, 2)

    # a model file's custom table: two points for three feature rows, and a
    # table three wide under a truncation (and weights) of 2 or 4
    CUSTOM_EDITS = {
        "rows": ({"table_points": [[0.0], [1.0]]}, "points and features row counts differ"),
        "width_2": ({"truncation": 2, "weights": [1.0, 1.0]},
                    "weights must be K finite positive reals"),
        "width_4": ({"truncation": 4, "weights": [1.0] * 4},
                    "weights must be K finite positive reals"),
    }

    @pytest.mark.parametrize("case", list(CUSTOM_EDITS))
    def test_custom_table_model_file_exits_2(self, tmp_path, capsys, case):
        edit, message = self.CUSTOM_EDITS[case]
        model = write(tmp_path / "bad.json",
                      json.dumps({**json.loads(to_json(fit_custom_model())), **edit}))
        assert main(["eval", model, "--grid", "3", "--out", str(tmp_path / "v.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_study_reshows_other_warnings(self, tmp_path, monkeypatch):
        from mkinterp import power
        study = power.convergence_study

        def warning_study(*args):
            warnings.warn("not a design warning", RuntimeWarning)
            return study(*args)

        monkeypatch.setattr(power, "convergence_study", warning_study)
        with pytest.warns(RuntimeWarning, match="not a design warning"):
            assert main(["study", "--node-counts", "4", "--kernel", "trig", "--truncation", "9",
                         "--order", "4", "--grid", "5", "--out", str(tmp_path / "s.csv")]) == 0


class TestEval:
    def test_round_trip_values(self, fitted_paths):
        _, out, tmp = fitted_paths
        pts = write(tmp / "pts.csv", "x1\n0\n0.5\n1\n")
        result = tmp / "vals.csv"
        assert main(["eval", str(out), "--points", pts, "--out", str(result)]) == 0
        rows = read_rows(result)
        assert rows[0] == ["x1", "s", "flag"]
        values = [float(r[1]) for r in rows[1:]]
        np.testing.assert_allclose(values, [8.0, 8.5, 9.0], atol=1e-7)

    def test_empty_point_list(self, fitted_paths):
        _, out, tmp = fitted_paths
        pts = write(tmp / "empty.csv", "x1\n")
        result = tmp / "vals.csv"
        assert main(["eval", str(out), "--points", pts, "--out", str(result)]) == 0
        assert read_rows(result) == [["x1", "s", "flag"]]

    def test_outside_domain_flagged_exit_5(self, fitted_paths):
        _, out, tmp = fitted_paths
        pts = write(tmp / "pts.csv", "x1\n0\n2.0\n")
        result = tmp / "vals.csv"
        assert main(["eval", str(out), "--points", pts, "--out", str(result)]) == 5
        rows = read_rows(result)
        assert rows[2][2] == "outside_domain"
        assert rows[1][2] == ""

    def test_mixed_inside_outside(self, fitted_paths):
        _, out, tmp = fitted_paths
        pts = write(tmp / "pts.csv", "x1\n-1.5\n0\n1.0000000000001\n3\n0.5\n-1\n")
        result = tmp / "vals.csv"
        assert main(["eval", str(out), "--points", pts, "--out", str(result)]) == 5
        rows = read_rows(result)[1:]
        assert [r[2] for r in rows] == ["outside_domain", "", "", "outside_domain", "", ""]
        assert [r[1] for r in rows if r[2]] == ["", ""]
        values = [float(r[1]) for r in rows if not r[2]]
        np.testing.assert_allclose(values, [8.0, 9.0, 8.5, 7.0], atol=1e-7)

    def test_flag_column_holds_one_string_per_kind(self, fitted_paths, monkeypatch):
        # one str object per flag text, not one per row
        _, out, tmp = fitted_paths
        pts = write(tmp / "pts.csv", "x1\n" + "0\n2.0\n" * 500)
        columns, write_csv = [], commands._write_csv
        monkeypatch.setattr(commands, "_write_csv", lambda path, header, *cols: columns.append(
            cols[-1]) or write_csv(path, header, *cols))
        assert main(["eval", str(out), "--points", pts, "--out", str(tmp / "vals.csv")]) == 5
        assert len(columns[0]) == 1000 and len(set(map(id, columns[0]))) == 2

    def test_wrong_dimension_flags_every_row(self, fitted_paths):
        _, out, tmp = fitted_paths
        pts = write(tmp / "pts.csv", "x1,x2\n0,0\n0.5,0.5\n")
        result = tmp / "vals.csv"
        assert main(["eval", str(out), "--points", pts, "--out", str(result)]) == 5
        rows = read_rows(result)
        assert rows[0] == ["x1", "x2", "s", "flag"]  # the points' own width
        assert all(len(row) == len(rows[0]) for row in rows)
        assert [r[-1] for r in rows[1:]] == ["outside_domain"] * 2

    def test_empty_points_file_of_other_dimension(self, fitted_paths):
        _, out, tmp = fitted_paths
        pts = write(tmp / "empty.csv", "x1,x2\n")
        result = tmp / "vals.csv"
        assert main(["eval", str(out), "--points", pts, "--out", str(result)]) == 0
        assert read_rows(result) == [["x1", "x2", "s", "flag"]]

    def test_non_finite_point_exits_2(self, fitted_paths):
        _, out, tmp = fitted_paths
        pts = write(tmp / "pts.csv", "x1\n0\nnan\n")
        assert main(["eval", str(out), "--points", pts,
                     "--out", str(tmp / "vals.csv")]) == 2

    def test_custom_table_untabulated_flagged_exit_5(self, tmp_path):
        s = fit_custom_model()
        path = write(tmp_path / "custom.json", to_json(s))
        pts = write(tmp_path / "pts.csv", "x1\n0.5\n0.25\n2\n")
        result = tmp_path / "vals.csv"
        assert main(["eval", path, "--points", pts, "--out", str(result)]) == 5
        assert read_rows(result) == [
            ["x1", "s", "flag"],
            ["0.5", repr(evaluate(s, [0.5])), ""],
            ["0.25", "", "untabulated"],
            ["2.0", "", "outside_domain"],
        ]

    def test_grid_tests_the_domain_twice(self, tmp_path, monkeypatch):
        data = write(tmp_path / "d.csv", "x1,x2,y\n0,0,1\n0.5,-0.5,2\n-0.5,0.25,0.5\n")
        model = tmp_path / "m.json"
        assert main(["fit", data, "--kernel", "trig", "--order", "4", "--truncation", "9",
                     "--domain=-1:1,-1:1", "--out", str(model)]) == 0
        tested = []
        contains = Domain.contains
        monkeypatch.setattr(Domain, "contains",
                            lambda self, x: tested.append(len(x)) or contains(self, x))
        assert main(["eval", str(model), "--grid", "5", "--out", str(tmp_path / "v.csv")]) == 0
        # the model's nodes, the CLI's flags, and evaluate_many on the grid's 5 axis values
        assert tested == [3, 25, 5]

    def test_overflowing_sum_exits_2_without_csv(self, tmp_path, capsys):
        # t = V^T c = (5e102, 5e102): alpha = t^3 = 1.25e308 is finite, s(1) = 2.5e308 is not
        doc = {"family": "power", "domain": {"lower": [-1.0], "upper": [1.0]},
               "truncation": 2, "weights": [1.0, 1.0], "order": 4, "nodes": [[0.0], [0.5]],
               "values": [1.0, 2.0], "coefficients": [-5e102, 1e103]}
        path = write(tmp_path / "m.json", json.dumps(doc))
        out = tmp_path / "v.csv"
        assert main(["eval", path, "--grid", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: interpolant overflows at point [1.0]\n"
        assert not out.exists()

    def test_schema_mismatch_exit_2(self, tmp_path):
        bad = write(tmp_path / "bad.json", "{}")
        assert main(["eval", bad, "--out", str(tmp_path / "v.csv")]) == 2

    def test_grid_evaluation(self, fitted_paths):
        _, out, tmp = fitted_paths
        result = tmp / "grid.csv"
        assert main(["eval", str(out), "--grid", "5", "--out", str(result)]) == 0
        rows = read_rows(result)
        assert len(rows) == 6
        assert float(rows[1][0]) == -1.0 and float(rows[5][0]) == 1.0


NODES_3D = "x1,x2,x3,y\n0,0,0,1\n0.5,-0.5,0.25,2\n-0.5,0.25,0.5,0.5\n"
BOX_3D = "--domain=-1:1,-1:1,-1:1"


class TestGridTooLarge:
    """A 3-d grid of 100000 points per axis: its axes take 0.8 MB and the
    (10^15, 3) grid fails to allocate at once, far beyond any address space."""

    def test_eval_exits_2(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert main(["fit", write(tmp_path / "d.csv", NODES_3D), "--kernel", "trig",
                     "--truncation", "9", BOX_3D, "--out", str(model)]) == 0
        capsys.readouterr()
        result = tmp_path / "v.csv"
        assert main(["eval", str(model), "--grid", "100000", "--out", str(result)]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not result.exists()

    def test_power_exits_2(self, tmp_path, capsys):
        result = tmp_path / "p.csv"
        assert main(["power", write(tmp_path / "n.csv", NODES_3D), "--truncation", "9",
                     BOX_3D, "--grid", "100000", "--out", str(result)]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not result.exists()


class TestPower:
    def test_report_contains_sqrt2(self, tmp_path):
        nodes = write(tmp_path / "nodes.csv", "x1,y\n0,0\n1,0\n")
        result = tmp_path / "power.csv"
        code = main(["power", nodes, "--out", str(result), "--kernel", "power",
                     "--truncation", "3", "--decay", "1.0", "--order", "2",
                     "--grid", "3", "--domain=-1:1"])
        assert code == 0
        rows = read_rows(result)
        assert rows[0] == ["x1", "p_m", "p_2", "bound"]
        at_minus1 = [r for r in rows[1:] if float(r[0]) == -1.0][0]
        assert float(at_minus1[1]) == pytest.approx(np.sqrt(2), rel=1e-8)
        assert float(at_minus1[3]) == pytest.approx(2 * np.sqrt(2), rel=1e-8)

    def test_pm_bounded_by_p2_and_zero_at_nodes(self, tmp_path):
        nodes = write(tmp_path / "nodes.csv", "x1,y\n0,0\n1,0\n")
        result = tmp_path / "power.csv"
        code = main(["power", nodes, "--out", str(result), "--truncation", "4",
                     "--order", "4", "--grid", "9"])
        assert code == 0
        for row in read_rows(result)[1:]:
            assert float(row[1]) <= float(row[2]) + 1e-8
            if float(row[0]) in (0.0, 1.0):
                assert float(row[1]) <= 1e-6


    def test_points_that_do_not_converge_are_reported(self, tmp_path, capsys):
        # 40 nodes reproduce the 21 trig features to rounding: each descent stalls there
        nodes = write(tmp_path / "mid.csv",
                      "x1\n" + "".join(f"{(i + 0.5) / 20 - 1!r}\n" for i in range(40)))
        result = tmp_path / "power.csv"
        assert main(["power", nodes, "--out", str(result), "--kernel", "trig",
                     "--truncation", "21", "--order", "4", "--grid", "30"]) == 0
        p_m = max(float(row[1]) for row in read_rows(result)[1:])
        assert capsys.readouterr().err == (
            f"warning: 30 of 30 P_m points stopped (stalled); P_m <= {p_m:.2g}\n")

    def test_converged_points_print_nothing(self, tmp_path, capsys):
        nodes = write(tmp_path / "nodes.csv", "x1\n0.1\n0.55\n")
        assert main(["power", nodes, "--out", str(tmp_path / "p.csv"), "--order", "4",
                     "--grid", "20"]) == 0
        assert capsys.readouterr().err == ""

    def test_singular_gram_exits_0(self, tmp_path):
        # three nodes, one feature: A_2 is singular, and p_2 needs no A_2 solve
        nodes = write(tmp_path / "three.csv", "x1,y\n0,0\n0.5,1\n1,2\n")
        result = tmp_path / "power.csv"
        code = main(["power", nodes, "--out", str(result), "--truncation", "1",
                     "--grid", "5"])
        assert code == 0
        rows = read_rows(result)
        assert len(rows) == 6
        for row in rows[1:]:
            assert float(row[1]) <= 1e-6 and float(row[2]) <= 1e-6

    def test_grid_below_two_exits_2(self, tmp_path):
        nodes = write(tmp_path / "nodes.csv", "x1,y\n0,0\n1,0\n")
        code = main(["power", nodes, "--out", str(tmp_path / "p.csv"), "--grid", "1"])
        assert code == 2

    def test_tol_flag_is_not_a_power_flag(self, tmp_path):
        # the power function's Newton stop test has no user tolerance
        nodes = write(tmp_path / "nodes.csv", "x1,y\n0,0\n1,0\n")
        with pytest.raises(SystemExit) as exc:
            main(["power", nodes, "--out", str(tmp_path / "p.csv"), "--tol", "1e-3"])
        assert exc.value.code == 2

    def test_config_tol_key_is_accepted(self, tmp_path):
        nodes = write(tmp_path / "nodes.csv", "x1,y\n0,0\n1,0\n")
        cfg = write(tmp_path / "run.cfg", "tol = 1e-3\norder = 4\n")
        result = tmp_path / "p.csv"
        assert main(["power", nodes, "--out", str(result), "--grid", "3",
                     "--config", cfg]) == 0
        assert len(read_rows(result)) == 4


class TestStudy:
    def run_study(self, tmp_path, counts="4,8,16", seed="7"):
        result = tmp_path / "study.csv"
        code = main(["study", "--node-counts", counts, "--out", str(result),
                     "--kernel", "trig", "--truncation", "21", "--decay", "0.7",
                     "--order", "4", "--grid", "41", "--seed", seed,
                     "--domain=-1:1"])
        return code, result

    def test_monotone_error_and_exit_0(self, tmp_path):
        code, result = self.run_study(tmp_path)
        assert code == 0
        rows = read_rows(result)
        assert rows[0] == ["n", "h", "max_error", "max_bound", "slope"]
        errors = [float(r[2]) for r in rows[1:]]
        assert errors[0] > errors[1] > errors[2]
        for r in rows[1:]:
            assert float(r[2]) <= float(r[3]) + 1e-5
            assert r[4] != ""

    def test_single_count_has_no_slope(self, tmp_path):
        code, result = self.run_study(tmp_path, counts="6")
        assert code == 0
        rows = read_rows(result)
        assert len(rows) == 2 and rows[1][4] == ""

    def test_non_increasing_counts_exit_2(self, tmp_path):
        code, _ = self.run_study(tmp_path, counts="8,4")
        assert code == 2

    def test_count_below_one_exits_2(self, tmp_path, capsys):
        code, result = self.run_study(tmp_path, counts="0,4")
        assert code == 2
        assert "node_counts must be strictly increasing and at least 1" in capsys.readouterr().err
        assert not result.exists()

    def test_more_nodes_than_features_warns_once_per_message(self, tmp_path, capsys):
        # criterion 10: the study runs; each row's rank warning is one plain stderr line
        result = tmp_path / "s.csv"
        argv = ["study", "--node-counts", "4,16,32", "--kernel", "trig", "--truncation", "9",
                "--order", "4", "--grid", "21", "--out", str(result)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ("warning: singular design (truncation K=9 < n=16)\n"
                                           "warning: singular design (truncation K=9 < n=32)\n")
        rows = read_rows(result)
        assert [row[0] for row in rows] == ["n", "4", "16", "32"]

    def test_missing_node_counts_exit_2(self, tmp_path, capsys):
        assert main(["study", "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: node_counts must be a comma-separated integer list\n")

    def test_byte_identical_reruns(self, tmp_path):
        _, first = self.run_study(tmp_path)
        text1 = first.read_bytes()
        _, second = self.run_study(tmp_path)
        assert second.read_bytes() == text1


DATA_3ROW = "x1,y\n0,1\n0.5,2\n1,3\n"
# fit at order 4 with --tol=inf once wrote its linear start as converged
DATA_3ROW_MIXED = "x1,y\n-0.5,1\n0,2\n0.5,0.5\n"


def _edited_model(edit):
    """argv for ``eval`` of the 3-node model after ``edit`` of its JSON."""
    def argv(tmp_path, model):
        bad = write(tmp_path / "bad.json", json.dumps(edit(json.loads(model.read_text()))))
        return ["eval", bad, "--grid", "5", "--out", str(tmp_path / "v.csv")]
    return argv


def _fit_3node(*flags):
    """argv for ``fit`` of the 3-node data with extra ``flags``."""
    return lambda tmp_path, model: [
        "fit", write(tmp_path / "d.csv", DATA_3ROW), "--out", str(tmp_path / "o.json"), *flags]


def _fit_mixed(*flags):
    """argv for ``fit`` at order 4 of the mixed 3-row data with extra ``flags``."""
    return lambda tmp_path, model: [
        "fit", write(tmp_path / "d.csv", DATA_3ROW_MIXED), "--order", "4",
        "--out", str(tmp_path / "o.json"), *flags]


def _power_3node(*flags):
    """argv for ``power`` at order 4 on the 3-node data with extra ``flags``."""
    return lambda tmp_path, model: [
        "power", write(tmp_path / "n.csv", DATA_3ROW), "--order", "4", "--grid", "5",
        "--out", str(tmp_path / "p.csv"), *flags]


OUTSIDE_NODE = "x1,y\n0,1\n2,2\n"  # x = 2 lies outside the default -1:1 domain

MALFORMED = {
    "short_coefficients": _edited_model(
        lambda doc: {**doc, "coefficients": doc["coefficients"][:2]}),
    "odd_order": _edited_model(lambda doc: {**doc, "order": 3}),
    "nan_coefficients": _edited_model(lambda doc: {**doc, "coefficients": [np.nan] * 3}),
    "nan_values": _edited_model(lambda doc: {**doc, "values": [1.0, np.nan, 3.0]}),
    "scalar_nodes": _edited_model(lambda doc: {**doc, "nodes": 1.5}),
    "number_document": _edited_model(lambda doc: 5),
    "string_domain": _edited_model(lambda doc: {**doc, "domain": "x"}),
    "null_truncation": _edited_model(lambda doc: {**doc, "truncation": None}),
    "fractional_order": _edited_model(lambda doc: {**doc, "order": 4.5}),
    "string_order": _edited_model(lambda doc: {**doc, "order": "4"}),
    "boolean_order": _edited_model(lambda doc: {**doc, "order": True}),
    "fractional_truncation": _edited_model(lambda doc: {**doc, "truncation": 6.9}),
    "nan_weights": _edited_model(lambda doc: {**doc, "weights": [np.nan] * 6}),
    "infinite_domain": _edited_model(
        lambda doc: {**doc, "domain": {"lower": [0.0], "upper": [np.inf]}}),
    "overflowing_domain_width": _edited_model(
        lambda doc: {**doc, "domain": {"lower": [-1e308], "upper": [1e308]}}),
    "overflowing_value": _edited_model(
        lambda doc: {**doc, "domain": {"lower": [-1e308], "upper": [1.0]}}),
    "fit_infinite_domain": lambda tmp_path, model: [
        "fit", write(tmp_path / "d.csv", DATA_3ROW), "--domain=0:inf",
        "--out", str(tmp_path / "o.json")],
    "fit_out_missing_dir": lambda tmp_path, model: [
        "fit", write(tmp_path / "d.csv", DATA_3ROW),
        "--out", str(tmp_path / "missing" / "o.json")],
    "eval_out_missing_dir": lambda tmp_path, model: [
        "eval", str(model), "--grid", "5", "--out", str(tmp_path / "missing" / "v.csv")],
    "power_out_missing_dir": lambda tmp_path, model: [
        "power", write(tmp_path / "n.csv", DATA_3ROW), "--grid", "5",
        "--out", str(tmp_path / "missing" / "p.csv")],
    "study_out_missing_dir": lambda tmp_path, model: [
        "study", "--node-counts", "4", "--grid", "5",
        "--out", str(tmp_path / "missing" / "s.csv")],
    "fit_node_outside_domain": lambda tmp_path, model: [
        "fit", write(tmp_path / "far.csv", OUTSIDE_NODE), "--out", str(tmp_path / "o.json")],
    "power_node_outside_domain": lambda tmp_path, model: [
        "power", write(tmp_path / "far.csv", OUTSIDE_NODE), "--grid", "5",
        "--out", str(tmp_path / "p.csv")],
    "study_2d_domain": lambda tmp_path, model: [
        "study", "--node-counts", "4", "--grid", "5", "--domain=-1:1,-1:1",
        "--out", str(tmp_path / "s.csv")],
    "fit_zero_truncation": _fit_3node("--truncation", "0"),
    "fit_negative_decay": _fit_3node("--decay", "-1"),
    "fit_zero_decay": _fit_3node("--decay", "0"),
    "fit_negative_tol": _fit_3node("--tol", "-1"),
    "fit_nan_tol": _fit_mixed("--tol=nan"),
    "fit_inf_tol": _fit_mixed("--tol=inf"),
    "power_negative_fnorm": _power_3node("--fnorm=-1"),
    "power_nan_fnorm": _power_3node("--fnorm=nan"),
    "power_inf_fnorm": _power_3node("--fnorm=inf"),
    "fit_blank_header": lambda tmp_path, model: [
        "fit", write(tmp_path / "blank.csv", "\n0,1\n"), "--out", str(tmp_path / "o.json")],
    "fit_overlong_field": lambda tmp_path, model: [
        "fit", write(tmp_path / "long.csv", "x1,y\n" + "1" * 200_000 + ",2\n"),
        "--out", str(tmp_path / "o.json")],
    "huge_order": _edited_model(lambda doc: {**doc, "order": 1e300}),
    "table_point_dimension": lambda tmp_path, model: [
        "eval", write(tmp_path / "bad.json", json.dumps(
            {**json.loads(to_json(fit_custom_model())),
             "table_points": [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]})),
        "--grid", "3", "--out", str(tmp_path / "v.csv")],
    "custom_truncation": lambda tmp_path, model: [
        "eval", write(tmp_path / "bad.json", json.dumps(
            {**json.loads(to_json(fit_custom_model())), "truncation": 7})),
        "--grid", "3", "--out", str(tmp_path / "v.csv")],
    # features (power) or the fill distance (trig) overflow on a huge domain
    "power_huge_domain": _power_3node("--domain=-1e200:1"),
    "study_huge_domain": lambda tmp_path, model: [
        "study", "--node-counts", "4,8", "--grid", "5", "--domain=-1e200:1",
        "--out", str(tmp_path / "s.csv")],
    "study_trig_huge_domain": lambda tmp_path, model: [
        "study", "--node-counts", "4,8", "--grid", "5", "--domain=-1e200:1",
        "--kernel", "trig", "--out", str(tmp_path / "s.csv")],
}


def fit_3node_model(tmp_path):
    model = tmp_path / "m.json"
    assert main(["fit", write(tmp_path / "d.csv", DATA_3ROW), "--out", str(model),
                 "--order", "4", "--truncation", "6"]) == 0
    return model


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_model_or_unwritable_output_exits_2(tmp_path, capfd, case):
    model = fit_3node_model(tmp_path)
    capfd.readouterr()
    argv = MALFORMED[case](tmp_path, model)
    assert main(argv) == 2
    out, err = capfd.readouterr()  # at fd level, where LAPACK's error printer writes
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not Path(argv[argv.index("--out") + 1]).exists()


def test_integral_float_order_and_truncation_load(tmp_path):
    edit = _edited_model(lambda doc: {**doc, "order": 4.0, "truncation": 6.0})
    assert main(edit(tmp_path, fit_3node_model(tmp_path))) == 0


class TestDeterminism:
    def test_fit_rerun_byte_identical(self, tmp_path):
        data = write(tmp_path / "d.csv", DATA_2ROW)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["fit", data, "--out", str(out), "--order", "4",
                         "--truncation", "2", "--decay", "1.0",
                         "--seed", "3"]) == 0
        a = out1.read_bytes()
        b = out2.read_bytes()
        assert a == b



def per_cell_csv(header, *columns):
    """The CSV text of ``_write_csv`` built one cell at a time."""
    def cell(value):
        if isinstance(value, float):
            return "" if math.isnan(value) else repr(value)
        return str(value)
    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


class TestCsvCells:
    """A float column's cells are ``repr`` once per distinct bit pattern."""

    @pytest.mark.parametrize("chunk_rows", [1, 7, 2048])
    def test_byte_identical_to_per_cell_repr(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(commands, "CSV_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(chunk_rows)
        negative_nan = -np.float64(np.nan)
        pool = np.array([0.0, -0.0, np.nan, negative_nan, 0.1, 1 / 3, -1e-300, 5e-324,
                         1e16, 2.0 ** 60])
        repeats = pool[rng.integers(0, pool.size, 61)]
        grid = np.repeat(np.linspace(-1.0, 1.0, 7), 9)[:61]
        scattered = rng.standard_normal(61)
        counts = rng.integers(-3, 70, 61)
        flags = np.where(np.isnan(repeats), "outside_domain", "")
        header = ["a", "b", "c", "n", "flag"]
        path = tmp_path / "out.csv"
        commands._write_csv(str(path), header, repeats, grid, scattered, counts, flags)
        text = path.read_text(encoding="utf-8")
        assert text == per_cell_csv(header, repeats, grid, scattered, counts, flags)
        assert {"-0.0", "0.0", ""} <= set(text.replace("\n", ",").split(","))

    def test_mostly_distinct_chunk_turns_its_column_to_plain_repr(self, tmp_path, monkeypatch):
        monkeypatch.setattr(commands, "CSV_CHUNK_ROWS", 8)
        distinct_passes = []
        distinct = commands._distinct
        monkeypatch.setattr(commands, "_distinct",
                            lambda chunk: distinct_passes.append(chunk.size) or distinct(chunk))
        scattered = np.concatenate([np.linspace(0.1, 0.8, 8),
                                    [np.nan, -0.0, 0.0, -0.0, -np.float64(np.nan), 1 / 3, 1 / 3, 2.0]])
        repeats = np.resize([0.5, -0.0, 0.5, 0.0], 16)
        path = tmp_path / "out.csv"
        commands._write_csv(str(path), ["a", "b"], scattered, repeats)
        assert path.read_text(encoding="utf-8") == per_cell_csv(["a", "b"], scattered, repeats)
        assert distinct_passes == [8, 8, 8]  # a's first chunk only, then b's two

    def test_empty_columns_write_the_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        commands._write_csv(str(path), ["x1", "s"], np.empty(0), np.empty(0))
        assert path.read_text(encoding="utf-8") == "x1,s\n"


def assert_read_alike(path, expect_values=False, allow_empty=False):
    """``read_points_csv`` gives the oracle's arrays bit for bit, or its error:
    the same type and message."""
    outcomes = []
    for read in (commands.read_points_csv, scan_points_csv):
        try:
            outcomes.append(read(path, expect_values, allow_empty))
        except (ValueError, csv.Error) as err:  # compared below, type and message
            outcomes.append(err)
    got, want = outcomes
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert not isinstance(got, Exception), got
    for array, expected in zip(got, want):
        if expected is None:
            assert array is None
        else:
            assert same_bits(array, expected) and array.flags.c_contiguous, (array, expected)


def same_bits(a, b):
    """Equal float arrays, bit for bit: ``-0.0`` differs from ``0.0``."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestReadPointsCsv:
    """The reader gives what the oracle's row scan gives, bit for bit, or the
    same error, whatever the chunk size.  Cases are written as UTF-8 with
    lone surrogates standing for bytes that are not UTF-8."""

    CASES = {
        "plain": "x1,y\n0.5,1\n-0.0,2\n",
        "quoted": 'x1,y\n"0.5",1\n0,"2"\n',
        "crlf": "x1,y\r\n0.5,1\r\n-0.0,2\r\n",
        "lone_cr": "x1,y\r0.5,1\r-0.0,2\r",
        "cr_in_row": "x1,y\n0.5\r,1\n",
        "quoted_comma": 'x1,y\n"0.5,1"\n',
        "quoted_newline_then_bad_row": 'x1,y\n"0.5\n",1\n0,2\nabc,3\n',
        "blank_lines": "x1,y\n\n0.5,1\n\n0,2\n\n",
        "whitespace_lines": "x1,y\n0.5,1\n   \n,\n \t, \n0,2\n",
        "blank_chunk_first": "x1,y\n" + "\n" * 2048 + "0.5,1\n",
        "underscore": "x1,y\n1_000,1\n0,2\n",
        "spaces": "x1,y\n 1.5 ,1\n0,2\n",
        "nan": "x1,y\nnan,1\n",
        "inf": "x1,y\n0,inf\n",
        "overflow": "x1,y\n1e999,1\n",
        "short_row": "x1,y\n0.5,1\n0.25\n",
        "trailing_comma": "x1,y\n0.5,1,\n",
        "ragged_rows": "x1,y\n0.5,1,2\n0.25\n",
        "bad_row_past_first_chunk": "x1,y\n" + "0.5,1\n" * 2048 + "abc,1\n0,2\n",
        "inf_past_first_chunk": "x1,y\n" + "0.5,1\n" * 2050 + "0,-inf\n",
        "nul_byte": "x1,y\n0.5,1\n0.5\0,2\n",
        "overlong_field": "x1,y\n" + "0" * csv.field_size_limit() + "1,2\n",
        "bad_row_then_overlong_field": "x1,y\nabc,1\n" + "0" * csv.field_size_limit() + "1,2\n",
        "bad_utf8": "x1,y\n0.5,1\n\udcff,2\n",
        "bad_utf8_past_8_kib": "x1,y\n" + "0,1\n" * 3000 + "\udcff,2\n",
        "bad_row_then_bad_utf8": "x1,y\nabc,1\n" + "0,1\n" * 3000 + "\udcff,2\n",
        "header_only": "x1,y\n",
        "header_only_crlf": "x1,y\r\n",
        "no_newline": "x1,y\n0.5,1",
        "unicode_digit": "x1,y\n\u0661,1\n",
        "bad_hex": "x1,y\n0x10,1\n",
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("allow_empty", [False, True])
    @pytest.mark.parametrize("expect_values", [False, True])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 2048])
    def test_reader_and_row_scan_agree(self, tmp_path, monkeypatch, case, expect_values,
                                       allow_empty, chunk_rows):
        monkeypatch.setattr(commands, "CSV_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "in.csv"
        # no newline translation; a lone surrogate becomes the byte it stands for
        path.write_bytes(self.CASES[case].encode("utf-8", "surrogateescape"))
        assert_read_alike(str(path), expect_values, allow_empty)

    def test_header_only_file_needs_allow_empty(self, tmp_path):
        path = write(tmp_path / "in.csv", "x1,y\n")
        with pytest.raises(commands.CliInputError, match="no data rows"):
            commands.read_points_csv(path, expect_values=True)
        points, values = commands.read_points_csv(path, expect_values=True, allow_empty=True)
        assert points.shape == (0, 1) and values.shape == (0,)

    def test_clean_file_is_not_scanned(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        rows = rng.uniform(-1, 1, (5000, 3))  # several chunks
        rows[7, 1] = -0.0
        path = write(tmp_path / "in.csv", "x1,x2,y\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        readers = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda rows: readers.append(rows) or reader(rows))
        points, values = commands.read_points_csv(path, expect_values=True)
        assert same_bits(points, rows[:, :2]) and same_bits(values, rows[:, 2])
        assert len(readers) == 1  # the header's, which reads the rows too


# Numeric flag values: special floats first, then any float.
FLAG_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308]),
                        st.floats())
FLAG_INTS = st.integers(-3, 40)


def _run_in_process(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_outputs(paths):
    for path in paths:
        if not path.exists():
            continue
        text = path.read_text().lower()
        assert "nan" not in text and "inf" not in text, path.name
        if path.suffix == ".csv":
            assert all(all(cells) for cells in read_rows(path)), path.name


@settings(max_examples=20)
@given(tol=FLAG_FLOATS, fnorm=FLAG_FLOATS, decay=FLAG_FLOATS, grid=FLAG_INTS,
       truncation=FLAG_INTS)
def test_numeric_flags_end_in_a_documented_exit(tol, fnorm, decay, grid, truncation):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = write(tmp / "d.csv", DATA_3ROW_MIXED)
        common = ["--order", "4", f"--decay={decay!r}", f"--truncation={truncation}"]
        runs = [
            (["fit", data, "--out", str(tmp / "o.json"), f"--tol={tol!r}", *common],
             [tmp / "o.json", tmp / "o.json.report.json"]),
            (["power", data, "--out", str(tmp / "p.csv"), f"--fnorm={fnorm!r}",
              f"--grid={grid}", *common],
             [tmp / "p.csv"]),
        ]
        for argv, outputs in runs:
            code, err = _run_in_process(argv)
            assert code in range(6), argv
            assert "Traceback" not in err
            if 2 <= code <= 4:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            _assert_clean_outputs(outputs)


@functools.cache
def _fitted_model_text(family):
    """JSON of a 2-d order-4 ``power`` or ``trig`` fit on three nodes."""
    box = Domain([-1.0, -1.0], [1.0, 1.0])
    build = FeatureModel.power_series if family == "power" else FeatureModel.trigonometric
    nodes = NodeSet(np.array([[-0.5, 0.2], [0.0, -0.4], [0.6, 0.5]]), np.array([1.0, 2.0, 0.5]))
    return to_json(fit(build(box, 8, decay=0.7), nodes, 4))


WRONG_TYPES = [None, True, "x", 1.5, [], {}, [[]], ["x"], {"lower": 1}]
BAD_NUMBERS = [math.nan, 1e308, -1e308, -1.0]
BAD_INTEGERS = [4.5, 0.5, -2, 10**6, 2**63, 1e300, 10**400]


@st.composite
def mutated_model_docs(draw):
    """A fitted model document with one field dropped, retyped, changed or resized,
    or with no nodes, values and coefficients at all."""
    doc = json.loads(_fitted_model_text(draw(st.sampled_from(["power", "trig"]))))
    kind = draw(st.sampled_from(["drop", "retype", "number", "resize", "integer", "empty"]))
    if kind == "empty":
        doc.update(nodes=[], values=[], coefficients=[])
    elif kind in ("drop", "retype"):
        key = draw(st.sampled_from(sorted(doc)))
        if kind == "drop":
            del doc[key]
        else:
            doc[key] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "number":
        field = draw(st.sampled_from(["weights", "lower", "upper", "coefficients"]))
        array = doc["domain"][field] if field in ("lower", "upper") else doc[field]
        array[draw(st.integers(0, len(array) - 1))] = draw(st.sampled_from(BAD_NUMBERS))
    elif kind == "resize":
        key = draw(st.sampled_from(["nodes", "values", "coefficients", "weights"]))
        doc[key] = (doc[key] * 2)[:draw(st.integers(0, len(doc[key]) + 2))]
    else:
        doc[draw(st.sampled_from(["order", "truncation"]))] = draw(st.sampled_from(BAD_INTEGERS))
    return doc


@settings(max_examples=40)
@given(doc=mutated_model_docs())
def test_mutated_model_files_end_in_a_documented_exit(doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = write(tmp / "m.json", json.dumps(doc))
        out = tmp / "v.csv"
        code, err = _run_in_process(["eval", model, "--grid", "4", "--out", str(out)])
        assert code in range(6)
        assert "Traceback" not in err
        if code >= 2:  # every grid row lies in the model's own domain, so none is flagged
            assert err.startswith("error: ") and err.count("\n") == 1, err
        if out.exists():
            text = out.read_text().lower()
            assert "nan" not in text and "inf" not in text
            assert all(row[-2] for row in read_rows(out)[1:] if not row[-1])


@functools.cache
def _custom_model_text():
    """JSON of a 1-d order-4 ``custom`` fit on three of its five tabulated points."""
    table = np.array([[-0.8], [-0.4], [0.0], [0.4], [0.8]])
    features = np.random.default_rng(5).standard_normal((5, 4))
    model = FeatureModel.custom_table(table, features, domain=Domain([-1.0], [1.0]))
    return to_json(fit(model, NodeSet(table[1:4], np.array([1.0, -1.0, 0.5])), 4))


def _refused_doc(case):
    """A model document that loading refuses, with the error it raises: ``(doc,
    type, text)``.  The text is None for the case whose text changed."""
    doc = json.loads(_fitted_model_text("power"))
    if case == "no nodes":
        doc.update(nodes=[], values=[], coefficients=[])
        return doc, DimensionMismatch, None
    if case == "outside the box":
        doc["nodes"][0] = [1.5, 0.2]
        return doc, PointOutsideDomain, "point [1.5, 0.2] outside the domain box"
    if case == "wrong dimension":
        doc["nodes"] = [[-0.5], [0.0], [0.6]]
        return doc, PointOutsideDomain, "point has dimension 1, domain has dimension 2"
    if case == "untabulated":
        doc = json.loads(_custom_model_text())
        doc["nodes"][0] = [0.3]
        return doc, UntabulatedPoint, "point [0.3] is not tabulated"
    doc["domain"] = {"lower": [-1e200, -1e200], "upper": [1e200, 1e200]}
    doc["nodes"][0] = [1e200, 0.2]
    return doc, ValueError, "features overflow at point [1e+200, 0.2]"


REFUSED = ["no nodes", "outside the box", "wrong dimension", "untabulated", "overflow"]


class TestLoadRefusals:
    """Model documents that loading refuses: the same exception, and text,
    whether or not the node Gram is built."""

    @pytest.mark.parametrize("case", REFUSED)
    def test_from_json_raises(self, case):
        doc, kind, text = _refused_doc(case)
        with pytest.raises(kind) as info:
            from_json(json.dumps(doc))
        assert type(info.value) is kind
        if text is not None:
            assert str(info.value) == text

    @pytest.mark.parametrize("case", REFUSED)
    def test_eval_exits_2_with_one_line(self, case, tmp_path):
        doc, _, text = _refused_doc(case)
        model = write(tmp_path / "m.json", json.dumps(doc))
        code, err = _run_in_process(["eval", model, "--grid", "3", "--out", str(tmp_path / "v.csv")])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if text is not None:
            assert err == f"error: {text}\n"
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("path", [("weights",), ("domain", "lower"), ("domain", "upper"),
                                      ("table_points",), ("table_features",)], ids=".".join)
    def test_missing_field_is_named(self, path, tmp_path):
        doc = json.loads(_custom_model_text())
        del (doc["domain"] if path[0] == "domain" else doc)[path[-1]]
        model = write(tmp_path / "m.json", json.dumps(doc))
        code, err = _run_in_process(["eval", model, "--grid", "3", "--out", str(tmp_path / "v.csv")])
        assert (code, err) == (2, f"error: \"interpolant document missing '{'.'.join(path)}'\"\n")


BASE_FILES = {
    "nodes": [["x1", "y"], ["-0.5", "1"], ["0", "2"], ["0.5", "0.5"]],
    "points": [["x1"], ["-1"], ["0.25"], ["0.9"]],
}
BASE_CONFIG = {"order": "4", "truncation": "6", "grid": "5", "node_counts": "2,4"}
BAD_FIELDS = ["", " ", "abc", "nan", "inf", "-inf", "1e400", "0x10", " 1 ",
              "1e200", "-1e200", "1e-300"]
BAD_SETTINGS = {
    "order": ["3", "0", "x", ""], "truncation": ["0", "1", "-1", "x"],
    "grid": ["1", "0", "x"], "node_counts": ["8,4", "4,4", "x", ""],
    "decay": ["nan", "inf", "-1", "0", "1e308", "1e-300"], "tol": ["nan", "-1", "0"],
    "fnorm": ["nan", "inf", "-1"], "seed": ["-1", "x"], "kernel": ["trig", "custom", "x"],
    "domain": ["-1e200:1", "-1:1e200", "1:-1", "0:inf", "x", "-1:1,-1:1", "-1:0:1"],
}


@st.composite
def mutated_csv_inputs(draw):
    """(which file, its text): one header, cell, field, row or setting changed."""
    target = draw(st.sampled_from(["nodes", "points", "config"]))
    if target == "config":
        cfg = dict(BASE_CONFIG)
        kind = draw(st.sampled_from(["setting", "unknown_key", "no_equals", "bom"]))
        if kind == "setting":
            key = draw(st.sampled_from(sorted(BAD_SETTINGS)))
            cfg[key] = draw(st.sampled_from(BAD_SETTINGS[key]))
        lines = [f"{key} = {value}" for key, value in cfg.items()]
        if kind == "unknown_key":
            lines.append("bogus = 1")
        elif kind == "no_equals":
            lines.append("order 4")
        text = "\n".join(lines) + "\n"
        return target, "\ufeff" + text if kind == "bom" else text
    rows = [list(row) for row in BASE_FILES[target]]
    width = len(rows[0])
    row = draw(st.integers(1, len(rows) - 1))
    cell = draw(st.integers(0, width - 1))
    kind = draw(st.sampled_from(["bom", "header_spaces", "header_name", "field", "extra_cell",
                                 "missing_cell", "blank_line", "duplicate", "near"]))
    if kind == "header_spaces":
        rows[0] = [f" {name} " for name in rows[0]]
    elif kind == "header_name":
        rows[0][cell] = draw(st.sampled_from(["X1", "x0", "x2", "y", "", "x 1"]))
    elif kind == "field":
        rows[row][cell] = draw(st.sampled_from(BAD_FIELDS))
    elif kind == "extra_cell":
        rows[draw(st.integers(0, len(rows) - 1))].append(draw(st.sampled_from(["", "1"])))
    elif kind == "missing_cell":
        del rows[row][cell]
    elif kind == "blank_line":
        rows.insert(row, [])
    elif kind in ("duplicate", "near"):
        copy = list(rows[row])
        if kind == "near":
            copy[0] = repr(float(copy[0]) + draw(st.sampled_from([1e-13, 1e-11])))
        rows.append(copy)
    text = _csv_text(rows)
    return target, "\ufeff" + text if kind == "bom" else text


def _csv_text(rows):
    return "\n".join(map(",".join, rows)) + "\n"


def _assert_eval_output_clean(path):
    """Coordinates filled; exactly one of the value and the flag is blank."""
    for row in read_rows(path)[1:]:
        assert all(row[:-2]) and bool(row[-2]) != bool(row[-1]), row


@functools.cache
def _base_model_text():
    """Model JSON of ``fit`` on the base nodes with the base config."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        nodes = write(tmp / "n.csv", _csv_text(BASE_FILES["nodes"]))
        assert main(["fit", nodes, "--order", "4", "--truncation", "6",
                     "--out", str(tmp / "m.json")]) == 0
        return (tmp / "m.json").read_text()


@settings(max_examples=25)
@given(case=mutated_csv_inputs())
@example(case=("nodes", "x1,y\n1e200,1\n0,2\n0.5,0.5\n"))
@example(case=("config", "order = 4\ntruncation = 6\ngrid = 5\nnode_counts = 2,4\n"
                         "domain = -1e200:1\n"))
def test_mutated_csv_inputs_end_in_a_documented_exit(case):
    target, text = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {name: _csv_text(rows) for name, rows in BASE_FILES.items()}
        files["config"] = "".join(f"{key} = {value}\n" for key, value in BASE_CONFIG.items())
        files[target] = text
        paths = {name: write(tmp / f"{name}.txt", body) for name, body in files.items()}
        model = write(tmp / "m.json", _base_model_text())
        config = ["--config", paths["config"]]
        runs = {
            "nodes": [(["fit", paths["nodes"], "--out", str(tmp / "o.json"), *config],
                       [tmp / "o.json", tmp / "o.json.report.json"]),
                      (["power", paths["nodes"], "--out", str(tmp / "p.csv"), *config],
                       [tmp / "p.csv"])],
            "points": [(["eval", model, "--points", paths["points"],
                         "--out", str(tmp / "v.csv")], [])],
            "config": [(["eval", model, "--out", str(tmp / "v.csv"), *config], []),
                       (["study", "--out", str(tmp / "s.csv"), *config], [tmp / "s.csv"])],
        }
        if target != "config":
            for expect_values, allow_empty in [(False, False), (True, False), (False, True)]:
                assert_read_alike(paths[target], expect_values, allow_empty)
        for argv, outputs in runs[target] + (runs["nodes"] if target == "config" else []):
            with warnings.catch_warnings():
                # a study with more nodes than features is consistent (criterion 10)
                warnings.simplefilter("ignore", SingularDesignWarning)
                code, err = _run_in_process(argv)
            assert code in range(6), argv
            assert "Traceback" not in err
            if 2 <= code <= 4:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            _assert_clean_outputs(outputs)
        if (tmp / "v.csv").exists():
            _assert_eval_output_clean(tmp / "v.csv")
