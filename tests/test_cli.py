import contextlib
import csv
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkinterp import Domain, FeatureModel, NodeSet, evaluate, fit, to_json
from mkinterp.cli import main

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

    def test_truncation_below_n_exits_4(self, tmp_path):
        data = write(tmp_path / "d.csv", "x1,y\n0,1\n0.5,2\n1,3\n")
        code = main(["fit", data, "--out", str(tmp_path / "o.json"),
                     "--truncation", "2", "--order", "4"])
        assert code == 4

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

    def test_wrong_dimension_flags_every_row(self, fitted_paths):
        _, out, tmp = fitted_paths
        pts = write(tmp / "pts.csv", "x1,x2\n0,0\n0.5,0.5\n")
        result = tmp / "vals.csv"
        assert main(["eval", str(out), "--points", pts, "--out", str(result)]) == 5
        rows = read_rows(result)
        assert rows[0] == ["x1", "s", "flag"]
        assert [r[-1] for r in rows[1:]] == ["outside_domain"] * 2

    def test_empty_points_file_of_other_dimension(self, fitted_paths):
        _, out, tmp = fitted_paths
        pts = write(tmp / "empty.csv", "x1,x2\n")
        result = tmp / "vals.csv"
        assert main(["eval", str(out), "--points", pts, "--out", str(result)]) == 0
        assert read_rows(result) == [["x1", "s", "flag"]]

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
}


def fit_3node_model(tmp_path):
    model = tmp_path / "m.json"
    assert main(["fit", write(tmp_path / "d.csv", DATA_3ROW), "--out", str(model),
                 "--order", "4", "--truncation", "6"]) == 0
    return model


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_model_or_unwritable_output_exits_2(tmp_path, capsys, case):
    model = fit_3node_model(tmp_path)
    capsys.readouterr()
    argv = MALFORMED[case](tmp_path, model)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
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
    """A fitted model document with one field dropped, retyped, changed or resized."""
    doc = json.loads(_fitted_model_text(draw(st.sampled_from(["power", "trig"]))))
    kind = draw(st.sampled_from(["drop", "retype", "number", "resize", "integer"]))
    if kind in ("drop", "retype"):
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
