"""End-to-end exercises of the command line front end.

Every invocation goes through cli.main() in-process, so exit codes,
stdout JSON, stderr diagnostics, and written files can all be asserted
without spawning interpreters. The exceptions compare bytes written at
two BLAS thread counts, which OpenBLAS fixes when it loads, so each count
runs in an interpreter of its own. Paths live under tmp_path
throughout.
"""

import json
import math

import numpy as np
import pytest

from fdbt import (
    FrequencyGrid,
    StateSpace,
    error_system,
    fibt_reduce,
    generate_ladder,
    interval_reduce,
    sweep,
)
from fdbt import cli
from fdbt.errors import DimensionMismatch, InvalidParameters, SingularSylvester
from fdbt.interval import IntervalConfig

from helpers import python_at_threads, random_stable, random_unstable


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def _lowpass():
    # G(s) = 1/(s+1)
    return StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


def _oscillator():
    # poles at +/- 1j, so omega = +/-1 is a grid hazard
    return StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])


def run_cli(capsys, argv):
    """Invoke main() and return (exit_code, stdout_text, stderr_text)."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelFiles:
    def test_round_trip_real_model(self, tmp_path):
        sys = random_stable(21, 4, m=2, p=3)
        path = str(tmp_path / "m.json")
        cli.write_model(path, sys, name="probe")
        loaded, meta = cli.load_model(path)
        for got, want in ((loaded.A, sys.A), (loaded.B, sys.B), (loaded.C, sys.C)):
            assert np.array_equal(got, want)
        assert meta["name"] == "probe"
        assert meta["real"] is True

    def test_round_trip_complex_model(self, tmp_path):
        sys = random_stable(22, 3, complex_entries=True)
        path = str(tmp_path / "m.json")
        cli.write_model(path, sys)
        loaded, meta = cli.load_model(path)
        assert np.array_equal(loaded.A, sys.A)
        assert meta["real"] is False

    def test_dimension_fields_validated(self):
        base = cli.model_to_dict(_lowpass())
        for bad in (0, -1, True, "1", None):
            doc = dict(base)
            doc["n"] = bad
            with pytest.raises(DimensionMismatch):
                cli.model_from_dict(doc)

    def test_matrix_shape_validated(self):
        doc = cli.model_to_dict(random_stable(23, 2))
        doc["A"] = doc["A"][:1]  # drop a row
        with pytest.raises(DimensionMismatch, match="must have 2 rows"):
            cli.model_from_dict(doc)
        doc = cli.model_to_dict(random_stable(23, 2))
        doc["A"][1] = doc["A"][1][:1]  # drop an entry of the second row
        with pytest.raises(DimensionMismatch, match="row 1 must have 2 entries"):
            cli.model_from_dict(doc)

    @pytest.mark.parametrize("meta", [[], "plant", 1, None])
    def test_metadata_must_be_an_object(self, meta):
        doc = cli.model_to_dict(_lowpass())
        doc["metadata"] = meta
        with pytest.raises(DimensionMismatch, match="metadata must be a JSON object"):
            cli.model_from_dict(doc)

    def test_entries_must_be_re_im_pairs(self):
        doc = cli.model_to_dict(_lowpass())
        doc["B"][0][0] = 1.0  # bare float instead of a pair
        with pytest.raises(DimensionMismatch):
            cli.model_from_dict(doc)
        doc["B"][0][0] = [1.0, 0.0, 0.0]
        with pytest.raises(DimensionMismatch):
            cli.model_from_dict(doc)

    def test_non_finite_entries_rejected(self):
        doc = cli.model_to_dict(_lowpass())
        doc["A"][0][0] = [math.inf, 0.0]
        with pytest.raises(DimensionMismatch):
            cli.model_from_dict(doc)

    @pytest.mark.parametrize("literal", ["-1" + "0" * 400, "-1e400"], ids=["integer", "exponent"])
    def test_an_entry_beyond_float64_is_refused_as_non_finite(self, capsys, tmp_path, literal):
        # a 401-digit integer is as far out of float64's range as its
        # exponent spelling, and meets the same refusal, not a traceback
        doc = cli.model_to_dict(random_stable(31, 2))
        doc["A"][0][0] = ["ENTRY", 0]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc).replace('"ENTRY"', literal))
        code, out, err = run_cli(capsys, ["bounds", str(path), "--method", "fibt", "--order", "1"])
        assert (code, out) == (2, "") and "Traceback" not in err
        assert json.loads(err) == {
            "error": "dimension-mismatch",
            "message": "matrix A contains non-finite entries",
        }

    def test_document_must_be_object(self):
        with pytest.raises(DimensionMismatch):
            cli.model_from_dict([1, 2, 3])

    def test_load_model_missing_file(self, tmp_path):
        with pytest.raises(InvalidParameters):
            cli.load_model(str(tmp_path / "absent.json"))

    def test_load_model_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidParameters):
            cli.load_model(str(path))


class TestReduce:
    @pytest.fixture()
    def model_file(self, tmp_path):
        sys = random_stable(31, 4)
        path = str(tmp_path / "plant.json")
        cli.write_model(path, sys, name="plant")
        return path, sys

    def test_fibt_happy_path(self, capsys, tmp_path, model_file):
        path, sys = model_file
        out = str(tmp_path / "red.json")
        code, stdout, _ = run_cli(
            capsys,
            ["reduce", path, "--method", "fibt", "--order", "2", "--output", out],
        )
        assert code == 0
        payload = json.loads(stdout)
        assert set(payload) == {"method", "r", "bounds", "stable", "warnings"}
        assert payload["method"] == "fibt"
        assert payload["r"] == 2
        assert payload["stable"] is True
        assert payload["bounds"]["ef"] > 0

        reduced, meta = cli.load_model(out)
        direct = fibt_reduce(sys, 2)
        assert meta["name"] == "plant__fibt_r2"
        assert np.array_equal(reduced.A, direct.reduced.A)
        assert np.array_equal(reduced.B, direct.reduced.B)
        assert np.array_equal(reduced.C, direct.reduced.C)
        assert payload["bounds"]["ef"] == pytest.approx(direct.bounds["ef"], rel=0)

    def test_reruns_are_byte_identical(self, capsys, tmp_path, model_file):
        path, _ = model_file
        argv = ["reduce", path, "--method", "sf-fdbt", "--order", "2",
                "--epsilon", "2.0", "--varpi", "0.5"]
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        code_a, stdout_a, _ = run_cli(capsys, argv + ["--output", out_a])
        code_b, stdout_b, _ = run_cli(capsys, argv + ["--output", out_b])
        assert code_a == code_b == 0
        assert stdout_a == stdout_b
        with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
            assert fa.read() == fb.read()

    @pytest.mark.parametrize("order", ["0", "4", "-1"])
    def test_order_must_be_strictly_inside(self, capsys, tmp_path, model_file, order):
        path, _ = model_file
        out = str(tmp_path / "red.json")
        code, _, stderr = run_cli(
            capsys,
            ["reduce", path, "--method", "fibt", "--order", order, "--output", out],
        )
        assert code == 2
        diag = json.loads(stderr)
        assert diag["error"] == "invalid-parameters"
        assert "--order" in diag["message"]

    @pytest.mark.parametrize(
        "extra, needle",
        [
            (["--method", "sf-fdbt", "--varpi", "0.5"], "--epsilon"),
            (["--method", "sf-fdbt", "--epsilon", "2.0"], "--varpi"),
            (["--method", "gspa"], "--rho"),
            (["--method", "spa", "--rho", "0.5"], "--rho"),
            (["--method", "int-fdbt", "--w2", "1.0"], "--w1"),
            (["--method", "int-fdbt", "--w1", "-1.0"], "--w2"),
            (["--method", "int-fdbt", "--w1", "1.0", "--w2", "0.5"], "w1 < w2"),
            (["--method", "fibt", "--symmetrize"], "--symmetrize"),
            (["--method", "gspa", "--rho", "-1.0"], "rho must be finite"),
            (["--method", "gspa", "--rho", "nan"], "rho must be finite"),
        ],
    )
    def test_flag_requirements_fail_validation(
        self, capsys, tmp_path, model_file, extra, needle
    ):
        path, _ = model_file
        out = str(tmp_path / "red.json")
        code, _, stderr = run_cli(
            capsys, ["reduce", path, "--order", "2", "--output", out] + extra
        )
        assert code == 2
        diag = json.loads(stderr)
        assert diag["error"] == "invalid-parameters"
        assert needle in diag["message"]

    @pytest.mark.parametrize("method", ["int-fdbt", "fgbt"])
    @pytest.mark.parametrize("symmetrize", [[], ["--symmetrize"]], ids=["as-given", "symmetrized"])
    @pytest.mark.parametrize("w1, w2", [("1", "0"), ("0.5", "0.5")])
    def test_reversed_band_fails_the_band_rule(
        self, capsys, tmp_path, model_file, method, symmetrize, w1, w2
    ):
        # the band rule reads the flags before --symmetrize mirrors them, so
        # a reversed or empty band is refused even where the mirror is valid
        path, _ = model_file
        out = tmp_path / "red.json"
        code, stdout, stderr = run_cli(
            capsys,
            ["reduce", path, "--method", method, "--order", "2", "--output", str(out),
             "--w1", w1, "--w2", w2] + symmetrize,
        )
        assert code == 2 and stdout == "" and not out.exists()
        diag = json.loads(stderr)
        assert diag["error"] == "invalid-parameters"
        assert diag["message"] == "band needs finite w1 < w2"

    def test_unknown_method_is_a_usage_error(self, capsys, tmp_path, model_file):
        # argparse's choices= and type=int are the only checks of both flags
        path, _ = model_file
        for method, order in (("zeta", "2"), ("fibt", "2.5")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["reduce", path, "--method", method, "--order", order,
                          "--output", str(tmp_path / "r.json")])
            assert exc.value.code == 2
            diag = json.loads(capsys.readouterr().err)
            assert diag["error"] == "usage"

    def test_missing_output_flag_is_a_usage_error(self, capsys, model_file):
        path, _ = model_file
        with pytest.raises(SystemExit) as exc:
            cli.main(["reduce", path, "--method", "fibt", "--order", "2"])
        assert exc.value.code == 2

    def test_numerical_failure_exits_3(self, capsys, tmp_path):
        # int-fdbt needs a Hurwitz plant; an unstable one fails inside the
        # computation, after flag validation has already passed
        path = str(tmp_path / "unstable.json")
        cli.write_model(path, random_unstable(32, 3))
        code, _, stderr = run_cli(
            capsys,
            ["reduce", path, "--method", "int-fdbt", "--order", "1",
             "--w1", "-0.5", "--w2", "0.5", "--output", str(tmp_path / "r.json")],
        )
        assert code == 3
        assert json.loads(stderr)["error"] == "not-hurwitz"

    @pytest.mark.parametrize("seed, epsilon, order", [(33, "1e-3", "6"), (1, "1e-6", "3")])
    def test_sf_fdbt_without_an_ef_bound_still_writes_the_model(
        self, capsys, tmp_path, seed, epsilon, order
    ):
        # the optional ef bound cannot be computed here (a non-Hurwitz
        # truncated substitution, a pole on its estimate's grid): a warning,
        # not a numerical failure
        path, out = str(tmp_path / "plant.json"), tmp_path / "red.json"
        cli.write_model(path, random_stable(seed, 8))
        code, stdout, _ = run_cli(
            capsys,
            ["reduce", path, "--method", "sf-fdbt", "--order", order, "--varpi", "0",
             "--epsilon", epsilon, "--output", str(out)],
        )
        assert code == 0 and out.exists()
        payload = json.loads(stdout)
        assert set(payload["bounds"]) == {"sf"} and payload["stable"] is True
        assert any(w.startswith("ef bound unavailable: ") for w in payload["warnings"])
        reduced, _ = cli.load_model(str(out))
        assert reduced.n == int(order)

    def test_symmetrize_mirrors_the_band(self, capsys, tmp_path, model_file):
        path, sys = model_file
        out = str(tmp_path / "red.json")
        code, stdout, _ = run_cli(
            capsys,
            ["reduce", path, "--method", "int-fdbt", "--order", "2",
             "--w1", "0.2", "--w2", "0.5", "--symmetrize", "--output", out],
        )
        assert code == 0
        direct = interval_reduce(sys, IntervalConfig(-0.5, 0.5), 2)
        payload = json.loads(stdout)
        assert payload["bounds"]["interval"] == direct.bounds["interval"]


class TestBounds:
    """bounds is reduce without the model write: same stdout, stderr and
    exit code, and no file written."""

    @pytest.mark.parametrize(
        "plant, flags, code",
        [
            ("stable", ["--method", "fibt"], 0),
            ("stable", ["--method", "spa"], 0),
            ("stable", ["--method", "gspa", "--rho", "1.5"], 0),
            ("stable", ["--method", "sf-fdbt", "--epsilon", "2.0", "--varpi", "0.5"], 0),
            ("stable", ["--method", "int-fdbt", "--w1", "-0.5", "--w2", "0.5"], 0),
            ("stable", ["--method", "fgbt", "--w1", "-0.5", "--w2", "0.5"], 0),
            # validation: gspa without its --rho
            ("stable", ["--method", "gspa"], 2),
            # numerical: int-fdbt on an unstable plant
            ("unstable", ["--method", "int-fdbt", "--w1", "-0.5", "--w2", "0.5"], 3),
        ],
    )
    def test_matches_reduce_report_without_writing(
        self, capsys, tmp_path, plant, flags, code
    ):
        sys = random_stable(41, 4) if plant == "stable" else random_unstable(32, 3)
        path = str(tmp_path / "plant.json")
        cli.write_model(path, sys)
        argv_tail = [path, "--order", "2"] + flags
        bounds = run_cli(capsys, ["bounds"] + argv_tail)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plant.json"]
        out = str(tmp_path / "red.json")
        reduce = run_cli(capsys, ["reduce"] + argv_tail + ["--output", out])
        assert bounds == reduce
        assert bounds[0] == code
        written = ["plant.json", "red.json"] if code == 0 else ["plant.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == written


class TestNegativeLiterals:
    """A negative float literal is a flag's value in every spelling,
    exponent included, not an option string."""

    @pytest.fixture()
    def model_file(self, tmp_path):
        path = str(tmp_path / "plant.json")
        cli.write_model(path, random_stable(41, 4))
        return path

    def test_exponent_spelling_reads_as_the_plain_one(self, capsys, model_file):
        argv = ["bounds", model_file, "--method", "int-fdbt", "--order", "2", "--w2", "0.5"]
        plain = run_cli(capsys, argv + ["--w1", "-0.5"])
        exponent = run_cli(capsys, argv + ["--w1", "-5e-1"])
        assert plain[0] == 0 and exponent == plain

    def test_negative_rho_is_refused_by_the_rho_rule(self, capsys, model_file):
        code, _, stderr = run_cli(
            capsys, ["bounds", model_file, "--method", "gspa", "--order", "2", "--rho", "-1e-3"]
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "invalid-parameters"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "int-fdbt", "--w1", "-inf", "--w2", "0.5"],
            ["--method", "int-fdbt", "--w1", "inf", "--w2", "0.5"],
            ["--method", "int-fdbt", "--w1", "-Infinity", "--w2", "0.5"],
            ["--method", "gspa", "--rho", "-nan"],
            ["--method", "sf-fdbt", "--varpi", "0", "--epsilon", "-INF"],
        ],
        ids=["w1-minus-inf", "w1-inf", "w1-minus-Infinity", "rho-minus-nan", "epsilon-minus-INF"],
    )
    def test_non_finite_literals_meet_the_parameter_rules(self, capsys, model_file, flags):
        # whatever its sign and spelling, a non-finite value is a value, and
        # the band, rho and epsilon rules refuse it
        code, _, stderr = run_cli(capsys, ["bounds", model_file, "--order", "2", *flags])
        assert code == 2
        assert json.loads(stderr)["error"] == "invalid-parameters"

    def test_sweep_from_a_negative_exponent_literal(self, capsys, tmp_path, model_file):
        out = str(tmp_path / "s.csv")
        code, _, _ = run_cli(
            capsys,
            ["sweep", model_file, "--wmin", "-1e0", "--wmax", "1", "--points", "5",
             "--output", out],
        )
        assert code == 0
        assert open(out).read().splitlines()[1].startswith("-1")


class TestSweep:
    def test_scalar_lowpass_matches_closed_form(self, capsys, tmp_path):
        path = str(tmp_path / "lp.json")
        cli.write_model(path, _lowpass())
        out = str(tmp_path / "lp.csv")
        code, _, _ = run_cli(
            capsys,
            ["sweep", path, "--wmin", "0.0", "--wmax", "4.0",
             "--points", "9", "--output", out],
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "omega,sigma_max"
        assert len(lines) == 10
        for row in lines[1:]:
            w_text, s_text = row.split(",")
            w = float(w_text)
            assert float(s_text) == pytest.approx(1.0 / math.hypot(1.0, w), abs=1e-10)

    def test_error_sweep_of_identical_models_is_zero(self, capsys, tmp_path):
        sys = random_stable(42, 3)
        path = str(tmp_path / "m.json")
        cli.write_model(path, sys)
        out = str(tmp_path / "err.csv")
        code, _, _ = run_cli(
            capsys,
            ["sweep", path, "--reduced", path, "--wmin", "-2.0", "--wmax", "2.0",
             "--points", "21", "--output", out],
        )
        assert code == 0
        rows = open(out).read().splitlines()[1:]
        assert all(float(r.split(",")[1]) <= 1e-12 for r in rows)

    def test_pole_on_grid_rows_become_nan_with_warnings(self, capsys, tmp_path):
        path = str(tmp_path / "osc.json")
        cli.write_model(path, _oscillator())
        out = str(tmp_path / "osc.csv")
        code, _, stderr = run_cli(
            capsys,
            ["sweep", path, "--wmin", "-2.0", "--wmax", "2.0",
             "--points", "5", "--output", out],
        )
        assert code == 0
        warnings = [json.loads(line) for line in stderr.splitlines()]
        assert {w["warning"] for w in warnings} == {"pole-on-grid"}
        assert sorted(w["omega"] for w in warnings) == [-1.0, 1.0]
        rows = open(out).read().splitlines()
        assert "-1.0,NaN" in rows and "1.0,NaN" in rows
        # omega=0 row stays finite: |G(0)| = 1 for this plant
        assert "0.0,1.0" in rows

    def test_grid_validation(self, capsys, tmp_path):
        path = str(tmp_path / "lp.json")
        cli.write_model(path, _lowpass())
        out = str(tmp_path / "x.csv")
        bad = [
            ["--wmin", "1.0", "--wmax", "1.0", "--points", "5"],
            ["--wmin", "0.0", "--wmax", "1.0", "--points", "1"],
            ["--wmin", "0.0", "--wmax", "1.0", "--points", "5", "--log"],
        ]
        for tail in bad:
            code, _, stderr = run_cli(capsys, ["sweep", path, "--output", out] + tail)
            assert code == 2
            assert json.loads(stderr)["error"] == "invalid-parameters"

    def test_output_into_a_missing_directory_exits_2(self, capsys, tmp_path):
        # the write fails after the sweep: main's OSError rule, not a crash
        path = str(tmp_path / "lp.json")
        cli.write_model(path, _lowpass())
        out = tmp_path / "absent" / "x.csv"
        code, stdout, stderr = run_cli(
            capsys,
            ["sweep", path, "--wmin", "-1", "--wmax", "1", "--points", "5",
             "--output", str(out)],
        )
        assert (code, stdout) == (2, "")
        assert stderr.count("\n") == 1
        diag = json.loads(stderr)
        assert diag["error"] == "file-not-found-error"
        assert str(out) in diag["message"]
        assert not out.parent.exists()

    def test_log_grid_runs(self, capsys, tmp_path):
        path = str(tmp_path / "lp.json")
        cli.write_model(path, _lowpass())
        out = str(tmp_path / "log.csv")
        code, _, _ = run_cli(
            capsys,
            ["sweep", path, "--wmin", "0.01", "--wmax", "100.0",
             "--points", "7", "--log", "--output", out],
        )
        assert code == 0
        rows = open(out).read().splitlines()[1:]
        omegas = [float(r.split(",")[0]) for r in rows]
        assert omegas[0] == pytest.approx(0.01) and omegas[-1] == pytest.approx(100.0)
        ratios = [b / a for a, b in zip(omegas, omegas[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


class TestBenchRandom:
    def test_two_runs_write_identical_reports(self, capsys, tmp_path):
        dirs = [str(tmp_path / d) for d in ("one", "two")]
        blobs = []
        for d in dirs:
            code, stdout, _ = run_cli(
                capsys, ["bench", "random", "--count", "2", "--seed", "7", "--out", d]
            )
            assert code == 0
            head = json.loads(stdout)
            assert head["count"] == 2 and head["seed"] == 7 and head["n"] == 4
            name = "experiment_n4_seed7_count2.json"
            assert head["written"].endswith(name)
            with open(head["written"], "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]


class TestBenchExample:
    def test_ex1_bundle_written(self, capsys, tmp_path):
        out = str(tmp_path)
        code, stdout, _ = run_cli(capsys, ["bench", "example", "ex1", "--out", out])
        assert code == 0
        payload = json.loads(stdout)
        assert payload["example"] == "ex1"
        assert payload["assertions"] and all(payload["assertions"].values())
        names = {p.name for p in tmp_path.iterdir()}
        assert {"ex1__summary.json", "ex1__records.json", "ex1__epsilon_sweep.csv"} <= names
        assert any(n.startswith("ex1__error_") for n in names)

    def test_unknown_example_rejected(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, ["bench", "example", "ex9", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "ex9" in json.loads(stderr)["message"]


    def test_bundle_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # ex3 is left out: its error sweeps, through the Gramians, and the
        # fgbt r = 51 verdict move with the thread count (ROADMAP item 8)
        script = (
            "import sys\n"
            "from fdbt.cli import main\n"
            "for name in ('ex1', 'ex2_case1', 'ex2_case2'):\n"
            "    assert main(['bench', 'example', name, '--out', sys.argv[1]]) == 0\n"
        )
        written = []
        for threads in ("1", None):
            out = tmp_path / f"threads-{threads or 'default'}"
            python_at_threads(threads, script, str(out))
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(written[0]) >= 3 * 3
        assert written[0].keys() == written[1].keys()
        for name in written[0]:
            assert written[0][name] == written[1][name], name

    def test_ex3_plant_sweep_bytes_do_not_depend_on_the_blas_thread_count(self):
        # the 201-state ladder's sweep over ex3 case 1's grid, the bundle's
        # response_full, reads one real Schur form whatever the thread count
        script = (
            "import sys\n"
            "from fdbt import FrequencyGrid, generate_ladder, harness, sweep\n"
            "grid = FrequencyGrid.linear(-2.0, 2.0, harness.LADDER_GRID_POINTS)\n"
            "report = sweep(generate_ladder(harness.LADDER_ORDER), grid)\n"
            "sys.stdout.write(report.sigma_max.tobytes().hex())\n"
        )
        swept = [python_at_threads(threads, script) for threads in ("1", None)]
        assert len(swept[0]) == 2 * 8 * 801
        assert swept[0] == swept[1]


class TestBenchLadder:
    def test_small_ladder_artifacts(self, capsys, tmp_path):
        out = str(tmp_path)
        code, stdout, _ = run_cli(
            capsys, ["bench", "ladder", "--order", "5", "--out", out]
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["order"] == 5 and payload["stable"] is True
        assert len(payload["written"]) == 3
        with open(tmp_path / "ladder_5__summary.json") as fh:
            summary = json.load(fh)
        hankel = summary["hankel"]
        assert len(hankel) == 5
        assert all(a >= b for a, b in zip(hankel, hankel[1:]))
        model, meta = cli.load_model(str(tmp_path / "ladder_5.json"))
        assert model.n == 5 and meta["name"] == "ladder-5"
        rows = open(tmp_path / "ladder_5__response.csv").read().splitlines()
        assert rows[0] == "omega,sigma_max" and len(rows) == 802

    def test_even_order_rejected(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, ["bench", "ladder", "--order", "4", "--out", str(tmp_path)]
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "invalid-parameters"


class TestGenLadder:
    def test_written_model_matches_generator(self, capsys, tmp_path):
        out = str(tmp_path / "lad.json")
        code, stdout, _ = run_cli(
            capsys,
            ["gen", "ladder", "--order", "5", "--source-resistance", "2.0",
             "--load-resistance", "3.0", "--capacitance", "0.5",
             "--inductance", "0.7", "--output", out],
        )
        assert code == 0
        assert json.loads(stdout) == {"order": 5, "written": out}
        loaded, _ = cli.load_model(out)
        direct = generate_ladder(5, R=2.0, Rbar=3.0, Cval=0.5, L=0.7)
        assert np.array_equal(loaded.A, direct.A)
        assert np.array_equal(loaded.B, direct.B)
        assert np.array_equal(loaded.C, direct.C)
        assert np.array_equal(loaded.D, direct.D)

    def test_even_order_rejected(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys,
            ["gen", "ladder", "--order", "2", "--output", str(tmp_path / "l.json")],
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "invalid-parameters"


def _raises(*args, **kwargs):
    raise SingularSylvester("injected failure")


@pytest.mark.parametrize(
    "call, argv",
    [
        ("fibt_reduce", ["reduce", "{model}", "--method", "fibt", "--order", "1",
                         "--output", "{out}/r.json"]),
        ("sweep", ["sweep", "{model}", "--wmin", "-1", "--wmax", "1", "--points", "5",
                   "--output", "{out}/s.csv"]),
        ("run_randomized_experiment", ["bench", "random", "--count", "1", "--out", "{out}"]),
        ("reproduce_example", ["bench", "example", "ex1", "--out", "{out}"]),
        ("prepare_standard", ["bench", "ladder", "--order", "3", "--out", "{out}"]),
    ],
    ids=["reduce", "sweep", "bench-random", "bench-example", "bench-ladder"],
)
def test_every_numerical_failure_exits_3(capsys, tmp_path, monkeypatch, call, argv):
    # main's one rule: an FdbtError raised after validation is numerical
    model = str(tmp_path / "m.json")
    cli.write_model(model, random_stable(33, 3))
    monkeypatch.setattr(cli, call, _raises)
    argv = [arg.format(model=model, out=tmp_path) for arg in argv]
    code, stdout, stderr = run_cli(capsys, argv)
    assert (code, stdout) == (3, "")
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {"error": "singular-sylvester", "message": "injected failure"}


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "{model}", "--method", "fgbt", "--order", "2", "--w1=-inf", "--w2", "1"],
        ["bounds", "{model}", "--method", "fgbt", "--order", "2", "--w1", "-1", "--w2", "inf"],
        ["bench", "random", "--n", "3", "--count", "1", "--out", "{out}"],
        ["bench", "random", "--seed", "-1", "--count", "1", "--out", "{out}"],
        ["sweep", "{model}", "--wmin", "-1", "--wmax", "1", "--points", "1",
         "--output", "{out}/s.csv"],
        ["bench", "ladder", "--order", "4", "--out", "{out}"],
        ["gen", "ladder", "--order", "4", "--output", "{out}/l.json"],
        ["bench", "example", "nope", "--out", "{out}"],
        *(
            [command, "{out}/%s.json" % name, *flags]
            for name in ("not-utf8", "deep")
            for command, flags in [
                ("bounds", ["--method", "fibt", "--order", "1"]),
                ("reduce", ["--method", "fibt", "--order", "1", "--output", "{out}/r.json"]),
                ("sweep", ["--wmin", "-1", "--wmax", "1", "--points", "5",
                           "--output", "{out}/s.csv"]),
            ]
        ),
    ],
    ids=["fgbt-w1-inf", "fgbt-w2-inf", "bench-random-n3", "bench-random-seed-negative",
         "sweep-points-1", "bench-ladder-even", "gen-ladder-even", "bench-example-unknown",
         *(f"{command}-{name}" for name in ("not-utf8", "deep")
           for command in ("bounds", "reduce", "sweep"))],
)
def test_every_invalid_input_exits_2(capsys, tmp_path, argv):
    # parseable flags that no computation may start from are validation
    # failures, and so is a model file that is not UTF-8 or nests too deeply
    # for the JSON decoder
    model = str(tmp_path / "m.json")
    cli.write_model(model, random_stable(33, 3))
    (tmp_path / "not-utf8.json").write_bytes(b"\xff\xfe")
    (tmp_path / "deep.json").write_text("[" * 100_000)
    argv = [arg.format(model=model, out=tmp_path) for arg in argv]
    code, stdout, stderr = run_cli(capsys, argv)
    assert (code, stdout) == (2, "")
    assert stderr.count("\n") == 1
    diag = json.loads(stderr)
    assert sorted(diag) == ["error", "message"]
    assert diag["error"] == "invalid-parameters"


class TestPipeline:
    def test_gen_reduce_verify_in_band(self, capsys, tmp_path):
        """Ladder -> int-fdbt through files only, then check the bound holds."""
        plant_path = str(tmp_path / "ladder.json")
        red_path = str(tmp_path / "red.json")
        code, _, _ = run_cli(
            capsys, ["gen", "ladder", "--order", "21", "--output", plant_path]
        )
        assert code == 0
        code, stdout, _ = run_cli(
            capsys,
            ["reduce", plant_path, "--method", "int-fdbt", "--order", "5",
             "--w1", "-0.5", "--w2", "0.5", "--output", red_path],
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["stable"] is True
        assert set(payload["bounds"]) == {"ef", "interval"}

        plant, _ = cli.load_model(plant_path)
        reduced, _ = cli.load_model(red_path)
        band = FrequencyGrid.linear(-0.5, 0.5, 1001)
        report = sweep(error_system(plant, reduced), band, refine=True)
        bound = payload["bounds"]["interval"]
        assert report.peak_value <= bound * (1 + 1e-8)
