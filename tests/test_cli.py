"""Command surface: records, formats, exit codes, sweep semantics."""

from __future__ import annotations

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from mellinium import (
    Normalization,
    bose_function,
    fermi_function,
    forward_mellin,
    hankel_mellin,
)
from mellinium.cli import run

RECORD_KEYS = [
    "operation",
    "inputs",
    "alpha",
    "value",
    "error_estimate",
    "strip",
    "normalization",
    "skipped",
]


def run_lines(capsys, argv) -> tuple[int, list[dict]]:
    code = run(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records


class TestRecordSchema:
    def test_key_order_and_types(self, capsys):
        code, recs = run_lines(
            capsys, ["transform", "--fn", "exp_decay", "--alpha", "2"]
        )
        assert code == 0 and len(recs) == 1
        rec = recs[0]
        assert list(rec.keys()) == RECORD_KEYS
        assert rec["operation"] == "transform"
        assert isinstance(rec["inputs"], dict)
        assert rec["alpha"] == [2, 0]
        assert rec["value"][0] == pytest.approx(1.0, rel=1e-9)
        assert rec["strip"] == [0, "inf"]
        assert rec["normalization"] == "haar"
        assert rec["skipped"] is False

    def test_round_trip_serialization(self, capsys):
        code, recs = run_lines(
            capsys, ["transform", "--fn", "exp_decay", "--beta", "2", "--alpha", "1.5"]
        )
        rec = recs[0]
        again = json.loads(json.dumps(rec))
        assert again == rec

    def test_seventeen_digit_floats(self, capsys):
        code, recs = run_lines(
            capsys, ["transform", "--fn", "exp_decay", "--alpha", "0.5"]
        )
        # sqrt(pi) round-trips exactly through the printed digits
        assert recs[0]["value"][0] == pytest.approx(
            math.sqrt(math.pi), rel=1e-15, abs=0.0
        )


class TestSubcommands:
    def test_invert(self, capsys):
        code, recs = run_lines(
            capsys, ["invert", "--fn", "exp_decay", "--x", "2", "--c", "1"]
        )
        assert code == 0
        assert recs[0]["value"][0] == pytest.approx(math.exp(-2.0), abs=1e-8)

    def test_strip_estimate(self, capsys):
        code, recs = run_lines(capsys, ["strip", "--fn", "bose"])
        assert code == 0
        a, b = recs[0]["strip"]
        assert a == pytest.approx(1.0, abs=0.1)
        assert b == "inf"

    def test_convolve_star(self, capsys):
        code, recs = run_lines(
            capsys,
            [
                "convolve",
                "--fn",
                "exp_decay",
                "--fn2",
                "exp_decay",
                "--alpha",
                "0.5",
                "--kind",
                "star",
            ],
        )
        assert code == 0
        assert recs[0]["value"][0] == pytest.approx(math.pi, rel=1e-7)
        assert recs[0]["strip"] == [0, 1]

    def test_zeta_routes(self, capsys):
        code, recs = run_lines(capsys, ["zeta", "--alpha", "2"])
        assert recs[0]["value"][0] == pytest.approx(math.pi**2 / 6.0, rel=1e-9)
        assert recs[0]["normalization"] == "gamma"
        code, recs = run_lines(capsys, ["zeta", "--alpha", "0.5", "--route", "hankel"])
        assert recs[0]["value"][0] == pytest.approx(-1.4603545088095868, rel=1e-9)
        assert recs[0]["normalization"] == "gamma-contour"

    def test_eta(self, capsys):
        code, recs = run_lines(capsys, ["eta", "--alpha", "1"])
        assert recs[0]["value"][0] == pytest.approx(math.log(2.0), rel=1e-9)

    def test_det_spectrum(self, capsys):
        code, recs = run_lines(capsys, ["det", "--spectrum", "2,3", "--alpha", "1"])
        assert recs[0]["value"][0] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_det_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n2+0j 0+0j\n0+0j 3+0j\n")
        code, recs = run_lines(capsys, ["det", "--matrix", str(path), "--alpha", "1"])
        assert code == 0
        assert recs[0]["value"][0] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_det_regulator_file(self, capsys, tmp_path):
        path = tmp_path / "reg.txt"
        path.write_text("2\n1 0\n0 1\n")
        code, recs = run_lines(
            capsys, ["det", "--spectrum", "2,3", "--regulator", str(path), "--alpha", "1"]
        )
        assert code == 0 and len(recs) == 1
        assert recs[0]["inputs"]["regulator"] == str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "--fn", "exp_decay", "--alpha", "1.5", "--norm", "gamma-p:0.5"],
            ["transform", "--fn", "exp_decay", "--alpha", "1.5", "--rel-tol", "1e-8", "--abs-tol", "1e-10"],
            ["zeta", "--route", "hankel", "--alpha", "0.5", "--radius", "0.25"],
        ],
        ids=["gamma-p", "tolerances", "hankel-radius"],
    )
    def test_single_record(self, capsys, argv):
        code, recs = run_lines(capsys, argv)
        assert code == 0 and len(recs) == 1
        if argv[0] == "zeta":
            assert recs[0]["inputs"]["radius"] == "0.25"

    def test_power_emits_one_record_per_eigenvalue(self, capsys):
        code, recs = run_lines(capsys, ["power", "--spectrum", "2,3", "--alpha", "0.5"])
        assert len(recs) == 2
        assert recs[0]["value"][0] == pytest.approx(2.0**-0.5)
        assert recs[1]["value"][0] == pytest.approx(3.0**-0.5)
        assert recs[0]["inputs"]["eigenvalue"] == "2"

    def test_resolvent(self, capsys):
        code, recs = run_lines(
            capsys,
            ["resolvent", "--spectrum", "2,3", "--alpha", "0.5", "--z", "-1"],
        )
        assert recs[0]["value"][0] == pytest.approx(3.0**-0.5)
        assert recs[1]["value"][0] == pytest.approx(0.5)

    def test_log(self, capsys):
        code, recs = run_lines(capsys, ["log", "--spectrum", "2,3"])
        assert recs[0]["value"][0] == pytest.approx(-math.log(2.0), abs=1e-7)

    def test_greens(self, capsys):
        code, recs = run_lines(capsys, ["greens", "--n", "3", "--distance", "1"])
        assert recs[0]["value"][0] == pytest.approx(1.0, abs=1e-12)

    def test_asymptotic_pole_mode(self, capsys):
        code, recs = run_lines(capsys, ["asymptotic", "--fn", "exp_decay", "--terms", "3"])
        assert len(recs) == 3
        coeffs = [r["value"][0] for r in recs]
        assert coeffs == pytest.approx([1.0, -1.0, 0.5])

    def test_asymptotic_residue_mode(self, capsys):
        code, recs = run_lines(
            capsys, ["asymptotic", "--fn", "exp_decay", "--x", "0.1", "--terms", "4"]
        )
        want = 1.0 - 0.1 + 0.005 - 0.1**3 / 6.0
        assert recs[0]["value"][0] == pytest.approx(want, abs=1e-10)

    def test_reflection(self, capsys):
        code, recs = run_lines(capsys, ["reflection", "--alpha", "0.25"])
        want = math.pi / math.sin(math.pi * 0.25)
        assert recs[0]["value"][0] == pytest.approx(want, rel=1e-7)

    def test_key_check(self, capsys):
        code, recs = run_lines(
            capsys, ["key-check", "--spectrum", "1", "--alpha", "2", "--terms", "8"]
        )
        rec = recs[0]
        lhs = complex(*map(float, rec["inputs"]["lhs"].split(",")))
        dev = float(rec["inputs"]["deviation"])
        assert abs(lhs - math.exp(-1.0)) < 1e-10
        assert dev <= rec["error_estimate"]


def _bose_coefficient(rec) -> float:
    # 1/(e^x - 1) = sum_n B_n x^(n-1) / n!
    n = int(float(rec["inputs"]["exponent"])) + 1
    return float(mpmath.bernoulli(n) / mpmath.factorial(n))


def _fermi_coefficient(rec) -> float:
    m = int(float(rec["inputs"]["exponent"]))
    return float(mpmath.taylor(lambda x: 1 / (mpmath.exp(x) + 1), 0, m)[m])


# every corpus function through the CLI: (argv, record count, oracle)
CORPUS_CASES = {
    "transform-exp_decay": (
        ["transform", "--fn", "exp_decay", "--beta", "2", "--alpha", "1.5"],
        1,
        lambda rec: mpmath.gamma(1.5) * mpmath.mpf(2) ** -1.5,
    ),
    "transform-bose": (
        ["transform", "--fn", "bose", "--alpha", "2.5"],
        1,
        lambda rec: mpmath.gamma(2.5) * mpmath.zeta(2.5),
    ),
    "transform-fermi": (
        ["transform", "--fn", "fermi", "--alpha", "1.5,0.5"],
        1,
        lambda rec: mpmath.gamma(1.5 + 0.5j) * mpmath.altzeta(1.5 + 0.5j),
    ),
    "transform-power_log": (
        ["transform", "--fn", "power_log", "--eps", "0.5", "--k", "2", "--alpha", "1"],
        1,
        lambda rec: 2 / mpmath.mpf(1.5) ** 3,
    ),
    "transform-heat_kernel": (
        # int_0^inf e^(-pi d^2 / g) g^(-n/2) g^(alpha-1) dg
        #   = Gamma(n/2 - alpha) (pi d^2)^(alpha - n/2)
        ["transform", "--fn", "heat_kernel", "--n", "3", "--distance", "1.5", "--alpha", "0.5"],
        1,
        lambda rec: mpmath.gamma(1.0) / (mpmath.pi * 2.25),
    ),
    "poles-bose": (["asymptotic", "--fn", "bose", "--terms", "5"], 5, _bose_coefficient),
    "poles-fermi": (["asymptotic", "--fn", "fermi", "--terms", "6"], 6, _fermi_coefficient),
    "poles-power_log": (
        # x^eps (-log x)^k = (-1)^k x^eps (log x)^k near 0
        ["asymptotic", "--fn", "power_log", "--eps", "0.3", "--k", "2"],
        1,
        lambda rec: 1.0,
    ),
    "residues-power_log": (
        # the single pole at -eps carries the whole function
        ["asymptotic", "--fn", "power_log", "--eps", "0.3", "--k", "2", "--x", "0.2"],
        1,
        lambda rec: mpmath.mpf(0.2) ** 0.3 * mpmath.log(0.2) ** 2,
    ),
}


class TestCorpus:
    @pytest.mark.parametrize("case", sorted(CORPUS_CASES))
    def test_corpus_against_oracle(self, capsys, case):
        argv, count, oracle = CORPUS_CASES[case]
        code, recs = run_lines(capsys, argv)
        assert code == 0 and len(recs) == count
        for rec in recs:
            want = complex(oracle(rec))
            got = complex(*rec["value"])
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_power_log_pole_record(self, capsys):
        code, recs = run_lines(
            capsys, ["asymptotic", "--fn", "power_log", "--eps", "0.3", "--k", "2"]
        )
        assert float(recs[0]["inputs"]["exponent"]) == 0.3
        assert recs[0]["inputs"]["log_power"] == "2"

    def test_second_function_takes_every_corpus_flag(self, capsys):
        argv = ["convolve", "--kind", "mult", "--fn", "exp_decay", "--fn2", "heat_kernel"]
        code, recs = run_lines(capsys, argv + ["--n2", "4", "--alpha", "1"])
        assert code == 0 and recs[0]["inputs"]["n2"] == "4"
        # Gamma(1) for e^-x times pi^(1 - n/2) Gamma(n/2 - 1) for the heat kernel
        assert abs(recs[0]["value"][0] - 1.0 / math.pi) <= 1e-12


class TestErrorEstimates:
    @pytest.mark.parametrize(
        "argv, library",
        [
            (
                ["zeta", "--alpha", "0.5", "--route", "hankel"],
                lambda: hankel_mellin(bose_function(), 0.5),
            ),
            (
                ["eta", "--alpha", "2,3"],
                lambda: forward_mellin(fermi_function(), 2 + 3j, Normalization.gamma()),
            ),
        ],
        ids=["zeta-hankel", "eta"],
    )
    def test_record_carries_library_estimate(self, capsys, argv, library):
        code, recs = run_lines(capsys, argv)
        estimate = recs[0]["error_estimate"]
        assert code == 0 and estimate > 0
        assert estimate == library().abs_error_estimate


    def test_log_estimate_bounds_true_error(self, capsys, tmp_path):
        eigs = (0.1, 0.3, 0.9, 1.0, 1.1, 2.0, 7.5, 20.0, 50.0)
        code, recs = run_lines(capsys, ["log", "--spectrum", ",".join(map(str, eigs))])
        assert code == 0 and len(recs) == len(eigs)
        # a dense matrix adds the rounding of its eigenvectors
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        matrix = (q * np.array([0.15, 4.0, 45.0])) @ q.T
        matrix = (matrix + matrix.T) / 2.0
        path = tmp_path / "op.txt"
        path.write_text("3\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in matrix))
        code, more = run_lines(capsys, ["log", "--matrix", str(path)])
        assert code == 0 and len(more) == 3
        for rec in recs + more:
            lam = float(rec["inputs"]["eigenvalue"])
            assert abs(complex(*rec["value"]) + math.log(lam)) <= rec["error_estimate"]


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        # importing scipy.special alone cost about 0.25 s of every CLI start
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        code = "import mellinium.cli, sys; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["no-such-command"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["transform", "--fn", "exp_decay"]) == 1
        capsys.readouterr()

    def test_unknown_corpus_function(self, capsys):
        assert run(["transform", "--fn", "gauss", "--alpha", "1"]) == 1
        capsys.readouterr()

    def test_numerical_failure(self, capsys):
        assert run(["transform", "--fn", "exp_decay", "--alpha", "-1"]) == 2
        capsys.readouterr()

    def test_overflowing_power(self, capsys):
        assert run(["power", "--spectrum", "0.001,2", "--alpha", "200"]) == 2
        assert "ConvergenceDomain" in capsys.readouterr().err

    def test_missing_matrix_file(self, capsys):
        assert run(["det", "--matrix", "/no/such/file", "--alpha", "1"]) == 1
        capsys.readouterr()

    def test_matrix_and_spectrum_exclusive(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1\n2+0j\n")
        code = run(
            ["det", "--matrix", str(path), "--spectrum", "2", "--alpha", "1"]
        )
        assert code == 1
        capsys.readouterr()

    def test_malformed_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1+0j\n")
        assert run(["det", "--matrix", str(path), "--alpha", "1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["det", "--matrix", "{}", "--alpha", "1"], ["det", "--spectrum", "2,3", "--regulator", "{}", "--alpha", "1"]],
        ids=["matrix", "regulator"],
    )
    def test_trailing_matrix_entries_rejected(self, capsys, tmp_path, argv):
        # a 2 x 2 matrix followed by three entries too many
        path = tmp_path / "long.txt"
        path.write_text("2\n2 0\n0 3\n7 7 7\n")
        assert run([a.format(path) for a in argv]) == 1
        assert "expected 4 entries, got 7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["det", "--matrix", "{}", "--alpha", "1"], ["det", "--spectrum", "2,3", "--regulator", "{}", "--alpha", "1"]],
        ids=["matrix", "regulator"],
    )
    @pytest.mark.parametrize("text, d", [("0\n", 0), ("-2\n1 0\n0 1\n", -2)], ids=["zero", "negative"])
    def test_dimension_below_one_rejected(self, capsys, tmp_path, argv, text, d):
        path = tmp_path / "dim.txt"
        path.write_text(text)
        assert run([a.format(path) for a in argv]) == 1
        assert f"dimension {d} must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["transform", "--fn", "exp_decay", "--alpha", "1,2,3"], "expected re[,im]"),
            (["transform", "--fn", "exp_decay", "--alpha", "1", "--norm", "gamma-q"], "unknown normalization"),
            (["det", "--spectrum", "2,x", "--alpha", "1"], "bad spectrum list"),
            (["det", "--spectrum", ",", "--alpha", "1"], "empty spectrum list"),
            (["sweep", "transform", "--fn", "exp_decay", "--alpha-grid"], "needs a value"),
            (["sweep", "transform", "--fn", "exp_decay"], "sweep requires --alpha-grid"),
            (["sweep", "transform", "--fn", "exp_decay", "--alpha-grid", "1:2:0"], "grid count must be >= 1"),
            (["sweep", "log", "--spectrum", "2,3", "--alpha-grid", "1:2:2"], "cannot be swept"),
            (["asymptotic", "--fn", "exp_decay", "--x", "0.1", "--terms", "0"], "--terms must be >= 1"),
            (["asymptotic", "--fn", "heat_kernel", "--x", "0.1"], "no pole map"),
            (["key-check", "--spectrum", "1", "--alpha", "2", "--terms", "-1"], "--terms must be >= 0"),
            (["convolve", "--kind", "mult", "--fn", "exp_decay", "--alpha", "1"], "requires --fn2"),
            (["invert", "--fn", "exp_decay", "--x", "1", "--c", "-1"], "lies outside"),
            (["invert", "--fn", "bose", "--x", "1", "--c", "2"], "no closed transform"),
        ],
        ids=[
            "alpha-parts", "norm", "spectrum-entry", "spectrum-empty", "grid-bare", "grid-missing",
            "grid-count", "sweep-log", "asymptotic-terms", "asymptotic-fn", "key-check-terms",
            "convolve-fn2", "invert-c", "invert-fn",
        ],
    )
    def test_usage_error_message(self, capsys, argv, message):
        assert run(argv) == 1
        assert message in capsys.readouterr().err


class TestSweep:
    def test_grid_values_and_order(self, capsys):
        code, recs = run_lines(
            capsys,
            [
                "sweep",
                "transform",
                "--fn",
                "exp_decay",
                "--beta",
                "2",
                "--alpha-grid",
                "0.5:3:6",
                "--norm",
                "gamma",
            ],
        )
        assert code == 0 and len(recs) == 6
        alphas = [r["alpha"][0] for r in recs]
        assert alphas == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        for r in recs:
            assert r["value"][0] == pytest.approx(2.0 ** -r["alpha"][0], rel=1e-8)

    def test_skip_and_mark(self, capsys):
        code, recs = run_lines(
            capsys,
            [
                "sweep",
                "transform",
                "--fn",
                "exp_decay",
                "--alpha-grid",
                "0:1:3",
            ],
        )
        assert code == 0 and len(recs) == 3
        assert recs[0]["skipped"] is True
        assert recs[0]["value"] is None
        assert recs[0]["inputs"]["skipped_error"] == "StripViolation"
        assert recs[0]["inputs"]["beta"] == "1"
        assert recs[1]["skipped"] is False

    def test_overflowing_power_is_skipped(self, capsys):
        argv = ["sweep", "power", "--spectrum", "0.001,2", "--alpha-grid", "1:200:2"]
        code, recs = run_lines(capsys, argv)
        assert code == 0 and len(recs) == 3
        assert [r["alpha"][0] for r in recs] == [1, 1, 200]
        assert [r["skipped"] for r in recs] == [False, False, True]
        assert recs[2]["inputs"]["skipped_error"] == "ConvergenceDomain"

    def test_imaginary_offset_grid(self, capsys):
        code, recs = run_lines(
            capsys,
            [
                "sweep",
                "transform",
                "--fn",
                "exp_decay",
                "--alpha-grid=1:2:2,0.5",
            ],
        )
        assert code == 0
        assert [r["alpha"] for r in recs] == [[1, 0.5], [2, 0.5]]

    def test_non_sweepable_subcommand(self, capsys):
        assert run(["sweep", "strip", "--alpha-grid", "1:2:2"]) == 1
        capsys.readouterr()

    def test_malformed_grid(self, capsys):
        assert (
            run(
                [
                    "sweep",
                    "transform",
                    "--fn",
                    "exp_decay",
                    "--alpha-grid",
                    "1:2",
                ]
            )
            == 1
        )
        capsys.readouterr()


class TestOutputFormats:
    def test_csv_column_layout(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code = run(["eta", "--alpha", "2", "--out", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["operation", "inputs", "alpha_re", "alpha_im"]
        assert len(lines) == 2

    def test_format_inferred_from_extension(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        run(["zeta", "--alpha", "2", "--out", str(path)])
        assert path.read_text().startswith("operation,")

    def test_explicit_jsonl_to_file(self, capsys, tmp_path):
        path = tmp_path / "r.jsonl"
        run(["zeta", "--alpha", "2", "--out", str(path), "--format", "jsonl"])
        rec = json.loads(path.read_text().splitlines()[0])
        assert rec["operation"] == "zeta"


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self):
        argv = [
            sys.executable,
            "-m",
            "mellinium.cli",
            "sweep",
            "eta",
            "--alpha-grid",
            "0.5:2:4",
        ]
        first = subprocess.run(argv, capture_output=True, check=True).stdout
        second = subprocess.run(argv, capture_output=True, check=True).stdout
        assert first == second and first


README = Path(__file__).resolve().parents[1] / "README.md"
README_PREFIX = "python3 -m mellinium.cli "


class TestReadmeExamples:
    COMMANDS = [line[len(README_PREFIX):] for line in README.read_text().splitlines() if line.startswith(README_PREFIX)]

    def test_examples_found(self):
        assert len(self.COMMANDS) >= 15

    @pytest.mark.parametrize("command", COMMANDS)
    def test_example_runs(self, capsys, command):
        code, recs = run_lines(capsys, shlex.split(command))
        assert code == 0 and recs
