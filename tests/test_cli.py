"""Command surface: records, formats, exit codes, sweep semantics."""

from __future__ import annotations

import ast
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
from mellinium.cli import _json_scalar, run

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

    @pytest.mark.parametrize(
        "n, distance, want",
        [("3", "1e200", 1e-200), ("2", "1e300", -2.0 * math.log(1e300))],
        ids=["n3", "n2"],
    )
    def test_greens_far_apart(self, capsys, n, distance, want):
        # the squared distance is past the float range; the value is not
        code, recs = run_lines(capsys, ["greens", "--n", n, "--distance", distance])
        assert code == 0
        assert recs[0]["value"][0] == pytest.approx(want, rel=1e-15)

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
        # the corpus parameters are inputs too: another beta, another record
        code, other = run_lines(
            capsys, ["asymptotic", "--fn", "exp_decay", "--beta", "2", "--x", "0.1", "--terms", "4"]
        )
        assert (recs[0]["inputs"]["beta"], other[0]["inputs"]["beta"]) == ("1", "2")
        assert recs[0]["inputs"] != other[0]["inputs"]

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


    def test_dense_operator_records_are_the_spectrum_map(self, capsys, tmp_path):
        # R diag(1e-3, 1e3) R^T: read back from the assembled matrix, the
        # power at eigenvalue 1000 was 1.1e-5 off and the resolvent 4.2e-6
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        matrix = (rot * np.array([1e-3, 1e3])) @ rot.T
        matrix = (matrix + matrix.T) / 2.0
        path = tmp_path / "op.txt"
        path.write_text("2\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in matrix))
        z = mpmath.mpf(-1e-3)
        maps = [
            (["power", "--alpha", "2"], lambda e: mpmath.exp(-2 * mpmath.log(e))),
            (["resolvent", "--alpha", "2", "--z=-1e-3,0"], lambda e: (e - z) ** -2),
            (["log"], lambda e: -mpmath.log(e)),
        ]
        eps = np.finfo(float).eps
        with mpmath.workdps(30):
            for argv, scalar in maps:
                code, recs = run_lines(capsys, [*argv, "--matrix", str(path)])
                assert code == 0 and len(recs) == 2
                for rec in recs:
                    want = scalar(mpmath.mpf(float(rec["inputs"]["eigenvalue"])))
                    assert abs(complex(*rec["value"]) - want) <= 8 * eps * abs(want), (argv, rec)

    def test_convolution_with_a_jump_within_estimate(self, capsys):
        # x^(1/2) on (0, 1], zero beyond, times e^-x: transform 2/3 at alpha 1
        argv = ["convolve", "--kind", "mult", "--fn", "power_log", "--k", "0",
                "--fn2", "exp_decay", "--alpha", "1"]
        code, recs = run_lines(capsys, argv)
        assert code == 0
        assert abs(complex(*recs[0]["value"]) - 2.0 / 3.0) <= recs[0]["error_estimate"]


class TestLayering:
    def test_cli_imports_no_private_library_name(self):
        # the CLI formats what the library's public routes return; any
        # import inside the package is relative or names mellinium
        cli = Path(__file__).resolve().parents[1] / "src" / "mellinium" / "cli.py"
        private = [
            f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(cli.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "mellinium")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []


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

    def test_flag_the_function_does_not_take(self, capsys):
        assert run(["transform", "--fn", "exp_decay", "--k", "3", "--alpha", "1"]) == 1
        assert "--k " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["strip", "--fn", "bose", "--rel-tol", "1e-8"],
            ["det", "--spectrum", "2,3", "--alpha", "1", "--abs-tol", "1e-10"],
            ["power", "--spectrum", "2,3", "--alpha", "1", "--abs-tol", "-1"],
            ["resolvent", "--spectrum", "2,3", "--z=-1,0", "--alpha", "1", "--rel-tol", "0"],
            ["log", "--spectrum", "2,3", "--abs-tol", "1e-10"],
            ["asymptotic", "--fn", "exp_decay", "--x", "0.1", "--rel-tol", "1e-8"],
            ["log", "--spectrum", "2,3", "--winding", "1"],
            ["key-check", "--spectrum", "1", "--alpha", "2", "--winding", "1"],
        ],
        ids=["strip", "det", "power", "resolvent", "log", "asymptotic", "log-winding", "key-check-winding"],
    )
    def test_flag_the_command_does_not_read(self, capsys, argv):
        # a flag the command would ignore is a usage error, not a silent no-op
        assert run(argv) == 1
        assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err

    def test_numerical_failure(self, capsys):
        assert run(["transform", "--fn", "exp_decay", "--alpha", "-1"]) == 2
        capsys.readouterr()

    def test_overflowing_gamma_in_a_closed_transform(self, capsys):
        # Gamma(200 + it) on the inversion line leaves the float range
        assert run(["invert", "--fn", "exp_decay", "--x", "2", "--c", "200"]) == 2
        assert "ConvergenceDomain" in capsys.readouterr().err

    def test_overflowing_power(self, capsys):
        assert run(["power", "--spectrum", "0.001,2", "--alpha", "200"]) == 2
        assert "ConvergenceDomain" in capsys.readouterr().err

    def test_overflowing_greens_power(self, capsys):
        # |dx|^(2 - n) = 1e600 is past the float range
        assert run(["greens", "--n", "8", "--distance", "1e-100"]) == 2
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
        "argv, what",
        [
            (["det", "--matrix", "{}", "--alpha", "1"], "matrix"),
            (["det", "--spectrum", "2,3", "--regulator", "{}", "--alpha", "1"], "regulator"),
        ],
        ids=["matrix", "regulator"],
    )
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty matrix file"),
            ("2\n1 0\n0 nan\n", "{} entry (1, 1) is (nan+0j), not finite"),
            ("2\ninf 0\n0 1\n", "{} entry (0, 0) is (inf+0j), not finite"),
        ],
        ids=["empty", "nan", "inf"],
    )
    def test_bad_matrix_file_rejected(self, capsys, tmp_path, argv, what, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert run([a.format(path) for a in argv]) == 1
        assert message.format(what) in capsys.readouterr().err

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
            (["transform", "--fn", "exp_decay", "--beta", "0", "--alpha", "1"], "exp_decay needs beta > 0"),
            (["transform", "--fn", "power_log", "--k", "-1", "--alpha", "1"], "power_log needs k >= 0"),
            (["transform", "--fn", "heat_kernel", "--n", "0", "--alpha", "1"], "heat_kernel needs n >= 1"),
            (["transform", "--fn", "exp_decay", "--alpha", "1.5", "--rel-tol", "nan"], "must be finite"),
            (["det", "--spectrum", "1,nan", "--alpha", "1"], "spectrum entry 1 is nan, not finite"),
            (["det", "--spectrum", "1,inf", "--alpha", "1"], "spectrum entry 1 is inf, not finite"),
            (["log", "--spectrum", "2,nan"], "spectrum entry 1 is nan, not finite"),
            (["greens", "--n", "3", "--distance", "nan"], "x_a' entry 0 is nan, not finite"),
        ],
        ids=[
            "alpha-parts", "norm", "spectrum-entry", "spectrum-empty", "grid-bare", "grid-missing",
            "grid-count", "sweep-log", "asymptotic-terms", "asymptotic-fn", "key-check-terms",
            "convolve-fn2", "invert-c", "invert-fn", "exp-beta", "power-log-k", "heat-kernel-n",
            "rel-tol-nan", "det-nan", "det-inf", "log-nan", "greens-nan",
        ],
    )
    def test_usage_error_message(self, capsys, argv, message):
        assert run(argv) == 1
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["det", "--spectrum", "2,3", "--alpha", "nan"], "argument --alpha: expected finite re[,im], got 'nan'"),
            (["zeta", "--alpha", "nan", "--route", "hankel"], "argument --alpha: expected finite re[,im]"),
            (["transform", "--fn", "exp_decay", "--alpha", "1,inf"], "argument --alpha: expected finite re[,im]"),
            (["asymptotic", "--fn", "exp_decay", "--x", "nan"], "x must be positive and finite, got nan"),
            (["asymptotic", "--fn", "exp_decay", "--x", "inf"], "x must be positive and finite, got inf"),
            (["sweep", "transform", "--fn", "exp_decay", "--alpha-grid", "1:nan:2"], "--alpha-grid values must be finite"),
            (["sweep", "transform", "--fn", "exp_decay", "--alpha-grid", "1:2:2,inf"], "--alpha-grid values must be finite"),
            (["transform", "--fn", "exp_decay", "--beta", "inf", "--alpha", "1"], "beta is inf, not finite"),
            (["transform", "--fn", "heat_kernel", "--distance", "inf", "--alpha", "1"], "distance is inf, not finite"),
            (["transform", "--fn", "power_log", "--eps", "inf", "--alpha", "1"], "eps is inf, not finite"),
            (["invert", "--fn", "exp_decay", "--x", "inf"], "x must be positive and finite, got inf"),
        ],
        ids=[
            "det-alpha", "zeta-hankel-alpha", "alpha-imag", "asymptotic-x-nan", "asymptotic-x-inf", "grid-nan",
            "grid-im-inf", "exp-beta-inf", "heat-kernel-distance-inf", "power-log-eps-inf", "invert-x-inf",
        ],
    )
    def test_non_finite_input_refused(self, capsys, argv, message):
        # refused before any record is written, naming the argument; most
        # of these wrote a record holding nan, or 0 +- 0, and exited 0
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("v", [math.nan, -math.inf, [1.0, math.inf]])
    def test_record_refuses_non_finite_floats(self, v):
        # JSON has no nan or inf: a record holding one is refused, not written
        with pytest.raises(ValueError, match="not finite"):
            _json_scalar({"value": v})


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

    @pytest.mark.parametrize(
        "argv, error, results",
        [
            (["zeta", "--route", "hankel", "--alpha-grid", "0.5:1.0:2"], "PoleAtOne", ()),
            (["power", "--spectrum", "0.001,2", "--alpha-grid", "1:200:2"], "ConvergenceDomain", ("index", "eigenvalue")),
            (["transform", "--fn", "exp_decay", "--alpha-grid", "-1:1:2"], "StripViolation", ()),
            (
                ["convolve", "--kind", "mult", "--fn", "exp_decay", "--fn2", "bose", "--alpha-grid", "0.5:2:2"],
                "StripViolation",
                (),
            ),
            (["eta", "--alpha-grid", "-1:1:2"], "StripViolation", ()),
            (["det", "--spectrum", "2,3", "--alpha-grid", "-800:0.5:2"], "ConvergenceDomain", ()),
            (
                ["resolvent", "--spectrum", "2,3", "--z=-5,0", "--alpha-grid", "-900:0.5:2"],
                "ConvergenceDomain",
                ("index", "eigenvalue"),
            ),
            (["reflection", "--alpha-grid", "0.5:1.5:2"], "StripViolation", ("rhs",)),
            (["key-check", "--spectrum", "1,2", "--alpha-grid", "-1:2:2"], "StripViolation", ("lhs", "deviation")),
            # refused operators: a matrix that is not Hermitian, and the spectrum 0,2
            (
                ["power", "--matrix", "{bad}", "--winding", "1", "--alpha-grid", "1:1:1"],
                "NotPositiveDefinite",
                ("index", "eigenvalue"),
            ),
            (
                ["det", "--spectrum", "0,2", "--regulator", "{ok}", "--winding", "1", "--alpha-grid", "1:1:1"],
                "NotPositiveDefinite",
                (),
            ),
            (
                ["resolvent", "--spectrum", "0,2", "--z=-5,0", "--winding", "1", "--alpha-grid", "1:1:1"],
                "NotPositiveDefinite",
                ("index", "eigenvalue"),
            ),
            (
                ["key-check", "--spectrum", "0,2", "--terms", "3", "--alpha-grid", "1:1:1"],
                "NotPositiveDefinite",
                ("lhs", "deviation"),
            ),
        ],
        ids=[
            "zeta", "power", "transform", "convolve", "eta", "det", "resolvent", "reflection", "key-check",
            "power-refused", "det-refused", "resolvent-refused", "key-check-refused",
        ],
    )
    def test_skipped_record_carries_inputs(self, capsys, tmp_path, argv, error, results):
        # the skipped record names its error, then carries a success
        # record's inputs in their order, less the results. A refused
        # operator skips every point; its success record is then that of
        # the accepted twin operator, with the refused spectrum put back.
        files = {"bad": tmp_path / "bad.txt", "ok": tmp_path / "ok.txt"}
        files["bad"].write_text("2\n1 2\n3 4")
        files["ok"].write_text("2\n1 0\n0 3")
        code, recs = run_lines(capsys, ["sweep", *(a.format(**files) for a in argv)])
        assert code == 0
        skipped = [list(r["inputs"].items()) for r in recs if r["skipped"]]
        done = [r["inputs"] for r in recs if not r["skipped"]]
        if not done:
            twin = [{"0,2": "1,2", "{bad}": "{ok}"}.get(a, a).format(**files) for a in argv]
            twin_recs = run_lines(capsys, ["sweep", *twin])[1]
            done = [{k: "0,2" if k == "spectrum" else v for k, v in r["inputs"].items()} for r in twin_recs]
        assert len(skipped) == 1 and done
        assert skipped[0] == [("skipped_error", error)] + [(k, v) for k, v in done[0].items() if k not in results]

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

    def test_library_quick_start(self):
        # the Python block as a reader runs it, with a floating-point warning an error
        block = README.read_text().split("## Library quick start", 1)[1]
        code = block.split("```python\n", 1)[1].split("```", 1)[0]
        env = dict(os.environ)
        src = str(README.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        gamma, scaled, zeta, det = proc.stdout.splitlines()
        value, rest = gamma.split(" ", 1)
        strip, est = rest.rsplit(" ", 1)
        with mpmath.workdps(30):
            want = complex(mpmath.gamma(2.5 + 1j)), complex(mpmath.zeta(0.5))
        assert abs(complex(value) - want[0]) <= float(est) and strip == "<0, inf>"
        assert complex(scaled) == pytest.approx(3.0**-0.7, rel=1e-12)
        value, est = zeta.split(" ")
        assert abs(complex(value) - want[1]) <= float(est)
        assert complex(det) == pytest.approx(1.0 / 6.0, rel=1e-14)
