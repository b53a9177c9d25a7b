"""Tests of the benchmark's references and checker.

    python3 -m pytest bench/test_bench_reference.py -q
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(p) for p in (HERE, HERE.parent / "src") if str(p) not in sys.path]

import reference as ref  # noqa: E402
from ops import TOL_DIRECT, Op, measure  # noqa: E402
from spans import NullTracer  # noqa: E402


def test_known_constants():
    assert ref.zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-15)
    assert ref.eta(1) == pytest.approx(math.log(2), rel=1e-15)
    assert ref.exp_transform(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert ref.reflection(0.5) == pytest.approx(math.pi, rel=1e-15)


def test_closed_forms_agree_with_each_other():
    # the star transform of two unit exponentials is Gamma(a) Gamma(1 - a)
    a = 0.3 + 0.2j
    assert ref.exp_star_transform(a, 1.0, 1.0) == pytest.approx(ref.reflection(a), rel=1e-14)
    # the truncated convolution exponential converges to exp(-zeta_op) where Gamma(alpha) = 1
    spectrum = [1.5, 2.5]
    assert ref.conv_exp_transform(spectrum, 2.0, 40) == pytest.approx(ref.key_lhs(spectrum, 2.0), rel=1e-14)
    assert ref.exp_taylor(0.1, 30) == pytest.approx(math.exp(-0.1), rel=1e-15)
    assert ref.greens(3, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_lanczos_gamma_input_matches_mpmath():
    import workloads

    for z in (0.5, 3.7 + 2j, -0.4 + 0.1j, 0.05 - 6j):
        assert workloads.gamma_fn(z) == pytest.approx(ref.exp_transform(z), rel=1e-13)


def _op(value, expected, fault=""):
    def check(out, reference, tally):
        return ref.close(out, reference, *TOL_DIRECT)

    op = Op("probe", lambda tr: value, lambda: expected, check, fault=fault)
    op.reference = op.expect()
    return op


def test_checker_counts_a_perturbed_value_as_failed():
    exact = ref.zeta(3)
    good = _op(exact, exact)
    perturbed = _op(exact * (1 + 1e-6), exact)
    m = measure([good, perturbed], 0.0, NullTracer())
    assert (m.attempted, m.failed) == (2, 1)
    assert m.unexpected == Counter({"probe": 1})
    assert len(m.latencies_s) == 1


def test_known_fault_is_failed_but_not_unexpected():
    m = measure([_op(float("nan"), 1.0, fault="F0")], 0.0, NullTracer())
    assert (m.attempted, m.failed) == (1, 1)
    assert not m.unexpected


def test_raised_error_counts_as_failed_op():
    def boom(tr):
        raise ArithmeticError("diverged")

    op = Op("raises", boom, lambda: 0.0, lambda out, r, t: True)
    m = measure([op], 0.0, NullTracer(), errors=(ArithmeticError,))
    assert (m.attempted, m.failed) == (1, 1)
    assert m.tally["mellin_core.errors"] == 1
