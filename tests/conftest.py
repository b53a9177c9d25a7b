"""Shared corpus functions and configuration for the test suite."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from mellinium import MellinFunction

# The CLI processes the tests start (the determinism runs) inherit this, so a
# floating-point warning fails them as pyproject.toml's filters fail one here.
os.environ.setdefault("PYTHONWARNINGS", "error::RuntimeWarning")


def make_exp(beta: float = 1.0) -> MellinFunction:
    """e^(-beta x), fundamental strip <0, inf>."""

    def ev(x):
        arr = np.atleast_1d(np.asarray(x, dtype=complex))
        with np.errstate(over="ignore", under="ignore"):
            out = np.exp(-beta * arr)
        out = np.where(np.isfinite(out), out, 0.0)
        return out if np.ndim(x) else out[0]

    return MellinFunction(ev, 0.0, math.inf, label=f"exp({beta:g})")


def make_power_cutoff(eps: float = 0.5, k: int = 1) -> MellinFunction:
    """x^eps (-log x)^k on (0, 1], zero beyond; strip <-eps, inf>."""

    def ev(x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(arr.shape, dtype=float)
        inside = (arr > 0.0) & (arr <= 1.0)
        xi = arr[inside]
        with np.errstate(divide="ignore"):
            out[inside] = xi**eps * (-np.log(xi)) ** k
        return out if np.ndim(x) else out[0]

    return MellinFunction(ev, -eps, math.inf, label=f"powlog({eps:g},{k})")


def make_self_involutive() -> MellinFunction:
    """x^(-1/2) e^(-(x + 1/x)); fixed point of the involution.

    Substituting x -> 1/x and dividing by x reproduces the function, so
    f* = f exactly. Decays faster than any power at both endpoints.
    """

    def ev(x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(arr.shape, dtype=float)
        pos = arr > 0.0
        xp = arr[pos]
        with np.errstate(over="ignore", under="ignore"):
            vals = xp**-0.5 * np.exp(-(xp + 1.0 / xp))
        out[pos] = np.where(np.isfinite(vals), vals, 0.0)
        return out if np.ndim(x) else out[0]

    return MellinFunction(ev, -math.inf, math.inf, label="selfinv")


def make_rational() -> MellinFunction:
    """x / (1 + x)^3, strip <-1, 2>."""

    def ev(x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = arr / (1.0 + arr) ** 3
        return out if np.ndim(x) else out[0]

    return MellinFunction(ev, -1.0, 2.0, label="rational")


@pytest.fixture
def exp_mf() -> MellinFunction:
    return make_exp(1.0)


@pytest.fixture
def self_involutive_mf() -> MellinFunction:
    return make_self_involutive()
