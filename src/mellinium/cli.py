"""Command-line front end emitting deterministic JSON-line records.

Every subcommand evaluates one operation on a built-in corpus function
or a user-supplied operator and writes one record per evaluation point:

    {"operation": ..., "inputs": {...}, "alpha": [re, im],
     "value": [re, im], "error_estimate": ..., "strip": [a, b],
     "normalization": ..., "skipped": false}

Floats are rendered with %.17g so identical argv on an identical build
produces byte-identical output. Infinite strip endpoints appear as the
strings "-inf" and "inf"; alpha and value are null where an operation
has no natural evaluation point or was skipped.

Exit codes: 0 success, 1 usage or validation error, 2 numerical
failure (any engine error).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .applications import CORPUS, HeatKernelProblem, eta_value, gamma_reflection, greens_function, zeta_value
from .asymptotics import SingularExpansion, asymptotic_from_singular, residue_asymptotics
from .errors import MelliniumError
from .mellin_core import DEFAULT_CONFIG, HankelContourSpec, Normalization
from .mellin_core import forward_mellin, infer_strip, inverse_mellin
from .operator_calculus import OperatorSpec, PhaseConvention, Regulator, complex_power
from .operator_calculus import functional_determinant, functional_log, key_identity_check, resolvent
from .strip_algebra import induced_strip, mult_convolve, star_convolve

__all__ = ["run", "main"]


# ---------------------------------------------------------------------------
# corpus functions and declared strips
# ---------------------------------------------------------------------------


# every corpus parameter, with the default that types its flag
_CORPUS_PARAMS = {key: default for e in CORPUS.values() for key, default in e.defaults.items()}


def _params(ns, suffix: str = ""):
    """The --fn{suffix} corpus entry and its parameters; a flag it does not take is a ValueError."""
    name = getattr(ns, "fn" + suffix)
    entry = CORPUS[name]
    for key in _CORPUS_PARAMS:
        if key not in entry.defaults and getattr(ns, key + suffix, None) is not None:
            raise ValueError(f"--{key}{suffix} does not apply to --fn{suffix} {name}")
    params = {}
    for key, default in entry.defaults.items():
        given = getattr(ns, key + suffix, None)
        params[key] = default if given is None else given
    return entry, params


def _function(ns, inputs: dict, suffix: str = ""):
    """The --fn{suffix} corpus function; its record inputs go into inputs."""
    entry, params = _params(ns, suffix)
    inputs["fn" + suffix] = getattr(ns, "fn" + suffix)
    for key, v in params.items():
        inputs[key + suffix] = str(v) if isinstance(v, int) else _g(v)
    return entry.build(**params)


def _closed_transform(ns):
    entry, params = _params(ns)
    if entry.transform is None:
        closed = ", ".join(name for name, e in CORPUS.items() if e.transform)
        raise ValueError(f"{ns.fn} has no closed transform; supported: {closed}")
    return entry.transform(**params)


_WHOLE = (-math.inf, math.inf)


def _declared(ns) -> tuple[tuple[float, float], str]:
    """Strip and normalization tag that every record of the command carries.

    Worked out from the arguments alone, so a sweep point that fails
    carries what its record would have carried on success. Commands
    whose pair is fixed declare it with their flags (_add_common);
    strip declares the strip it infers.
    """
    if ns.declared is not None:
        return ns.declared
    if ns.command == "zeta":
        return ((1.0, math.inf), "gamma") if ns.route == "realline" else (_WHOLE, "gamma-contour")
    if ns.command == "greens":
        return (-math.inf, 0.5 * ns.n), "haar"
    f = _function(ns, {})
    strip = f.strip
    if ns.command == "convolve":
        strip = induced_strip(f, _function(ns, {}, "2"), star=ns.kind == "star")
    norm = ns.norm.name() if hasattr(ns, "norm") else "haar"
    return ((strip.a, strip.b) if strip else _WHOLE), norm


# ---------------------------------------------------------------------------
# record construction and serialization
# ---------------------------------------------------------------------------


def _g(x) -> str:
    return "%.17g" % float(x)


def _strip_entry(v: float):
    if math.isinf(v):
        return "-inf" if v < 0 else "inf"
    return float(v)


def _records(ns, rows, skipped: bool = False) -> list[dict]:
    """Records of (inputs, alpha, value, error estimate) rows of a command."""
    strip, normalization = _declared(ns)
    return [
        {
            "operation": ns.command,
            "inputs": inputs,
            "alpha": None if alpha is None else [float(alpha.real), float(alpha.imag)],
            "value": None if value is None else [float(value.real), float(value.imag)],
            "error_estimate": float(err),
            "strip": [_strip_entry(strip[0]), _strip_entry(strip[1])],
            "normalization": normalization,
            "skipped": skipped,
        }
        for inputs, alpha, value, err in rows
    ]


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"a record field is {v}, not finite")
        return _g(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_scalar(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_scalar(x)}" for k, x in v.items()) + "}"
    raise TypeError(f"unserializable field {v!r}")


_CSV_COLUMNS = (
    "operation", "inputs", "alpha_re", "alpha_im", "value_re", "value_im",
    "error_estimate", "strip_a", "strip_b", "normalization", "skipped",
)


def _csv_cell(v) -> str:
    return "" if v is None else v if isinstance(v, str) else _json_scalar(v)


def _emit(records: list[dict], out: str, fmt: str | None) -> None:
    if fmt is None:
        fmt = "csv" if out != "-" and out.endswith(".csv") else "jsonl"
    if fmt == "jsonl":
        text = "".join(_json_scalar(rec) + "\n" for rec in records)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for rec in records:
            cells = (
                *(rec["alpha"] or (None, None)),
                *(rec["value"] or (None, None)),
                rec["error_estimate"],
                *rec["strip"],
                rec["normalization"],
                rec["skipped"],
            )
            writer.writerow(
                [rec["operation"], _json_scalar(rec["inputs"]), *map(_csv_cell, cells)]
            )
        text = buf.getvalue()
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected re[,im], got {text!r}")
    z = complex(*map(float, parts))
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected finite re[,im], got {text!r}")
    return z


def _parse_norm(text: str) -> Normalization:
    """The inverse of Normalization.name()."""
    kind, colon, p = text.strip().lower().partition(":")
    if kind == "gamma-p" and colon:
        return Normalization.gamma_p(float(p))
    if kind in ("haar", "gamma", "gamma-contour", "gamma-eta") and not colon:
        return Normalization(kind.replace("-", "_"))
    raise argparse.ArgumentTypeError(f"unknown normalization {text!r}")


def _parse_spectrum(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad spectrum list: {exc}") from None
    if not vals:
        raise argparse.ArgumentTypeError("empty spectrum list")
    return vals


def _read_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"empty matrix file {path}")
    d = int(tokens[0])
    if d < 1:
        raise ValueError(f"matrix file {path}: dimension {d} must be at least 1")
    need = d * d
    entries = tokens[1:]
    if len(entries) != need:
        raise ValueError(f"matrix file {path}: expected {need} entries, got {len(entries)}")
    vals = [complex(tok) for tok in entries]
    return np.asarray(vals, dtype=complex).reshape(d, d)


def _add_fn_flags(sp, suffix: str = "") -> None:
    """--fn{suffix}, and one flag per corpus parameter typed by its default."""
    sp.add_argument("--fn" + suffix, choices=tuple(CORPUS), required=(suffix == ""))
    for key, default in _CORPUS_PARAMS.items():
        sp.add_argument(f"--{key}{suffix}", type=type(default), default=None)


def _add_common(sp, handler, declared=None, with_alpha=True, with_norm=False, with_tol=True) -> None:
    """The command's handler, its fixed (strip, normalization) if any, and common flags.

    A command that takes --alpha can be swept; one that runs no
    quadrature takes no --rel-tol or --abs-tol.
    """
    sp.set_defaults(handler=handler, declared=declared)
    if with_alpha:
        sp.add_argument("--alpha", type=_parse_complex, default=None, help="re[,im]")
    if with_norm:
        sp.add_argument("--norm", type=_parse_norm, default=Normalization.haar())
    if with_tol:
        sp.add_argument("--rel-tol", type=float, default=None)
        sp.add_argument("--abs-tol", type=float, default=None)
    sp.add_argument("--out", default="-")
    sp.add_argument("--format", choices=("jsonl", "csv"), default=None)


def _add_operator_flags(sp, with_winding=True) -> None:
    sp.add_argument("--matrix", default=None, help="path: first line d, then d rows of d complex entries")
    sp.add_argument("--spectrum", type=_parse_spectrum, default=None, help="e1,e2,...")
    if with_winding:
        sp.add_argument("--winding", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mellinium", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("transform", help="forward transform of a corpus function")
    _add_fn_flags(sp)
    _add_common(sp, _do_transform, with_norm=True)

    sp = sub.add_parser("invert", help="invert a closed-form corpus transform at x")
    _add_fn_flags(sp)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--c", type=float, default=1.0, help="contour abscissa")
    _add_common(sp, _do_invert, with_alpha=False)

    sp = sub.add_parser("strip", help="infer the fundamental strip empirically")
    _add_fn_flags(sp)
    _add_common(sp, _do_strip, with_alpha=False, with_tol=False)

    sp = sub.add_parser("convolve", help="transform of a convolution of two corpus functions")
    sp.add_argument("--kind", choices=("mult", "star"), required=True)
    _add_fn_flags(sp)
    _add_fn_flags(sp, suffix="2")
    _add_common(sp, _do_convolve, with_norm=True)

    sp = sub.add_parser("zeta", help="Riemann zeta by the realline or hankel route")
    sp.add_argument("--route", choices=("realline", "hankel"), default="realline")
    sp.add_argument("--radius", type=float, default=None, help="hankel arc radius")
    _add_common(sp, _do_zeta)

    sp = sub.add_parser("eta", help="Dirichlet eta from the Fermi distribution")
    _add_common(sp, _do_eta, ((0.0, math.inf), "gamma"))

    sp = sub.add_parser("det", help="functional determinant of an operator")
    _add_operator_flags(sp)
    sp.add_argument("--regulator", default=None, help="matrix file for the regulator")
    _add_common(sp, _do_det, (_WHOLE, "gamma"), with_tol=False)

    sp = sub.add_parser("power", help="complex power, one record per eigenvalue")
    _add_operator_flags(sp)
    _add_common(sp, _do_power, (_WHOLE, "gamma"), with_tol=False)

    sp = sub.add_parser("resolvent", help="shifted complex power, one record per eigenvalue")
    _add_operator_flags(sp)
    sp.add_argument("--z", type=_parse_complex, required=True, help="re[,im]")
    _add_common(sp, _do_resolvent, (_WHOLE, "gamma"), with_tol=False)

    sp = sub.add_parser("log", help="functional logarithm, one record per eigenvalue")
    _add_operator_flags(sp, with_winding=False)
    _add_common(sp, _do_log, (_WHOLE, "gamma"), with_alpha=False, with_tol=False)

    sp = sub.add_parser("greens", help="free Green's function from the heat kernel")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--distance", type=float, required=True)
    sp.add_argument("--route", choices=("closed", "quadrature"), default="closed")
    _add_common(sp, _do_greens, with_alpha=False)

    sp = sub.add_parser("asymptotic", help="pole map or residue sum of a corpus transform")
    _add_fn_flags(sp)
    sp.add_argument("--x", type=float, default=None, help="evaluate the residue sum at x")
    sp.add_argument("--terms", type=int, default=6)
    _add_common(sp, _do_asymptotic, with_alpha=False, with_tol=False)

    sp = sub.add_parser("reflection", help="both sides of the reflection identity")
    _add_common(sp, _do_reflection, ((0.0, 1.0), "haar"))

    sp = sub.add_parser("key-check", help="zeta exponential vs convolution exponential")
    _add_operator_flags(sp, with_winding=False)
    sp.add_argument("--terms", type=int, default=12)
    _add_common(sp, _do_key_check, ((0.0, math.inf), "haar"))

    return parser


def _cfg(ns):
    cfg = DEFAULT_CONFIG
    if getattr(ns, "rel_tol", None) is not None:
        cfg = replace(cfg, rel_tol=ns.rel_tol)
    if getattr(ns, "abs_tol", None) is not None:
        cfg = replace(cfg, abs_tol=ns.abs_tol)
    return cfg


def _operator(ns, inputs: dict, **flags: str) -> OperatorSpec:
    """The --matrix or --spectrum operator.

    Its record inputs, then the handler's ``flags``, go into inputs
    before the operator is checked, so a refused one's skipped record
    carries them in a success record's order.
    """
    if (ns.matrix is None) == (ns.spectrum is None):
        raise ValueError("provide exactly one of --matrix or --spectrum")
    if ns.matrix is not None:
        m = _read_matrix(ns.matrix)
        inputs.update(source="matrix", dimension=str(m.shape[0]), **flags)
        return OperatorSpec.from_matrix(m)
    inputs.update(source="spectrum", spectrum=",".join(_g(e) for e in ns.spectrum), **flags)
    return OperatorSpec.from_spectrum(ns.spectrum)


# ---------------------------------------------------------------------------
# subcommand handlers: each fills the inputs it is given and returns rows
# ---------------------------------------------------------------------------


def _do_transform(ns, inputs) -> list[tuple]:
    tv = forward_mellin(_function(ns, inputs), ns.alpha, ns.norm, cfg=_cfg(ns))
    return [(inputs, ns.alpha, tv.value, tv.abs_error_estimate)]


def _do_invert(ns, inputs) -> list[tuple]:
    f = _function(ns, inputs)
    T = _closed_transform(ns)
    if not f.strip.contains(complex(ns.c)):
        raise ValueError(f"contour abscissa c={ns.c:g} lies outside {f.strip}")
    value, err = inverse_mellin(T, ns.c, ns.x, _cfg(ns))
    inputs.update(x=_g(ns.x), c=_g(ns.c))
    return [(inputs, None, value, err)]


def _do_strip(ns, inputs) -> list[tuple]:
    st = infer_strip(_function(ns, inputs), np.geomspace(1e-6, 1e6, 61))
    ns.declared = ((st.a, st.b), "haar")
    return [(inputs, None, None, 0.0)]


def _do_convolve(ns, inputs) -> list[tuple]:
    inputs["kind"] = ns.kind
    f = _function(ns, inputs)
    if ns.fn2 is None:
        raise ValueError("convolve requires --fn2")
    h = _function(ns, inputs, "2")
    cfg = _cfg(ns)
    build = mult_convolve if ns.kind == "mult" else star_convolve
    tv = forward_mellin(build(f, h, cfg), ns.alpha, ns.norm, cfg=cfg)
    return [(inputs, ns.alpha, tv.value, tv.abs_error_estimate)]


def _do_zeta(ns, inputs) -> list[tuple]:
    contour = HankelContourSpec(radius=ns.radius) if ns.radius is not None else None
    inputs["route"] = ns.route
    if ns.radius is not None:
        inputs["radius"] = _g(ns.radius)
    tv = zeta_value(ns.alpha, ns.route, _cfg(ns), contour)
    return [(inputs, ns.alpha, tv.value, tv.abs_error_estimate)]


def _do_eta(ns, inputs) -> list[tuple]:
    inputs["route"] = "fermi"
    tv = eta_value(ns.alpha, _cfg(ns))
    return [(inputs, ns.alpha, tv.value, tv.abs_error_estimate)]


def _do_det(ns, inputs) -> list[tuple]:
    flags = {"winding": str(ns.winding)}
    if ns.regulator is not None:
        flags["regulator"] = ns.regulator
    op = _operator(ns, inputs, **flags)
    reg = Regulator(_read_matrix(ns.regulator)) if ns.regulator is not None else None
    value = functional_determinant(op, ns.alpha, PhaseConvention(ns.winding), reg)
    return [(inputs, ns.alpha, value, 0.0)]


def _per_eigenvalue(op, inputs, matrix, alpha, errs=None) -> list[tuple]:
    """One row per eigenvalue of the spectrum-form op: the diagonal of its function matrix.

    errs holds an error estimate per eigenvalue; without it each is 0.
    """
    errs = np.zeros(op.dimension) if errs is None else errs
    return [
        ({**inputs, "index": str(i), "eigenvalue": _g(eig)}, alpha, complex(val), err)
        for i, (eig, val, err) in enumerate(zip(op.spectrum, np.diag(matrix), errs))
    ]


def _do_power(ns, inputs) -> list[tuple]:
    op = OperatorSpec.from_spectrum(_operator(ns, inputs, winding=str(ns.winding)).spectrum)
    power = complex_power(op, ns.alpha, PhaseConvention(ns.winding))
    return _per_eigenvalue(op, inputs, power, ns.alpha)


def _do_resolvent(ns, inputs) -> list[tuple]:
    z = _g(ns.z.real) + "," + _g(ns.z.imag)
    op = OperatorSpec.from_spectrum(_operator(ns, inputs, winding=str(ns.winding), z=z).spectrum)
    shifted = resolvent(op, ns.z, ns.alpha, PhaseConvention(ns.winding))
    return _per_eigenvalue(op, inputs, shifted, ns.alpha)


def _do_log(ns, inputs) -> list[tuple]:
    op = OperatorSpec.from_spectrum(_operator(ns, inputs).spectrum)
    log, errs = functional_log(op)
    return _per_eigenvalue(op, inputs, log, None, errs)


def _do_greens(ns, inputs) -> list[tuple]:
    inputs.update(n=str(ns.n), distance=_g(ns.distance), route=ns.route)
    problem = HeatKernelProblem(ns.n, (0.0,), (ns.distance,))
    tv = greens_function(problem, ns.route, _cfg(ns))
    return [(inputs, None, tv.value, tv.abs_error_estimate)]


def _do_asymptotic(ns, inputs) -> list[tuple]:
    _function(ns, inputs)
    entry, params = _params(ns)
    if ns.terms < 1:
        raise ValueError("--terms must be >= 1")
    if entry.poles is None:
        raise ValueError(f"no pole map for {ns.fn!r}")
    poles = entry.poles(ns.terms, **params)
    if ns.x is not None:
        T = _closed_transform(ns)
        value = residue_asymptotics(T, [complex(p) for p, _, _ in poles], ns.x, side="zero")
        inputs.update(mode="residues", x=_g(ns.x), terms=str(len(poles)))
        return [(inputs, None, value, 0.0)]
    series = asymptotic_from_singular(SingularExpansion(poles, side="zero"))
    rows = []
    for exponent, log_power, coeff in series.terms:
        ex = complex(exponent).real
        term = {**inputs, "mode": "poles", "exponent": _g(ex), "log_power": str(log_power)}
        rows.append((term, complex(-ex), complex(coeff), 0.0))
    return rows


def _do_reflection(ns, inputs) -> list[tuple]:
    lhs, rhs = gamma_reflection(ns.alpha, _cfg(ns))
    inputs["rhs"] = _g(rhs.real) + "," + _g(rhs.imag)
    return [(inputs, ns.alpha, lhs, abs(lhs - rhs))]


def _do_key_check(ns, inputs) -> list[tuple]:
    op = _operator(ns, inputs, terms=str(ns.terms))
    if ns.terms < 0:
        raise ValueError("--terms must be >= 0")
    lhs, rhs, bound = key_identity_check(op, ns.alpha, ns.terms, _cfg(ns))
    inputs.update(lhs=_g(lhs.real) + "," + _g(lhs.imag), deviation=_g(abs(lhs - rhs)))
    return [(inputs, ns.alpha, rhs, bound)]


# ---------------------------------------------------------------------------
# sweep and entry points
# ---------------------------------------------------------------------------


def _sweep_point(ns, alpha: complex) -> list[dict]:
    """One sweep point's records, or a skipped record with the inputs the handler had filled."""
    ns.alpha, inputs = alpha, {}
    try:
        return _records(ns, ns.handler(ns, inputs))
    except MelliniumError as exc:
        skipped = {"skipped_error": type(exc).__name__, **inputs}
        return _records(ns, [(skipped, alpha, None, 0.0)], skipped=True)


def _split_sweep(rest: list[str]) -> tuple[list[complex], list[str]]:
    """The --alpha-grid points of a sweep, and the subcommand's own argv."""
    grid_spec, inner, tokens = None, [], iter(rest)
    for tok in tokens:
        if tok == "--alpha-grid":
            grid_spec = next(tokens, None)
            if grid_spec is None:
                raise ValueError("--alpha-grid needs a value")
        elif tok.startswith("--alpha-grid="):
            grid_spec = tok.split("=", 1)[1]
        else:
            inner.append(tok)
    if grid_spec is None:
        raise ValueError("sweep requires --alpha-grid re_start:re_stop:count[,im]")
    body, _, im_part = grid_spec.partition(",")
    im = float(im_part) if im_part else 0.0
    parts = body.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be re_start:re_stop:count[,im], got {grid_spec!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not all(map(math.isfinite, (start, stop, im))):
        raise ValueError(f"--alpha-grid values must be finite, got {grid_spec!r}")
    if count < 1:
        raise ValueError("grid count must be >= 1")
    return [complex(re, im) for re in np.linspace(start, stop, count)], inner


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        grid = None
        if argv and argv[0] == "sweep":
            grid, argv = _split_sweep(argv[1:])
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 1
        if grid is None:
            if getattr(ns, "alpha", 0) is None:
                raise ValueError(f"{ns.command} requires --alpha")
            records = _records(ns, ns.handler(ns, {}))
        elif not hasattr(ns, "alpha"):
            raise ValueError(f"{ns.command} takes no --alpha and cannot be swept")
        else:
            records = [rec for alpha in grid for rec in _sweep_point(ns, alpha)]
        _emit(records, ns.out, ns.format)
        return 0
    except MelliniumError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
