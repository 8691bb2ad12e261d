"""Command-line interface: JSON in, JSON or CSV out, reproducible seeds.

Every command reads one JSON document (``--input`` path or stdin) and
writes one document (``--output`` path or stdout).  Exit status is 0
for a positive result, 2 for a negative verdict that still produced a
report (invalid parameters, infeasible fit, violated equation, empty
fiber), and 1 for malformed input or usage errors.  Commands that draw
random samples require ``--seed`` and promise byte-identical output
for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .algebra import (
    AlgebraParams,
    Perplex,
    PerplexAlgebra,
    TAU_EQ,
    TAU_FIT,
    validate_params,
)
from .approximation import (
    approx_linear_sequence,
    approx_quadratic,
    fit_linear,
    quad_T_matrix,
)
from .calculus import (
    PolyMap,
    derivative_from_partials,
    derivative_polymap,
    gcr_residual,
)
from .errors import PerplexError
from .fibration import critical_values, fiber_cloud, local_triviality_check
from .multivar import PerplexPolyN, gradient, is_critical, loja_scan
from .structure import classify

_STOCHASTIC = {"loja-scan", "fiber-count", "fiber-cloud", "discriminant"}
_KNOWN_TOLS = {"eq", "fit", "critical"}


class CliError(Exception):
    """Usage or input error; maps to exit status 1."""


class _Negative(Exception):
    """Negative verdict carrying its report; maps to exit status 2."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("reason", "negative result"))
        self.payload = payload


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; we reserve that
        raise CliError(message)


def _json_text(payload: dict) -> str:
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise CliError(
            "result is not finite (the computation overflowed or produced NaN)"
        ) from exc


def _csv_text(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join("%.17g" % float(v) for v in row))
    return "\n".join(lines) + "\n"


def _get(data: dict, key: str):
    if key not in data:
        raise CliError(f"input document is missing required key {key!r}")
    return data[key]


def _non_finite(raw):
    """The first number in raw, searched through lists and objects, that is
    not a finite float (NaN, Infinity, 1e400 or an integer past the float
    range), or None."""
    if isinstance(raw, dict):
        raw = list(raw.values())
    if isinstance(raw, list):
        return next((bad for bad in map(_non_finite, raw) if bad is not None), None)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return None if math.isfinite(raw) else raw
        except OverflowError:
            return raw
    return None


def _get_finite(data: dict, key: str):
    """data[key], which must hold finite numbers only."""
    raw = _get(data, key)
    bad = _non_finite(raw)
    if bad is not None:
        raise CliError(f"{key!r} must hold finite numbers only, got {json.dumps(bad)}")
    return raw


def _load_params(data: dict) -> AlgebraParams:
    raw = _get(data, "params")
    try:
        params = AlgebraParams.from_dict(raw)
        [float(v) for v in params.a + params.b]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"could not parse algebra parameters: {exc}") from exc
    if len(params.a) != 3 or len(params.b) != 3:
        raise CliError("parameter triples must each have three entries")
    return params


def _load_algebra(data: dict, tol: float) -> PerplexAlgebra:
    params = _load_params(data)
    report = validate_params(params, tol)
    if not report.valid:
        raise _Negative(
            {"reason": "invalid algebra parameters", "validation": report.to_dict()}
        )
    return PerplexAlgebra(params)


def _load_element(data: dict, key: str) -> Perplex:
    raw = _get(data, key)
    try:
        x = Perplex.from_seq([float(v) for v in raw])
    except (TypeError, ValueError) as exc:
        raise CliError(f"element {key!r} must be a pair of numbers") from exc
    if not all(np.isfinite(x.as_tuple())):
        raise CliError(f"element {key!r} must be finite, got {list(x.as_tuple())}")
    return x


def _load_int(data: dict, key: str, default: int | None = None) -> int:
    raw = _get(data, key) if default is None else data.get(key, default)
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise CliError(f"{key!r} must be an integer, got {json.dumps(raw)}")
    return raw


def _load_float(data: dict, key: str, default: float) -> float:
    raw = data.get(key, default)
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise CliError(f"{key!r} must be a number, got {json.dumps(raw)}")
    try:
        return float(raw)
    except OverflowError as exc:
        raise CliError(f"{key!r} must be finite, got {raw}") from exc


def _load_polymap(data: dict) -> PolyMap:
    try:
        return PolyMap.from_dict(_get_finite(data, "map"))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"could not parse polynomial map: {exc}") from exc


def _load_poly(data: dict) -> PerplexPolyN:
    try:
        return PerplexPolyN.from_dict(_get_finite(data, "poly"))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"could not parse polynomial: {exc}") from exc


def _load_matrix(data: dict) -> np.ndarray:
    raw = _get_finite(data, "J")
    try:
        flat = np.asarray([float(v) for v in raw], dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliError("J must be a flat list [p, r, q, s]") from exc
    if flat.shape != (4,):
        raise CliError("J must have exactly four entries (row-major 2x2)")
    return flat.reshape(2, 2)


def _require_seed(args) -> int:
    if args.seed is None:
        raise CliError(f"command {args.command!r} requires --seed")
    return args.seed


# ---------------------------------------------------------------------------
# command handlers: take (data, args, tols), return (payload_text, status)


def _cmd_validate(data, args, tols):
    params = _load_params(data)
    report = validate_params(params, tols["eq"])
    return _json_text(report.to_dict()), 0 if report.valid else 2


def _cmd_classify(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    return _json_text(classify(alg, tols["eq"]).to_dict()), 0


def _cmd_mul(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    x, y = _load_element(data, "x"), _load_element(data, "y")
    return _json_text({"result": list(alg.mul(x, y).as_tuple())}), 0


def _cmd_inv(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    x = _load_element(data, "x")
    return _json_text({"result": list(alg.inverse(x).as_tuple())}), 0


def _cmd_norm(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    x = _load_element(data, "x")
    return _json_text({"result": float(alg.norm(x))}), 0


def _cmd_conj(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    x = _load_element(data, "x")
    return _json_text({"result": list(alg.conjugate(x).as_tuple())}), 0


def _cmd_pow(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    x = _load_element(data, "x")
    k = _load_int(data, "k")
    return _json_text({"result": list(alg.power(x, k).as_tuple())}), 0


def _cmd_conic(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    return (
        _json_text(
            {
                "zeroDivisorConic": [float(v) for v in alg.zero_divisor_conic()],
                "normCoeffs": [float(v) for v in alg.norm_coeffs],
            }
        ),
        0,
    )


def _cmd_gcr_check(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    m = _load_polymap(data)
    rows = []
    for var in range(m.nvars):
        res = gcr_residual(m, alg, var)
        rows.append(
            {
                "var": var,
                "maxCoeff": float(res.max_coeff),
                "scale": float(res.scale),
                "zero": res.is_zero(tols["eq"]),
            }
        )
    ok = all(r["zero"] for r in rows)
    return _json_text({"residuals": rows, "satisfied": ok}), 0 if ok else 2


def _cmd_derive(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    m = _load_polymap(data)
    if m.nvars != 1:
        raise CliError("derive needs a one-variable map")
    res = gcr_residual(m, alg)
    if not res.is_zero(tols["eq"]):
        raise _Negative(
            {
                "reason": "map is not differentiable for this algebra",
                "maxCoeff": float(res.max_coeff),
                "scale": float(res.scale),
            }
        )
    payload = {"derivative": derivative_polymap(m, alg).to_dict()}
    if "point" in data:
        x = _load_element(data, "point")
        payload["at"] = list(x.as_tuple())
        payload["value"] = list(
            derivative_from_partials(m, alg, x, tols["eq"]).as_tuple()
        )
    return _json_text(payload), 0


def _cmd_fit_linear(data, args, tols):
    result = fit_linear(_load_matrix(data), tols["fit"])
    return _json_text(result.to_dict()), 0 if result.status == "Exact" else 2


def _cmd_approx_linear(data, args, tols):
    mat = _load_matrix(data)
    count = _load_int(data, "count", 5)
    if count < 1:
        raise CliError("count must be a positive integer")
    seq = approx_linear_sequence(mat, count, tols["fit"])
    steps = [
        {
            "J": [float(v) for v in m.reshape(-1)],
            "params": p.to_dict(),
            "distance": float(np.linalg.norm(m - mat, 2)),
        }
        for m, p in seq
    ]
    return _json_text({"status": "Exact", "steps": steps}), 0


def _cmd_fit_quad(data, args, tols):
    m = _load_polymap(data)
    try:
        result = quad_T_matrix(m, tols["fit"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return _json_text(result.to_dict()), 0 if result.status == "Exact" else 2


def _cmd_approx_quad(data, args, tols):
    m = _load_polymap(data)
    eps = _load_float(data, "eps", 1e-3)
    if not math.isfinite(eps):
        raise CliError(f"'eps' must be finite, got {eps}")
    try:
        repaired = approx_quadratic(m, eps, tols["fit"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    dist = max((repaired.u - m.u).max_coeff(), (repaired.v - m.v).max_coeff())
    fit = quad_T_matrix(repaired, tols["fit"])
    return (
        _json_text(
            {
                "repaired": repaired.to_dict(),
                "distance": float(dist),
                "fit": fit.to_dict(),
            }
        ),
        0,
    )


def _load_point(data: dict, nvars: int) -> list[Perplex]:
    raw = _get(data, "point")
    try:
        pts = [Perplex.from_seq([float(v) for v in pair]) for pair in raw]
    except (TypeError, ValueError) as exc:
        raise CliError("point must be a list of coordinate pairs") from exc
    if len(pts) != nvars:
        raise CliError(f"point has {len(pts)} coordinates, map has {nvars}")
    return pts


def _cmd_grad(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    f = _load_poly(data)
    pts = _load_point(data, f.nvars)
    g = gradient(f, alg, pts)
    return _json_text({"gradient": [list(p.as_tuple()) for p in g]}), 0


def _cmd_critical(data, args, tols):
    alg = _load_algebra(data, tols["eq"])
    f = _load_poly(data)
    pts = _load_point(data, f.nvars)
    report = is_critical(f, alg, pts, tols["critical"])
    return _json_text(report.to_dict()), 0


def _cmd_loja_scan(data, args, tols):
    seed = _require_seed(args)
    alg = _load_algebra(data, tols["eq"])
    f = _load_poly(data)
    r_min = _load_float(data, "rMin", 1e-6)
    r_max = _load_float(data, "rMax", 1e-1)
    samples = _load_int(data, "samples", 10000)
    fit = loja_scan(f, alg, r_min, r_max, samples, seed)
    return _json_text(fit.to_dict()), 0


def _cmd_fiber_count(data, args, tols):
    seed = _require_seed(args)
    alg = _load_algebra(data, tols["eq"])
    f = _load_poly(data)
    report = local_triviality_check(
        f,
        alg,
        eta=_load_float(data, "eta", 0.05),
        epsilon=_load_float(data, "epsilon", 1.0),
        probes_per_component=_load_int(data, "probes", 8),
        seed=seed,
    )
    payload = report.to_dict()
    payload["counts"] = [c.majority for c in report.components]
    ok = report.consistent and all(c.constant for c in report.components)
    return _json_text(payload), 0 if ok else 2


def _cmd_fiber_cloud(data, args, tols):
    seed = _require_seed(args)
    alg = _load_algebra(data, tols["eq"])
    f = _load_poly(data)
    c = _load_element(data, "c")
    cloud = fiber_cloud(
        f,
        alg,
        c,
        epsilon=_load_float(data, "epsilon", 1.0),
        cloud_size=_load_int(data, "cloudSize", 4096),
        seed=seed,
    )
    print(_json_text(cloud.to_dict()), end="", file=sys.stderr)
    return _csv_text("x11,x12,x21,x22", cloud.points), 0


def _cmd_discriminant(data, args, tols):
    seed = _require_seed(args)
    alg = _load_algebra(data, tols["eq"])
    f = _load_poly(data)
    disc = critical_values(
        f,
        alg,
        epsilon=_load_float(data, "epsilon", 1.0),
        eta=_load_float(data, "eta", 0.05),
        seed=seed,
    )
    return _csv_text("c1,c2", disc), 0


_HANDLERS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "mul": _cmd_mul,
    "inv": _cmd_inv,
    "norm": _cmd_norm,
    "conj": _cmd_conj,
    "pow": _cmd_pow,
    "conic": _cmd_conic,
    "gcr-check": _cmd_gcr_check,
    "derive": _cmd_derive,
    "fit-linear": _cmd_fit_linear,
    "approx-linear": _cmd_approx_linear,
    "fit-quad": _cmd_fit_quad,
    "approx-quad": _cmd_approx_quad,
    "grad": _cmd_grad,
    "critical": _cmd_critical,
    "loja-scan": _cmd_loja_scan,
    "fiber-count": _cmd_fiber_count,
    "fiber-cloud": _cmd_fiber_cloud,
    "discriminant": _cmd_discriminant,
}


def _parse_tols(entries) -> dict[str, float]:
    tols = {"eq": TAU_EQ, "fit": TAU_FIT, "critical": 1e-9}
    for entry in entries or []:
        name, sep, value = entry.partition("=")
        if not sep:
            raise CliError(f"--tol needs name=value, got {entry!r}")
        if name not in _KNOWN_TOLS:
            known = ", ".join(sorted(_KNOWN_TOLS))
            raise CliError(f"unknown tolerance {name!r} (known: {known})")
        try:
            num = float(value)
        except ValueError as exc:
            raise CliError(f"tolerance {name!r} has non-numeric value") from exc
        if not num > 0:
            raise CliError(f"tolerance {name!r} must be positive")
        tols[name] = num
    return tols


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="perplex",
        description="plane algebra toolkit: JSON in, JSON or CSV out",
    )
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("--input", help="input JSON path (default: stdin)")
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, help="seed for stochastic commands")
    parser.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="tolerance override; names: eq, fit, critical",
    )
    return parser


def _read_input(path: str | None) -> dict:
    try:
        if path is None:
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read input: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("input document must be a JSON object")
    return data


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        tols = _parse_tols(args.tol)
        data = _read_input(args.input)
        try:
            text, status = _HANDLERS[args.command](data, args, tols)
        except _Negative as exc:
            text, status = _json_text(exc.payload), 2
        except PerplexError as exc:
            payload = {"reason": str(exc), "error": type(exc).__name__}
            text, status = _json_text(payload), 2
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _write_output(args.output, text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
