"""End-to-end CLI checks through subprocess, including determinism, and the CLI
contract as an in-process property."""

import contextlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perplex import cli

COMPLEX = {"a": [1, 0, -1], "b": [0, 1, 0]}
COMPLEX_FLOAT = {"a": [1.0, 0.0, -1.0], "b": [0.0, 1.0, 0.0]}
HYPERBOLIC = {"a": [1, 0, 1], "b": [0, 1, 0]}
SQUARE_POLY = {"nvars": 1, "terms": [{"exp": [2], "c": [1, 0]}]}
SUM_SQUARES = {
    "nvars": 2,
    "terms": [{"exp": [2, 0], "c": [1, 0]}, {"exp": [0, 2], "c": [1, 0]}],
}


def T(e1, e2, c):
    return {"exp": [e1, e2], "c": c}


def run_cli(command, payload=None, *extra, text_input=None):
    args = [sys.executable, "-m", "perplex", command, *extra]
    if text_input is None:
        text_input = json.dumps(payload)
    proc = subprocess.run(
        args, input=text_input, capture_output=True, text=True, timeout=300
    )
    return proc


def test_classify_complex_params():
    proc = run_cli("classify", {"params": COMPLEX})
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["kind"] == "Field"
    assert data["delta"] == -4.0


def test_validate_failure_reports_condition_and_exit_two():
    proc = run_cli("validate", {"params": {"a": [1, 0, 0], "b": [0, 1, 0]}})
    assert proc.returncode == 2
    data = json.loads(proc.stdout)
    assert not data["valid"]
    assert data["failures"] == ["i"]


def test_validate_good_params():
    proc = run_cli("validate", {"params": HYPERBOLIC})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["branch"] == "standard"


def test_validate_rejects_non_finite_params():
    doc = '{"params": {"a": [NaN, 0, -1], "b": [0, 1, 0]}}'
    proc = run_cli("validate", text_input=doc)
    assert proc.returncode == 2

    def refuse(token):
        raise AssertionError(f"output holds the non-standard JSON token {token}")

    data = json.loads(proc.stdout, parse_constant=refuse)
    assert not data["valid"]
    assert data["failures"] == ["finite"]


def test_arithmetic_commands_match_library():
    from perplex.algebra import AlgebraParams, Perplex, PerplexAlgebra

    alg = PerplexAlgebra(AlgebraParams.from_dict(HYPERBOLIC))
    x, y = Perplex(0.3, -0.7), Perplex(1.1, 0.4)
    base = {"params": HYPERBOLIC, "x": [0.3, -0.7], "y": [1.1, 0.4], "k": 3}
    for cmd, want in (
        ("mul", list(alg.mul(x, y).as_tuple())),
        ("inv", list(alg.inverse(x).as_tuple())),
        ("conj", list(alg.conjugate(x).as_tuple())),
        ("pow", list(alg.power(x, 3).as_tuple())),
        ("norm", float(alg.norm(x))),
    ):
        proc = run_cli(cmd, base)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"] == want


@pytest.mark.parametrize(
    "x, want",
    [
        ([1e308, 0.0], [1e-308, 0.0]),
        ([-1e308, 1e308], [-5e-309, -5e-309]),
        ([3e-300, 4e-300], [1.2e299, -1.6e299]),
    ],
)
def test_inverse_of_huge_and_tiny_elements(x, want):
    proc = run_cli("inv", {"params": COMPLEX, "x": x})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == pytest.approx(want, rel=1e-12)


def test_inverse_of_zero_divisor_is_negative_result():
    proc = run_cli("inv", {"params": HYPERBOLIC, "x": [1, 1]})
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "NotAUnit"


def test_conic_output():
    proc = run_cli("conic", {"params": HYPERBOLIC})
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["normCoeffs"] == [1.0, 0.0, -1.0]


def test_gcr_check_pass_and_fail():
    # identity map is differentiable, conjugation is not
    ident = {"nvars": 1, "u": [T(1, 0, 1.0)], "v": [T(0, 1, 1.0)]}
    conj = {"nvars": 1, "u": [T(1, 0, 1.0)], "v": [T(0, 1, -1.0)]}
    ok = run_cli("gcr-check", {"params": COMPLEX, "map": ident})
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["satisfied"]
    bad = run_cli("gcr-check", {"params": COMPLEX, "map": conj})
    assert bad.returncode == 2
    assert not json.loads(bad.stdout)["satisfied"]


def test_derive_square_map():
    square = {
        "nvars": 1,
        "u": [T(2, 0, 1.0), T(0, 2, -1.0)],
        "v": [T(1, 1, 2.0)],
    }
    proc = run_cli(
        "derive", {"params": COMPLEX, "map": square, "point": [0.5, 0.25]}
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["value"] == [1.0, 0.5]
    du = {tuple(t["exp"]): t["c"] for t in data["derivative"]["u"]}
    assert du == {(1, 0): 2.0}


def test_fit_linear_rotation_and_infeasible():
    good = run_cli("fit-linear", {"J": [0, -1, 1, 0]})
    assert good.returncode == 0
    data = json.loads(good.stdout)
    assert data["status"] == "Exact"
    assert data["params"] == COMPLEX_FLOAT
    bad = run_cli("fit-linear", {"J": [1, 0, 0, -1]})
    assert bad.returncode == 2
    assert "a1*b2 - a2*b1" in json.loads(bad.stdout)["certificate"]


def test_approx_linear_sequence_distances():
    proc = run_cli("approx-linear", {"J": [1, 0, 0, -1], "count": 3})
    assert proc.returncode == 0
    steps = json.loads(proc.stdout)["steps"]
    assert len(steps) == 3
    for k, step in enumerate(steps, start=1):
        assert step["distance"] <= 2.0 / k + 1e-12


def test_fit_quad_accepts_and_rejects():
    f_eps = {
        "nvars": 1,
        "u": [T(2, 0, 1.0), T(1, 1, 0.5)],
        "v": [T(2, 0, 0.5), T(0, 2, 1.0)],
    }
    good = run_cli("fit-quad", {"map": f_eps})
    assert good.returncode == 0
    t_mat = np.array(json.loads(good.stdout)["T"])
    want = np.array([[0.0, 0.5], [4.0, -8.0]])
    assert np.abs(t_mat - want).max() <= 1e-8
    squares = {"nvars": 1, "u": [T(2, 0, 1.0)], "v": [T(0, 2, 1.0)]}
    bad = run_cli("fit-quad", {"map": squares})
    assert bad.returncode == 2
    assert json.loads(bad.stdout)["status"] == "Inconsistent"


def test_approx_quad_repairs_squares():
    squares = {"nvars": 1, "u": [T(2, 0, 1.0)], "v": [T(0, 2, 1.0)]}
    proc = run_cli("approx-quad", {"map": squares, "eps": 0.1})
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["fit"]["status"] == "Exact"
    assert data["distance"] == pytest.approx(0.1, abs=1e-12)


def test_grad_and_critical():
    proc = run_cli(
        "grad", {"params": COMPLEX, "poly": SQUARE_POLY, "point": [[0.5, 0.25]]}
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gradient"] == [[1.0, 0.5]]
    crit = run_cli(
        "critical", {"params": COMPLEX, "poly": SQUARE_POLY, "point": [[0, 0]]}
    )
    assert crit.returncode == 0
    data = json.loads(crit.stdout)
    assert data["critical"] and data["rank"] == 0


def test_loja_scan_requires_seed_and_is_deterministic():
    payload = {
        "params": COMPLEX,
        "poly": SQUARE_POLY,
        "rMin": 1e-4,
        "rMax": 1e-1,
        "samples": 3000,
    }
    missing = run_cli("loja-scan", payload)
    assert missing.returncode == 1
    one = run_cli("loja-scan", payload, "--seed", "7")
    two = run_cli("loja-scan", payload, "--seed", "7")
    assert one.returncode == 0
    assert one.stdout == two.stdout
    assert 0.4 <= json.loads(one.stdout)["thetaHat"] <= 0.6


def test_fiber_count_complex_square(tmp_path: Path):
    payload = {"params": COMPLEX, "poly": SQUARE_POLY}
    out = tmp_path / "report.json"
    proc = run_cli(
        "fiber-count", payload, "--seed", "42", "--output", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["constant"] == [True]
    assert data["counts"] == [2]
    again = run_cli("fiber-count", payload, "--seed", "42")
    assert again.stdout == out.read_text()


def test_fiber_count_rejects_zero_probes():
    payload = {"params": COMPLEX, "poly": SQUARE_POLY, "probes": 0}
    proc = run_cli("fiber-count", payload, "--seed", "1")
    assert proc.returncode == 1
    assert "probe" in proc.stderr
    assert proc.stdout == ""


def test_discriminant_csv_deterministic(tmp_path: Path):
    payload = {"params": HYPERBOLIC, "poly": SQUARE_POLY}
    one = run_cli("discriminant", payload, "--seed", "3")
    two = run_cli("discriminant", payload, "--seed", "3")
    assert one.returncode == 0
    assert one.stdout == two.stdout
    lines = one.stdout.strip().splitlines()
    assert lines[0] == "c1,c2"
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 2


def test_fiber_cloud_csv(tmp_path: Path):
    payload = {
        "params": COMPLEX,
        "poly": SUM_SQUARES,
        "c": [0.05, 0.0],
        "cloudSize": 256,
    }
    one = run_cli("fiber-cloud", payload, "--seed", "9")
    two = run_cli("fiber-cloud", payload, "--seed", "9")
    assert one.returncode == 0, one.stderr
    assert one.stdout == two.stdout
    lines = one.stdout.strip().splitlines()
    assert lines[0] == "x11,x12,x21,x22"
    assert len(lines) > 10
    meta = json.loads(one.stderr)
    assert meta["residualMax"] <= 1e-10


def test_fiber_cloud_empty_is_negative(tmp_path: Path):
    payload = {
        "params": COMPLEX,
        "poly": SUM_SQUARES,
        "c": [5.0, 0.0],
        "cloudSize": 128,
    }
    proc = run_cli("fiber-cloud", payload, "--seed", "9")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "EmptyFiber"


def test_fiber_cloud_rejects_zero_cloud_size():
    payload = {"params": COMPLEX, "poly": SUM_SQUARES, "c": [0.05, 0.0], "cloudSize": 0}
    proc = run_cli("fiber-cloud", payload, "--seed", "9")
    assert proc.returncode == 1
    assert "cloud_size must be at least 1, got 0" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "command, poly, extra, message",
    [
        ("discriminant", SQUARE_POLY, {"eta": float("nan")}, "eta must be finite and positive"),
        ("discriminant", SUM_SQUARES, {"epsilon": -1}, "epsilon must be finite and positive"),
        ("fiber-cloud", SUM_SQUARES, {"epsilon": float("nan"), "c": [0.05, 0.0]},
         "epsilon must be finite and positive"),
        ("fiber-count", SQUARE_POLY, {"eta": float("nan")}, "eta must be finite and positive"),
        ("loja-scan", SQUARE_POLY, {"samples": -5}, "samples must be at least 1, got -5"),
        ("loja-scan", SQUARE_POLY, {"rMax": float("inf")}, "rMin and rMax must be finite"),
        ("loja-scan", SQUARE_POLY, {"rMin": float("nan")}, "rMin and rMax must be finite"),
        ("pow", SQUARE_POLY, {"x": [1, 0], "k": 2.0}, "'k' must be an integer, got 2.0"),
        ("approx-linear", SQUARE_POLY, {"J": [1, 0, 0, 2], "count": True},
         "'count' must be an integer, got true"),
        ("loja-scan", SQUARE_POLY, {"samples": True}, "'samples' must be an integer, got true"),
        ("fiber-count", SQUARE_POLY, {"probes": 2.7}, "'probes' must be an integer, got 2.7"),
        ("fiber-cloud", SUM_SQUARES, {"c": [0.05, 0.0], "cloudSize": 64.0},
         "'cloudSize' must be an integer, got 64.0"),
        ("fiber-count", SQUARE_POLY, {"eta": [1]}, "'eta' must be a number, got [1]"),
        ("fiber-count", SQUARE_POLY, {"eta": True}, "'eta' must be a number, got true"),
        ("discriminant", SQUARE_POLY, {"epsilon": {"x": 1}},
         "'epsilon' must be a number, got {\"x\": 1}"),
        ("discriminant", SQUARE_POLY, {"epsilon": "1"}, "'epsilon' must be a number, got \"1\""),
        ("fiber-cloud", SUM_SQUARES, {"c": [0.05, 0.0], "epsilon": None},
         "'epsilon' must be a number, got null"),
        ("loja-scan", SQUARE_POLY, {"rMax": None}, "'rMax' must be a number, got null"),
        ("loja-scan", SQUARE_POLY, {"rMin": "1e-6"}, "'rMin' must be a number, got \"1e-6\""),
        ("loja-scan", SQUARE_POLY, {"rMax": 10**400}, "'rMax' must be finite"),
        ("mul", SQUARE_POLY, {"x": ["1", 0], "y": [1, 2]},
         "element 'x' must be a pair of numbers"),
        ("mul", SQUARE_POLY, {"x": [True, 0], "y": [1, 2]},
         "element 'x' must be a pair of numbers"),
        ("grad", SQUARE_POLY, {"point": [["1", 0]]}, "point must be a list of coordinate pairs"),
        ("fit-linear", SQUARE_POLY, {"J": ["0", -1, 1, True]},
         'J must be a flat list [p, r, q, s] of numbers, got ["0", -1, 1, true]'),
        ("mul", SQUARE_POLY,
         {"params": {"a": ["1", 0, -1], "b": [False, True, 0]}, "x": [1, 0], "y": [1, 2]},
         "parameter 'a' must be a list of numbers, got [\"1\", 0, -1]"),
        ("mul", SQUARE_POLY,
         {"params": {"a": [1, 0, -1], "b": [False, True, 0]}, "x": [1, 0], "y": [1, 2]},
         "parameter 'b' must be a list of numbers, got [false, true, 0]"),
        ("mul", SQUARE_POLY,
         {"params": {"a": [1, 0, -1], "b": [0, 1, 10**400]}, "x": [1, 0], "y": [1, 2]},
         "algebra parameters must fit a float"),
        ("approx-linear", SQUARE_POLY, {"J": [1, 0, 0, -1], "count": 1001},
         "count must be in [1, 1000], got 1001"),
        ("approx-linear", SQUARE_POLY, {"J": [1, 0, 0, -1], "count": 2**70},
         f"count must be in [1, 1000], got {2**70}"),
        ("inv", SQUARE_POLY, {"x": [1e-320, 0]}, "result is not finite"),
        ("grad", {"nvars": 1, "terms": [{"exp": [100000000], "c": [1, 0]}]}, {"point": [[1, 0]]},
         "'poly' exponents must be integers in [0, 128], got [100000000]"),
        ("grad", {"nvars": 1, "terms": [{"exp": [1e308], "c": [1, 0]}]}, {"point": [[1, 0]]},
         "'poly' exponents must be integers in [0, 128], got [1e+308]"),
        ("grad", {"nvars": 1, "terms": [{"exp": [2.7], "c": [1, 0]}]}, {"point": [[1, 0]]},
         "'poly' exponents must be integers in [0, 128], got [2.7]"),
        ("grad", {"nvars": 1, "terms": [{"exp": [True], "c": [1, 0]}]}, {"point": [[1, 0]]},
         "'poly' exponents must be integers in [0, 128], got [true]"),
        ("grad", {"nvars": 1, "terms": [{"exp": ["2"], "c": [1, 0]}]}, {"point": [[1, 0]]},
         "'poly' exponents must be integers in [0, 128], got [\"2\"]"),
        ("grad", {"nvars": 1, "terms": [{"exp": [129], "c": [1, 0]}]}, {"point": [[1, 0]]},
         "'poly' exponents must be integers in [0, 128], got [129]"),
        ("grad", {"nvars": 1, "terms": [{"exp": [2], "c": ["1", 0]}]}, {"point": [[1, 0]]},
         "'poly' coefficients must be pairs of numbers, got [\"1\", 0]"),
        ("grad", {"nvars": 1, "terms": [{"exp": [2], "c": [True, 0]}]}, {"point": [[1, 0]]},
         "'poly' coefficients must be pairs of numbers, got [true, 0]"),
        ("gcr-check", SQUARE_POLY,
         {"map": {"nvars": 1, "u": [{"exp": [1, 0], "c": "1"}], "v": [{"exp": [0, 1], "c": 1}]}},
         "'map' coefficients must be numbers, got \"1\""),
        ("gcr-check", SQUARE_POLY,
         {"map": {"nvars": 1, "u": [{"exp": [1, 0], "c": 1}], "v": [{"exp": [0, 1], "c": True}]}},
         "'map' coefficients must be numbers, got true"),
        ("gcr-check", SQUARE_POLY,
         {"map": {"nvars": 1, "u": [{"exp": [-1, 0], "c": 1}], "v": [{"exp": [0, 1], "c": 1}]}},
         "'map' exponents must be integers in [0, 128], got [-1, 0]"),
        ("loja-scan", SQUARE_POLY, {"samples": 100001},
         "samples must be at most 100000, got 100001"),
        ("fiber-cloud", SUM_SQUARES, {"c": [0.05, 0.0], "cloudSize": 16385},
         "cloud_size must be at most 16384, got 16385"),
        ("fiber-count", SQUARE_POLY, {"probes": 257},
         "probes_per_component must be in [1, 256], got 257"),
        ("grad", {**SQUARE_POLY, "nvars": True}, {"point": [[1, 0]]},
         "'poly' nvars must be an integer of at least 1, got true"),
        ("grad", {**SQUARE_POLY, "nvars": "1"}, {"point": [[1, 0]]},
         "'poly' nvars must be an integer of at least 1, got \"1\""),
        ("grad", {**SQUARE_POLY, "nvars": 1.9}, {"point": [[1, 0]]},
         "'poly' nvars must be an integer of at least 1, got 1.9"),
        ("grad", {**SQUARE_POLY, "nvars": 0}, {"point": []},
         "'poly' nvars must be an integer of at least 1, got 0"),
        ("fit-quad", SQUARE_POLY,
         {"map": {"nvars": "1", "u": [{"exp": [2, 0], "c": 1}], "v": [{"exp": [0, 2], "c": 1}]}},
         "'map' nvars must be an integer of at least 1, got \"1\""),
    ],
)
def test_range_checks_exit_one(command, poly, extra, message):
    payload = {"params": COMPLEX, "poly": poly, **extra}
    proc = run_cli(command, payload, "--seed", "1")
    assert proc.returncode == 1
    assert message in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "command, extra",
    [("fit-quad", {}), ("approx-quad", {}), ("approx-quad", {"eps": 1e308})],
)
def test_overflowing_partials_exit_one_without_lapack_lines(command, extra):
    # LAPACK prints its argument errors straight to file descriptor 1, so
    # only a subprocess sees them; a partial past the float range must stop
    # the fit before they can appear
    big = 1e308 if not extra else 1.0
    squares = {"nvars": 1, "u": [{"exp": [2, 0], "c": big}], "v": [{"exp": [0, 2], "c": 1.0}]}
    proc = run_cli(command, {"map": squares, **extra})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("error:") == 1 and proc.stderr.strip().startswith("error:")
    assert "partial derivatives overflow" in proc.stderr


_PARAMS_TEXT = '"params": {"a": [1, 0, -1], "b": [0, 1, 0]}'
_POINT_MAP = '"map": {"nvars": 1, "u": [{"exp": [1, 0], "c": %s}], "v": [{"exp": [0, 1], "c": 1}]}'
_POINT_POLY = '"poly": {"nvars": %d, "terms": [{"exp": %s, "c": %s}]}'


@pytest.mark.parametrize(
    "command, body, key",
    [
        ("gcr-check", _POINT_MAP % "NaN", "map"),
        ("grad", _POINT_POLY % (1, "[2]", "[0, NaN]") + ', "point": [[1, 0]]', "poly"),
        ("discriminant", _POINT_POLY % (1, "[2]", "[Infinity, 0]"), "poly"),
        ("fit-linear", '"J": [1e400, 0, 0, 1]', "J"),
        ("fiber-cloud", _POINT_POLY % (2, "[1, 1]", "[1, NaN]") + ', "c": [0.05, 0]', "poly"),
        ("fiber-count", _POINT_POLY % (1, "[2]", "[NaN, 0]"), "poly"),
        ("critical", _POINT_POLY % (1, "[2]", "[1, 0]") + ', "point": [[NaN, 0]]', "point"),
        ("grad", _POINT_POLY % (1, "[2]", "[1, 0]") + ', "point": [[1e400, 0]]', "point"),
    ],
    ids=[
        "gcr-check", "grad", "discriminant", "fit-linear", "fiber-cloud", "fiber-count",
        "critical-point", "grad-point",
    ],
)
def test_non_finite_numbers_exit_one(command, body, key):
    proc = run_cli(command, None, "--seed", "1", text_input="{%s, %s}" % (_PARAMS_TEXT, body))
    assert proc.returncode == 1
    assert f"error: {key!r} must hold finite numbers only" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "eps, message",
    [
        ([1], "'eps' must be a number, got [1]"),
        ("0.1", "'eps' must be a number, got \"0.1\""),
        (True, "'eps' must be a number, got true"),
        (float("nan"), "'eps' must be finite, got nan"),
        (float("inf"), "'eps' must be finite, got inf"),
    ],
)
def test_approx_quad_eps_must_be_a_finite_number(eps, message):
    squares = {"nvars": 1, "u": [{"exp": [2, 0], "c": 1}], "v": [{"exp": [0, 2], "c": 1}]}
    proc = run_cli("approx-quad", {"map": squares, "eps": eps})
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


def test_mul_rejects_non_finite_element():
    doc = '{"params": {"a": [1, 0, -1], "b": [0, 1, 0]}, "x": [NaN, 0], "y": [1, 2]}'
    proc = run_cli("mul", text_input=doc)
    assert proc.returncode == 1
    assert "element 'x' must be finite" in proc.stderr
    assert proc.stdout == ""


def test_grad_takes_exponents_past_64():
    # the partial 66 z^65 is evaluated by iterated products, with no cap on
    # the exponent (i^65 = i)
    poly = {"nvars": 1, "terms": [{"exp": [66], "c": [1, 0]}]}
    proc = run_cli("grad", {"params": COMPLEX, "poly": poly, "point": [[0, 1]]})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"gradient": [[0.0, 66.0]]}


def test_mul_overflow_exits_one():
    proc = run_cli("mul", {"params": COMPLEX, "x": [1e200, 0], "y": [1e200, 0]})
    assert proc.returncode == 1
    assert "not finite" in proc.stderr
    assert proc.stdout == ""


def test_import_leaves_scipy_out():
    code = "import sys, perplex; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fiber_count_leaves_scipy_spatial_out():
    # the one-variable check finds nearest samples without a KD-tree
    code = (
        "import sys\n"
        "from perplex.algebra import COMPLEX_PARAMS, Perplex, PerplexAlgebra\n"
        "from perplex.fibration import local_triviality_check\n"
        "from perplex.multivar import PerplexPolyN\n"
        "f = PerplexPolyN.from_terms(1, [((2,), Perplex(1.0, 0.0))])\n"
        "local_triviality_check(f, PerplexAlgebra(COMPLEX_PARAMS), seed=3)\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_scipy_optimize_out():
    code = "import sys, perplex; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_input_file_matches_stdin(tmp_path: Path):
    payload = {"params": COMPLEX}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    via_file = run_cli("classify", None, "--input", str(path), text_input="")
    via_stdin = run_cli("classify", payload)
    assert via_file.stdout == via_stdin.stdout


def test_usage_errors_exit_one():
    bad_json = run_cli("classify", None, text_input="{not json")
    assert bad_json.returncode == 1
    bad_tol = run_cli("classify", {"params": COMPLEX}, "--tol", "bogus=1")
    assert bad_tol.returncode == 1
    neg_tol = run_cli("classify", {"params": COMPLEX}, "--tol", "eq=0")
    assert neg_tol.returncode == 1
    missing_key = run_cli("mul", {"params": COMPLEX, "x": [1, 0]})
    assert missing_key.returncode == 1


# ---------------------------------------------------------------------------
# the CLI contract as a property: one valid document per command, with its
# leaves replaced, run through cli.main in-process

_SQUARE_MAP = {"nvars": 1, "u": [T(2, 0, 1.0), T(0, 2, -1.0)], "v": [T(1, 1, 2.0)]}
CONTRACT_DOCS = {
    "validate": {"params": HYPERBOLIC},
    "classify": {"params": COMPLEX},
    "mul": {"params": HYPERBOLIC, "x": [0.3, -0.7], "y": [1.1, 0.4]},
    "inv": {"params": COMPLEX, "x": [0.3, -0.7]},
    "norm": {"params": HYPERBOLIC, "x": [0.3, -0.7]},
    "conj": {"params": HYPERBOLIC, "x": [0.3, -0.7]},
    "pow": {"params": COMPLEX, "x": [0.3, -0.7], "k": 3},
    "conic": {"params": HYPERBOLIC},
    "gcr-check": {"params": COMPLEX, "map": {"nvars": 1, "u": [T(1, 0, 1.0)], "v": [T(0, 1, 1.0)]}},
    "derive": {"params": COMPLEX, "map": _SQUARE_MAP, "point": [0.5, 0.25]},
    "fit-linear": {"J": [0, -1, 1, 0]},
    "approx-linear": {"J": [1, 0, 0, -1], "count": 3},
    "fit-quad": {"map": {"nvars": 1, "u": [T(2, 0, 1.0), T(1, 1, 0.5)],
                         "v": [T(2, 0, 0.5), T(0, 2, 1.0)]}},
    "approx-quad": {"map": {"nvars": 1, "u": [T(2, 0, 1.0)], "v": [T(0, 2, 1.0), T(1, 1, 0.5)]},
                    "eps": 0.1},
    "grad": {"params": COMPLEX, "poly": SQUARE_POLY, "point": [[0.5, 0.25]]},
    "critical": {"params": COMPLEX, "poly": SQUARE_POLY, "point": [[0, 0]]},
    "loja-scan": {"params": COMPLEX, "poly": SQUARE_POLY, "rMin": 1e-4, "rMax": 0.1,
                  "samples": 200},
    "fiber-count": {"params": COMPLEX, "poly": SQUARE_POLY, "eta": 0.05, "epsilon": 1.0,
                    "probes": 4},
    "fiber-cloud": {"params": COMPLEX, "poly": SUM_SQUARES, "c": [0.05, 0.0], "epsilon": 1.0,
                    "cloudSize": 64},
    "discriminant": {"params": HYPERBOLIC, "poly": SUM_SQUARES, "epsilon": 1.0, "eta": 0.05},
}
CSV_HEADERS = {"discriminant": "c1,c2", "fiber-cloud": "x11,x12,x21,x22"}
# the ROADMAP's 15 values, then the edges of the float range, the exponent
# bounds and a negative zero
LEAF_VALUES = (
    "x", True, None, [], {}, -1, 0, 0.5, 1e308, 2**70, [[1]], [1, "2"], float("nan"),
    float("inf"), -1e-320, 1e-300, 65, 129, -0.0,
)


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        return [leaf for key, value in doc.items() for leaf in _leaves(value, (*path, key))]
    if isinstance(doc, list):
        return [leaf for i, value in enumerate(doc) for leaf in _leaves(value, (*path, i))]
    return [path]


def _replace(doc, path, value):
    if not path:
        return value
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[path[0]] = _replace(doc[path[0]], path[1:], value)
    return doc


def run_main(command, doc):
    """cli.main on doc with --seed 1, its exit code, stdout and stderr; numpy
    warnings count as stderr, as they would in a process of its own."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--seed", "1"])
    shown = "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    return code, out.getvalue(), err.getvalue() + shown


def check_contract(command, code, stdout, stderr):
    def refuse(token):
        raise AssertionError(f"output holds the non-standard JSON token {token}")

    assert code in (0, 1, 2)
    if code == 1:
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr.endswith("\n")
        return
    if command in CSV_HEADERS and code == 0:
        header, *rows = stdout.splitlines()
        assert header == CSV_HEADERS[command] and stdout.endswith("\n")
        for row in rows:
            values = [float(v) for v in row.split(",")]
            assert len(values) == header.count(",") + 1 and np.isfinite(values).all()
    else:
        json.loads(stdout, parse_constant=refuse)
    if command == "fiber-cloud" and code == 0:
        json.loads(stderr, parse_constant=refuse)
    else:
        assert stderr == ""


@pytest.mark.parametrize("command", sorted(CONTRACT_DOCS))
def test_contract_documents_are_valid(command):
    code, stdout, stderr = run_main(command, CONTRACT_DOCS[command])
    assert code == 0, stderr
    check_contract(command, code, stdout, stderr)


def _mutated(command, swaps):
    doc = CONTRACT_DOCS[command]
    for path, value in swaps:
        doc = _replace(doc, path, value)
    return doc


@pytest.mark.parametrize("command", sorted(CONTRACT_DOCS))
def test_cli_contract_under_every_single_leaf(command):
    failures = []
    for path in _leaves(CONTRACT_DOCS[command]):
        for value in LEAF_VALUES:
            try:
                check_contract(command, *run_main(command, _mutated(command, [(path, value)])))
            except Exception as exc:  # collect every broken leaf
                failures.append(f"{path} = {value!r}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)


@st.composite
def two_mutated_leaves(draw):
    command = draw(st.sampled_from(sorted(CONTRACT_DOCS)))
    paths = _leaves(CONTRACT_DOCS[command])
    swap = st.tuples(st.sampled_from(paths), st.sampled_from(LEAF_VALUES))
    return command, draw(st.lists(swap, min_size=2, max_size=2))


@given(case=two_mutated_leaves())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_cli_contract_under_two_mutated_leaves(case):
    command, swaps = case
    check_contract(command, *run_main(command, _mutated(command, swaps)))


@pytest.mark.parametrize(
    "command, swaps",
    [
        # finite inputs whose computation leaves the float range part way: in
        # approx_quadratic's gate, the draw of Newton starts, a segment's sample
        # count, and numpy arithmetic on a kept value
        ("approx-quad", [(("map", "v", 1, "c"), 1e308)]),
        ("discriminant", [(("epsilon",), 1e308)]),
        ("discriminant", [(("eta",), 1e308)]),
        ("derive", [(("point", 0), 1e308)]),
        ("fiber-count", [(("poly", "terms", 0, "c", 0), 1e308)]),
    ],
)
def test_computation_past_the_float_range_exits_one(command, swaps):
    code, stdout, stderr = run_main(command, _mutated(command, swaps))
    assert (code, stdout) == (1, "")
    assert stderr == "error: the computation overflowed or produced NaN\n"


FAR_ROOT_POLY = {"nvars": 1, "terms": [{"exp": [64], "c": [1e-5, 0]}, {"exp": [63], "c": [1, 0]}]}
# z1^64 - z1 + z2^2: Newton on its gradient sends some starts past the float range
FAR_START_POLY = {
    "nvars": 2,
    "terms": [{"exp": [64, 0], "c": [1, 0]}, {"exp": [1, 0], "c": [-1, 0]},
              {"exp": [0, 2], "c": [1, 0]}],
}


@pytest.mark.parametrize(
    "command, doc, code, check",
    [
        # a root near -1e5 overflows while polished, and is dropped outside the ball
        ("fiber-count", {"params": COMPLEX, "poly": FAR_ROOT_POLY}, 0,
         lambda out: json.loads(out)["counts"] == [63]),
        ("fiber-count", {"params": HYPERBOLIC, "poly": FAR_ROOT_POLY}, 0,
         lambda out: json.loads(out)["counts"] == [1, 1, 1, 1]),
        # samples past rMax = 1e308 overflow, and are dropped as unusable
        ("loja-scan", _mutated("loja-scan", [(("rMax",), 1e308)]), 2,
         lambda out: json.loads(out)["reason"] == "only 4 usable samples, need 100"),
        ("discriminant", {"params": COMPLEX, "poly": FAR_START_POLY, "eta": 1.0}, 0,
         lambda out: len(out.splitlines()) > 1),
        ("discriminant", {"params": HYPERBOLIC, "poly": FAR_START_POLY, "eta": 1.0}, 0,
         lambda out: len(out.splitlines()) > 1),
    ],
)
def test_values_dropped_past_the_float_range_keep_the_answer(command, doc, code, check):
    got, stdout, stderr = run_main(command, doc)
    assert (got, stderr) == (code, "")
    assert check(stdout)
