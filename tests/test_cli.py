"""End-to-end CLI checks through subprocess, including determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    ],
)
def test_range_checks_exit_one(command, poly, extra, message):
    payload = {"params": COMPLEX, "poly": poly, **extra}
    proc = run_cli(command, payload, "--seed", "1")
    assert proc.returncode == 1
    assert message in proc.stderr
    assert proc.stdout == ""


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
    ],
    ids=["gcr-check", "grad", "discriminant", "fit-linear", "fiber-cloud", "fiber-count"],
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
