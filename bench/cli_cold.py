"""The cli-cold workload: one cold ``python -m perplex <cmd>`` process per op.

Input documents and their expected results are computed here from the
definitions (see ``oracles``); the package is not imported to make or
check them.  Each op sends one document on stdin and checks the exit
code, strict JSON on stdout and the numbers in it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as O

COMPLEX = ((1.0, 0.0, -1.0), (0.0, 1.0, 0.0))
SPLIT = ((1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
CHILD_TIMEOUT_S = 60.0


@dataclass
class CliCase:
    cmd: str
    doc: str
    code: int
    check: Callable[[dict], None]
    seed: int | None = None


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


def _params_doc(params) -> dict:
    return {"a": list(params[0]), "b": list(params[1])}


def _random_params(rng: np.random.Generator):
    """A random admissible algebra (Field or Hyperbolic) from span{I, M}."""
    while True:
        mat = rng.uniform(-1.0, 1.0, size=(2, 2))
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        if abs(np.linalg.det(np.column_stack([u, mat @ u]))) < 0.1:
            continue
        a, b = O.params_from_matrix(mat, u)
        if O.admissible(a, b, tol=1e-3) and O.kind(a, b) != "Degenerate":
            return a, b


def _close(got, want, what: str, rel: float = 1e-12) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.abs(got - want).max() <= rel * max(1.0, np.abs(want).max()):
        raise O.OracleError(f"{what}: got {got.tolist()}, want {want.tolist()}")


def _expect(payload: dict, key: str, value, what: str) -> None:
    if payload.get(key) != value:
        raise O.OracleError(f"{what}: {key} is {payload.get(key)!r}, want {value!r}")


def _quad_map(a, b, u, v) -> dict:
    """Real expansion of u*x^2 + v*x for the product (a, b)."""
    u, v = np.asarray(u), np.asarray(v)
    mono = {(2, 0): (a[0], b[0]), (1, 1): (2 * a[1], 2 * b[1]), (0, 2): (a[2], b[2])}
    terms = {e: O.product(a, b, u, np.array(vec))[0] for e, vec in mono.items()}
    terms[(1, 0)] = O.product(a, b, v, np.array([1.0, 0.0]))[0]
    terms[(0, 1)] = O.product(a, b, v, np.array([0.0, 1.0]))[0]
    return {
        "nvars": 1,
        "u": [{"exp": list(e), "c": float(c[0])} for e, c in terms.items()],
        "v": [{"exp": list(e), "c": float(c[1])} for e, c in terms.items()],
    }


def _poly_doc(k: int, u) -> dict:
    return {"nvars": 1, "terms": [{"exp": [k], "c": [float(u[0]), float(u[1])]}]}


def _power(a, b, x, k: int) -> np.ndarray:
    acc = np.asarray(x, dtype=float)
    for _ in range(k - 1):
        acc = O.product(a, b, acc, x)[0]
    return acc


def make_cases(seed: int) -> list[CliCase]:
    """One document per command, in a seeded order, plus the negative verdicts."""
    rng = np.random.default_rng(seed)
    check_rng = np.random.default_rng(seed + 1)
    cases: list[CliCase] = []

    def add(cmd, doc, code, check, seed_arg=None):
        text = doc if isinstance(doc, str) else json.dumps(doc)
        cases.append(CliCase(cmd, text, code, check, seed_arg))

    # validate: an admissible pair, then the same pair with a3 moved off the variety
    a, b = _random_params(rng)
    add("validate", {"params": _params_doc((a, b))}, 0,
        lambda p: (_expect(p, "valid", True, "validate"), _expect(p, "branch", "standard", "validate")))
    bad = ((a[0], a[1], a[2] + 0.5), b)
    add("validate", {"params": _params_doc(bad)}, 2, lambda p: _expect(p, "valid", False, "validate invalid"))

    a, b = _random_params(rng)

    def check_classify(p, a=a, b=b):
        model = O.kind(a, b)
        _expect(p, "kind", model, "classify")
        O.check_iso(a, b, model, np.array(p["iso"]), check_rng)

    add("classify", {"params": _params_doc((a, b))}, 0, check_classify)

    x, y = rng.uniform(-2.0, 2.0, size=(2, 2))
    z = complex(*x) * complex(*y)
    add("mul", {"params": _params_doc(COMPLEX), "x": list(x), "y": list(y)}, 0,
        lambda p, z=z: _close(p["result"], [z.real, z.imag], "complex mul"))
    x, y = rng.uniform(-2.0, 2.0, size=(2, 2))
    split = [x[0] * y[0] + x[1] * y[1], x[0] * y[1] + x[1] * y[0]]
    add("mul", {"params": _params_doc(SPLIT), "x": list(x), "y": list(y)}, 0,
        lambda p, w=split: _close(p["result"], w, "split-complex mul"))

    x = rng.uniform(0.5, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
    z = 1.0 / complex(*x)
    add("inv", {"params": _params_doc(COMPLEX), "x": list(x)}, 0,
        lambda p, z=z: _close(p["result"], [z.real, z.imag], "complex inv"))
    t = float(rng.uniform(0.5, 2.0))
    add("inv", {"params": _params_doc(SPLIT), "x": [t, t]}, 2,
        lambda p: _expect(p, "error", "NotAUnit", "inv of a zero divisor"))

    x = rng.uniform(-2.0, 2.0, size=2)
    add("norm", {"params": _params_doc(SPLIT), "x": list(x)}, 0,
        lambda p, x=x: _close(p["result"], x[0] ** 2 - x[1] ** 2, "split-complex norm"))
    x = rng.uniform(-2.0, 2.0, size=2)
    add("conj", {"params": _params_doc(COMPLEX), "x": list(x)}, 0,
        lambda p, x=x: _close(p["result"], [x[0], -x[1]], "complex conj"))
    x, k = rng.uniform(-1.2, 1.2, size=2), int(rng.integers(2, 7))
    z = complex(*x) ** k
    add("pow", {"params": _params_doc(COMPLEX), "x": list(x), "k": k}, 0,
        lambda p, z=z: _close(p["result"], [z.real, z.imag], "complex pow", rel=1e-11))

    a, b = _random_params(rng)

    def check_conic(p, a=a, b=b):
        c = np.array(p["normCoeffs"])
        _close(p["zeroDivisorConic"], c, "conic vs norm form", rel=1e-9)
        xs, ys = check_rng.uniform(-1.0, 1.0, size=(2, 16, 2))
        norm = lambda w: c[0] * w[:, 0] ** 2 + c[1] * w[:, 0] * w[:, 1] + c[2] * w[:, 1] ** 2
        _close(norm(O.product(a, b, xs, ys)), norm(xs) * norm(ys), "norm multiplicativity", rel=1e-9)

    add("conic", {"params": _params_doc((a, b))}, 0, check_conic)

    a, b = _random_params(rng)
    u, v = rng.uniform(-1.0, 1.0, size=(2, 2))
    qmap = _quad_map(a, b, u, v)
    add("gcr-check", {"params": _params_doc((a, b)), "map": qmap}, 0,
        lambda p: _expect(p, "satisfied", True, "gcr-check"))
    pt = rng.uniform(-1.0, 1.0, size=2)
    want = 2.0 * O.product(a, b, u, pt)[0] + v
    add("derive", {"params": _params_doc((a, b)), "map": qmap, "point": list(pt)}, 0,
        lambda p, w=want: _close(p["value"], w, "derivative value", rel=1e-9))
    add("fit-quad", {"map": qmap}, 0,
        lambda p, t=O.transfer_matrix(a, b): (
            _expect(p, "status", "Exact", "fit-quad"), _close(p["T"], t, "transfer matrix", rel=1e-8)))

    a, b = _random_params(rng)
    one = O.identity(a, b)
    y = rng.uniform(-1.0, 1.0, size=2)
    while abs(one[0] * y[1] - one[1] * y[0]) < np.sin(0.3) * np.hypot(*one) * np.hypot(*y):
        y = rng.uniform(-1.0, 1.0, size=2)  # a nearly scalar J is reported not found
    jmat = O.left_mult(a, b, y)

    def check_fit(p, jmat=jmat):
        _expect(p, "status", "Exact", "fit-linear")
        fa, fb = p["params"]["a"], p["params"]["b"]
        if not O.admissible(fa, fb):
            raise O.OracleError("fit-linear: fitted params are not admissible")
        _close(O.left_mult(fa, fb, p["derivative"]), jmat, "fitted multiplication matrix", rel=1e-8)

    add("fit-linear", {"J": list(jmat.reshape(-1))}, 0, check_fit)
    d = rng.uniform(0.5, 2.0, size=2) * [1.0, -1.0]
    add("fit-linear", {"J": [d[0], 0.3, 0.0, d[1]]}, 2,
        lambda p: _expect(p, "status", "Infeasible", "fit-linear infeasible"))

    def check_approx(p, jmat=np.diag(d)):
        _expect(p, "status", "Exact", "approx-linear")
        prev = np.inf
        for step in p["steps"]:
            jk = np.array(step["J"]).reshape(2, 2)
            fa, fb = step["params"]["a"], step["params"]["b"]
            if not O.admissible(fa, fb):
                raise O.OracleError("approx-linear: step params are not admissible")
            det = fa[0] * fb[1] - fa[1] * fb[0]
            one = np.array([fb[1], -fb[0]]) / det
            _close(O.left_mult(fa, fb, jk @ one), jk, "approx-linear step is a multiplication", rel=1e-8)
            dist = float(np.linalg.norm(jk - jmat, 2))
            _close(step["distance"], dist, "approx-linear distance", rel=1e-9)
            if not dist < prev:
                raise O.OracleError("approx-linear: distances do not decrease")
            prev = dist

    add("approx-linear", {"J": list(np.diag(d).reshape(-1)), "count": 3}, 0, check_approx)

    eps = float(rng.uniform(1e-3, 1e-2))
    squares = {"nvars": 1, "u": [{"exp": [2, 0], "c": 1.0}], "v": [{"exp": [0, 2], "c": 1.0}]}

    def check_approx_quad(p):
        _expect(p["fit"], "status", "Exact", "approx-quad fit")
        if not 0.0 < p["distance"] <= 10.0 * eps:
            raise O.OracleError(f"approx-quad: distance {p['distance']} for eps {eps}")

    add("approx-quad", {"map": squares, "eps": eps}, 0, check_approx_quad)

    a, b = _random_params(rng)
    u, x, k = rng.uniform(-1.0, 1.0, size=2), rng.uniform(-1.0, 1.0, size=2), int(rng.integers(2, 5))
    want = float(k) * O.product(a, b, u, _power(a, b, x, k - 1))[0]
    add("grad", {"params": _params_doc((a, b)), "poly": _poly_doc(k, u), "point": [list(x)]}, 0,
        lambda p, w=want: _close(p["gradient"][0], w, "gradient", rel=1e-9))
    u = rng.uniform(0.5, 1.0, size=2)
    add("critical", {"params": _params_doc(COMPLEX), "poly": _poly_doc(2, u), "point": [[0.0, 0.0]]}, 0,
        lambda p: _expect(p, "critical", True, "critical at the origin"))
    add("critical", {"params": _params_doc(COMPLEX), "poly": _poly_doc(2, u),
                     "point": [list(rng.uniform(0.3, 1.0, size=2))]}, 0,
        lambda p: (_expect(p, "critical", False, "critical off the origin"), _expect(p, "rank", 2, "rank")))

    k = int(rng.integers(2, 4))
    lo, hi = O.THETA_BANDS[k]

    def check_loja(p, lo=lo, hi=hi):
        if not lo <= p["thetaHat"] <= hi:
            raise O.OracleError(f"loja-scan: thetaHat {p['thetaHat']} outside [{lo}, {hi}]")

    add("loja-scan", {"params": _params_doc(COMPLEX), "poly": _poly_doc(k, rng.uniform(0.5, 1.0, size=2)),
                      "rMin": 1e-4, "rMax": 1e-1}, 0, check_loja, seed_arg=int(rng.integers(1, 2**31)))

    add("mul", '{"params": {"a": [1, 0, -1], "b": [0, 1, 0]}, "x": [1, 2],', 1, lambda p: None)

    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def run_child(argv: list[str], stdin_text: str, env: dict, cwd, tmp_dir) -> CliRun:
    """Run one process; returns its exit code, output, wall time and peak RSS.

    The child is reaped with os.wait4, which gives its own resource
    usage.  stderr goes to a file, so a long -X importtime report cannot
    fill a pipe while stdout is read.
    """
    with tempfile.TemporaryFile("w+", dir=tmp_dir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            env=env, cwd=cwd, text=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.stdin.write(stdin_text)
            proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return CliRun(proc.returncode, out, err.read(), wall, usage.ru_maxrss)


def command(case: CliCase) -> list[str]:
    argv = [sys.executable, "-m", "perplex", case.cmd]
    if case.seed is not None:
        argv += ["--seed", str(case.seed)]
    return argv


def check(case: CliCase, run: CliRun) -> None:
    if run.code != case.code:
        raise O.OracleError(f"{case.cmd}: exit {run.code}, want {case.code}: {run.stderr.strip()[-200:]}")
    if case.code == 1:
        if run.stdout or "error:" not in run.stderr:
            raise O.OracleError(f"{case.cmd}: a malformed document must give only an error on stderr")
        return
    case.check(O.strict_json(run.stdout))


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of numpy, perplex and scipy from -X importtime.

    Lines are printed children first; walking them backwards visits each
    import before its children, so a stack of open ancestors tells
    whether a scipy module is the first scipy module on its path.
    """
    out = {"numpy": 0.0, "perplex": 0.0, "scipy": 0.0}
    stack: list[str] = []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        del stack[depth:]
        top = name.split(".")[0]
        if top in out and not any(s.split(".")[0] == top for s in stack):
            out[top] += int(cumulative) * 1e-6
        stack.append(name)
    return out
