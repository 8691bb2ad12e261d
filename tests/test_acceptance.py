"""Acceptance gate: the ten numbered release criteria, one test each.

Every test prints a single `criterion NN: PASS/FAIL` line straight to the
terminal (bypassing capture) so a plain pytest run shows the scorecard.
The measurements themselves repeat what the module tests cover, but at
the stated sizes and tolerances and with the stated runtime budgets.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from perplex.algebra import (
    COMPLEX_PARAMS,
    DUAL_BOUNDARY_PARAMS,
    HYPERBOLIC_PARAMS,
    Perplex,
    PerplexAlgebra,
    random_elements,
    sample_valid_params,
)
from perplex.approximation import (
    approx_linear_sequence,
    fit_linear,
    quad_T_matrix,
)
from perplex.calculus import (
    PolyMap,
    derivative_from_partials,
    diff_quotient,
    direction_spread,
    gcr_residual,
    linear_polymap,
)
from perplex.fibration import fiber_solve, local_triviality_check
from perplex.multivar import PerplexPolyN, loja_scan, loja_violations
from perplex.realpoly import RealPoly
from perplex.structure import AlgebraKind, classify, nilpotent_directions

from conftest import philox


@pytest.fixture
def announce(capsys):
    def say(num, ok, detail):
        with capsys.disabled():
            print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")

    return say


def single_power(k):
    return PerplexPolyN.from_terms(1, [((k,), Perplex(1.0, 0.0))])


def const_of(poly):
    """Constant value of a RealPoly that must have no other terms."""
    extra = [e for e in poly.terms if any(e)]
    assert not extra, f"unexpected non-constant residual terms {extra}"
    return float(poly.terms.get((0, 0), 0.0))


# ---------------------------------------------------------------- #
# 1. algebra law suite at scale
# ---------------------------------------------------------------- #


def test_criterion_01_algebra_laws(announce):
    ok, detail = False, "crashed before measurement"
    try:
        rng = philox(60101)
        t0 = time.perf_counter()
        worst = 0.0
        commutative = True
        for _ in range(1000):
            alg = PerplexAlgebra(sample_valid_params(rng))
            k = alg.mul_bound()
            c = max(1.0, *(abs(v) for v in alg.norm_coeffs))
            e = alg.identity
            xs = random_elements(rng, 100)
            ys = random_elements(rng, 100)
            zs = random_elements(rng, 100)
            for x, y, z in zip(xs, ys, zs):
                if alg.mul(x, y) != alg.mul(y, x):
                    commutative = False
                assoc = alg.mul(alg.mul(x, y), z) - alg.mul(x, alg.mul(y, z))
                s3 = max(1.0, k * k * x.max_norm() * y.max_norm() * z.max_norm())
                worst = max(worst, assoc.max_norm() / s3)
                ident = alg.mul(e, x) - x
                worst = max(worst, ident.max_norm() / max(1.0, x.max_norm()))
                nm = alg.norm(alg.mul(x, y)) - alg.norm(x) * alg.norm(y)
                s2 = max(1.0, c * c * (k * x.max_norm() * y.max_norm()) ** 2)
                worst = max(worst, abs(nm) / s2)
                cj = alg.mul(x, alg.conjugate(x)) - e * alg.norm(x)
                sc = max(1.0, k * c * x.max_norm() ** 2)
                worst = max(worst, cj.max_norm() / sc)
        elapsed = time.perf_counter() - t0
        ok = commutative and worst <= 1e-9 and elapsed < 10.0
        detail = (
            f"1000 params x 100 triples, worst residual {worst:.2e}, "
            f"commutativity exact={commutative}, {elapsed:.1f}s"
        )
    finally:
        announce(1, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- #
# 2. classification oracles
# ---------------------------------------------------------------- #


def test_criterion_02_classification_oracles(announce):
    ok, detail = False, "crashed before measurement"
    try:
        cases = (
            (COMPLEX_PARAMS, AlgebraKind.FIELD, -4.0),
            (HYPERBOLIC_PARAMS, AlgebraKind.HYPERBOLIC, 4.0),
            (DUAL_BOUNDARY_PARAMS, AlgebraKind.DEGENERATE, 0.0),
        )
        worst_iso = 0.0
        kinds_ok = True
        for params, kind, delta in cases:
            cls = classify(PerplexAlgebra(params))
            if cls.kind is not kind or cls.delta != delta:
                kinds_ok = False
            worst_iso = max(worst_iso, cls.iso_residual)
        dual = PerplexAlgebra(DUAL_BOUNDARY_PARAMS)
        d = Perplex(1.0, -1.0)
        sq_norm = dual.mul(d, d).max_norm()
        half = np.sqrt(0.5)
        dirs = nilpotent_directions(dual)
        has_dir = any(
            (v - Perplex(half, -half)).max_norm() <= 1e-12 for v in dirs
        )
        ok = kinds_ok and worst_iso <= 1e-8 and sq_norm == 0.0 and has_dir
        detail = (
            f"deltas exact, worst iso residual {worst_iso:.2e} over the basis "
            f"products, |(1,-1)^2| = {sq_norm}"
        )
    finally:
        announce(2, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- #
# 3. characteristic discriminant identity
# ---------------------------------------------------------------- #


def test_criterion_03_char_discriminant_identity(announce):
    ok, detail = False, "crashed before measurement"
    try:
        rng = philox(60103)
        worst = 0.0
        for _ in range(1000):
            alg = PerplexAlgebra(sample_valid_params(rng))
            cls = classify(alg)
            disc_char = cls.char_trace**2 - 4.0 * cls.char_det
            a, b = alg.params.a, alg.params.b
            det_a = a[0] * b[1] - a[1] * b[0]
            target = cls.delta / det_a**2
            worst = max(worst, abs(disc_char - target) / max(abs(target), 1e-300))
        ok = worst <= 1e-9
        detail = f"1000 params, worst relative error {worst:.2e}"
    finally:
        announce(3, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- #
# 4. symbolic reduction of the differentiability relation
# ---------------------------------------------------------------- #


def test_criterion_04_symbolic_reductions(announce):
    ok, detail = False, "crashed before measurement"
    try:
        # Residuals of the four elementary linear maps give the exact
        # coefficient rows of the relation on (u_x1, u_x2, v_x1, v_x2).
        def residual_rows(alg):
            rows_u, rows_v = [], []
            for i in range(2):
                for j in range(2):
                    mat = np.zeros((2, 2))
                    mat[i, j] = 1.0
                    g = gcr_residual(linear_polymap(mat), alg)
                    rows_u.append(const_of(g.res_u))
                    rows_v.append(const_of(g.res_v))
            return rows_u, rows_v

        # column order is (u_x1, u_x2, v_x1, v_x2)
        cu, cv = residual_rows(PerplexAlgebra(COMPLEX_PARAMS))
        complex_ok = cu == [0.0, -1.0, -1.0, 0.0] and cv == [1.0, 0.0, 0.0, -1.0]
        hu, hv = residual_rows(PerplexAlgebra(HYPERBOLIC_PARAMS))
        hyper_ok = hu == [0.0, -1.0, 1.0, 0.0] and hv == [1.0, 0.0, 0.0, -1.0]
        ok = complex_ok and hyper_ok
        detail = (
            "complex rows force u_x1 = v_x2, u_x2 = -v_x1; "
            "hyperbolic rows force u_x1 = v_x2, u_x2 = v_x1 (exact)"
        )
    finally:
        announce(4, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- #
# 5. difference quotients against the partial-derivative formula
# ---------------------------------------------------------------- #

_FAN = np.pi * np.arange(64) / 64


def separated_fan(alg, want=16, margin=0.1):
    dirs = []
    for ang in _FAN:
        d = Perplex(float(np.cos(ang)), float(np.sin(ang)))
        if alg.separation_margin(d) >= margin:
            dirs.append(d)
        if len(dirs) == want:
            return dirs
    return None


def test_criterion_05_quotients_and_refutation(announce):
    ok, detail = False, "crashed before measurement"
    try:
        rng = philox(60105)
        x = Perplex(0.2, 0.4)
        worst = 0.0
        checked = 0
        while checked < 50:
            alg = PerplexAlgebra(sample_valid_params(rng))
            dirs = separated_fan(alg)
            if dirs is None:
                continue
            w = Perplex(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            m = linear_polymap(alg.left_mult_matrix(w))
            assert gcr_residual(m, alg).is_zero(1e-9)
            ref = derivative_from_partials(m, alg, x)
            for d in dirs:
                q = diff_quotient(m, alg, x, d)
                err = (q.estimate - ref).max_norm()
                worst = max(worst, err)
            checked += 1

        x1, x2 = RealPoly.var(2, 0), RealPoly.var(2, 1)
        conj_map = PolyMap(1, x1, -x2)
        min_gap = np.inf
        refuted = 0
        while refuted < 20:
            alg = PerplexAlgebra(sample_valid_params(rng))
            if separated_fan(alg) is None:
                continue
            spread = direction_spread(conj_map, alg, x)
            min_gap = min(min_gap, spread.max_gap)
            refuted += 1
        ok = worst <= 1e-6 and min_gap > 0.1
        detail = (
            f"50 maps x 16 separated directions, worst gap {worst:.2e}; "
            f"conjugation spread >= {min_gap:.3f} over 20 algebras"
        )
    finally:
        announce(5, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- #
# 6. linear and quadratic fitting
# ---------------------------------------------------------------- #


def test_criterion_06_fitting(announce):
    ok, detail = False, "crashed before measurement"
    try:
        refl = np.diag([1.0, -1.0])
        infeasible = fit_linear(refl)
        cert_ok = (
            infeasible.status == "Infeasible"
            and "a1*b2 - a2*b1" in (infeasible.certificate or "")
        )

        seq = approx_linear_sequence(refl, 5)
        seq_ok = len(seq) == 5
        for k, (jk, _) in enumerate(seq, start=1):
            dist = float(np.linalg.norm(jk - refl, 2))
            if dist > 2.0 / k or fit_linear(jk).status != "Exact":
                seq_ok = False

        squares = PolyMap(
            1,
            RealPoly.from_terms(2, [((2, 0), 1.0)]),
            RealPoly.from_terms(2, [((0, 2), 1.0)]),
        )
        reject_ok = quad_T_matrix(squares).status == "Inconsistent"

        quad_worst = 0.0
        for eps in (1.0, 0.5, 0.1):
            f_eps = PolyMap(
                1,
                RealPoly.from_terms(2, [((2, 0), 1.0), ((1, 1), eps)]),
                RealPoly.from_terms(2, [((2, 0), eps), ((0, 2), 1.0)]),
            )
            res = quad_T_matrix(f_eps)
            target = np.array([[0.0, 0.5], [2.0 / eps, -2.0 / eps**2]])
            gap = float(np.abs(res.T - target).max())
            if res.status != "Exact":
                quad_worst = np.inf
            quad_worst = max(quad_worst, gap)

        rng = philox(60106)
        hits = sum(
            fit_linear(rng.uniform(-1.0, 1.0, (2, 2))).status == "Exact"
            for _ in range(1000)
        )
        ok = cert_ok and seq_ok and reject_ok and quad_worst <= 1e-8 and hits >= 990
        detail = (
            f"reflection certified infeasible, 5/5 sequence fits, "
            f"transfer matrix off by {quad_worst:.1e}, exact rate {hits}/1000"
        )
    finally:
        announce(6, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- #
# 7. gradient-inequality exponent scan
# ---------------------------------------------------------------- #


def test_criterion_07_loja_scan(announce):
    ok, detail = False, "crashed before measurement"
    try:
        alg = PerplexAlgebra(COMPLEX_PARAMS)
        t0 = time.perf_counter()
        fit2 = loja_scan(single_power(2), alg, 1e-4, 1e-1, 10_000, seed=7)
        fresh2, total2 = loja_violations(
            single_power(2), alg, 1e-4, 1e-1, 10_000, seed=8,
            theta=fit2.theta_hat, c=fit2.c_hat / 2.0,
        )
        fit3 = loja_scan(single_power(3), alg, 1e-4, 1e-1, 10_000, seed=9)
        fresh3, total3 = loja_violations(
            single_power(3), alg, 1e-4, 1e-1, 10_000, seed=10,
            theta=fit3.theta_hat, c=fit3.c_hat / 2.0,
        )
        elapsed = time.perf_counter() - t0
        ok = (
            0.45 <= fit2.theta_hat <= 0.55
            and 0.61 <= fit3.theta_hat <= 0.72
            and fresh2 == 0
            and fresh3 == 0
            and total2 > 0
            and total3 > 0
            and elapsed < 30.0
        )
        detail = (
            f"square theta {fit2.theta_hat:.3f}, cube theta {fit3.theta_hat:.3f}, "
            f"fresh violations {fresh2}+{fresh3}, {elapsed:.1f}s"
        )
    finally:
        announce(7, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- #
# 8. fibration component counts
# ---------------------------------------------------------------- #


def test_criterion_08_fibration(announce):
    ok, detail = False, "crashed before measurement"
    try:
        sq = single_power(2)
        calg = PerplexAlgebra(COMPLEX_PARAMS)
        halg = PerplexAlgebra(HYPERBOLIC_PARAMS)
        t0 = time.perf_counter()
        rep_c = local_triviality_check(sq, calg, seed=1)
        rep_c2 = local_triviality_check(sq, calg, seed=2)
        rep_h = local_triviality_check(sq, halg, seed=1)
        rep_h2 = local_triviality_check(sq, halg, seed=2)

        def majorities(rep):
            return sorted(comp.majority for comp in rep.components)

        complex_ok = (
            len(rep_c.components) == 1
            and rep_c.components[0].counts == tuple([2] * 8)
            and rep_c.components[0].constant
        )
        hyper_ok = (
            len(rep_h.components) == 4
            and majorities(rep_h) == [0, 0, 0, 4]
            and all(comp.constant for comp in rep_h.components)
        )
        seeds_ok = majorities(rep_c) == majorities(rep_c2) and majorities(
            rep_h
        ) == majorities(rep_h2)

        worst_res = 0.0
        for alg, rep in ((calg, rep_c), (halg, rep_h)):
            for comp in rep.components:
                for probe in comp.probes:
                    c = Perplex(*probe)
                    for root in fiber_solve(sq, alg, c):
                        res = (sq.eval(alg, [root]) - c).max_norm()
                        worst_res = max(worst_res, res)
        elapsed = time.perf_counter() - t0
        ok = complex_ok and hyper_ok and seeds_ok and worst_res <= 1e-10 and elapsed < 60.0
        detail = (
            f"complex 1 component at count 2, hyperbolic counts "
            f"{tuple(majorities(rep_h))}, fiber residual max {worst_res:.1e}, "
            f"seed-stable, {elapsed:.1f}s"
        )
    finally:
        announce(8, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- #
# 9. divergence ratio along a shrinking direction
# ---------------------------------------------------------------- #


def test_criterion_09_divergence_ratio(announce):
    ok, detail = False, "crashed before measurement"
    try:
        alg = PerplexAlgebra(COMPLEX_PARAMS)
        worst_rel = 0.0
        for k in range(1, 7):
            r = 10.0**-k
            q = alg.q_ratio(Perplex(r, 0.0), 3, 0.5)
            worst_rel = max(worst_rel, abs(q - r**-0.5) / r**-0.5)
        gap_at_hundredth = abs(alg.q_ratio(Perplex(1e-2, 0.0), 3, 0.5) - 10.0)
        ok = worst_rel <= 0.01 and gap_at_hundredth <= 1e-9
        detail = (
            f"matches r^-1/2 to {worst_rel:.1e} over six decades, "
            f"|q(1e-2) - 10| = {gap_at_hundredth:.1e}"
        )
    finally:
        announce(9, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- #
# 10. CLI determinism under a fixed seed
# ---------------------------------------------------------------- #

_SQUARE_POLY = {"nvars": 1, "terms": [{"exp": [2], "c": [1, 0]}]}
_SUM_SQUARES = {
    "nvars": 2,
    "terms": [{"exp": [2, 0], "c": [1, 0]}, {"exp": [0, 2], "c": [1, 0]}],
}
_COMPLEX = {"a": [1, 0, -1], "b": [0, 1, 0]}
_HYPERBOLIC = {"a": [1, 0, 1], "b": [0, 1, 0]}

_STOCHASTIC_CALLS = (
    (
        "loja-scan",
        {
            "params": _COMPLEX,
            "poly": _SQUARE_POLY,
            "rMin": 1e-4,
            "rMax": 1e-1,
            "samples": 2000,
        },
    ),
    ("fiber-count", {"params": _COMPLEX, "poly": _SQUARE_POLY}),
    (
        "fiber-cloud",
        {
            "params": _COMPLEX,
            "poly": _SUM_SQUARES,
            "c": [0.05, 0.0],
            "cloudSize": 256,
        },
    ),
    ("discriminant", {"params": _HYPERBOLIC, "poly": _SQUARE_POLY}),
)


def test_criterion_10_cli_determinism(announce):
    ok, detail = False, "crashed before measurement"
    try:
        identical = []
        for command, payload in _STOCHASTIC_CALLS:
            outs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "perplex", command, "--seed", "17"],
                    input=json.dumps(payload).encode(),
                    capture_output=True,
                    timeout=300,
                )
                assert proc.returncode == 0, proc.stderr.decode()
                outs.append(proc.stdout)
            identical.append(outs[0] == outs[1] and len(outs[0]) > 0)
        ok = all(identical)
        names = ", ".join(name for name, _ in _STOCHASTIC_CALLS)
        detail = f"byte-identical reruns for {names}"
    finally:
        announce(10, ok, detail)
    assert ok, detail
