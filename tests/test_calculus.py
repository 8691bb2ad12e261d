"""Differentiability layer: residuals, derivatives, quotient ladders."""

import numpy as np
import pytest

from perplex.algebra import (
    Perplex,
    PerplexAlgebra,
    random_elements,
    sample_valid_params,
)
from perplex.calculus import (
    PolyMap,
    derivative_from_partials,
    derivative_polymap,
    diff_quotient,
    direction_spread,
    gcr_residual,
    linear_polymap,
)
from perplex.errors import GcrViolated, NotSeparated
from perplex.fibration import critical_values
from perplex.multivar import PerplexPolyN, is_critical, partial_derivative
from perplex.realpoly import RealPoly

from conftest import philox


def conjugation_map() -> PolyMap:
    x1, x2 = RealPoly.var(2, 0), RealPoly.var(2, 1)
    return PolyMap(1, x1, -x2)


def perplex_square() -> PerplexPolyN:
    return PerplexPolyN.from_terms(1, [((2,), Perplex(1.0, 0.0))])


def poly1(coeffs) -> PerplexPolyN:
    """sum_k coeffs[k] * x^k in one variable."""
    return PerplexPolyN.from_terms(1, [((k,), c) for k, c in enumerate(coeffs)])


def poly1_mul(alg, f: PerplexPolyN, g: PerplexPolyN) -> PerplexPolyN:
    return PerplexPolyN.from_terms(
        1,
        [((i + k,), alg.mul(ci, ck)) for (i,), ci in f.terms for (k,), ck in g.terms],
    )


# ---------------------------------------------------------------- #
# symbolic residuals
# ---------------------------------------------------------------- #


def test_complex_reduction_is_cauchy_riemann(complex_alg):
    # e2*(u_x1, v_x1) = e1*(u_x2, v_x2) must reduce to
    # u_x1 = v_x2, u_x2 = -v_x1: check on the four linear basis maps
    for idx in range(4):
        mat = np.zeros((2, 2))
        mat[divmod(idx, 2)] = 1.0
        m = linear_polymap(mat)
        res = gcr_residual(m, complex_alg)
        u1, v1, u2, v2 = (p.constant_term() for p in m.partials(0))
        want_u = -v1 - u2
        want_v = u1 - v2
        assert res.res_u.constant_term() == pytest.approx(want_u, abs=1e-15)
        assert res.res_v.constant_term() == pytest.approx(want_v, abs=1e-15)
        assert res.is_zero() == (want_u == 0.0 and want_v == 0.0)


def test_hyperbolic_reduction_swaps_sign(hyperbolic_alg):
    # here the reduction is u_x1 = v_x2, u_x2 = v_x1
    for idx in range(4):
        mat = np.zeros((2, 2))
        mat[divmod(idx, 2)] = 1.0
        m = linear_polymap(mat)
        res = gcr_residual(m, hyperbolic_alg)
        u1, v1, u2, v2 = (p.constant_term() for p in m.partials(0))
        assert res.res_u.constant_term() == pytest.approx(v1 - u2, abs=1e-15)
        assert res.res_v.constant_term() == pytest.approx(u1 - v2, abs=1e-15)


def test_conjugation_residual_pattern(complex_alg):
    res = gcr_residual(conjugation_map(), complex_alg)
    assert not res.is_zero()
    assert res.res_u.max_coeff() == 0.0
    assert abs(res.res_v.constant_term()) == 2.0


def test_rotation_map_is_differentiable(complex_alg):
    rot = linear_polymap(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert gcr_residual(rot, complex_alg).is_zero()
    d = derivative_from_partials(rot, complex_alg, Perplex(0.4, 2.0))
    assert (d - Perplex(0.0, 1.0)).max_norm() <= 1e-12


# ---------------------------------------------------------------- #
# polynomial expansion and derivatives
# ---------------------------------------------------------------- #


def test_square_expansion_complex(complex_alg):
    m = perplex_square().to_polymap(complex_alg)
    # u = x1^2 - x2^2, v = 2 x1 x2
    assert m.u.terms == {(2, 0): 1.0, (0, 2): -1.0}
    assert m.v.terms == {(1, 1): 2.0}
    assert gcr_residual(m, complex_alg).is_zero()


def test_square_expansion_hyperbolic(hyperbolic_alg):
    m = perplex_square().to_polymap(hyperbolic_alg)
    assert m.u.terms == {(2, 0): 1.0, (0, 2): 1.0}
    assert m.v.terms == {(1, 1): 2.0}
    assert gcr_residual(m, hyperbolic_alg).is_zero()


def test_expansions_satisfy_residual_everywhere():
    rng = philox(90210)
    for _ in range(25):
        alg = PerplexAlgebra(sample_valid_params(rng))
        coeffs = random_elements(rng, 4)
        poly = poly1(coeffs)
        m = poly.to_polymap(alg)
        assert gcr_residual(m, alg).is_zero()
        # pointwise evaluation of the expansion matches algebra evaluation
        for x in random_elements(rng, 5):
            via_map = m.eval_perplex(x)
            via_horner = poly.eval(alg, [x])
            scale = max(1.0, via_horner.max_norm())
            assert (via_map - via_horner).max_norm() <= 1e-9 * scale


def test_derivative_matches_formal_derivative():
    rng = philox(777)
    for _ in range(20):
        alg = PerplexAlgebra(sample_valid_params(rng))
        poly = poly1(random_elements(rng, 4))
        m = poly.to_polymap(alg)
        dpoly = partial_derivative(poly, 0)
        for x in random_elements(rng, 5):
            lhs = derivative_from_partials(m, alg, x)
            rhs = dpoly.eval(alg, [x])
            assert (lhs - rhs).max_norm() <= 1e-8 * max(1.0, rhs.max_norm())


def test_jacobian_is_left_multiplication():
    rng = philox(31337)
    for _ in range(10):
        alg = PerplexAlgebra(sample_valid_params(rng))
        poly = poly1(random_elements(rng, 3))
        m = poly.to_polymap(alg)
        u1, v1, u2, v2 = m.partials(0)
        for x in random_elements(rng, 4):
            pt = np.array([x.x1, x.x2])
            jac = np.array(
                [
                    [u1.eval_one(pt), u2.eval_one(pt)],
                    [v1.eval_one(pt), v2.eval_one(pt)],
                ]
            )
            d = derivative_from_partials(m, alg, x)
            want = alg.left_mult_matrix(d)
            assert np.allclose(jac, want, atol=1e-8 * max(1.0, np.abs(want).max()))


def test_product_rule():
    rng = philox(1414)
    for _ in range(15):
        alg = PerplexAlgebra(sample_valid_params(rng))
        f = poly1(random_elements(rng, 3))
        g = poly1(random_elements(rng, 4))
        lhs = partial_derivative(poly1_mul(alg, f, g), 0)
        rhs_a = poly1_mul(alg, partial_derivative(f, 0), g)
        rhs_b = poly1_mul(alg, f, partial_derivative(g, 0))

        def coeff(p, k):
            return p.term_dict().get((k,), Perplex(0.0, 0.0))

        exps = {exp for p in (lhs, rhs_a, rhs_b) for exp, _ in p.terms}
        for (k,) in exps:
            gap = coeff(lhs, k) - (coeff(rhs_a, k) + coeff(rhs_b, k))
            assert gap.max_norm() <= 1e-9 * max(
                1.0, coeff(lhs, k).max_norm()
            )


def test_derivative_refuses_conjugation(complex_alg):
    with pytest.raises(GcrViolated):
        derivative_from_partials(conjugation_map(), complex_alg, Perplex(1, 1))


# ---------------------------------------------------------------- #
# difference quotients
# ---------------------------------------------------------------- #


def test_quotient_ladder_matches_derivative(complex_alg):
    m = perplex_square().to_polymap(complex_alg)
    x0 = Perplex(0.3, -0.2)
    want = derivative_from_partials(m, complex_alg, x0)
    # the ladder takes the real expansion or the polynomial itself
    for fn in (m, perplex_square()):
        for ang in (0.0, 0.9, 2.1):
            d = Perplex(float(np.cos(ang)), float(np.sin(ang)))
            report = diff_quotient(fn, complex_alg, x0, d)
            assert (report.estimate - want).max_norm() <= 1e-6
            assert report.converged


def test_quotient_rejects_non_separated_direction(hyperbolic_alg):
    m = perplex_square().to_polymap(hyperbolic_alg)
    with pytest.raises(NotSeparated):
        diff_quotient(m, hyperbolic_alg, Perplex(0.5, 0.5), Perplex(1.0, 1.0))


def test_direction_spread_flags_conjugation(complex_alg):
    spread = direction_spread(conjugation_map(), complex_alg, Perplex(0.2, 0.4))
    assert spread.max_gap > 0.1


def test_direction_spread_small_for_differentiable(complex_alg):
    m = perplex_square().to_polymap(complex_alg)
    spread = direction_spread(m, complex_alg, Perplex(0.2, 0.4))
    assert spread.max_gap <= 1e-6


# ---------------------------------------------------------------- #
# critical locus
# ---------------------------------------------------------------- #


def test_critical_locus_complex_square(complex_alg):
    f = perplex_square()
    # N(f') = 4(x1^2 + x2^2): only the origin is critical
    assert is_critical(f, complex_alg, [Perplex(0.0, 0.0)]).critical
    assert not is_critical(f, complex_alg, [Perplex(0.5, 0.1)]).critical
    for x in random_elements(philox(5), 10):
        assert not is_critical(f, complex_alg, [x]).critical
    disc = critical_values(f, complex_alg)
    assert disc.shape == (1, 2)
    assert np.abs(disc).max() <= 1e-12


def test_critical_locus_hyperbolic_square(hyperbolic_alg):
    f = perplex_square()
    # N(f') = 4(x1^2 - x2^2): the two diagonals are critical
    for t in np.linspace(-0.9, 0.9, 7):
        for sign in (1.0, -1.0):
            assert is_critical(f, hyperbolic_alg, [Perplex(t, sign * t)]).critical
    assert not is_critical(f, hyperbolic_alg, [Perplex(0.5, 0.1)]).critical
    # their image is the pair of rays c1 = |c2|
    disc = critical_values(f, hyperbolic_alg)
    assert len(disc) > 50
    assert np.max(np.abs(disc[:, 0] - np.abs(disc[:, 1]))) <= 1e-12


def test_critical_locus_norm_poly_vs_finite_difference(dual_alg):
    rng = philox(2024)
    m = poly1(random_elements(rng, 3)).to_polymap(dual_alg)
    d = derivative_polymap(m, dual_alg)
    c1, c2, c3 = dual_alg.norm_coeffs
    norm_poly = d.u * d.u * c1 + d.u * d.v * c2 + d.v * d.v * c3
    # independent check of N(f'): central finite differences of the map
    h = 1e-6
    for x in random_elements(rng, 10):
        pt = np.array([x.x1, x.x2])
        cols = []
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = h
            cols.append((m.eval_many(pt + dp)[0] - m.eval_many(pt - dp)[0]) / (2 * h))
        jac = np.column_stack(cols)
        det_fd = float(np.linalg.det(jac))
        assert det_fd == pytest.approx(norm_poly.eval_one(pt), rel=1e-5, abs=1e-5)


def test_polymap_json_roundtrip():
    m = perplex_square().to_polymap(PerplexAlgebra(sample_valid_params(philox(1))))
    m2 = PolyMap.from_dict(m.to_dict())
    assert m2.u.terms == m.u.terms
    assert m2.v.terms == m.v.terms
