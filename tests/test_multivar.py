"""Several-variable calculus: partials, gradient, criticality, scanner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perplex.algebra import (
    DUAL_BOUNDARY_PARAMS,
    Perplex,
    PerplexAlgebra,
    random_elements,
    sample_valid_params,
)
from perplex.calculus import gcr_residual
from perplex.errors import InsufficientSamples
from perplex.multivar import (
    PerplexPolyN,
    directional_derivative,
    gradient,
    is_critical,
    loja_scan,
    loja_violations,
    partial_derivative,
    real_jacobian,
)

from conftest import philox


def sum_of_squares():
    """p1^2 + p2^2 in two perplex variables."""
    return PerplexPolyN.from_terms(
        2, [((2, 0), Perplex(1.0, 0.0)), ((0, 2), Perplex(1.0, 0.0))]
    )


def product_map():
    """The monomial p1 * p2 (unit coefficient on the cross term)."""
    return PerplexPolyN.from_terms(2, [((1, 1), Perplex(1.0, 0.0))])


def single_power(k):
    return PerplexPolyN.from_terms(1, [((k,), Perplex(1.0, 0.0))])


def test_partial_derivative_coefficient_rule():
    f = sum_of_squares()
    d1 = partial_derivative(f, 0)
    assert d1.term_dict() == {(1, 0): Perplex(2.0, 0.0)}
    d2 = partial_derivative(f, 1)
    assert d2.term_dict() == {(0, 1): Perplex(2.0, 0.0)}


def test_partial_derivative_constant_and_product():
    const = PerplexPolyN.from_terms(2, [((0, 0), Perplex(3.0, -1.0))])
    assert partial_derivative(const, 0).terms == ()

    cross = PerplexPolyN.from_terms(2, [((1, 1), Perplex(1.0, 0.0))])
    d1 = partial_derivative(cross, 0)
    assert d1.term_dict() == {(0, 1): Perplex(1.0, 0.0)}


def test_gradient_oracles(complex_alg):
    f = sum_of_squares()
    p = [Perplex(1.0, 0.0), Perplex(0.0, 1.0)]
    grad = gradient(f, complex_alg, p)
    assert grad[0].as_tuple() == (2.0, 0.0)
    assert grad[1].as_tuple() == (0.0, 2.0)

    origin = [Perplex(0.0, 0.0), Perplex(0.0, 0.0)]
    assert all(g.max_norm() == 0.0 for g in gradient(f, complex_alg, origin))

    cross = product_map()
    grad = gradient(cross, complex_alg, p)
    assert grad[0].as_tuple() == (0.0, 1.0)
    assert grad[1].as_tuple() == (1.0, 0.0)


def test_directional_derivative_oracles(complex_alg):
    f = single_power(2)
    p = [Perplex(1.0, 0.0)]
    out = directional_derivative(f, complex_alg, p, [Perplex(1.0, 1.0)])
    assert out.as_tuple() == (2.0, 2.0)

    basis = directional_derivative(f, complex_alg, p, [Perplex(1.0, 0.0)])
    assert basis == gradient(f, complex_alg, p)[0]

    zero = directional_derivative(f, complex_alg, p, [Perplex(0.0, 0.0)])
    assert zero.max_norm() == 0.0


def test_directional_matches_real_jacobian():
    rng = philox(501)
    for _ in range(20):
        alg = PerplexAlgebra(sample_valid_params(rng))
        f = PerplexPolyN.from_terms(
            2,
            [
                ((2, 0), Perplex(*rng.uniform(-1, 1, 2))),
                ((1, 1), Perplex(*rng.uniform(-1, 1, 2))),
                ((0, 2), Perplex(*rng.uniform(-1, 1, 2))),
                ((1, 0), Perplex(*rng.uniform(-1, 1, 2))),
            ],
        )
        p = [Perplex(*rng.uniform(-1, 1, 2)) for _ in range(2)]
        w = [Perplex(*rng.uniform(-1, 1, 2)) for _ in range(2)]
        lhs = directional_derivative(f, alg, p, w)
        flat = np.array([c for x in w for c in x.as_tuple()])
        rhs = real_jacobian(f, alg, p) @ flat
        assert abs(lhs.x1 - rhs[0]) <= 1e-9 * max(1.0, abs(rhs[0]))
        assert abs(lhs.x2 - rhs[1]) <= 1e-9 * max(1.0, abs(rhs[1]))


def test_expansion_satisfies_gcr_in_every_variable():
    rng = philox(502)
    for _ in range(10):
        alg = PerplexAlgebra(sample_valid_params(rng))
        f = PerplexPolyN.from_terms(
            3,
            [
                ((1, 1, 0), Perplex(*rng.uniform(-1, 1, 2))),
                ((0, 2, 1), Perplex(*rng.uniform(-1, 1, 2))),
                ((1, 0, 2), Perplex(*rng.uniform(-1, 1, 2))),
            ],
        )
        m = f.to_polymap(alg)
        for i in range(3):
            assert gcr_residual(m, alg, var=i).is_zero(1e-9)


def test_expansion_matches_direct_eval():
    rng = philox(503)
    alg = PerplexAlgebra(sample_valid_params(rng))
    f = PerplexPolyN.from_terms(
        2,
        [
            ((2, 1), Perplex(0.3, -0.7)),
            ((0, 1), Perplex(-0.2, 0.5)),
        ],
    )
    m = f.to_polymap(alg)
    for _ in range(25):
        p = [Perplex(*rng.uniform(-1, 1, 2)) for _ in range(2)]
        direct = f.eval(alg, p)
        via_map = m.eval_perplex(p)
        assert (direct - via_map).max_norm() <= 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_eval_many_rows_are_eval_and_match_expansion(seed):
    rng = philox(seed)
    params = DUAL_BOUNDARY_PARAMS if rng.random() < 0.2 else sample_valid_params(rng)
    alg = PerplexAlgebra(params)
    nvars, count = int(rng.integers(1, 4)), int(rng.integers(0, 7))
    exps = rng.integers(0, 5, (count, nvars))
    f = PerplexPolyN.from_terms(nvars, zip(map(tuple, exps), random_elements(rng, count)))
    pts = rng.uniform(-1.0, 1.0, (20, 2 * nvars))
    vals = f.eval_many(alg, pts)
    assert vals.shape == (20, 2)
    for row, p in zip(vals, pts):
        point = [Perplex(p[k], p[k + 1]) for k in range(0, 2 * nvars, 2)]
        assert tuple(row) == f.eval(alg, point).as_tuple()
    ref = f.to_polymap(alg).eval_many(pts)
    assert np.abs(vals - ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max(initial=0.0))


@pytest.mark.parametrize(
    "point, flat_count",
    [
        ([Perplex(0.1, 0.2)], 2),
        ([Perplex(0.1, 0.2)] * 3, 6),
        ([0.1, 0.2, 0.3], 3),
        (np.zeros((1, 4)), 4),
    ],
    ids=["one-element", "three-elements", "three-coords", "stack"],
)
def test_eval_rejects_wrong_arity(complex_alg, point, flat_count):
    # the scalar path keeps eval_many's shape check; gradient flattens its
    # point first, so there only a wrong coordinate count fails
    f = sum_of_squares()
    with pytest.raises(ValueError):
        f.eval(complex_alg, point)
    if flat_count == 4:
        assert gradient(f, complex_alg, point) == [Perplex(0.0, 0.0)] * 2
    else:
        with pytest.raises(ValueError):
            gradient(f, complex_alg, point)


def test_gradient_matches_finite_differences(hyperbolic_alg):
    f = PerplexPolyN.from_terms(
        2,
        [
            ((2, 0), Perplex(0.4, 0.1)),
            ((1, 1), Perplex(-0.3, 0.8)),
            ((0, 3), Perplex(0.2, -0.5)),
        ],
    )
    m = f.to_polymap(hyperbolic_alg)
    point = np.array([0.3, -0.2, 0.45, 0.15])
    jac = real_jacobian(f, hyperbolic_alg, point)
    h = 1e-6
    for col in range(4):
        step = np.zeros(4)
        step[col] = h
        fd = (m.eval_many(point + step)[0] - m.eval_many(point - step)[0]) / (2 * h)
        for row in range(2):
            assert abs(jac[row, col] - fd[row]) <= 1e-6 * max(1.0, abs(fd[row]))


def test_is_critical_origin_and_regular_point(complex_alg):
    f = sum_of_squares()
    origin = [Perplex(0.0, 0.0), Perplex(0.0, 0.0)]
    rep = is_critical(f, complex_alg, origin)
    assert rep.critical and rep.rank == 0

    p = [Perplex(1.0, 0.0), Perplex(0.0, 0.0)]
    rep = is_critical(f, complex_alg, p)
    assert not rep.critical and rep.rank == 2


def test_is_critical_hyperbolic_zero_divisor_gradient(hyperbolic_alg):
    f = single_power(2)
    rep = is_critical(f, hyperbolic_alg, [Perplex(1.0, 1.0)])
    assert rep.critical and rep.rank == 1
    assert rep.partial_norm_residuals[0] <= 1e-12


def test_nonunit_partials_do_not_imply_critical(hyperbolic_alg):
    # both partials are complementary zero divisors, yet their sum is a
    # unit, so the point is regular: the norm test alone is one-sided
    f = PerplexPolyN.from_terms(
        2,
        [((1, 0), Perplex(1.0, 1.0)), ((0, 1), Perplex(1.0, -1.0))],
    )
    p = [Perplex(0.0, 0.0), Perplex(0.0, 0.0)]
    rep = is_critical(f, hyperbolic_alg, p)
    assert all(r <= 1e-12 for r in rep.partial_norm_residuals)
    assert rep.rank == 2 and not rep.critical
    combo = directional_derivative(
        f, hyperbolic_alg, p, [Perplex(1.0, 0.0), Perplex(1.0, 0.0)]
    )
    assert abs(hyperbolic_alg.norm(combo)) > 1.0


def test_rank_deficiency_matches_combination_norms():
    rng = philox(504)
    for _ in range(10):
        alg = PerplexAlgebra(sample_valid_params(rng))
        f = PerplexPolyN.from_terms(
            2,
            [
                ((2, 0), Perplex(*rng.uniform(-1, 1, 2))),
                ((1, 1), Perplex(*rng.uniform(-1, 1, 2))),
            ],
        )
        p = [Perplex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(2)]
        rep = is_critical(f, alg, p)
        combos = []
        for _ in range(64):
            w = rng.normal(size=4)
            w /= np.linalg.norm(w)
            val = directional_derivative(
                f, alg, p, [Perplex(w[0], w[1]), Perplex(w[2], w[3])]
            )
            combos.append(abs(alg.norm(val)))
        if rep.critical:
            assert max(combos) <= 1e-6
        else:
            assert max(combos) > 1e-6


def test_jacobian_rank_at_least_one_near_origin(complex_alg):
    rng = philox(505)
    f = single_power(2)
    for _ in range(50):
        p = Perplex(*(rng.normal(size=2) * 1e-2))
        if p.max_norm() == 0.0:
            continue
        rep = is_critical(f, complex_alg, [p])
        assert rep.rank >= 1


def test_loja_scan_square_complex(complex_alg):
    fit = loja_scan(single_power(2), complex_alg, 1e-4, 1e-1, 10_000, seed=7)
    assert 0.45 <= fit.theta_hat <= 0.55
    assert fit.c_hat > 0.0
    assert fit.sample_count >= 100

    fresh, _ = loja_violations(
        single_power(2), complex_alg, 1e-4, 1e-1, 10_000, seed=8,
        theta=fit.theta_hat, c=fit.c_hat / 2.0,
    )
    assert fresh == 0


def test_loja_scan_cube_complex(complex_alg):
    fit = loja_scan(single_power(3), complex_alg, 1e-4, 1e-1, 10_000, seed=9)
    assert 0.61 <= fit.theta_hat <= 0.72


def test_loja_scan_linear_theta_near_zero(complex_alg):
    fit = loja_scan(single_power(1), complex_alg, 1e-4, 1e-1, 5_000, seed=10)
    assert abs(fit.theta_hat) <= 0.05


def test_loja_scan_deterministic(complex_alg):
    a = loja_scan(single_power(2), complex_alg, 1e-3, 1e-1, 2_000, seed=42)
    b = loja_scan(single_power(2), complex_alg, 1e-3, 1e-1, 2_000, seed=42)
    assert a == b


def test_loja_scan_guards(complex_alg):
    nonzero = PerplexPolyN.from_terms(1, [((0,), Perplex(1.0, 0.0))])
    with pytest.raises(ValueError):
        loja_scan(nonzero, complex_alg, 1e-4, 1e-1, 1000, seed=1)
    with pytest.raises(ValueError):
        loja_scan(single_power(2), complex_alg, 1e-1, 1e-4, 1000, seed=1)
    with pytest.raises(InsufficientSamples):
        loja_scan(single_power(2), complex_alg, 1e-4, 1e-1, 50, seed=1)


def test_polyn_json_round_trip():
    f = PerplexPolyN.from_terms(
        2, [((2, 0), Perplex(0.5, -1.5)), ((0, 1), Perplex(0.0, 2.0))]
    )
    again = PerplexPolyN.from_dict(f.to_dict())
    assert again == f
