"""Linear and quadratic fitting, certificates, approximating sequences."""

import numpy as np
import pytest

from perplex.algebra import (
    COMPLEX_PARAMS,
    HYPERBOLIC_PARAMS,
    PerplexAlgebra,
    validate_params,
)
from perplex.approximation import (
    MAX_SEQUENCE,
    approx_linear_sequence,
    approx_quadratic,
    fit_linear,
    params_from_T,
    quad_T_matrix,
)
from perplex.calculus import PolyMap, gcr_residual, linear_polymap
from perplex.errors import FitFailed
from perplex.realpoly import RealPoly

from conftest import philox


ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
REFLECTION = np.diag([1.0, -1.0])


def quad_map(cu, cv):
    """Build a one-variable quadratic map from coefficient dicts."""
    return PolyMap(
        1,
        RealPoly.from_terms(2, cu.items()),
        RealPoly.from_terms(2, cv.items()),
    )


def f_eps(eps):
    return quad_map(
        {(2, 0): 1.0, (1, 1): eps},
        {(2, 0): eps, (0, 2): 1.0},
    )


def squares_map():
    return quad_map({(2, 0): 1.0}, {(0, 2): 1.0})


# -- fit_linear ------------------------------------------------------ #


def test_fit_linear_rotation_gives_complex_params():
    res = fit_linear(ROTATION)
    assert res.status == "Exact"
    assert res.params == COMPLEX_PARAMS
    assert res.derivative.as_tuple() == (0.0, 1.0)
    assert res.residual <= 1e-12


def test_fit_linear_swap_gives_hyperbolic_params():
    res = fit_linear(SWAP)
    assert res.status == "Exact"
    assert res.params == HYPERBOLIC_PARAMS
    assert res.derivative.as_tuple() == (0.0, 1.0)


def test_fit_linear_scalar_matrices():
    res = fit_linear(np.eye(2))
    assert res.status == "Exact"
    alg = PerplexAlgebra(res.params)
    assert res.derivative == alg.identity

    res = fit_linear(2.5 * np.eye(2))
    assert res.status == "Exact"
    one = PerplexAlgebra(res.params).identity
    assert res.derivative.as_tuple() == (2.5 * one.x1, 2.5 * one.x2)


def test_fit_linear_reflection_certificate():
    res = fit_linear(REFLECTION)
    assert res.status == "Infeasible"
    assert res.params is None
    assert "a1*b2 - a2*b1" in res.certificate


def test_fit_linear_triangular_certificates():
    upper = fit_linear(np.array([[2.0, 1.0], [0.0, 1.0]]))
    assert upper.status == "Infeasible"
    assert "a1*b2 - a2*b1" in upper.certificate

    lower = fit_linear(np.array([[2.0, 0.0], [1.0, 1.0]]))
    assert lower.status == "Infeasible"
    assert "a1*a3 - a2^2" in lower.certificate


def test_fit_linear_exact_invariants():
    rng = philox(404)
    for _ in range(200):
        mat = rng.uniform(-1.0, 1.0, size=(2, 2))
        res = fit_linear(mat)
        if res.status != "Exact":
            continue
        report = validate_params(res.params)
        assert report.valid and report.branch == "standard"
        alg = PerplexAlgebra(res.params)
        scale = max(1.0, float(np.abs(mat).max()))
        assert np.abs(alg.left_mult_matrix(res.derivative) - mat).max() <= 1e-9 * scale
        assert gcr_residual(linear_polymap(mat), alg).is_zero(1e-9)


def test_fit_linear_generic_success_rate():
    rng = philox(405)
    hits = 0
    for _ in range(1000):
        mat = rng.uniform(-1.0, 1.0, size=(2, 2))
        if fit_linear(mat).status == "Exact":
            hits += 1
    assert hits >= 990


def test_fit_linear_deterministic():
    mat = np.array([[0.3, -0.8], [0.55, 0.1]])
    first = fit_linear(mat)
    second = fit_linear(mat)
    assert first.params == second.params
    assert first.derivative == second.derivative


# -- approx_linear_sequence ------------------------------------------ #


def test_approx_sequence_reflection():
    seq = approx_linear_sequence(REFLECTION, 5)
    assert len(seq) == 5
    prev = np.inf
    for k, (jk, params) in enumerate(seq, start=1):
        dist = np.linalg.norm(jk - REFLECTION, 2)
        assert dist <= 2.0 / k
        assert dist < prev
        prev = dist
        assert fit_linear(jk).status == "Exact"
        assert validate_params(params).valid


def test_approx_sequence_constant_when_already_exact():
    seq = approx_linear_sequence(ROTATION, 4)
    assert len(seq) == 4
    for jk, params in seq:
        assert np.array_equal(jk, ROTATION)
        assert params == COMPLEX_PARAMS


def test_approx_sequence_upper_triangular():
    # every rotation of the near-scalar diagonal matrix is near scalar too, and
    # fits through its traceless part
    for mat in (np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([[0.8871, 0.0], [0.0, 0.8979]])):
        seq = approx_linear_sequence(mat, 5)
        bound = 2.0 * np.linalg.norm(mat, 2)
        for k, (jk, _) in enumerate(seq, start=1):
            assert np.linalg.norm(jk - mat, 2) <= bound / k
            assert fit_linear(jk).status == "Exact"


@pytest.mark.parametrize("diagonal", [(0.8871, 0.8979), (1.0, 1.01)])
def test_approx_sequence_near_scalar_reaches_the_longest(diagonal):
    mat = np.diag(diagonal)
    seq = approx_linear_sequence(mat, MAX_SEQUENCE)
    assert len(seq) == MAX_SEQUENCE
    dists = [np.linalg.norm(jk - mat, 2) for jk, _ in seq]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 2.0 * np.linalg.norm(mat, 2) / MAX_SEQUENCE
    jk, params = seq[-1]
    assert fit_linear(jk).status == "Exact" and validate_params(params).valid


def test_near_scalar_fit_reads_the_traceless_part():
    mat = np.array([[0.8871, 1e-3], [2e-3, 0.8979]])
    fit = fit_linear(mat)
    assert fit.status == "Exact" and fit.residual <= 1e-12
    assert np.abs(PerplexAlgebra(fit.params).left_mult_matrix(fit.derivative) - mat).max() <= 1e-12


# -- quad_T_matrix ---------------------------------------------------- #


def test_quad_T_rejects_coordinate_squares():
    res = quad_T_matrix(squares_map())
    assert res.status == "Inconsistent"
    assert res.residual >= 1.0


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.1])
def test_quad_T_accepts_f_eps(eps):
    res = quad_T_matrix(f_eps(eps))
    assert res.status == "Exact"
    expected = np.array([[0.0, 0.5], [2.0 / eps, -2.0 / eps**2]])
    assert np.abs(res.T - expected).max() <= 1e-8


def test_quad_T_f_eps_not_realizable_off_two():
    res = quad_T_matrix(f_eps(0.5))
    assert res.status == "Exact"
    assert res.params is None
    assert "first column" in res.certificate

    res2 = quad_T_matrix(f_eps(2.0))
    assert res2.status == "Exact"
    assert res2.params is not None
    assert gcr_residual(f_eps(2.0), PerplexAlgebra(res2.params)).is_zero(1e-9)


def test_quad_T_linear_and_constant_maps():
    lin = linear_polymap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    res = quad_T_matrix(lin)
    assert res.status == "Exact"

    const = quad_map({(0, 0): 3.0}, {(0, 0): -1.0})
    res = quad_T_matrix(const)
    assert res.status == "Exact"
    assert np.abs(res.T).max() == 0.0


def test_quad_T_degree_guard():
    cubic = quad_map({(3, 0): 1.0}, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        quad_T_matrix(cubic)


# -- params_from_T ----------------------------------------------------- #


def test_params_from_T_canonical_pairs():
    assert params_from_T(ROTATION) == COMPLEX_PARAMS
    assert params_from_T(SWAP) == HYPERBOLIC_PARAMS


def test_params_from_T_realizable_random():
    rng = philox(406)
    for _ in range(50):
        c = rng.uniform(0.2, 1.5) * (1 if rng.uniform() < 0.5 else -1)
        d = rng.uniform(-1.5, 1.5)
        t_mat = np.array([[0.0, c], [1.0, d]])
        params = params_from_T(t_mat)
        report = validate_params(params)
        assert report.valid and report.branch == "standard"
        alg = PerplexAlgebra(params)
        a_op, b_op = alg.basis_matrices()
        assert np.abs(b_op - a_op @ t_mat).max() <= 1e-12


def test_params_from_T_consistent_quadratic_has_zero_residual():
    rng = philox(407)
    for _ in range(20):
        c = rng.uniform(0.3, 1.2)
        d = rng.uniform(-1.0, 1.0)
        t_mat = np.array([[0.0, c], [1.0, d]])
        params = params_from_T(t_mat)
        m0 = rng.uniform(-1.0, 1.0, size=2)
        m1 = rng.uniform(-1.0, 1.0, size=2)
        m2 = t_mat @ m1
        n0, n2 = t_mat @ m0, t_mat @ m2
        m = quad_map(
            {
                (1, 0): m0[0],
                (2, 0): m1[0] / 2.0,
                (1, 1): m2[0],
                (0, 1): n0[0],
                (0, 2): n2[0] / 2.0,
            },
            {
                (1, 0): m0[1],
                (2, 0): m1[1] / 2.0,
                (1, 1): m2[1],
                (0, 1): n0[1],
                (0, 2): n2[1] / 2.0,
            },
        )
        assert quad_T_matrix(m).status == "Exact"
        assert gcr_residual(m, PerplexAlgebra(params)).is_zero(1e-9)


def test_params_from_T_structural_failures():
    with pytest.raises(FitFailed, match="first column"):
        params_from_T(np.array([[0.0, 0.5], [4.0, -8.0]]))
    with pytest.raises(FitFailed, match="singular"):
        params_from_T(np.array([[0.0, 0.0], [1.0, 0.7]]))


# -- approx_quadratic -------------------------------------------------- #


def test_approx_quadratic_squares_recover_f_eps():
    out = approx_quadratic(squares_map(), 0.1)
    assert out.u.terms == f_eps(0.1).u.terms
    assert out.v.terms == f_eps(0.1).v.terms
    assert quad_T_matrix(out).status == "Exact"


def test_approx_quadratic_exact_map_unchanged():
    g = f_eps(0.5)
    out = approx_quadratic(g, 0.25)
    assert out.u.terms == g.u.terms
    assert out.v.terms == g.v.terms


def test_approx_quadratic_independent_columns_touch_only_x2sq():
    rng = philox(408)
    for _ in range(25):
        coeffs_u = {
            (0, 0): rng.uniform(-1, 1),
            (1, 0): rng.uniform(-1, 1),
            (0, 1): rng.uniform(-1, 1),
            (2, 0): rng.uniform(-1, 1),
            (1, 1): rng.uniform(-1, 1),
            (0, 2): rng.uniform(-1, 1),
        }
        coeffs_v = {k: rng.uniform(-1, 1) for k in coeffs_u}
        g = quad_map(coeffs_u, coeffs_v)
        if quad_T_matrix(g).status == "Exact":
            continue
        out = approx_quadratic(g, 1e-2)
        assert quad_T_matrix(out).status == "Exact"
        for exp in coeffs_u:
            if exp == (0, 2):
                continue
            assert out.u.terms.get(exp, 0.0) == pytest.approx(coeffs_u[exp], abs=0)
            assert out.v.terms.get(exp, 0.0) == pytest.approx(coeffs_v[exp], abs=0)


def test_approx_quadratic_repair_cost_tracks_defect():
    rng = philox(409)
    for _ in range(30):
        c = rng.uniform(0.3, 1.2)
        d = rng.uniform(-1.0, 1.0)
        t_mat = np.array([[0.0, c], [1.0, d]])
        m0 = rng.uniform(-1.0, 1.0, size=2)
        m1 = rng.uniform(-1.0, 1.0, size=2)
        if abs(np.linalg.det(np.column_stack([m0, m1]))) < 0.1:
            continue
        m2 = t_mat @ m1
        n0, n2 = t_mat @ m0, t_mat @ m2
        bump = rng.uniform(-5e-3, 5e-3, size=2)
        g = quad_map(
            {
                (1, 0): m0[0],
                (2, 0): m1[0] / 2.0,
                (1, 1): m2[0],
                (0, 1): n0[0],
                (0, 2): (n2[0] + bump[0]) / 2.0,
            },
            {
                (1, 0): m0[1],
                (2, 0): m1[1] / 2.0,
                (1, 1): m2[1],
                (0, 1): n0[1],
                (0, 2): (n2[1] + bump[1]) / 2.0,
            },
        )
        out = approx_quadratic(g, 1e-2)
        assert quad_T_matrix(out).status == "Exact"
        dist = max(
            max(abs(out.u.terms.get(e, 0.0) - g.u.terms.get(e, 0.0)) for e in set(out.u.terms) | set(g.u.terms)),
            max(abs(out.v.terms.get(e, 0.0) - g.v.terms.get(e, 0.0)) for e in set(out.v.terms) | set(g.v.terms)),
        )
        assert dist <= 1e-2


def test_approx_quadratic_rejects_zero_eps():
    with pytest.raises(ValueError):
        approx_quadratic(squares_map(), 0.0)
