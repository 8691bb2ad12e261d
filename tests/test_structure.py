"""Classification layer: discriminant, kinds, isomorphisms, nilpotents."""

import math

import numpy as np
import pytest

from perplex.algebra import (
    AlgebraParams,
    Perplex,
    PerplexAlgebra,
    params_from_span,
    sample_valid_params,
)
from perplex.errors import DegenerateParams, IllConditioned
from perplex.structure import (
    AlgebraKind,
    _iso_residual,
    classify,
    discriminant,
    model_identity,
    model_product,
    nilpotent_directions,
)

from conftest import philox


def sylvester_resultant(pa, pb):
    """Independent oracle: resultant of two quadratics via the 4x4
    Sylvester determinant."""
    p2, p1, p0 = pa
    q2, q1, q0 = pb
    s = np.array(
        [
            [p2, p1, p0, 0.0],
            [0.0, p2, p1, p0],
            [q2, q1, q0, 0.0],
            [0.0, q2, q1, q0],
        ]
    )
    return float(np.linalg.det(s))


def test_discriminant_frozen_values(complex_alg, hyperbolic_alg, dual_alg):
    assert discriminant(complex_alg.params) == -4.0
    assert discriminant(hyperbolic_alg.params) == 4.0
    assert discriminant(dual_alg.params) == 0.0


def test_discriminant_is_resultant_of_direction_quadratics():
    rng = philox(31415)
    for _ in range(300):
        a = tuple(rng.uniform(-2, 2, size=3))
        b = tuple(rng.uniform(-2, 2, size=3))
        params = AlgebraParams(a, b)
        delta = discriminant(params)
        res = sylvester_resultant(
            (a[2], 2.0 * a[1], a[0]), (b[2], 2.0 * b[1], b[0])
        )
        assert delta == pytest.approx(res, rel=1e-9, abs=1e-12)


def test_classify_complex(complex_alg):
    c = classify(complex_alg)
    assert c.kind is AlgebraKind.FIELD
    assert c.delta == -4.0
    assert c.j == Perplex(0.0, 1.0)
    assert np.allclose(c.l_j, [[0.0, -1.0], [1.0, 0.0]])
    assert c.char_trace == pytest.approx(0.0, abs=1e-12)
    assert c.char_det == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(c.iso, np.eye(2), atol=1e-12)
    assert c.iso_residual <= 1e-8


def test_classify_hyperbolic(hyperbolic_alg):
    c = classify(hyperbolic_alg)
    assert c.kind is AlgebraKind.HYPERBOLIC
    assert c.delta == 4.0
    assert np.allclose(c.iso, [[1.0, 1.0], [1.0, -1.0]], atol=1e-12)
    assert c.iso_residual <= 1e-8
    # idempotents (identity +- j_hat) / 2 square to themselves
    e = hyperbolic_alg.identity
    j_hat = c.j - e * (c.char_trace / 2.0)
    j_hat = j_hat / math.sqrt(c.char_trace**2 / 4.0 - c.char_det)
    for sign in (1.0, -1.0):
        idem = (e + j_hat * sign) * 0.5
        sq = hyperbolic_alg.mul(idem, idem)
        assert (sq - idem).max_norm() <= 1e-12


def test_classify_dual_boundary(dual_alg):
    c = classify(dual_alg)
    assert c.kind is AlgebraKind.DEGENERATE
    assert c.delta == 0.0
    assert c.j == Perplex(0.0, 1.0)
    # nilpotent direction j - identity = (-1, 1), normalized to unit
    # max-norm, maps to the model generator; identity maps to (1, 0)
    assert np.allclose(c.iso @ np.array([1.0, 0.0]), [1.0, 0.0], atol=1e-12)
    assert np.allclose(c.iso @ np.array([-1.0, 1.0]), [0.0, 1.0], atol=1e-12)
    n = c.j - dual_alg.identity
    sq = dual_alg.mul(n, n)
    assert sq.max_norm() == 0.0
    assert c.iso_residual <= 1e-8


def test_classify_requires_standard_branch():
    # the diagonal-shape product is constructible only unchecked, and
    # classification refuses it
    alg = PerplexAlgebra(AlgebraParams((1, 0, 0), (0, 1, 5)), validate=False)
    assert alg.report.branch == "special-case"
    with pytest.raises(DegenerateParams):
        classify(alg)


def test_char_poly_discriminant_identity():
    rng = philox(2718)
    for _ in range(200):
        alg = PerplexAlgebra(sample_valid_params(rng))
        c = classify(alg)
        disc_char = c.char_trace**2 - 4.0 * c.char_det
        want = c.delta / alg.det_a**2
        assert disc_char == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_iso_over_random_params():
    rng = philox(424242)
    for _ in range(100):
        alg = PerplexAlgebra(sample_valid_params(rng))
        c = classify(alg)
        assert c.iso_residual <= 1e-8
        # identity lands on the model identity
        e = np.array(alg.identity.as_tuple())
        want = np.array(model_identity(c.kind).as_tuple())
        assert np.allclose(c.iso @ e, want, atol=1e-9)
        # matrix of multiplication by j agrees with the classification
        assert np.allclose(
            alg.left_mult_matrix(c.j), c.l_j, atol=1e-9 * max(1.0, abs(c.char_trace))
        )


def test_field_generator_squares_to_minus_one():
    rng = philox(5150)
    found = 0
    while found < 20:
        alg = PerplexAlgebra(sample_valid_params(rng))
        c = classify(alg)
        if c.kind is not AlgebraKind.FIELD:
            continue
        found += 1
        e = alg.identity
        j_hat = c.j - e * (c.char_trace / 2.0)
        j_hat = j_hat / math.sqrt(c.char_det - c.char_trace**2 / 4.0)
        sq = alg.mul(j_hat, j_hat)
        assert (sq + e).max_norm() <= 1e-9 * max(1.0, e.max_norm())


def test_nilpotent_directions_frozen(complex_alg, hyperbolic_alg, dual_alg):
    assert nilpotent_directions(complex_alg) == []
    assert nilpotent_directions(hyperbolic_alg) == []
    dirs = nilpotent_directions(dual_alg)
    assert len(dirs) == 1
    s = math.sqrt(0.5)
    assert (dirs[0] - Perplex(s, -s)).max_norm() <= 1e-12
    sq = dual_alg.mul(dirs[0], dirs[0])
    assert sq.max_norm() <= 1e-15


def test_no_nilpotents_when_delta_nonzero():
    rng = philox(808)
    checked = 0
    while checked < 30:
        params = sample_valid_params(rng)
        if abs(discriminant(params)) < 1e-3:
            continue
        checked += 1
        alg = PerplexAlgebra(params)
        assert nilpotent_directions(alg) == []
        angles = np.linspace(0.0, np.pi, 720, endpoint=False)
        for t in angles:
            x = Perplex(math.cos(t), math.sin(t))
            assert alg.mul(x, x).max_norm() >= 1e-6


def test_degenerate_circle_search_matches_directions(dual_alg):
    dirs = nilpotent_directions(dual_alg)
    angles = np.linspace(0.0, np.pi, 720, endpoint=False)
    hits = [
        Perplex(math.cos(t), math.sin(t))
        for t in angles
        if dual_alg.mul(
            Perplex(math.cos(t), math.sin(t)), Perplex(math.cos(t), math.sin(t))
        ).max_norm()
        < 1e-4
    ]
    assert hits, "circle sweep should brush the nilpotent line"
    for h in hits:
        assert min(
            min((h - d).max_norm(), (h + d).max_norm()) for d in dirs
        ) <= 1e-2


def near_dual_params(rng, count):
    """span{I, M} with M similar to [[lam, 1], [delta, lam]] and |delta|
    log-uniform in 1e-11..1e-7: algebras at the edge of the degenerate
    band."""
    out = []
    while len(out) < count:
        lam = rng.uniform(-1.0, 1.0)
        delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.0, -7.0)
        p = rng.uniform(-1.0, 1.0, size=(2, 2))
        if abs(np.linalg.det(p)) < 0.1:
            continue
        mat = p @ np.array([[lam, 1.0], [delta, lam]]) @ np.linalg.inv(p)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        basis = np.column_stack([u, mat @ u])
        if abs(np.linalg.det(basis)) < 0.1:
            continue
        hit = params_from_span(mat, basis)
        if hit is not None:
            out.append(hit[0])
    return out


def test_nilpotents_exactly_when_degenerate():
    checked = 0
    for params in near_dual_params(philox(1961), 200):
        alg = PerplexAlgebra(params)
        try:
            kind = classify(alg).kind
            dirs = nilpotent_directions(alg)
        except IllConditioned:
            continue
        checked += 1
        assert bool(dirs) == (kind is AlgebraKind.DEGENERATE), params
        for d in dirs:
            assert alg.mul(d, d).max_norm() <= 1e-6
    assert checked >= 150


def test_near_dual_pinned_case_has_its_nilpotent():
    alg = PerplexAlgebra(
        AlgebraParams(
            (0.22604926633443342, 0.7346512311538725, 1.0),
            (-0.02239463395987604, -0.03048335456363716, 0.38546156125411574),
        )
    )
    assert classify(alg).kind is AlgebraKind.DEGENERATE
    (d,) = nilpotent_directions(alg)
    assert d.euclid_norm() == pytest.approx(1.0, abs=1e-15)
    assert alg.mul(d, d).max_norm() <= 1e-6


def test_iso_residual_sees_a_small_corruption():
    rng = philox(6021)
    for _ in range(20):
        alg = PerplexAlgebra(sample_valid_params(rng))
        c = classify(alg)
        bent = c.iso + 1e-6 * np.array([[0.0, 1.0], [0.0, 0.0]])
        assert _iso_residual(alg, c.kind, bent) >= 1e-7


def test_model_product_shapes():
    s, t = Perplex(2, 3), Perplex(-1, 4)
    assert model_product(AlgebraKind.FIELD, s, t) == Perplex(-14.0, 5.0)
    assert model_product(AlgebraKind.HYPERBOLIC, s, t) == Perplex(-2.0, 12.0)
    assert model_product(AlgebraKind.DEGENERATE, s, t) == Perplex(-2.0, 5.0)
