"""Fibration checks: discriminant clouds, fibers, triviality probing."""

import numpy as np
import pytest

from perplex.algebra import (
    COMPLEX_PARAMS,
    HYPERBOLIC_PARAMS,
    Perplex,
    PerplexAlgebra,
    params_from_span,
    random_elements,
)
from perplex.errors import DegenerateAlgebra, EmptyFiber, MaskTooCoarse
from perplex.fibration import (
    _TARGET_RES,
    _fibers,
    _jacobian,
    _mask,
    _min_norm_step,
    _model,
    _newton,
    _rings,
    _roots,
    _x1_partials,
    critical_values,
    fiber_cloud,
    fiber_solve,
    local_triviality_check,
)
from perplex.multivar import PerplexPolyN
from perplex.structure import AlgebraKind, classify

from conftest import algebra_of_kind, philox

ONE = Perplex(1.0, 0.0)


def square_map():
    return PerplexPolyN.from_terms(1, [((2,), ONE)])


def identity_map():
    return PerplexPolyN.from_terms(1, [((1,), ONE)])


def sum_of_squares():
    return PerplexPolyN.from_terms(2, [((2, 0), ONE), ((0, 2), ONE)])


def product_map():
    return PerplexPolyN.from_terms(2, [((1, 1), ONE)])


@pytest.fixture(scope="module")
def complex_square_report():
    from perplex.algebra import COMPLEX_PARAMS

    return local_triviality_check(
        square_map(), PerplexAlgebra(COMPLEX_PARAMS), seed=3
    )


@pytest.fixture(scope="module")
def hyperbolic_square_report():
    from perplex.algebra import HYPERBOLIC_PARAMS

    return local_triviality_check(
        square_map(), PerplexAlgebra(HYPERBOLIC_PARAMS), seed=3
    )


class TestCriticalValues:
    def test_complex_square_discriminant_is_origin(self, complex_alg):
        disc = critical_values(square_map(), complex_alg)
        assert disc.shape == (1, 2)
        assert np.abs(disc).max() <= 1e-9

    def test_hyperbolic_square_discriminant_on_rays(self, hyperbolic_alg):
        disc = critical_values(square_map(), hyperbolic_alg)
        assert len(disc) > 1000
        # image of the critical lines x2 = +-x1 is the pair of rays
        # c1 = |c2| >= 0; traced samples must sit on them
        assert disc[:, 0].min() >= -1e-12
        off_ray = np.abs(disc[:, 0] - np.abs(disc[:, 1]))
        assert off_ray.max() <= 1e-9
        assert np.abs(disc).max() <= 1.35 * 0.05 + 1e-12

    def test_linear_map_has_empty_discriminant(self, complex_alg):
        disc = critical_values(identity_map(), complex_alg)
        assert disc.shape == (0, 2)

    def test_two_variable_discriminant_near_origin(self, complex_alg):
        disc = critical_values(sum_of_squares(), complex_alg, seed=2)
        assert len(disc) > 0
        assert np.abs(disc).max() <= 1e-6

    def test_degenerate_algebra_rejected(self, dual_alg):
        with pytest.raises(DegenerateAlgebra):
            critical_values(square_map(), dual_alg)

    @pytest.mark.parametrize(
        "terms",
        [[((2, 0), ONE)], [((2, 0), ONE), ((1, 1), Perplex(2.0, 0.0)), ((0, 2), ONE)]],
        ids=["z1^2", "(z1+z2)^2"],
    )
    def test_non_isolated_critical_set_has_value_zero(self, complex_alg, terms):
        # grad P vanishes on a whole complex line, where P = 0
        disc = critical_values(PerplexPolyN.from_terms(2, terms), complex_alg, seed=3)
        assert len(disc) > 0
        assert np.abs(disc).max() <= 1e-12

    def test_three_variable_map(self, complex_alg, hyperbolic_alg):
        squares = [((2, 0, 0), ONE), ((0, 2, 0), ONE), ((0, 0, 2), ONE)]
        f = PerplexPolyN.from_terms(3, squares)
        disc = critical_values(f, complex_alg, seed=1)
        assert len(disc) > 0 and np.abs(disc).max() <= 1e-12
        disc = critical_values(f, hyperbolic_alg, seed=1)
        model = np.column_stack([disc[:, 0] + disc[:, 1], disc[:, 0] - disc[:, 1]])
        assert len(disc) > 0 and np.abs(model).min(axis=1).max() <= 1e-12


@pytest.mark.parametrize("dim", [2, 4])
def test_min_norm_step_matches_pinv(dim):
    rng = np.random.Generator(np.random.Philox(dim))
    jac = rng.normal(size=(500, 2, dim))
    res = rng.normal(size=(500, 2))
    want = np.einsum("nij,nj->ni", np.linalg.pinv(jac), res)
    rel = np.linalg.norm(_min_norm_step(jac, res) - want, axis=1) / np.linalg.norm(
        want, axis=1
    )
    # the closed form solves with J J^T, whose condition number is cond(J)^2
    cond = np.linalg.cond(jac)
    assert np.all(rel <= 1e-12 * np.maximum(1.0, cond / 30.0) ** 2)
    singular = np.zeros((2, 2, dim))
    singular[1, 0, 0] = singular[1, 1, 0] = 1.0
    assert np.array_equal(_min_norm_step(singular, np.ones((2, 2))), np.zeros((2, dim)))


def _dual_algebra(rng) -> PerplexAlgebra:
    """A random dual-number algebra: span{I, M} with M a conjugated Jordan block."""
    while True:
        basis = rng.uniform(-1.0, 1.0, (2, 2))
        if abs(np.linalg.det(basis)) < 0.3:
            continue
        lam = rng.uniform(-1.0, 1.0)
        mat = basis @ np.array([[lam, 1.0], [0.0, lam]]) @ np.linalg.inv(basis)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        span = np.column_stack([u, mat @ u])
        hit = params_from_span(mat, span) if abs(np.linalg.det(span)) >= 0.1 else None
        if hit is not None and hit[1] >= 1e-3:
            return PerplexAlgebra(hit[0])


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_x2_partials_are_j_times_x1_partials(kind, nvars):
    # the generalized Cauchy-Riemann structure e2 * f_x1 = e1 * f_x2 makes
    # every x_i2 column of the real Jacobian L_j times its x_i1 column
    rng = philox(100 * nvars + list(AlgebraKind).index(kind))
    for _ in range(5):
        alg = _dual_algebra(rng) if kind is AlgebraKind.DEGENERATE else algebra_of_kind(rng, kind)
        cls = classify(alg)
        assert cls.kind is kind
        exps = rng.integers(0, 3, (6, nvars))
        f = PerplexPolyN.from_terms(nvars, zip(map(tuple, exps), random_elements(rng, 6)))
        m = f.to_polymap(alg)
        pts = rng.uniform(-1.0, 1.0, (50, 2 * nvars))
        full = np.stack(
            [np.stack([p.pderiv(k).eval_many(pts) for k in range(2 * nvars)], axis=1)
             for p in (m.u, m.v)],
            axis=1,
        )
        scale = 1e-12 * max(1.0, np.abs(full).max())
        for i in range(nvars):
            x1 = np.column_stack([m.u.pderiv(2 * i).eval_many(pts), m.v.pderiv(2 * i).eval_many(pts)])
            assert np.abs(full[:, :, 2 * i + 1] - x1 @ cls.l_j.T).max() <= scale
        assert np.abs(_jacobian(_x1_partials(m), cls.l_j, pts) - full).max() <= scale


def test_newton_stops_each_point_on_its_own(complex_alg):
    # the exact model root of z^2 = 0.3 + 0.1i already meets 1e-14, but a
    # step would still move its last bits; batched with a start that needs
    # steps, it must come back untouched
    m = square_map().to_polymap(complex_alg)
    target = np.array([0.3, 0.1])
    z = np.roots([1.0, 0.0, -(0.3 + 0.1j)])[0]
    root = np.array([z.real, z.imag])
    assert 0.0 < np.abs(m.eval_many(root) - target).max() <= 1e-14
    pts = np.vstack([root, root + 1e-3])
    out, res = _newton(m, _x1_partials(m), classify(complex_alg).l_j, pts, target, 2)
    assert np.array_equal(out[0], root) and np.array_equal(pts[0], root)
    assert res[0] <= 1e-14 < res[1] <= 1e-10
    assert np.linalg.norm(out[1] - root) < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_mask_and_rings_match_ndimage(seed):
    from scipy import ndimage

    rng = philox(seed)
    eta = 0.05
    cell = 2.0 * eta / _TARGET_RES
    # rays from the origin cut the disk into sectors; scattered points
    # reach past the grid, and the edge points sit in its first and last
    # cells or just outside them
    rays = [
        np.linspace(0.0, 1.5 * eta, 400)[:, None] * [np.cos(a), np.sin(a)]
        for a in rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(0, 5)))
    ]
    scattered = rng.uniform(-1.3 * eta, 1.3 * eta, (int(rng.integers(0, 300)), 2))
    along = rng.uniform(-eta, eta, 40)
    edge = [
        np.column_stack([np.full(40, x), along])[:, ::flip]
        for x in (-eta, -eta + 0.5 * cell, eta - 0.5 * cell, eta, -eta - 0.5 * cell)
        for flip in (1, -1)
    ]
    samples = np.vstack([np.empty((0, 2)), *rays, scattered, *edge])

    ij = np.floor((samples + eta) / cell).astype(int)
    ij = ij[((ij >= 0) & (ij < _TARGET_RES)).all(axis=1)]
    cells = np.zeros((_TARGET_RES, _TARGET_RES), dtype=bool)
    cells[ij[:, 1], ij[:, 0]] = True
    offs = np.arange(-2, 3)
    disk = offs[:, None] ** 2 + offs[None, :] ** 2 <= 4
    mask = _mask(samples, eta)
    assert np.array_equal(mask, ndimage.binary_dilation(cells, structure=disk))

    centers = -eta + (np.arange(_TARGET_RES) + 0.5) * cell
    cx, cy = np.meshgrid(centers, centers)
    labels, ncomp = ndimage.label(~mask & (cx**2 + cy**2 <= eta**2))
    ring, masked = _rings(labels, ncomp, mask)
    assert len(ring) == len(masked) == ncomp + 1
    for lab in range(1, ncomp + 1):
        inside = labels == lab
        want = ndimage.binary_dilation(inside) & ~inside
        assert ring[lab] == want.sum()
        assert masked[lab] == (want & mask).sum()
    assert np.array_equal(_mask(np.empty((0, 2)), eta), np.zeros_like(mask))


@pytest.mark.parametrize("dtype", [float, complex])
def test_batched_roots_match_np_roots(dtype):
    rng = philox(3 if dtype is float else 4)
    for degree in range(1, 7):
        for _ in range(20):
            head = rng.normal(size=degree).astype(dtype)
            if dtype is complex:
                head += 1j * rng.normal(size=degree)
            # leading zeros lower the degree, trailing ones meet zero constants
            head[: rng.integers(0, degree)] = 0.0
            head[degree - rng.integers(0, degree) :] = 0.0
            consts = rng.normal(size=6).astype(dtype)
            consts[rng.integers(0, 6, 2)] = 0.0
            got = _roots(head, consts)
            for row, c in zip(got, consts):
                want = np.roots(np.append(head, c))
                assert len(row) == len(np.trim_zeros(head, "f"))
                assert np.array_equal(row[: len(want)], want) and not row[len(want) :].any()


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", [AlgebraKind.FIELD, AlgebraKind.HYPERBOLIC])
def test_batched_fibers_match_single_target(kind, degree):
    rng = philox(10 * degree + (kind is AlgebraKind.FIELD))
    alg = algebra_of_kind(rng, kind)
    coeffs = random_elements(rng, degree + 1)
    f = PerplexPolyN.from_terms(1, [((k,), c) for k, c in enumerate(coeffs)])
    # the target f(0) leaves a zero model constant, for which np.roots
    # drops the trailing zeros
    targets = np.vstack(
        [rng.uniform(-0.5, 0.5, (40, 2)), coeffs[0].as_tuple(), (0.0, 0.0)]
    )
    _assert_batch_matches_singles(f, alg, targets)


def _assert_batch_matches_singles(f, alg, targets):
    roots, counts = _fibers(_model(f, alg), targets, 1.0)
    singles = [fiber_solve(f, alg, Perplex(*map(float, c))) for c in targets]
    assert counts.tolist() == [len(s) for s in singles]
    want = np.array([r.as_tuple() for s in singles for r in s]).reshape(-1, 2)
    assert np.array_equal(roots, want)
    return roots, counts


def test_batched_fibers_match_single_target_edge_cases():
    # a Hyperbolic map whose second model row has degree 1: u maps to the
    # first model axis, so p2 = v2 x only
    alg = PerplexAlgebra(HYPERBOLIC_PARAMS)
    u = np.linalg.solve(classify(alg).iso, [1.0, 0.0])
    f = PerplexPolyN.from_terms(1, [((2,), Perplex(*u)), ((1,), Perplex(0.3, -0.2))])
    assert _model(f, alg).coeffs[1, 0] == 0.0
    rng = philox(7)
    _, counts = _assert_batch_matches_singles(f, alg, rng.uniform(-0.2, 0.2, (40, 2)))
    assert set(counts.tolist()) >= {0, 2}

    # over C the square's model roots of 0.3 + 0.1i already meet 1e-14, so
    # that target is not polished while its neighbours are; the
    # left-wedge target of the split-complex square has no roots at all
    square = PerplexPolyN.from_terms(1, [((2,), Perplex(1.0, 0.0))])
    targets = np.vstack([rng.uniform(-0.4, 0.4, (20, 2)), (0.3, 0.1), (-0.03, 0.01)])
    complex_alg = PerplexAlgebra(COMPLEX_PARAMS)
    roots, counts = _assert_batch_matches_singles(square, complex_alg, targets)
    z = np.roots([1.0, 0.0, -(0.3 + 0.1j)])
    exact = np.column_stack([z.real, z.imag])[np.lexsort((z.imag, z.real))]
    end = counts[:21].sum()
    assert np.array_equal(roots[end - 2 : end], exact)
    split_alg = PerplexAlgebra(HYPERBOLIC_PARAMS)
    _, counts = _assert_batch_matches_singles(square, split_alg, targets)
    assert counts[-1] == 0


class TestTwoVariableHyperbolicDiscriminant:
    # Over R + R both maps split into (p(s1, s2), p(t1, t2)) with the
    # model coordinates s = c1 + c2 and t = c1 - c2; a critical point
    # zeroes the gradient of one factor, whose value there is 0.  The
    # floors sit at the fewest samples seen over seeds 0-299 (30 and 42).
    @pytest.mark.parametrize(
        "make_map, floor", [(sum_of_squares, 30), (product_map, 42)]
    )
    def test_samples_on_model_axes(self, hyperbolic_alg, make_map, floor):
        disc = critical_values(make_map(), hyperbolic_alg, seed=5)
        assert len(disc) >= floor
        model = np.column_stack([disc[:, 0] + disc[:, 1], disc[:, 0] - disc[:, 1]])
        assert np.abs(model).min(axis=1).max() <= 1e-8
        again = critical_values(make_map(), hyperbolic_alg, seed=5)
        assert np.array_equal(disc, again)


class TestFiberSolve:
    def test_complex_square_roots_of_unity(self, complex_alg):
        roots = fiber_solve(square_map(), complex_alg, Perplex(1.0, 0.0))
        got = sorted(r.as_tuple() for r in roots)
        assert len(got) == 2
        assert abs(got[0][0] + 1.0) <= 1e-9 and abs(got[0][1]) <= 1e-9
        assert abs(got[1][0] - 1.0) <= 1e-9 and abs(got[1][1]) <= 1e-9

    def test_complex_square_double_root_collapses(self, complex_alg):
        roots = fiber_solve(square_map(), complex_alg, Perplex(0.0, 0.0))
        assert len(roots) == 1
        assert roots[0].max_norm() <= 1e-5

    def test_hyperbolic_square_four_roots_closed_form(self, hyperbolic_alg):
        c = Perplex(1.0, 0.5)
        roots = fiber_solve(square_map(), hyperbolic_alg, c)
        s, t = np.sqrt(1.5), np.sqrt(0.5)
        a, b = (s + t) / 2.0, (s - t) / 2.0
        want = sorted([(-a, -b), (-b, -a), (b, a), (a, b)])
        got = sorted(r.as_tuple() for r in roots)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert abs(g[0] - w[0]) <= 1e-9 and abs(g[1] - w[1]) <= 1e-9

    def test_hyperbolic_left_wedge_is_empty(self, hyperbolic_alg):
        roots = fiber_solve(square_map(), hyperbolic_alg, Perplex(-0.03, 0.01))
        assert roots == []

    def test_residuals_and_separation(self, hyperbolic_alg):
        alg = hyperbolic_alg
        f = square_map()
        rng = np.random.Generator(np.random.Philox(41))
        for _ in range(10):
            c2 = rng.uniform(-0.02, 0.02)
            c = Perplex(abs(c2) + rng.uniform(0.005, 0.03), c2)
            roots = fiber_solve(f, alg, c)
            assert len(roots) == 4
            for r in roots:
                assert (alg.mul(r, r) - c).max_norm() <= 1e-10
            pts = np.array([r.as_tuple() for r in roots])
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            assert d[~np.eye(4, dtype=bool)].min() >= 1e-6

    def test_two_variable_input_rejected(self, complex_alg):
        with pytest.raises(ValueError):
            fiber_solve(sum_of_squares(), complex_alg, Perplex(0.1, 0.0))


class TestLocalTriviality:
    def test_complex_square_single_component_count_two(
        self, complex_square_report
    ):
        rep = complex_square_report
        assert len(rep.components) == 1
        assert rep.fiber_counts() == [[2] * 8]
        assert rep.consistent
        assert rep.halvings == 0
        assert rep.algebra_kind == "Field"

    def test_hyperbolic_square_four_sectors(self, hyperbolic_square_report):
        rep = hyperbolic_square_report
        assert len(rep.components) == 4
        majorities = sorted(c.majority for c in rep.components)
        assert majorities == [0, 0, 0, 4]
        assert all(c.constant for c in rep.components)
        assert rep.consistent
        assert rep.algebra_kind == "Hyperbolic"

    def test_linear_map_single_sheet(self, complex_alg):
        rep = local_triviality_check(identity_map(), complex_alg, seed=3)
        assert len(rep.components) == 1
        assert rep.fiber_counts() == [[1] * 8]

    def test_counts_do_not_depend_on_probe_seed(
        self, hyperbolic_alg, hyperbolic_square_report
    ):
        other = local_triviality_check(square_map(), hyperbolic_alg, seed=11)
        a = sorted(tuple(c.counts) for c in hyperbolic_square_report.components)
        b = sorted(tuple(c.counts) for c in other.components)
        assert a == b

    def test_eta_too_large_rejected(self, complex_alg):
        with pytest.raises(ValueError):
            local_triviality_check(square_map(), complex_alg, eta=0.2)

    def test_degenerate_algebra_rejected(self, dual_alg):
        with pytest.raises(DegenerateAlgebra):
            local_triviality_check(square_map(), dual_alg)

    def test_impossible_probe_demand_raises(self, complex_alg):
        with pytest.raises(MaskTooCoarse):
            local_triviality_check(
                square_map(), complex_alg, probes_per_component=10**6, seed=3
            )

    def test_report_serialization(self, hyperbolic_square_report):
        d = hyperbolic_square_report.to_dict()
        for key in (
            "algebraKind",
            "discriminantSamples",
            "componentLabels",
            "fiberCounts",
            "constant",
            "epsilon",
            "eta",
        ):
            assert key in d
        assert len(d["fiberCounts"]) == 4
        assert all(len(pair) == 2 for comp in d["fiberCounts"] for pair in comp)


class TestFiberCloud:
    def test_complex_level_set_is_connected(self, complex_alg):
        cloud = fiber_cloud(sum_of_squares(), complex_alg, Perplex(0.05, 0.0), seed=5)
        assert cloud.connectivity == 1
        assert cloud.residual_max <= 1e-10
        assert not cloud.on_discriminant
        assert len(cloud.points) > 1000

    def test_hyperbolic_torus_connected_across_seeds(self, hyperbolic_alg):
        a = fiber_cloud(sum_of_squares(), hyperbolic_alg, Perplex(0.05, 0.01), seed=5)
        b = fiber_cloud(sum_of_squares(), hyperbolic_alg, Perplex(0.05, 0.01), seed=17)
        assert a.connectivity == 1
        assert b.connectivity == a.connectivity
        assert a.residual_max <= 1e-10 and b.residual_max <= 1e-10

    def test_split_level_set_reports_two_sheets(self, complex_alg):
        sheets = PerplexPolyN.from_terms(2, [((2, 0), ONE)])
        cloud = fiber_cloud(sheets, complex_alg, Perplex(0.05, 0.0), seed=5)
        assert cloud.connectivity == 2

    def test_critical_target_is_flagged(self, complex_alg):
        cloud = fiber_cloud(sum_of_squares(), complex_alg, Perplex(0.0, 0.0), seed=5)
        assert cloud.on_discriminant

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("model", [(0.0, 0.03), (0.025, 0.0)])
    def test_split_targets_on_model_half_axes_are_flagged(
        self, hyperbolic_alg, model, seed
    ):
        # model coordinates (c1 + c2, c1 - c2): a target on a half-axis
        # away from the origin is a critical value of z1^2 + z2^2
        c = Perplex((model[0] + model[1]) / 2.0, (model[0] - model[1]) / 2.0)
        cloud = fiber_cloud(
            sum_of_squares(), hyperbolic_alg, c, cloud_size=512, seed=seed
        )
        assert cloud.on_discriminant

    def test_unreachable_target_raises(self, complex_alg):
        with pytest.raises(EmptyFiber):
            fiber_cloud(sum_of_squares(), complex_alg, Perplex(5.0, 0.0), seed=5)

    def test_one_variable_input_rejected(self, complex_alg):
        with pytest.raises(ValueError):
            fiber_cloud(square_map(), complex_alg, Perplex(0.05, 0.0), seed=5)
