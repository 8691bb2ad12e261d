"""Fibration checks: discriminant clouds, fibers, triviality probing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perplex.algebra import (
    COMPLEX_PARAMS,
    HYPERBOLIC_PARAMS,
    Perplex,
    PerplexAlgebra,
    params_from_span,
    random_elements,
    sample_valid_params,
)
from perplex.errors import DegenerateAlgebra, EmptyFiber
from perplex.fibration import (
    _KNN,
    _TARGET_RES,
    _discriminant,
    _fibers,
    _linkage,
    _min_norm_step,
    _model,
    _newton,
    _roots,
    critical_values,
    fiber_cloud,
    fiber_solve,
    local_triviality_check,
)
from perplex import fibration, multivar
from perplex.multivar import PerplexPolyN, partial_derivative, real_jacobian
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

    def test_two_variable_rows(self, complex_alg, hyperbolic_alg):
        rows = _discriminant(_model(product_map(), hyperbolic_alg), 1.0, 0.05)[1]
        assert rows.shape == (2, 4)
        assert (rows[:, 0] == [0, 1]).all() and np.abs(rows[:, 1]).max() <= 1e-12
        assert (rows[:, 2] == -np.inf).all() and (rows[:, 3] == np.inf).all()
        # every converged Newton start reaches the critical value 0: one row
        samples, rows = _discriminant(_model(sum_of_squares(), complex_alg), 1.0, 0.05, seed=0)
        assert rows.shape == (1, 4) and rows[0, 0] == 0 and np.abs(rows[0, 1:]).max() <= 1e-12
        assert samples.shape == (1, 2) and np.abs(samples).max() <= 1e-12
        assert (critical_values(sum_of_squares(), complex_alg, seed=0) == samples).all()

    def test_degenerate_algebra_rejected(self, dual_alg):
        with pytest.raises(DegenerateAlgebra):
            critical_values(square_map(), dual_alg)

    @pytest.mark.parametrize(
        "params, linear, levels",
        [(COMPLEX_PARAMS, -1.62, [(0, -0.972), (0, 0.972)]),
         (HYPERBOLIC_PARAMS, -2.88, [(0, -3.258), (0, 3.258)])],
        ids=["complex", "split"],
    )
    def test_one_variable_critical_points_lie_in_the_ball(self, params, linear, levels):
        # z^3/3 + (0, linear) z has its critical points (Field) or critical
        # lines (Hyperbolic) 1.27 and 1.2 from the origin: inside the box
        # |x|_inf <= 1 but outside the unit ball, which both forms must use
        alg = PerplexAlgebra(params)
        terms = [(3, Perplex(1.0 / 3.0, 0.0)), (1, Perplex(0.0, linear))]
        one = PerplexPolyN.from_terms(1, [((k,), c) for k, c in terms])
        two = PerplexPolyN.from_terms(2, [((k, 0), c) for k, c in terms])
        for epsilon, want in ((1.0, []), (2.0, levels)):
            rows = [_discriminant(_model(f, alg), epsilon, 5.0)[1] for f in (one, two)]
            for got in rows:
                got = sorted(zip(got[:, 0], got[:, 1]))
                assert np.allclose(got, want, atol=1e-3) and len(got) == len(want)
        assert critical_values(one, alg, 1.0, 5.0).shape == (0, 2)

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


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_min_norm_step_matches_pinv(dim):
    # the elementwise step from the perplex partials is pinv(J) r for the
    # real Jacobian J of random maps in dim / 2 variables
    nvars = dim // 2
    rng = philox(dim)
    for kind in (AlgebraKind.FIELD, AlgebraKind.HYPERBOLIC):
        alg = algebra_of_kind(rng, kind)
        exps = rng.integers(0, 3, (6, nvars))
        f = PerplexPolyN.from_terms(nvars, zip(map(tuple, exps), random_elements(rng, 6)))
        pts = rng.uniform(-1.0, 1.0, (500, dim))
        res = rng.normal(size=(500, 2))
        grads = [tuple(partial_derivative(f, i).eval_many(alg, pts).T) for i in range(nvars)]
        step = np.column_stack(_min_norm_step(alg, grads, *res.T))
        jac = real_jacobian(f, alg, pts)
        want = np.einsum("nij,nj->ni", np.linalg.pinv(jac), res)
        rel = np.linalg.norm(step - want, axis=1) / np.linalg.norm(want, axis=1)
        # the closed form solves with J J^T, whose condition number is cond(J)^2
        cond = np.linalg.cond(jac)
        assert cond.max() < 1e6
        assert np.all(rel <= 1e-12 * np.maximum(1.0, cond / 30.0) ** 2)
    # a zero partial and partials on one zero-divisor line of the split
    # complex numbers make J J^T singular: the step is zero
    grads = [(np.array([0.0, 1.0]), np.array([0.0, 1.0]))] * nvars
    step = np.column_stack(
        _min_norm_step(PerplexAlgebra(HYPERBOLIC_PARAMS), grads, np.ones(2), np.ones(2))
    )
    assert np.array_equal(step, np.zeros((2, dim)))


def test_newton_forms_the_partials_once(monkeypatch):
    # the partials are built once per call however many steps run, in this
    # module and in multivar alike
    calls = []

    def counting(f, i):
        calls.append(i)
        return partial_derivative(f, i)

    monkeypatch.setattr(fibration, "partial_derivative", counting)
    monkeypatch.setattr(multivar, "partial_derivative", counting)
    rng = philox(7)
    for nvars in (1, 2, 3):
        alg = algebra_of_kind(rng, AlgebraKind.FIELD)
        exps = rng.integers(0, 3, (5, nvars))
        f = PerplexPolyN.from_terms(nvars, zip(map(tuple, exps), random_elements(rng, 5)))
        pts = rng.uniform(-1.0, 1.0, (64, 2 * nvars))
        target = f.eval_many(alg, pts[:1] + 0.1)
        for steps in (0, 1, 3, 20):
            calls.clear()
            out, res = _newton(f, alg, pts, target, steps)
            assert calls == list(range(nvars))
        assert np.count_nonzero(res <= 1e-14) > 0


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
    # every x_i2 column of the real Jacobian L_j times its x_i1 column, and
    # lets real_jacobian take column x_ij as e_j times the i-th perplex
    # partial; the pderiv Jacobian of the real expansion is the reference
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
            assert np.abs(full[:, :, 2 * i + 1] - full[:, :, 2 * i] @ cls.l_j.T).max() <= scale
        jac = real_jacobian(f, alg, pts)
        assert jac.shape == (50, 2, 2 * nvars)
        assert np.abs(jac - full).max() <= scale
        for row, p in zip(jac, pts):
            assert np.array_equal(row, real_jacobian(f, alg, p))


def test_newton_stops_each_point_on_its_own(complex_alg):
    # the exact model root of z^2 = 0.3 + 0.1i already meets 1e-14, but a
    # step would still move its last bits; batched with a start that needs
    # steps, it must come back untouched
    f = square_map()
    target = np.array([0.3, 0.1])
    z = np.roots([1.0, 0.0, -(0.3 + 0.1j)])[0]
    root = np.array([z.real, z.imag])
    assert 0.0 < np.abs(f.eval_many(complex_alg, [root]) - target).max() <= 1e-14
    pts = np.vstack([root, root + 1e-3])
    out, res = _newton(f, complex_alg, pts, target, 2)
    assert np.array_equal(out[0], root) and np.array_equal(pts[0], root)
    assert res[0] <= 1e-14 < res[1] <= 1e-10
    assert np.linalg.norm(out[1] - root) < 1e-10


def _cut_rows(model, eta) -> np.ndarray:
    """The cuts of the eta disk as rows (axis, level, lo, hi): the discriminant
    segments and, for Hyperbolic, the zero-divisor cone lines."""
    rows = _discriminant(model, 1.0, eta)[1]
    if model.kind is AlgebraKind.HYPERBOLIC:
        rows = np.vstack([[(0, 0.0, -np.inf, np.inf), (1, 0.0, -np.inf, np.inf)], rows])
    return rows


def _gaps(model, eta, pts) -> np.ndarray:
    """Each point's distance from the nearest cut."""
    gap = np.full(len(pts), np.inf)
    for k, level, lo, hi in _cut_rows(model, eta):
        base, step = level * model.inv[:, int(k)], model.inv[:, 1 - int(k)]
        tau = np.clip((pts - base) @ step / (step @ step), lo, hi)
        gap = np.minimum(gap, np.linalg.norm(pts - base - tau[:, None] * step, axis=1))
    return gap


def _brute_labels(model, eta, probes, res=400):
    """Brute-force component labels of the eta disk minus the cuts: the centres
    of a res x res raster over half a cell from every cut, flood-filled by
    4-neighbours (no cut passes between two kept neighbours).  Returns the label
    raster, its centres' gaps, and each probe's label: that of a kept centre of
    its 3 x 3 block nearer to it than any cut, or 0 where there is none."""
    from scipy import ndimage

    h = 2.0 * eta / res
    axis = -eta + (np.arange(res) + 0.5) * h
    centres = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    gap = _gaps(model, eta, centres).reshape(res, res)
    labels = ndimage.label((axis**2 + axis[:, None] ** 2 <= eta**2) & (gap > h / 2))[0]
    offsets = np.stack(np.meshgrid([-1, 0, 1], [-1, 0, 1]), axis=-1).reshape(-1, 2)
    cells = np.clip(np.floor((probes + eta) / h).astype(int)[:, None] + offsets, 0, res - 1)
    near = np.linalg.norm(-eta + (cells + 0.5) * h - probes[:, None], axis=2)
    near = (labels[cells[..., 1], cells[..., 0]] > 0) & (near < _gaps(model, eta, probes)[:, None])
    found = labels[cells[..., 1], cells[..., 0]][np.arange(len(probes)), near.argmax(axis=1)]
    return labels, gap, np.where(near.any(axis=1), found, 0)


def _check_components(rep, model, res=400):
    """The report's components against brute force: their areas sum to the
    disk's, and of the raster components reaching three cells from every cut
    (a piece thinner than that can fall apart on the raster) no two
    components' probes share one, each one's probes lie in at most one, and
    every one holding 1% of the disk is reported."""
    assert sum(c.area for c in rep.components) == pytest.approx(np.pi * rep.eta**2, rel=1e-9)
    probes = np.array([p for c in rep.components for p in c.probes])
    labels, gap, found = _brute_labels(model, rep.eta, probes, res)
    sizes, widest = np.bincount(labels.ravel()), np.zeros(labels.max() + 1)
    np.maximum.at(widest, labels.ravel(), gap.ravel())
    found[widest[found] < 6.0 * rep.eta / res] = 0
    seen = [set(row[row > 0].tolist()) for row in found.reshape(len(rep.components), -1)]
    assert all(len(s) <= 1 for s in seen)
    assert sum(map(len, seen)) == len(set().union(*seen))
    assert set(np.flatnonzero(sizes[1:] >= 0.01 * (labels > 0).sum()) + 1) <= set().union(*seen)
    return labels, seen


def _cone_angle(alg) -> float:
    """Degrees between the zero-divisor lines of a Hyperbolic algebra."""
    inv = np.linalg.inv(classify(alg).iso)
    cos = abs(inv[:, 0] @ inv[:, 1]) / np.prod(np.linalg.norm(inv, axis=0))
    return float(np.degrees(np.arccos(cos)))


@pytest.mark.parametrize("kind", [AlgebraKind.FIELD, AlgebraKind.HYPERBOLIC])
def test_exact_components_refine_raster_labels(kind):
    # the raster labels the partition had before: the discriminant and cone
    # samples' cells dilated by a disk of radius two cells, then flood-filled;
    # the probes of one raster component all belong to one exact component
    from scipy import ndimage

    rng = philox(30 + list(AlgebraKind).index(kind))
    offs = np.arange(-2, 3)
    disk = offs[:, None] ** 2 + offs[None, :] ** 2 <= 4
    for _ in range(8):
        alg = algebra_of_kind(rng, kind)
        f = PerplexPolyN.from_terms(1, [((2,), random_elements(rng, 1)[0])])
        rep = local_triviality_check(f, alg, seed=1)
        model, eta, cell = _model(f, alg), rep.eta, 2.0 * rep.eta / _TARGET_RES
        centers = -eta + (np.arange(_TARGET_RES) + 0.5) * cell
        inside = centers**2 + centers[:, None] ** 2 <= eta**2
        ij = np.floor((np.vstack([rep.discriminant_samples, rep.cone_samples]) + eta) / cell)
        ij = ij.astype(int)[((ij >= 0) & (ij < _TARGET_RES)).all(axis=1)]
        cells = np.zeros(inside.shape, dtype=bool)
        cells[ij[:, 1], ij[:, 0]] = True
        raster = ndimage.label(~ndimage.binary_dilation(cells, structure=disk) & inside)[0]

        assert len(rep.components) == (1 if kind is AlgebraKind.FIELD else 4)
        _check_components(rep, model)
        owner = {}
        for comp in rep.components:
            at = np.floor((np.array(comp.probes) + eta) / cell).astype(int)
            for lab in raster[at[:, 1], at[:, 0]]:
                assert owner.setdefault(lab, comp.label) == comp.label or lab == 0


@pytest.mark.parametrize(
    "p1, p2, majorities",
    [
        # s^3 - 3 a^2 s has critical values +-0.03: two model lines across
        # the disk, beside the cone lines, cut it into eight pieces
        ([0.0, -3.0 * 0.015 ** (2 / 3), 0.0, 1.0], [0.0, 1.0, 0.0, 0.0], [1] * 4 + [3] * 4),
        # s^2 + 0.01 and t^2 + 0.02: two segments from the corner (0.01, 0.02)
        # fence off {m0 > 0.01, m1 > 0.02} and end inside the disk
        ([0.01, 0.0, 1.0], [0.02, 0.0, 1.0], [0, 0, 0, 0, 4]),
    ],
    ids=["cubic-lines", "corner"],
)
def test_model_built_maps_have_known_components(hyperbolic_alg, p1, p2, majorities):
    # the split-complex model coordinates are (x1 + x2, x1 - x2)
    inv = np.linalg.inv(classify(hyperbolic_alg).iso)
    terms = [((k,), Perplex(*map(float, inv @ (a, b)))) for k, (a, b) in enumerate(zip(p1, p2))]
    f = PerplexPolyN.from_terms(1, [t for t, a, b in zip(terms, p1, p2) if a or b])
    rep = local_triviality_check(f, hyperbolic_alg, seed=4)
    assert rep.consistent and rep.halvings == 0
    assert sorted(c.majority for c in rep.components) == majorities
    areas = [c.area for c in rep.components]
    assert areas == sorted(areas, reverse=True)

    # each component's area is that of its raster centres, up to the cells the cuts cross
    labels, seen = _check_components(rep, _model(f, hyperbolic_alg), res=512)
    assert all(len(s) == 1 for s in seen)
    cell = (2.0 * rep.eta / 512) ** 2
    for comp, (lab,) in zip(rep.components, seen):
        assert comp.area == pytest.approx((labels == lab).sum() * cell, rel=0.03)


def test_thin_wedge_keeps_its_components():
    # the cone lines of this algebra are 20.4 degrees apart; on the raster the
    # diagonal wedge between them fell apart into pieces too thin to probe
    rng = philox(1020)
    alg = PerplexAlgebra(sample_valid_params(rng))
    assert 20.0 < _cone_angle(alg) < 21.0
    f = PerplexPolyN.from_terms(1, [((1,), random_elements(rng, 2, 0.6)[1])])
    rep = local_triviality_check(f, alg, seed=20)
    assert rep.algebra_kind == "Hyperbolic" and rep.halvings == 0
    assert rep.fiber_counts() == [[1] * 8] * 4
    assert rep.consistent


@pytest.mark.parametrize("degrees", [2.2, 0.05])
def test_wedge_narrower_than_the_margin_is_probed(degrees):
    # cone lines 2.2 degrees apart: near the rim the wedge between them is
    # 0.038 eta wide, under two 3.05-cell margins (0.048 eta), so its probes
    # keep a narrower margin; at 0.05 degrees it is thinner than any raster
    mat = np.array([[0.0, 1.0], [np.tan(np.radians(degrees / 2)) ** 2, 0.0]])
    u = np.array([0.0, 1.0])
    alg = PerplexAlgebra(params_from_span(mat, np.column_stack([u, mat @ u]))[0])
    assert _cone_angle(alg) == pytest.approx(degrees, rel=1e-6)
    f = PerplexPolyN.from_terms(1, [((2,), Perplex(0.9, 0.3))])
    rep = local_triviality_check(f, alg, seed=1)
    assert rep.algebra_kind == "Hyperbolic" and rep.halvings == 0
    assert len(rep.components) == 4 and rep.consistent
    # the cone lines, the model axes, are the only cuts: the components are
    # the disk's sectors between them, and the model quadrants label them
    angle = np.radians(degrees)
    sectors = np.array([np.pi - angle] * 2 + [angle] * 2) * rep.eta**2 / 2.0
    assert [c.area for c in rep.components] == pytest.approx(sectors, rel=1e-9)
    model, cell = _model(f, alg), 2.0 * rep.eta / rep.target_res
    quadrants = [np.unique(np.sign(np.array(c.probes) @ model.iso.T), axis=0) for c in rep.components]
    assert all(len(q) == 1 for q in quadrants) and len(np.unique(np.vstack(quadrants), axis=0)) == 4
    for comp in rep.components[2:]:
        assert comp.margin < 3.05 * cell
        assert (_gaps(model, rep.eta, np.array(comp.probes)) >= comp.margin).all()
    _check_components(rep, model, res=1024)


def test_near_equal_cut_values_leave_one_component(complex_alg):
    # two Field critical values a rounding error apart bound a strip of no
    # area; the rectangles on either side still join across it
    model = _model(square_map(), complex_alg)
    level = 0.01
    rows = np.array([(0, level, 0.02, 0.02), (0, np.nextafter(level, 1.0), -0.02, -0.02)])
    assert len(fibration._components(model, 0.05, rows)[4]) == 1


@pytest.mark.parametrize("kind", [AlgebraKind.FIELD, AlgebraKind.HYPERBOLIC])
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 4))
@example(seed=18, degree=3)  # Field critical values near the rim of the disk
@settings(max_examples=25, deadline=None, derandomize=True)
def test_exact_partition_properties(kind, seed, degree):
    rng = philox(seed)
    alg = algebra_of_kind(rng, kind)
    coeffs = random_elements(rng, degree + 1, 0.6)
    f = PerplexPolyN.from_terms(1, [((k,), coeffs[k]) for k in range(1, degree + 1)])
    rep = local_triviality_check(f, alg, seed=seed)
    probes = np.array([p for comp in rep.components for p in comp.probes])
    assert len(np.unique(probes, axis=0)) == len(probes)
    assert (np.linalg.norm(probes, axis=1) <= rep.eta).all()
    assert rep.consistent == all(c.constant for c in rep.components)
    if kind is AlgebraKind.FIELD:  # finitely many points leave the disk connected
        assert len(rep.components) == 1

    # probes keep the 3.05-cell margin from every cut, or a narrower one
    # only in a component under twice that wide
    model, cell = _model(f, alg), 2.0 * rep.eta / rep.target_res
    samples = np.vstack([rep.discriminant_samples, rep.cone_samples])
    labels, gap, _ = _brute_labels(model, rep.eta, probes)
    _, seen = _check_components(rep, model)
    for comp, lab in zip(rep.components, seen):
        at = np.array(comp.probes)
        gaps = np.linalg.norm(at[:, None] - samples[None], axis=2).min(axis=1, initial=np.inf)
        assert (gaps >= comp.margin).all() and (_gaps(model, rep.eta, at) >= comp.margin).all()
        assert comp.margin <= 3.05 * cell
        if comp.margin < 3.05 * cell:
            assert gap[np.isin(labels, list(lab))].max(initial=0.0) < 4 * 3.05 * cell


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("lead, const", [(-1e-320, 0.03), (5e-324, -1.0), (1e-10, -1e308)])
def test_batched_roots_past_the_float_range_of_the_ratio(dtype, lead, const):
    # -const / lead leaves the float range, and every root of lead z^k + const
    # lies far beyond reach: the lead is dropped, so no far root is computed
    # and nothing overflows; its slots come back as inf
    lead = lead * (1 + 1j if dtype is complex else 1)
    for k in (2, 3):
        head = np.zeros(k, dtype)
        head[0] = lead
        with np.errstate(all="raise"):
            got = _roots(head, np.array([const], dtype), 4.0)[0]
        assert len(got) == k and (got == np.inf).all()


def test_batched_roots_judge_each_constant_class_apart():
    # against the constant 0.05 the whole head is negligible on |w| <= 4, but
    # with a zero constant 1e-300 w (w^2 + 1) keeps its roots 0 and +-i
    got = _roots(np.array([1e-300, 0.0, 1e-300]), np.array([0.05, 0.0]), 4.0)
    assert (got[0] == np.inf).all()
    assert (np.abs(got[1][:, None] - np.array([-1j, 0.0, 1j])).min(axis=0) <= 1e-12).all()


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
            got = _roots(head, consts, np.inf)
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "solve, c, epsilon, message",
    [
        (fiber_solve, (0.1, 0.0), NAN, "epsilon must be finite and positive"),
        (fiber_solve, (0.1, 0.0), -1.0, "epsilon must be finite and positive"),
        (fiber_solve, (0.1, 0.0), 0.0, "epsilon must be finite and positive"),
        (fiber_solve, (0.1, 0.0), INF, "epsilon must be finite and positive"),
        (fiber_solve, (NAN, 0.0), 1.0, "c must be finite"),
        (fiber_cloud, (INF, 0.0), 1.0, "c must be finite"),
    ],
    ids=["nan-epsilon", "negative-epsilon", "zero-epsilon", "inf-epsilon", "nan-c", "cloud-inf-c"],
)
def test_fiber_inputs_are_checked(complex_alg, solve, c, epsilon, message):
    f = square_map() if solve is fiber_solve else sum_of_squares()
    with pytest.raises(ValueError, match=message):
        solve(f, complex_alg, Perplex(*c), epsilon=epsilon)


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
        with pytest.raises(ValueError, match=r"probes_per_component must be in \[1, 256\]"):
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

    def test_target_on_a_critical_line_beyond_the_eta_box_is_flagged(self, hyperbolic_alg):
        # model (0, 0.2) lies on the critical line p1 = 0 of split z1 z2, whose
        # p2-range over the ball is [-1, 1]: far outside the 1.35 * 0.05 box
        cloud = fiber_cloud(product_map(), hyperbolic_alg, Perplex(0.1, -0.1), seed=1)
        assert cloud.on_discriminant

    def test_unreachable_target_raises(self, complex_alg):
        with pytest.raises(EmptyFiber):
            fiber_cloud(sum_of_squares(), complex_alg, Perplex(5.0, 0.0), seed=5)

    def test_one_variable_input_rejected(self, complex_alg):
        with pytest.raises(ValueError):
            fiber_cloud(square_map(), complex_alg, Perplex(0.05, 0.0), seed=5)


def _all_pairs_linkage(cloud):
    """The reference: every pair within five mean nearest-neighbour distances."""
    from scipy import sparse, spatial

    tree = spatial.cKDTree(cloud)
    mean_nn = float(tree.query(cloud, k=2)[0][:, 1].mean())
    pairs = tree.query_pairs(5.0 * mean_nn, output_type="ndarray")
    graph = sparse.csr_matrix((np.ones(len(pairs)), pairs.T), shape=(len(cloud),) * 2)
    return sparse.csgraph.connected_components(graph, directed=False)[1], mean_nn


def _same_partition(a, b) -> bool:
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) == len(set(b.tolist()))


def _cube_chain(rng, blobs: int, gaps) -> np.ndarray:
    """Blobs of the 16 corners of a unit 4-cube, each listing only its own
    corners among its _KNN nearest (at most sqrt 2 away) yet saturated at
    r = 5, strung along the first axis with the given gaps between faces."""
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * 4)).reshape(4, -1).T
    shifts = np.concatenate([[0.0], np.cumsum(1.0 + np.asarray(gaps, float))])[:blobs]
    cloud = np.vstack([corners + [s, 0.0, 0.0, 0.0] for s in shifts])
    rotation = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    return (cloud + rng.normal(size=cloud.shape) * 1e-3) @ rotation * rng.uniform(1e-3, 1e3)


def _linkage_cloud(family: int, rng, n: int) -> np.ndarray:
    if family == 0:  # Gaussian
        return rng.normal(size=(n, 4))
    if family == 1:  # clustered
        centres = rng.normal(size=(int(rng.integers(1, 20)), 4)) * 10.0
        return centres[rng.integers(len(centres), size=n)] + rng.normal(size=(n, 4)) * 0.1
    if family in (2, 3):  # groups of 20 exact or 1e-9-jittered duplicates
        cloud = np.repeat(rng.normal(size=(-(-n // 20), 4)) * 5.0, 20, axis=0)[:n]
        return cloud + (family == 3) * rng.normal(size=cloud.shape) * 1e-9
    if family == 4:  # a 4-D integer grid, with ties at r
        return rng.integers(0, 4, size=(n, 4)) * rng.choice([1.0, 0.5, 3.0])
    if family == 5:  # two blobs whose gap straddles r
        blob = rng.normal(size=(n, 4)) * 0.01
        blob[n // 2:, 0] += rng.uniform(0.02, 0.15)
        return blob
    # saturated blobs that only pairs beyond the listed neighbours join
    return _cube_chain(rng, int(rng.integers(2, 13)), rng.uniform(0.5, 5.5, size=12))


@given(family=st.integers(0, 6), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 600))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_linkage_matches_all_pairs(family, seed, n):
    cloud = _linkage_cloud(family, philox(seed), n)
    labels, mean_nn = _linkage(cloud)
    want, want_mean = _all_pairs_linkage(cloud)
    assert _same_partition(labels, want)
    assert mean_nn.hex() == want_mean.hex()


def _listed_within_own_blob(cloud, blob: int) -> bool:
    from scipy import spatial

    idx = spatial.cKDTree(cloud).query(cloud, k=_KNN)[1]
    return (idx // blob == np.arange(len(cloud))[:, None] // blob).all()


@pytest.mark.parametrize("blobs", [2, 11])
def test_saturated_blobs_are_joined_beyond_the_listed_neighbours(blobs):
    cloud = _cube_chain(philox(blobs), blobs, [2.0] * blobs)
    assert _listed_within_own_blob(cloud, 16)
    labels, _ = _linkage(cloud)
    assert len(np.unique(labels)) == 1
    assert _same_partition(labels, _all_pairs_linkage(cloud)[0])


def test_separated_duplicate_clusters_stay_apart():
    cloud = np.repeat(philox(3).normal(size=(512, 4)) * 100.0, _KNN, axis=0)
    labels, mean_nn = _linkage(cloud)
    assert mean_nn == 0.0
    assert len(np.unique(labels)) == 512
    assert _same_partition(labels, _all_pairs_linkage(cloud)[0])


def test_pair_listed_at_r_but_beyond_it_squared_stays_cut():
    # every nearest neighbour is 1 away, so r = 5; the middle pair is listed
    # at a rounded 5.0, but its squared distance is one ulp above 25
    cloud = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [6.0, 6e-8, 0, 0], [7.0, 6e-8, 0, 0]])
    labels, mean_nn = _linkage(cloud)
    assert mean_nn == 1.0
    assert labels.tolist() == [0, 0, 1, 1]
    assert labels.tolist() == _all_pairs_linkage(cloud)[0].tolist()


def test_one_saturated_component_lists_no_pairs(monkeypatch):
    from scipy import spatial

    class Counting(spatial.cKDTree):
        fetches = 0

        def sparse_distance_matrix(self, *args, **kwargs):
            Counting.fetches += 1
            return super().sparse_distance_matrix(*args, **kwargs)

    monkeypatch.setattr(spatial, "cKDTree", Counting)
    rng = philox(4)
    # a collapsed bulk, all saturated, and far off a cluster of _KNN - 1
    # points that list one bulk point beyond r, so none of them is saturated
    bulk = rng.normal(size=(2000, 4)) * 1e-5
    cloud = np.vstack([bulk, rng.normal(size=(_KNN - 1, 4)) * 1e-6 + [1.0, 0, 0, 0]])
    labels, _ = _linkage(cloud)
    assert Counting.fetches == 0
    assert len(np.unique(labels)) == 2
    assert _same_partition(labels, _all_pairs_linkage(cloud)[0])
