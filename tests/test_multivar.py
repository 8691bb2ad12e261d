"""Several-variable calculus: partials, gradient, criticality, scanner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perplex import multivar
from perplex.algebra import (
    COMPLEX_PARAMS,
    DUAL_BOUNDARY_PARAMS,
    HYPERBOLIC_PARAMS,
    Perplex,
    PerplexAlgebra,
    random_elements,
    sample_valid_params,
)
from perplex.calculus import gcr_residual
from perplex.errors import InsufficientSamples
from perplex.multivar import (
    LojaFit,
    PerplexPolyN,
    directional_derivative,
    gradient,
    is_critical,
    loja_scan,
    loja_violations,
    partial_derivative,
    real_jacobian,
)
from perplex.multivar import (
    _LOJA_BINS, _LOJA_MAX_SAMPLES, _LOJA_MIN_USABLE, _evaluate, _partials,
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


# ---------------------------------------------------------------------------
# the scanner against its first form: rows normalized by np.linalg.norm, values
# through a transposed copy, and one Python pass per bin with np.digitize


def reference_loja_sample(f, alg, r_min, r_max, samples, seed):
    if not (np.isfinite(r_min) and np.isfinite(r_max)):
        raise ValueError(f"rMin and rMax must be finite, got {r_min} and {r_max}")
    if not 0.0 < r_min < r_max:
        raise ValueError("need 0 < rMin < rMax")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > _LOJA_MAX_SAMPLES:
        raise ValueError(f"samples must be at most {_LOJA_MAX_SAMPLES}, got {samples}")
    const = f.constant_term().max_norm()
    if const > 1e-12 * max(1.0, f.max_coeff()):
        raise ValueError("scan requires f(0) = 0")
    rng = np.random.Generator(np.random.Philox(seed))
    dim = 2 * f.nvars
    radii = np.exp(rng.uniform(np.log(r_min), np.log(r_max), size=samples))
    dirs = rng.normal(size=(samples, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = radii[:, None] * dirs

    # a far sample may overflow; usable drops it
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.abs(_evaluate([f, *_partials(f)], alg, points.T.copy()))
        fvals, gvals = values[0].max(axis=0), values[1:].max(axis=(0, 1))
        usable = (fvals > 0.0) & (fvals < 1.0) & (gvals > 0.0) & (gvals < np.inf)
    return fvals[usable], gvals[usable]


def reference_loja_fit(fvals, gvals):
    if fvals.size < _LOJA_MIN_USABLE:
        raise InsufficientSamples(
            f"only {fvals.size} usable samples, need {_LOJA_MIN_USABLE}"
        )
    logf, logg = np.log(fvals), np.log(gvals)
    lo, hi = float(logf.min()), float(logf.max())
    if hi - lo < 1e-9:
        raise InsufficientSamples("log-value range is degenerate; widen the radii")
    edges = np.linspace(lo, hi, _LOJA_BINS + 1)
    idx = np.clip(np.digitize(logf, edges) - 1, 0, _LOJA_BINS - 1)
    centers, minima = [], []
    for b in range(_LOJA_BINS):
        mask = idx == b
        if not mask.any():
            continue
        centers.append(0.5 * (edges[b] + edges[b + 1]))
        minima.append(float(logg[mask].min()))
    if len(centers) < 2:
        raise InsufficientSamples("fewer than two populated bins; widen the radii")
    design = np.column_stack([centers, np.ones(len(centers))])
    (slope, intercept), *_ = np.linalg.lstsq(design, np.array(minima), rcond=None)
    theta_hat, c_hat = float(slope), float(np.exp(intercept))
    violations = int(np.sum(gvals < c_hat * fvals**theta_hat))
    return LojaFit(
        theta_hat=theta_hat,
        c_hat=c_hat,
        bins=tuple(zip(centers, minima)),
        violations=violations,
        sample_count=int(fvals.size),
    )


def reference_loja_violations(f, alg, r_min, r_max, samples, seed, theta, c):
    fvals, gvals = reference_loja_sample(f, alg, r_min, r_max, samples, seed)
    if fvals.size < _LOJA_MIN_USABLE:
        raise InsufficientSamples(
            f"only {fvals.size} usable samples, need {_LOJA_MIN_USABLE}"
        )
    return int(np.sum(gvals < c * fvals**theta)), int(fvals.size)


def _outcome(call):
    try:
        return call()
    except InsufficientSamples as exc:
        return f"InsufficientSamples: {exc}"


_SCAN_RADII = [(1e-4, 1e-1), (1e-8, 1e-5), (1e-3, 2.0), (0.5, 40.0), (1e-6, 1e-6 + 1e-15)]


@given(
    params_kind=st.sampled_from(["complex", "split", "dual", "sampled"]),
    nvars=st.sampled_from([1, 2]),
    radii=st.sampled_from(_SCAN_RADII),
    samples=st.integers(100, 100_000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_loja_scan_matches_the_reference_bit_for_bit(params_kind, nvars, radii, samples, seed):
    rng = philox(seed)
    params = {"complex": COMPLEX_PARAMS, "split": HYPERBOLIC_PARAMS,
              "dual": DUAL_BOUNDARY_PARAMS}.get(params_kind) or sample_valid_params(rng)
    alg = PerplexAlgebra(params)
    exps = rng.integers(0, 4, size=(int(rng.integers(1, 4)), nvars))
    exps[exps.sum(axis=1) == 0, 0] = 1  # no constant term
    f = PerplexPolyN.from_terms(nvars, zip(exps, random_elements(rng, len(exps))))
    r_min, r_max = radii

    got = _outcome(lambda: loja_scan(f, alg, r_min, r_max, samples, seed))
    want = _outcome(
        lambda: reference_loja_fit(*reference_loja_sample(f, alg, r_min, r_max, samples, seed))
    )
    assert (got if isinstance(got, str) else got.to_dict()) == (
        want if isinstance(want, str) else want.to_dict()
    )
    if isinstance(want, str):
        return
    args = f, alg, r_min, r_max, samples, seed + 1, want.theta_hat, want.c_hat
    assert _outcome(lambda: loja_violations(*args)) == _outcome(
        lambda: reference_loja_violations(*args)
    )


def _log_preimage(target):
    """A float x > 0 with np.log(x) == target exactly."""
    x = np.exp(target)
    for _ in range(200):
        y = np.log(x)
        if y == target:
            return x
        x = np.nextafter(x, np.inf if y < target else 0.0)
    raise AssertionError(f"no float has log {target!r}")


@pytest.mark.parametrize("below", [False, True])
def test_loja_bins_are_half_open_with_hi_in_the_last(monkeypatch, below):
    """A log-value exactly on an interior edge e_b falls in bin b, the float
    just below it in bin b - 1, and hi in the last bin, as np.digitize
    places them."""
    lo, hi = -20.0, -2.0
    edges = np.linspace(lo, hi, _LOJA_BINS + 1)
    if below:
        logs, bins = np.nextafter(edges[1:], -np.inf), np.arange(_LOJA_BINS)
    else:
        logs, bins = edges[1:], np.minimum(np.arange(1, _LOJA_BINS + 1), _LOJA_BINS - 1)
    # gradients ordered so that a sample put one bin off would be the smallest
    # in the bin that took it
    order = np.arange(_LOJA_BINS) if below else -np.arange(_LOJA_BINS)
    fvals = np.array([_log_preimage(lo), _log_preimage(hi), *map(_log_preimage, logs)])
    gvals = np.concatenate([[1e-3, 1e-3], np.exp(-50.0 + order)])
    fvals = np.concatenate([fvals, np.exp(philox(3).uniform(lo, hi, 200))])
    gvals = np.concatenate([gvals, np.full(200, 1e-3)])
    monkeypatch.setattr(multivar, "_loja_sample", lambda *args: (fvals, gvals))
    fit = loja_scan(single_power(2), PerplexAlgebra(COMPLEX_PARAMS), 1e-4, 1e-1, 222, 1)

    assert np.log(fvals[2:22]).tolist() == logs.tolist()
    assert (np.clip(np.digitize(logs, edges) - 1, 0, _LOJA_BINS - 1) == bins).all()
    minima = [m for _, m in fit.bins]
    for b in np.unique(bins):
        assert minima[b] == np.log(gvals[2:22][bins == b]).min()
    assert fit.to_dict() == reference_loja_fit(fvals, gvals).to_dict()


def test_polyn_json_round_trip():
    f = PerplexPolyN.from_terms(
        2, [((2, 0), Perplex(0.5, -1.5)), ((0, 1), Perplex(0.0, 2.0))]
    )
    again = PerplexPolyN.from_dict(f.to_dict())
    assert again == f
