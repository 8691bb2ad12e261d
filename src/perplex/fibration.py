"""Desk-scale verification of local triviality over the punctured disk.

The pipeline: find the discriminant of a polynomial map, split a small
target disk minus it into components, and probe each with fiber counts,
which the Milnor-Le fibration theorem makes constant on each component.

Every map, in any number of variables, is carried into the model algebra
once: the isomorphism from ``classify`` takes f term by term onto one
complex polynomial P (Field) or a pair of real polynomials p1, p2
(Hyperbolic), each held as exponent rows and model coefficient rows.  The
real Jacobian drops rank exactly where grad P = 0, or grad p1 = 0 or
grad p2 = 0, so the discriminant is one list of rows: Field critical
values are points, which leave the punctured disk connected, and
Hyperbolic ones segments parallel to the model axes.  One-variable
critical points and fibers are exact model roots within the ball's reach,
where a leading term too small to move a double is dropped: no far root is
computed.  In more variables seeded Newton finds the critical points.
Hyperbolic disks are also cut along the zero-divisor cone, the model axes:
that only refines the partition, and keeps probes from where inverse images
degenerate.  The pieces are unions of model rectangles meeting the disk's
ellipse, whose chords give their exact areas; probes are drawn in them
directly.  Newton evaluates f and its perplex partials and, by the
generalized Cauchy-Riemann structure, takes the Jacobian's x_ij column as
e_j times the i-th partial.  One-variable fibers are carried back and
Newton-polished; two-variable fibers are surfaces, sampled as point clouds
by minimum-norm Gauss-Newton projection and summarized by a single-linkage
connectivity estimate (a diagnostic, not certified topology).  Dual numbers
have no finite model and are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Perplex, PerplexAlgebra
from .errors import DegenerateAlgebra, EmptyFiber
from .multivar import PerplexPolyN, _evaluate, partial_derivative
from .structure import AlgebraKind, Classification, classify

_TARGET_RES = 256
_NEWTON_ITERS = 50
_POLISH_STEPS = 2
_REAL_ROOT_TOL = 1e-9
_SEGMENT_SPACING = 0.45
_FIBER_TOL = 1e-10
_DEDUPE_RADIUS = 1e-6
_REPEAT = 1e-6  # critical values nearer than _REPEAT * eta / 256 count as one
_MAX_HALVINGS = 6
_PROBE_MARGIN = 3.05  # sample cells a probe keeps from every cut, near which roots merge
_MAX_PROBES = 256  # per component
_DRAWS = 16  # candidate points per probe
_CDF_NODES = 33  # steps of u at which a rectangle's area is tabulated for the draw
_CLOUD_SEEDS = 4096
_MAX_CLOUD = 16384  # bounds Newton, whose memory and time grow linearly in the cloud
_KNN = 8  # neighbours each cloud point lists for the linkage
_CRITICAL_SEEDS = 96
_NEGLIGIBLE = 62  # binades a dropped term's bound trails a lower one's: 2^-60, with rounding
_BALL_SLACK = 1e-12  # how far past epsilon a polished fiber point is still kept


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _nondegenerate(alg: PerplexAlgebra) -> Classification:
    cls = classify(alg)
    if cls.kind == AlgebraKind.DEGENERATE:
        raise DegenerateAlgebra(
            "fibration analysis needs a nondegenerate algebra; the"
            " discriminant of this parameter pair sits in the degenerate band"
        )
    return cls


@dataclass(frozen=True)
class _Model:
    """A map in any number of variables carried into its model algebra.

    ``exps`` holds f's exponents (terms, nvars) and ``terms`` the model
    coordinates of its coefficients (2, terms): for Field the complex
    coefficient is row 0 + i * row 1, for Hyperbolic the rows belong to p1
    and p2.  For one variable ``coeffs`` holds the same rows dense, highest
    degree first (numpy's order); it is None otherwise.  ``inv`` carries
    model points back to the algebra.  ``reach`` is twice sum |iso_ij|, a bound
    on ||iso||_2, so the epsilon ball lies in |w| <= reach * epsilon / 2.
    """

    f: PerplexPolyN
    alg: PerplexAlgebra
    kind: AlgebraKind
    iso: np.ndarray
    inv: np.ndarray
    exps: np.ndarray
    terms: np.ndarray
    coeffs: np.ndarray | None
    reach: float


def _model_terms(f: PerplexPolyN, iso: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f's exponents (terms, nvars) and model coefficient rows (2, terms)."""
    exps = np.array([exp for exp, _ in f.terms], dtype=int).reshape(-1, f.nvars)
    coeffs = [iso @ np.array(c.as_tuple()) for _, c in f.terms]
    return exps, np.array(coeffs).reshape(-1, 2).T


def _model(f: PerplexPolyN, alg: PerplexAlgebra) -> _Model:
    cls = _nondegenerate(alg)
    exps, terms = _model_terms(f, cls.iso)
    coeffs = None
    if f.nvars == 1:
        degree = int(exps.max(initial=0))
        coeffs = np.zeros((2, degree + 1))
        coeffs[:, degree - exps[:, 0]] = terms
    reach = 2.0 * float(np.abs(cls.iso).sum())
    return _Model(f, alg, cls.kind, cls.iso, np.linalg.inv(cls.iso), exps, terms, coeffs, reach)


def _complex(rows: np.ndarray) -> np.ndarray:
    return rows[0] + 1j * rows[1]


def _is_real(roots: np.ndarray) -> np.ndarray:
    return np.abs(roots.imag) <= _REAL_ROOT_TOL * np.maximum(1.0, np.abs(roots))


def _roots(head: np.ndarray, consts: np.ndarray, reach: float) -> np.ndarray:
    """np.roots of head with each of consts appended as its constant term, a row
    per constant, from stacked companion matrices.  Like np.roots, leading zeros
    lower the degree, and a zero constant drops the trailing zeros and returns
    their roots as exact zeros.  Leading terms too small to move a root within
    reach are dropped like zeros (``_lead``): their roots come back as inf."""
    nonzero = np.flatnonzero(head)
    head, zero = head[nonzero[0] if len(nonzero) else len(head) :], consts == 0
    out = np.zeros((len(consts), len(head)), complex)
    if len(head) and zero.any():  # head w = w^(m+1) q(w): the roots of q, then zeros
        q = head[: nonzero[-1] - nonzero[0] + 1]
        out[zero, : len(q) - 1] = _roots(q[:-1], q[-1:], reach)
    consts = consts[~zero]
    size = len(head) - _lead(head.tolist(), consts.tolist(), reach)
    out[~zero, size:] = np.inf
    if len(consts) and size > 0:
        poly = np.column_stack([np.tile(head[len(head) - size :], (len(consts), 1)), consts])
        comp = np.zeros((len(poly), size, size), poly.dtype)
        comp[:, 1:, :-1] = np.eye(size - 1)
        comp[:, 0] = -poly[:, 1:] / poly[:, :1]
        out[~zero, :size] = np.linalg.eigvals(comp)
    return out


def _lead(head: list, consts: list, reach: float) -> int:
    """How many leading terms of head, highest degree first, stay under 2^-60 of
    some lower term on |w| <= reach, the smallest of the nonzero consts standing
    for the constant term; none for an unbounded reach or no consts.  Sizes come
    from binary exponents: if 2^(e-1) <= max(|Re c|, |Im c|) < 2^e and reach < 2^r,
    then c_n w^n / c_k w^k is below 2^(e_n + n r - e_k - k r + 3/2) there."""
    if reach == math.inf or not consts:
        return 0
    r, n, lead = math.frexp(reach)[1], len(head), 0
    mags = [max(abs(c.real), abs(c.imag)) for c in head + consts]
    mags = mags[:n] + [min(mags[n:])]
    sizes = [(math.frexp(m)[1] if m else -math.inf) + (n - k) * r for k, m in enumerate(mags)]
    while lead < n and sizes[lead] + _NEGLIGIBLE <= max(sizes[lead + 1 :]):
        lead += 1
    return lead


def _box_interval(
    base: np.ndarray, step: np.ndarray, bound: float
) -> tuple[float, float] | None:
    """The range of tau with |base + tau * step|_inf <= bound, or None."""
    lo, hi = -np.inf, np.inf
    for b, d in zip(base, step):
        if d == 0.0:
            if abs(b) > bound:
                return None
            continue
        ends = sorted(((-bound - b) / d, (bound - b) / d))
        lo, hi = max(lo, ends[0]), min(hi, ends[1])
    return (lo, hi) if lo <= hi else None


def _ball_interval(
    base: np.ndarray, step: np.ndarray, bound: float
) -> tuple[float, float] | None:
    """The range of tau with |base + tau * step|_2 <= bound, or None."""
    a, b = step @ step, base @ step
    disc = b * b - a * (base @ base - bound * bound)
    if disc < 0.0:
        return None
    return (-b - np.sqrt(disc)) / a, (-b + np.sqrt(disc)) / a


def _cone_samples(model: _Model, eta: float) -> np.ndarray:
    """Samples of the zero-divisor cone: the images of the model axes
    for Hyperbolic, nothing beyond the origin for Field."""
    if model.kind is AlgebraKind.FIELD:
        return np.empty((0, 2))
    radii = np.linspace(-1.45 * eta, 1.45 * eta, 6 * _TARGET_RES)
    dirs = model.inv / np.linalg.norm(model.inv, axis=0)
    return np.vstack([radii[:, None] * d[None, :] for d in dirs.T])


def _apply(mat: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """mat @ p per row p of pts, in bits that do not depend on the row count."""
    return pts[:, :1] * mat[:, 0] + pts[:, 1:] * mat[:, 1]


def _min_norm_step(alg: PerplexAlgebra, grads: list, r0: np.ndarray, r1: np.ndarray) -> list:
    """Minimum-norm Newton steps J^T (J J^T)^-1 r at each point, one array per
    real coordinate, elementwise.  ``grads`` holds the perplex partials as
    (u, v) array pairs, and J's x_ij column is e_j times the i-th partial.
    The step is zero where J J^T is singular to working precision."""
    ops = [op.tolist() for op in alg.basis_matrices()]
    cols = [
        (a * g0 + b * g1, c * g0 + d * g1) for g0, g1 in grads for (a, b), (c, d) in ops
    ]
    s00 = sum(c0 * c0 for c0, _ in cols)
    s01 = sum(c0 * c1 for c0, c1 in cols)
    s11 = sum(c1 * c1 for _, c1 in cols)
    det = s00 * s11 - s01 * s01
    det[det <= 1e-14 * (s00 + s11) ** 2] = np.inf
    y0, y1 = (s11 * r0 - s01 * r1) / det, (s00 * r1 - s01 * r0) / det
    return [c0 * y0 + c1 * y1 for c0, c1 in cols]


def _newton(
    f: PerplexPolyN, alg: PerplexAlgebra, pts: np.ndarray, target: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The points after up to ``steps`` minimum-norm Newton steps toward f = target
    (one row, or one per point), and their residual max-norms; a point stops once
    its norm is at most 1e-14.  The partials are formed once per call and
    evaluated, in one shared pass, only at the points that still step."""
    partials = [partial_derivative(f, i) for i in range(f.nvars)]
    target = np.broadcast_to(target, (len(pts), 2)).T
    coords, live, norm = pts.T.copy(), np.arange(len(pts)), np.empty(len(pts))
    for step in range(steps + 1):
        x = coords[:, live]
        u, v = _evaluate([f], alg, x)[0]
        r0, r1 = u - target[0, live], v - target[1, live]
        norm[live] = np.maximum(np.abs(r0), np.abs(r1))
        keep = norm[live] > 1e-14
        if step == steps or not keep.any():
            return coords.T.copy(), norm
        live, x = live[keep], x[:, keep]
        grads = _evaluate(partials, alg, x)
        coords[:, live] = x - np.array(_min_norm_step(alg, grads, r0[keep], r1[keep]))


def critical_values(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    epsilon: float = 1.0,
    eta: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Discriminant samples: the critical set pushed through the map.

    f is carried into its model algebra, where Field critical values are
    points and Hyperbolic ones segments parallel to the model axes,
    sampled at most 0.45 raster cells apart.  One-variable maps are solved
    exactly, with critical points in the epsilon ball.  In more variables
    Newton from ``seed``'s starts finds the critical points whose critical
    set meets the epsilon ball; a Hyperbolic one w* adds the whole line
    {p_k = p_k(w*)}, and a value found twice is kept once.  Points are
    returned inside a slightly padded eta box.  ``epsilon`` and ``eta``
    must be finite and positive.
    """
    _check_positive("epsilon", epsilon)
    _check_positive("eta", eta)
    return _discriminant(_model(f, alg), epsilon, eta, seed)[0]


def _segment(
    base: np.ndarray, step: np.ndarray, lo: float, hi: float, eta: float
) -> np.ndarray:
    """Samples of base + tau * step for tau in [lo, hi] inside the padded
    eta box, at most 0.45 raster cells apart."""
    seen = _box_interval(base, step, 1.35 * eta) or (np.inf, -np.inf)
    lo, hi = max(lo, seen[0]), min(hi, seen[1])
    if lo > hi:
        return np.empty((0, 2))
    spacing = _SEGMENT_SPACING * 2.0 * eta / _TARGET_RES
    length = (hi - lo) * np.linalg.norm(step)
    taus = np.linspace(lo, hi, int(np.ceil(length / spacing)) + 1)
    return base + taus[:, None] * step


def _discriminant(model: _Model, epsilon: float, eta: float, seed: int = 0) -> tuple:
    """Samples of the discriminant in the padded eta box, and its rows (axis, level,
    lo, hi): model segments {m_axis = level, lo <= m_other <= hi}, or (0, Re, Im, Im)
    for a Field point.  In several variables, where Newton starts drawn to one
    critical point repeat its value, a Field point is kept once."""
    if model.f.nvars == 1:
        rows = _critical_rows(model, epsilon)
    else:
        rows = _critical_rows_nvar(model, epsilon, eta, seed)
    inv = model.inv
    if model.kind is AlgebraKind.FIELD:
        targets = np.ascontiguousarray(rows[:, 1:3]) @ inv.T
        keep = np.abs(targets).max(axis=1) <= 1.35 * eta
        if model.f.nvars > 1:  # after the carry, whose last bits depend on its batch
            for r in range(1, len(rows)):
                near = np.linalg.norm(targets[:r][keep[:r]] - targets[r], axis=1)
                keep[r] &= (near > _REPEAT * eta / _TARGET_RES).all()
        return targets[keep], rows[keep]
    segments = [np.empty((0, 2))]
    for axis, level, lo, hi in rows:
        k = int(axis)
        segments.append(_segment(level * inv[:, k], inv[:, 1 - k], lo, hi, eta))
    return np.vstack(segments), rows


def _point_rows(vals: np.ndarray) -> np.ndarray:
    """The rows (0, Re, Im, Im) of complex Field critical values."""
    return np.column_stack([np.zeros(len(vals)), vals.real, vals.imag, vals.imag])


def _critical_rows(model: _Model, epsilon: float) -> np.ndarray:
    """Discriminant rows of a one-variable map from its exact model critical points
    in the epsilon ball; a Hyperbolic segment spans its line's range in the ball."""
    deriv = model.coeffs[:, :-1] * np.arange(model.coeffs.shape[1] - 1, 0, -1)
    inv, reach = model.inv, model.reach * epsilon
    if model.kind is AlgebraKind.FIELD:
        crit = _roots(_complex(deriv[:, :-1]), _complex(deriv[:, -1:]), reach).ravel()
        crit = crit[np.abs(crit) <= reach]
        sources = np.column_stack([crit.real, crit.imag]) @ inv.T
        crit = crit[np.linalg.norm(sources, axis=1) <= epsilon]
        return _point_rows(np.polyval(_complex(model.coeffs), crit))

    turns = [_roots(d[:-1], d[-1:], reach).ravel() for d in deriv]
    rows = []
    for axis, other in ((0, 1), (1, 0)):
        # critical lines {model coordinate `axis` = s*}, parametrised by
        # the other coordinate; each maps onto one axis-parallel segment
        crit = turns[axis]
        for s_star in crit.real[_is_real(crit) & (np.abs(crit) <= reach)]:
            j_range = _ball_interval(s_star * inv[:, axis], inv[:, other], epsilon)
            if j_range is None:
                continue
            # the extremes of p_other over J sit at its ends or at turning
            # points; a non-real root's real part only adds a value inside
            t = turns[other].real
            cand = np.concatenate([j_range, t[(t > j_range[0]) & (t < j_range[1])]])
            vals = np.polyval(model.coeffs[other], cand)
            rows.append((axis, np.polyval(model.coeffs[axis], s_star), vals.min(), vals.max()))
    return np.array(rows).reshape(-1, 4)


def _poly_eval(exps: np.ndarray, coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k coeffs_k prod_i w_i^exps_ki at each row of w."""
    return (coeffs * np.prod(w[:, None, :] ** exps, axis=2)).sum(axis=1)


def _critical_points(polys: list, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Newton on grad P = 0 from the rows of w, given the n gradient
    and then the n x n Hessian entries as term lists; the Hessians'
    pseudo-inverse lets non-isolated critical sets converge.  A start whose
    iterates leave the float range turns NaN and is not converged."""
    n = w.shape[1]
    for step in range(_NEWTON_ITERS + 1):
        g = np.stack([_poly_eval(*p, w) for p in polys[:n]], axis=1)
        if step == _NEWTON_ITERS or np.abs(g).max() <= 1e-14:
            break
        h = np.stack([_poly_eval(*p, w) for p in polys[n:]], axis=1)
        lost = ~np.isfinite(h).all(axis=1)  # a start Newton sent past the float range
        h[lost], g[lost] = 0.0, np.nan
        w = w - np.einsum("nij,nj->ni", np.linalg.pinv(h.reshape(-1, n, n)), g)
    return w, np.abs(g).max(axis=1) <= 1e-8


def _critical_rows_nvar(model: _Model, epsilon: float, eta: float, seed: int) -> np.ndarray:
    """Discriminant rows of a several-variable map from the model critical points
    Newton finds from ``seed``'s starts, where their critical set meets the epsilon
    ball: a Field point per converged start, a Hyperbolic line per level."""
    f, inv = model.f, model.inv
    grad = [partial_derivative(f, i) for i in range(f.nvars)]
    hess = [partial_derivative(g, j) for g in grad for j in range(f.nvars)]
    terms = [(model.exps, model.terms)] + [_model_terms(p, model.iso) for p in [*grad, *hess]]
    rng = np.random.Generator(np.random.Philox(seed))
    starts = rng.uniform(-epsilon, epsilon, (_CRITICAL_SEEDS, f.nvars, 2)) @ model.iso.T
    # a start Newton sends past the float range fails ok, and one far out the ball
    if model.kind is AlgebraKind.FIELD:
        polys = [(e, _complex(c)) for e, c in terms]
        with np.errstate(over="ignore", invalid="ignore"):
            w, ok = _critical_points(polys[1:], starts[..., 0] + 1j * starts[..., 1])
            ok &= np.linalg.norm(np.stack([w.real, w.imag], 2) @ inv.T, axis=(1, 2)) <= epsilon
        return _point_rows(_poly_eval(*polys[0], w[ok]))

    rows = []
    for axis, other in ((0, 1), (1, 0)):
        polys = [(e, c[axis]) for e, c in terms]
        with np.errstate(over="ignore", invalid="ignore"):
            w, ok = _critical_points(polys[1:], starts[..., axis])
            # the critical set {w} x R^n comes nearest the origin at this norm
            near = np.linalg.norm(w, axis=1) * abs(np.linalg.det(inv))
            ok &= near / np.linalg.norm(inv[:, other]) <= epsilon
        vals = np.sort(_poly_eval(*polys[0], w[ok]))
        gap = np.diff(vals, prepend=-np.inf) * np.linalg.norm(inv[:, axis])
        new = gap > _REPEAT * eta / _TARGET_RES
        rows += [(axis, v, -np.inf, np.inf) for v in vals[new]]
    return np.array(rows).reshape(-1, 4)


def fiber_solve(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    c: Perplex,
    epsilon: float = 1.0,
) -> list[Perplex]:
    """All solutions of f(x) = c inside the epsilon ball (one variable).

    The roots are solved in the model algebra and carried back, then polished
    by two Newton steps; points are kept when the residual max-norm is at most
    1e-10, then deduplicated so reported points stay at least 1e-6 apart.  This
    is the batched solve behind ``local_triviality_check`` with a single
    target.  ``epsilon`` must be finite and positive, and ``c`` finite.
    """
    if f.nvars != 1:
        raise ValueError("finite fiber solving needs a one-variable map")
    _check_positive("epsilon", epsilon)
    roots, _ = _fibers(_model(f, alg), _target(c)[None], epsilon)
    return [Perplex(float(x), float(y)) for x, y in roots]


def _target(c: Perplex) -> np.ndarray:
    target = np.array(c.as_tuple())
    if not np.isfinite(target).all():
        raise ValueError(f"the target c must be finite, got {c.as_tuple()}")
    return target


def _fibers(
    model: _Model, targets: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """The fibers over all rows of targets in one solve: the kept points grouped
    by target, sorted by coordinates within a group, and the count per target.
    Model roots beyond the ball's reach are dropped before the Newton polish."""
    consts = model.coeffs[:, -1] - (model.iso @ targets[:, :, None])[:, :, 0]
    reach = model.reach * (epsilon + _BALL_SLACK)
    if model.kind is AlgebraKind.FIELD:
        z = _roots(_complex(model.coeffs[:, :-1]), _complex(consts.T), reach)
        w, valid = np.stack([z.real, z.imag], axis=2), np.abs(z) <= reach
    else:  # every pair (s, t) of real model roots, s-major
        s, t = (_roots(model.coeffs[j, :-1], consts[:, j], reach) for j in (0, 1))
        s, t = np.broadcast_arrays(s[:, :, None], t[:, None, :])
        w = np.stack([s.real, t.real], axis=3)
        valid = _is_real(s) & _is_real(t) & (np.abs(w) <= reach).all(axis=3)
    owner, pts = np.nonzero(valid)[0], _apply(model.inv, w[valid])
    pts, res = _newton(model.f, model.alg, pts, targets[owner], _POLISH_STEPS)
    good = (res <= _FIBER_TOL) & (np.linalg.norm(pts, axis=1) <= epsilon + _BALL_SLACK)
    order = np.lexsort((pts[:, 1], pts[:, 0], owner))
    order = order[good[order]]
    counts = np.bincount(owner[order], minlength=len(targets))
    rank = np.arange(len(order)) - (np.cumsum(counts) - counts)[owner[order]]
    roots = np.full((len(targets), counts.max(initial=0), 2), np.nan)
    roots[owner[order], rank] = pts[order]
    kept = ~np.isnan(roots[:, :, 0])
    for r in range(1, roots.shape[1]):  # drop a root within 1e-6 of a kept one
        near = np.linalg.norm(roots[:, :r] - roots[:, r, None], axis=2) < _DEDUPE_RADIUS
        kept[:, r] &= ~(near & kept[:, :r]).any(axis=1)
    return roots[kept], kept.sum(axis=1)


@dataclass(frozen=True)
class ComponentReport:
    """Per-component probe summary: the component's exact area, and the
    distance its probes keep from every cut."""

    label: int
    area: float
    margin: float
    probes: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    constant: bool
    majority: int


@dataclass(frozen=True)
class FibrationReport:
    """Local-triviality evidence over the punctured target disk."""

    algebra_kind: str
    epsilon: float
    eta: float
    components: tuple[ComponentReport, ...]
    discriminant_samples: np.ndarray
    cone_samples: np.ndarray
    consistent: bool
    halvings: int
    target_res: int = _TARGET_RES

    def fiber_counts(self) -> list[list[int]]:
        return [list(c.counts) for c in self.components]

    def to_dict(self) -> dict:
        return {
            "algebraKind": self.algebra_kind,
            "epsilon": self.epsilon,
            "eta": self.eta,
            "halvings": self.halvings,
            "consistent": self.consistent,
            "discriminantSamples": [
                [float(a), float(b)] for a, b in self.discriminant_samples
            ],
            "coneSampleCount": int(len(self.cone_samples)),
            "componentLabels": [c.label for c in self.components],
            "fiberCounts": [
                [[list(p), n] for p, n in zip(c.probes, c.counts)]
                for c in self.components
            ],
            "constant": [c.constant for c in self.components],
        }


def _ellipse(inv: np.ndarray) -> tuple[np.ndarray, float]:
    """q with |inv m|^2 = m^T q m, and its determinant, exact for near-parallel columns."""
    return inv.T @ inv, (inv[0, 0] * inv[1, 1] - inv[0, 1] * inv[1, 0]) ** 2


def _chord(inv: np.ndarray, eta: float, k: int, v):
    """The eta disk, an ellipse m^T q m <= eta^2 in model coordinates, meets the
    line m_k = v in the chord mid +- half along the other coordinate."""
    (q, det), o = _ellipse(inv), 1 - k
    return -q[k, o] * v / q[o, o], np.sqrt(np.maximum(q[o, o] * eta**2 - det * v**2, 0.0)) / q[o, o]


def _area_below(inv: np.ndarray, eta: float, v, c) -> np.ndarray:
    """The model-plane area of the disk's ellipse where m0 <= v and m1 <= c (both
    within its reach), summed along its chords m0 = u: between the crossings
    u1 <= u2 of the line m1 = c up to c, beyond them wholly or not at all."""
    q, det = _ellipse(inv)
    mid, half, big = *_chord(inv, eta, 1, c), eta * np.sqrt(q[1, 1] / det)
    u1, u2 = (np.where(half > 0.0, mid + s * half, big) for s in (-1.0, 1.0))
    y = np.maximum(u1, np.minimum(v, u2))
    # the ellipse's area over lo <= m0 <= hi, for (lo, hi) = (-big, min(v, u1)), (u1, y), (u2, v)
    w = np.stack(np.broadcast_arrays(-big, np.minimum(v, u1), u1, y, u2, np.maximum(u2, v)))
    w = np.clip(w / big, -1.0, 1.0)
    w = (w * np.sqrt(1.0 - w**2) + np.arcsin(w)) * eta**2 / np.sqrt(det)
    strips, end = w[1::2] - w[::2], q[0, 1] * big / q[1, 1]
    inner = c * (y - u1) + q[0, 1] * (y**2 - u1**2) / (2.0 * q[1, 1]) + strips[1] / 2.0
    return (end < c) * strips[0] + inner + (-end < c) * strips[2]


def _components(model: _Model, eta: float, rows: np.ndarray) -> tuple:
    """The exact components of the eta disk minus the discriminant ``rows`` and,
    for Hyperbolic, the cone lines (which hold the level-0 segments).  The cuts
    split the model plane into rectangles, each meeting the disk (an ellipse in
    model coordinates) in a convex part; neighbours join across each edge that
    meets the disk and no segment covers.  Returns the cut rows, the rectangles'
    bounds (lo0, hi0, lo1, hi1), the range of m0 = u over each part and its area
    left of _CDF_NODES even steps of u, and the components, largest first.  Parts
    under 1e-12 of the disk, the rounding level of the areas, count as empty."""
    if model.kind is AlgebraKind.HYPERBOLIC:
        rows = np.vstack([[(k, 0.0, -np.inf, np.inf) for k in (0, 1)], rows[rows[:, 1] != 0.0]])
    cuts = [np.append(rows[rows[:, 0] == k, 1], rows[rows[:, 0] != k, 2:]) for k in (0, 1)]
    ends = [np.concatenate([[-np.inf], np.unique(c[np.isfinite(c)]), [np.inf]]) for c in cuts]
    ids = np.arange((len(ends[0]) - 1) * (len(ends[1]) - 1)).reshape(len(ends[0]) - 1, -1)
    i, j = np.divmod(ids.ravel(), ids.shape[1])
    q, det = _ellipse(model.inv)
    reach = eta * np.sqrt(np.diag(q)[::-1] / det).repeat(2)[:, None]
    bounds = np.clip([ends[0][i], ends[0][i + 1], ends[1][j], ends[1][j + 1]], -reach, reach)
    # a part's u range ends at a side, at the ellipse's reach or where a side m1 = c meets it
    mid, half = _chord(model.inv, eta, 1, bounds[2:])
    u = np.vstack([bounds[:2], [[-1.0], [1.0]] * reach[0] + 0.0 * i, mid - half, mid + half])
    mid, half = _chord(model.inv, eta, 0, u)
    ok = (u >= bounds[0]) & (u <= bounds[1]) & (mid - half <= bounds[3] + 1e-12 * reach[2])
    ok &= mid + half >= bounds[2] - 1e-12 * reach[2]
    span = np.where(ok, u, np.inf).min(axis=0), np.where(ok, u, -np.inf).max(axis=0)
    span = np.where(np.isfinite(span), span, bounds[:2])
    steps = span[0] + (span[1] - span[0]) * np.linspace(0.0, 1.0, _CDF_NODES)[:, None]
    below = _area_below(model.inv, eta, steps, bounds[2:, None])
    cdf = below[1] - below[0] - (below[1, 0] - below[0, 0])
    live, lab = cdf[-1] > 1e-12 * np.pi * reach[0] * reach[2], ids.ravel().copy()
    for k, cut in enumerate(ends):  # join neighbours across each edge that meets the disk uncut
        lo, hi, cut = ends[1 - k][:-1], ends[1 - k][1:], cut[1:-1, None]
        on = (rows[:, 0, None, None] == k) & (rows[:, 1, None, None] == cut)
        covered = (on & (rows[:, 2, None, None] <= lo) & (rows[:, 3, None, None] >= hi)).any(axis=0)
        mid, half = _chord(model.inv, eta, k, cut)
        meets = np.maximum(lo, mid - half) < np.minimum(hi, mid + half)
        side = np.moveaxis(ids, k, 0)
        for a, b in zip(side[:-1][meets & ~covered], side[1:][meets & ~covered]):
            lab[lab == lab[b]] = lab[a]
    groups = [np.flatnonzero(live & (lab == c)) for c in np.unique(lab[live])]
    return rows, bounds, span, cdf, sorted(groups, key=lambda g: -cdf[-1, g].sum())


def _row_gaps(inv: np.ndarray, rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The distance from each point of pts (..., 2) to the nearest of the
    discriminant rows (axis, level, lo, hi), each the segment of algebra points
    inv @ m with m_axis = level and lo <= m_other <= hi; inf without rows."""
    k = rows[:, 0].astype(int)
    base, along = rows[:, 1, None] * inv.T[k], inv.T[1 - k]
    d = pts[..., None, :] - base
    tau = np.clip((d * along).sum(axis=-1) / (along**2).sum(axis=-1), rows[:, 2], rows[:, 3])
    return np.linalg.norm(d - tau[..., None] * along, axis=-1).min(axis=-1, initial=np.inf)


def _component_reports(
    model: _Model, eta: float, epsilon: float, probes: int, seed: int, rows: np.ndarray
) -> tuple[list[ComponentReport], bool]:
    """Probe seeded points of every exact component in one batched solve: a
    point takes a rectangle by area, u by its area table and m1 evenly along
    the chord at u.  Of _DRAWS points per probe the first kept lie over
    _PROBE_MARGIN cells from every cut or, in a narrower component, over half
    the largest such distance among them."""
    rows, bounds, span, cdf, groups = _components(model, eta, rows)
    area, rng = cdf[-1], np.random.Generator(np.random.Philox(seed))
    r = np.concatenate([rng.choice(g, _DRAWS * probes, p=area[g] / area[g].sum()) for g in groups])
    rest = rng.random(len(r)) * area[r]
    j = np.clip((cdf[:, r] <= rest).sum(axis=0), 1, _CDF_NODES - 1)
    step = j - 1 + (rest - cdf[j - 1, r]) / np.maximum(cdf[j, r] - cdf[j - 1, r], 1e-300)
    u = span[0][r] + (span[1][r] - span[0][r]) * step / (_CDF_NODES - 1)
    mid, half = _chord(model.inv, eta, 0, u)
    lo, hi = np.maximum(bounds[2, r], mid - half), np.minimum(bounds[3, r], mid + half)
    pts = _apply(model.inv, np.column_stack([u, lo + rng.random(len(u)) * (hi - lo)]))
    pts = pts.reshape(len(groups), -1, 2)

    gap = _row_gaps(model.inv, rows, pts)
    gap[np.linalg.norm(pts, axis=-1) > eta] = -np.inf
    margin = np.minimum(_PROBE_MARGIN * 2.0 * eta / _TARGET_RES, gap.max(axis=1) / 2.0)
    pick = np.argsort(np.where(gap > margin[:, None], -np.inf, -gap), axis=1, kind="stable")
    pick = pick[:, :probes]  # short of kept points, the farthest of the rest fill in
    targets = np.take_along_axis(pts, pick[..., None], axis=1)
    margin = np.minimum(margin, np.take_along_axis(gap, pick, axis=1).min(axis=1))

    counts = _fibers(model, targets.reshape(-1, 2), epsilon)[1].reshape(len(groups), probes)
    scale = abs(np.linalg.det(model.inv))
    reports = [
        ComponentReport(lab, float(area[g].sum() * scale), float(m), tuple(map(tuple, at.tolist())),
                        tuple(n.tolist()), bool((n == n[0]).all()), int(np.bincount(n).argmax()))
        for lab, (g, m, at, n) in enumerate(zip(groups, margin, targets, counts), 1)
    ]
    return reports, all(r.constant for r in reports)


def local_triviality_check(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    eta: float = 0.05,
    epsilon: float = 1.0,
    probes_per_component: int = 8,
    seed: int = 1,
) -> FibrationReport:
    """Probe fiber-count constancy over the punctured disk.

    The map is carried into the model algebra once, and the eta disk minus
    its discriminant and, for Hyperbolic, its zero-divisor cone is split
    into exact components, reported largest first with their areas.  Each
    is probed with fiber counts, in one batched model solve, at seeded
    points drawn by area from its parts of the disk: over 3.05 sample cells
    (2 eta / 256 each) from every cut or, where a component is narrower,
    over half the largest distance from the cuts among its points.  The
    check is consistent when every component's counts are constant;
    otherwise eta is halved and the check rerun, up to six times.
    ``epsilon`` and ``eta`` must be finite and positive, and
    ``probes_per_component`` in [1, 256].
    """
    if f.nvars != 1:
        raise ValueError("triviality probing with fiber counts needs one variable")
    _check_positive("epsilon", epsilon)
    _check_positive("eta", eta)
    model = _model(f, alg)
    if eta > epsilon / 10.0:
        raise ValueError("eta must be at most epsilon/10")
    if not 1 <= probes_per_component <= _MAX_PROBES:
        raise ValueError(
            f"probes_per_component must be in [1, {_MAX_PROBES}], got {probes_per_component}"
        )

    for halving in range(_MAX_HALVINGS + 1):
        cur_eta = eta * 0.5**halving
        (disc, rows), cone = _discriminant(model, epsilon, cur_eta), _cone_samples(model, cur_eta)
        comps, consistent = _component_reports(
            model, cur_eta, epsilon, probes_per_component, seed, rows
        )
        report = FibrationReport(
            model.kind.value, epsilon, cur_eta, tuple(comps), disc, cone, consistent, halving
        )
        if consistent:
            break
    return report


def _linkage(cloud: np.ndarray) -> tuple[np.ndarray, float]:
    """Single-linkage labels of two or more cloud points at r, five mean
    nearest-neighbour distances, and that mean, without listing every pair
    within r.

    The graph H links each point to those of its _KNN nearest listed nearer
    than r, or at distance 0.  A pair within r that H lacks either joins two
    saturated points, whose _KNN-th listed distance is at most r (a point that
    left such a neighbour off its list has _KNN listed within r), or was listed
    at exactly r > 0, where the rounded distance cannot tell on which side of
    r the kd-tree's squared pair test falls.  So H's components are exact
    unless such doubtful points lie in several of them.  Then the pairs within
    r between those components are fetched by bisection: numbering them, one
    dual-tree pass per bit of the number joins the doubtful points whose
    numbers first differ at that bit."""
    from scipy import sparse, spatial

    n = len(cloud)
    tree = spatial.cKDTree(cloud)
    dist, idx = tree.query(cloud, k=min(_KNN, n))
    mean_nn = float(dist[:, 1].mean())
    r = 5.0 * mean_nn

    def label(pairs: np.ndarray) -> np.ndarray:
        graph = sparse.coo_matrix((np.ones(len(pairs), np.int8), pairs.T), shape=(n, n))
        return sparse.csgraph.connected_components(graph, directed=False)[1]

    edge = (dist < r) | (dist == 0.0)
    rows, cols = np.nonzero(edge)
    pairs = np.column_stack([rows, idx[rows, cols]])
    labels = label(pairs)
    doubt = np.flatnonzero((dist[:, -1] <= r) | ((dist == r) & ~edge).any(axis=1))
    group = np.unique(labels[doubt], return_inverse=True)[1]
    if not group.any():
        return labels, mean_nn
    found = [pairs]
    for bit in range(int(group.max()).bit_length()):
        side = (group >> bit) & 1 == 1
        near = spatial.cKDTree(cloud[doubt[~side]]).sparse_distance_matrix(
            spatial.cKDTree(cloud[doubt[side]]), r, output_type="ndarray"
        )
        i, j = np.flatnonzero(~side)[near["i"]], np.flatnonzero(side)[near["j"]]
        first = (group[i] ^ group[j]) >> bit == 1  # the numbers first differ at this bit
        found.append(np.column_stack([doubt[i[first]], doubt[j[first]]]))
    return label(np.vstack(found)), mean_nn


@dataclass(frozen=True)
class FiberCloud:
    """Point-cloud sample of a two-variable fiber.

    ``connectivity`` counts linkage components holding at least one
    percent of the cloud; smaller clusters are sampling strays near
    the ball boundary and are tallied in ``stray_count`` instead.
    """

    points: np.ndarray
    residual_max: float
    connectivity: int
    stray_count: int
    mean_nn_distance: float
    on_discriminant: bool

    def to_dict(self) -> dict:
        return {
            "pointCount": int(len(self.points)),
            "residualMax": float(self.residual_max),
            "connectivity": int(self.connectivity),
            "strayCount": int(self.stray_count),
            "meanNearestNeighbor": float(self.mean_nn_distance),
            "onDiscriminant": bool(self.on_discriminant),
        }


def fiber_cloud(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    c: Perplex,
    epsilon: float = 1.0,
    cloud_size: int = _CLOUD_SEEDS,
    seed: int = 1,
) -> FiberCloud:
    """Sample f^{-1}(c) inside the epsilon ball for a two-variable map.

    Random seeds in the ball are projected onto the level set by
    minimum-norm Gauss-Newton steps; converged points inside the ball
    form the cloud.  Connectivity is estimated by single linkage at r, five
    mean nearest-neighbor distances, from the graph of each point's 8
    nearest neighbours within r: only points whose 8th neighbour lies
    within r can miss a neighbour there, and only the pairs within r
    between that graph's components holding such points are fetched, by
    bisecting the components.  The target is flagged as
    on-discriminant when it lies within two raster cells at eta 0.05
    (7.8e-4) of an exact discriminant row found from the same seed: a
    Field critical value, or a whole Hyperbolic critical line.
    ``epsilon`` must be finite and positive, ``c`` finite and
    ``cloud_size`` in [1, 16384].
    """
    if f.nvars != 2:
        raise ValueError("cloud sampling needs a two-variable map")
    _check_positive("epsilon", epsilon)
    target = _target(c)
    if cloud_size < 1:
        raise ValueError(f"cloud_size must be at least 1, got {cloud_size}")
    if cloud_size > _MAX_CLOUD:
        raise ValueError(f"cloud_size must be at most {_MAX_CLOUD}, got {cloud_size}")
    model = _model(f, alg)

    rng = np.random.Generator(np.random.Philox(seed))
    dirs = rng.normal(size=(cloud_size, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = epsilon * rng.uniform(0.0, 1.0, size=cloud_size) ** 0.25
    pts = radii[:, None] * dirs
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged seed fails good
        pts, res = _newton(f, alg, pts, target, _NEWTON_ITERS)
        good = (res <= _FIBER_TOL) & (np.linalg.norm(pts, axis=1) <= epsilon)
    cloud = pts[good]
    if len(cloud) == 0:
        raise EmptyFiber(
            "no Newton seed converged to the target inside the ball;"
            " the fiber is empty or outside reach"
        )

    if len(cloud) == 1:
        connectivity, strays, mean_nn = 1, 0, 0.0
    else:
        labels, mean_nn = _linkage(cloud)
        sizes = np.bincount(labels)
        floor = max(4, int(0.01 * len(cloud)))
        connectivity = int((sizes >= floor).sum())
        strays = int(sizes[sizes < floor].sum())
        if connectivity == 0:
            # cloud too sparse for the size floor; fall back to raw count
            connectivity, strays = len(sizes), 0

    near = _row_gaps(model.inv, _critical_rows_nvar(model, epsilon, 0.05, seed), target)
    on_disc = bool(near <= 2.0 * (2.0 * 0.05 / _TARGET_RES))
    return FiberCloud(cloud, float(res[good].max()), connectivity, strays, mean_nn, on_disc)
