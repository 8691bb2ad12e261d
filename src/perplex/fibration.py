"""Desk-scale verification of local triviality over the punctured disk.

The pipeline: find the discriminant of a polynomial map, rasterize it
into a mask over a small target disk, flood-fill the complement into
components, and probe each component with fiber counts.  Constancy of
the count within a component is the checkable content of the
fibration statement.

The mask also blanks the target's zero-divisor cone.  The cone is not
part of the discriminant, but cutting along it only refines the
partition: each refined piece sits inside a true component, so count
constancy must still hold piecewise, and the refinement keeps probe
regions away from the directions where inverse images degenerate.  For
a field algebra the cone is the origin alone and nothing changes.

Every map is solved in the model algebra: the isomorphism from
``classify`` carries f term by term onto one complex polynomial P
(Field) or a pair of real polynomials (p1(s), p2(t)) (Hyperbolic).  The
real Jacobian drops rank exactly where grad P = 0, or grad p1 = 0 or
grad p2 = 0, so Field discriminants are finite sets and Hyperbolic ones
lines parallel to the model axes.  By the Cauchy-Riemann structure the
Jacobian's x_i2 columns are j times its x_i1 columns, so Newton evaluates
only the x_i1 partials.  One-variable fibers are model roots, carried
back and Newton-polished; two-variable fibers are surfaces, sampled as
point clouds by minimum-norm Gauss-Newton projection and summarized by a
single-linkage connectivity estimate (a diagnostic, not certified
topology).  Dual numbers have no finite model and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Perplex, PerplexAlgebra
from .calculus import PolyMap
from .errors import DegenerateAlgebra, EmptyFiber, MaskTooCoarse
from .multivar import PerplexPolyN, partial_derivative
from .structure import AlgebraKind, Classification, classify

_TARGET_RES = 256
_NEWTON_ITERS = 50
_POLISH_STEPS = 2
_REAL_ROOT_TOL = 1e-9
_SEGMENT_SPACING = 0.45
_FIBER_TOL = 1e-10
_DEDUPE_RADIUS = 1e-6
_MASK_DILATION = 2
_MAX_HALVINGS = 6
_CONSISTENCY_CELLS = 3.0
_CLOUD_SEEDS = 4096
_CRITICAL_SEEDS = 96


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
    """A one-variable map carried into its model algebra.

    Row j of ``coeffs`` holds the j-th model coordinate of the
    coefficients, highest degree first (numpy's order): for Field the
    complex polynomial is row 0 + i * row 1, for Hyperbolic the rows are
    p1 and p2.  ``inv`` carries model points back to the algebra, and the
    x_i1 ``partials`` with ``l_j`` give the Newton Jacobian (``_jacobian``).
    """

    kind: AlgebraKind
    iso: np.ndarray
    inv: np.ndarray
    coeffs: np.ndarray
    expansion: PolyMap
    partials: list[PolyMap]
    l_j: np.ndarray


def _model_terms(f: PerplexPolyN, iso: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f's exponents (terms, nvars) and model coefficient rows (2, terms)."""
    exps = np.array([exp for exp, _ in f.terms], dtype=int).reshape(-1, f.nvars)
    coeffs = [iso @ np.array(c.as_tuple()) for _, c in f.terms]
    return exps, np.array(coeffs).reshape(-1, 2).T


def _model(f: PerplexPolyN, alg: PerplexAlgebra) -> _Model:
    cls = _nondegenerate(alg)
    exps, terms = _model_terms(f, cls.iso)
    degree = int(exps.max(initial=0))
    coeffs = np.zeros((2, degree + 1))
    coeffs[:, degree - exps[:, 0]] = terms
    m, inv = f.to_polymap(alg), np.linalg.inv(cls.iso)
    return _Model(cls.kind, cls.iso, inv, coeffs, m, _x1_partials(m), cls.l_j)


def _complex(rows: np.ndarray) -> np.ndarray:
    return rows[0] + 1j * rows[1]


def _is_real(roots: np.ndarray) -> np.ndarray:
    return np.abs(roots.imag) <= _REAL_ROOT_TOL * np.maximum(1.0, np.abs(roots))


def _roots(head: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """np.roots of head with each of consts appended as its constant term, a row
    per constant, from stacked companion matrices.  Like np.roots, a zero
    constant drops the trailing zeros and returns their roots as exact zeros."""
    head = np.trim_zeros(head, "f")
    out, zero = np.zeros((len(consts), len(head)), complex), consts == 0
    for rows, poly in (
        (~zero, np.column_stack([np.tile(head, (len(consts), 1)), consts])),
        (zero, np.tile(np.trim_zeros(head, "b"), (len(consts), 1))),
    ):
        poly, size = poly[rows], poly.shape[1] - 1
        if len(poly) and size > 0:
            comp = np.zeros((len(poly), size, size), poly.dtype)
            comp[:, 1:, :-1] = np.eye(size - 1)
            comp[:, 0] = -poly[:, 1:] / poly[:, :1]
            out[rows, :size] = np.linalg.eigvals(comp)
    return out


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


def _cone_samples(model: _Model, eta: float) -> np.ndarray:
    """Samples of the zero-divisor cone: the images of the model axes
    for Hyperbolic, nothing beyond the origin for Field."""
    if model.kind is AlgebraKind.FIELD:
        return np.empty((0, 2))
    radii = np.linspace(-1.45 * eta, 1.45 * eta, 6 * _TARGET_RES)
    dirs = model.inv / np.linalg.norm(model.inv, axis=0)
    return np.vstack([radii[:, None] * d[None, :] for d in dirs.T])


def _x1_partials(m: PolyMap) -> list[PolyMap]:
    return [PolyMap(m.nvars, m.u.pderiv(2 * i), m.v.pderiv(2 * i)) for i in range(m.nvars)]


def _apply(mat: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """mat @ p per row p of pts, in bits that do not depend on the row count."""
    return pts[:, :1] * mat[:, 0] + pts[:, 1:] * mat[:, 1]


def _jacobian(partials: list[PolyMap], l_j: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The (points, 2, 2n) real Jacobians; column x_i2 is L_j times column x_i1."""
    cols = [p.eval_many(pts) for p in partials]
    return np.stack([c for col in cols for c in (col, _apply(l_j, col))], axis=2)


def _min_norm_step(jac: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Minimum-norm Newton steps J^T (J J^T)^-1 r for a stack of 2 x dim
    Jacobians, zero where J J^T is singular to working precision."""
    gram = jac @ jac.transpose(0, 2, 1)
    det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] ** 2
    det[det <= 1e-14 * (gram[:, 0, 0] + gram[:, 1, 1]) ** 2] = np.inf
    adjugate = gram[:, ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.einsum("nij,nj->ni", adjugate, res) / det[:, None]
    return np.einsum("nki,nk->ni", jac, y)


def _newton(
    m: PolyMap, partials: list[PolyMap], l_j: np.ndarray, pts: np.ndarray,
    target: np.ndarray, steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The points after up to ``steps`` minimum-norm Newton steps toward m = target
    (one row, or one per point), and their residual max-norms; a point stops once
    its norm is at most 1e-14.  J's x_i2 columns are j times its x_i1 columns."""
    target, pts = np.broadcast_to(target, (len(pts), 2)), pts.copy()
    live, norm = np.arange(len(pts)), np.empty(len(pts))
    for step in range(steps + 1):
        res = m.eval_many(pts[live]) - target[live]
        norm[live] = np.maximum(*np.abs(res).T)  # faster than max(axis=1) on two columns
        keep = norm[live] > 1e-14
        live, res = live[keep], res[keep]
        if step == steps or len(live) == 0:
            return pts, norm
        pts[live] -= _min_norm_step(_jacobian(partials, l_j, pts[live]), res)


def critical_values(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    epsilon: float = 1.0,
    eta: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Discriminant samples: the critical set pushed through the map.

    Field critical values are points; Hyperbolic ones are segments
    parallel to the model axes, sampled at most 0.45 raster cells apart
    so that the rasterized discriminant is gap-free.  One-variable maps
    are solved exactly.  In more variables Newton from ``seed``'s starts
    finds the critical points whose critical set meets the epsilon ball,
    and a Hyperbolic one w* adds the whole line {p_k = p_k(w*)}.  Points
    are returned inside a slightly padded eta box.  ``epsilon`` and
    ``eta`` must be finite and positive.
    """
    _check_positive("epsilon", epsilon)
    _check_positive("eta", eta)
    if f.nvars == 1:
        return _discriminant(_model(f, alg), epsilon, eta)
    return _discriminant_nvar(f, _nondegenerate(alg), epsilon, eta, seed)


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


def _discriminant(model: _Model, epsilon: float, eta: float) -> np.ndarray:
    degree = model.coeffs.shape[1] - 1
    deriv = model.coeffs[:, :-1] * np.arange(degree, 0, -1)
    inv = model.inv
    if model.kind is AlgebraKind.FIELD:
        crit = np.roots(_complex(deriv))
        sources = np.column_stack([crit.real, crit.imag]) @ inv.T
        crit = crit[np.abs(sources).max(axis=1) <= epsilon]
        vals = np.polyval(_complex(model.coeffs), crit)
        targets = np.column_stack([vals.real, vals.imag]) @ inv.T
        return targets[np.abs(targets).max(axis=1) <= 1.35 * eta]

    turns = [np.roots(d).real for d in deriv]
    segments = [np.empty((0, 2))]
    for axis, other in ((0, 1), (1, 0)):
        # critical lines {model coordinate `axis` = s*}, parametrised by
        # the other coordinate; each maps onto one axis-parallel segment
        crit = np.roots(deriv[axis])
        for s_star in crit.real[_is_real(crit)]:
            j_range = _box_interval(s_star * inv[:, axis], inv[:, other], epsilon)
            if j_range is None:
                continue
            # the extremes of p_other over J sit at its ends or at turning
            # points; a non-real root's real part only adds a value inside
            t = turns[other]
            cand = np.concatenate([j_range, t[(t > j_range[0]) & (t < j_range[1])]])
            vals = np.polyval(model.coeffs[other], cand)
            base = np.polyval(model.coeffs[axis], s_star) * inv[:, axis]
            segments.append(_segment(base, inv[:, other], vals.min(), vals.max(), eta))
    return np.vstack(segments)


def _poly_eval(exps: np.ndarray, coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k coeffs_k prod_i w_i^exps_ki at each row of w."""
    return (coeffs * np.prod(w[:, None, :] ** exps, axis=2)).sum(axis=1)


def _critical_points(polys: list, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Newton on grad P = 0 from the rows of w, given the n gradient
    and then the n x n Hessian entries as term lists; the Hessians'
    pseudo-inverse lets non-isolated critical sets converge."""
    n = w.shape[1]
    for step in range(_NEWTON_ITERS + 1):
        g = np.stack([_poly_eval(*p, w) for p in polys[:n]], axis=1)
        if step == _NEWTON_ITERS or np.abs(g).max() <= 1e-14:
            break
        h = np.stack([_poly_eval(*p, w) for p in polys[n:]], axis=1)
        w = w - np.einsum("nij,nj->ni", np.linalg.pinv(h.reshape(-1, n, n)), g)
    return w, np.abs(g).max(axis=1) <= 1e-8


def _discriminant_nvar(
    f: PerplexPolyN, cls: Classification, epsilon: float, eta: float, seed: int
) -> np.ndarray:
    grad = [partial_derivative(f, i) for i in range(f.nvars)]
    hess = [partial_derivative(g, j) for g in grad for j in range(f.nvars)]
    terms = [_model_terms(p, cls.iso) for p in [f, *grad, *hess]]
    inv = np.linalg.inv(cls.iso)
    rng = np.random.Generator(np.random.Philox(seed))
    starts = rng.uniform(-epsilon, epsilon, (_CRITICAL_SEEDS, f.nvars, 2)) @ cls.iso.T
    if cls.kind is AlgebraKind.FIELD:
        model = [(e, _complex(c)) for e, c in terms]
        w, ok = _critical_points(model[1:], starts[..., 0] + 1j * starts[..., 1])
        ok &= np.linalg.norm(np.stack([w.real, w.imag], 2) @ inv.T, axis=(1, 2)) <= epsilon
        vals = _poly_eval(*model[0], w[ok])
        targets = np.column_stack([vals.real, vals.imag]) @ inv.T
        return targets[np.abs(targets).max(axis=1) <= 1.35 * eta]

    lines = [np.empty((0, 2))]
    for axis, other in ((0, 1), (1, 0)):
        a, b = inv[:, axis], inv[:, other]
        model = [(e, c[axis]) for e, c in terms]
        w, ok = _critical_points(model[1:], starts[..., axis])
        # the critical set {w} x R^n comes nearest the origin at this norm
        near = np.linalg.norm(w, axis=1) * abs(np.linalg.det(inv)) / np.linalg.norm(b)
        ok &= near <= epsilon
        vals = np.sort(_poly_eval(*model[0], w[ok]))
        # seeds drawn to one critical point repeat its line: sample it once
        new = np.diff(vals, prepend=-np.inf) * np.linalg.norm(a) > 1e-6 * eta / _TARGET_RES
        lines += [_segment(v * a, b, -np.inf, np.inf, eta) for v in vals[new]]
    return np.vstack(lines)


def fiber_solve(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    c: Perplex,
    epsilon: float = 1.0,
) -> list[Perplex]:
    """All solutions of f(x) = c inside the epsilon ball (one variable).

    The roots are solved in the model algebra and carried back, then
    polished by two Newton steps; points are kept when the residual
    max-norm is at most 1e-10, then deduplicated so reported points
    stay at least 1e-6 apart.  This is the batched solve behind
    ``local_triviality_check`` with a single target.
    """
    if f.nvars != 1:
        raise ValueError("finite fiber solving needs a one-variable map")
    roots, _ = _fibers(_model(f, alg), np.array([c.as_tuple()]), epsilon)
    return [Perplex(float(x), float(y)) for x, y in roots]


def _fibers(
    model: _Model, targets: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """The fibers over all rows of targets in one solve: the kept points grouped
    by target, sorted by coordinates within a group, and the count per target."""
    consts = model.coeffs[:, -1] - (model.iso @ targets[:, :, None])[:, :, 0]
    if model.kind is AlgebraKind.FIELD:
        z = _roots(_complex(model.coeffs[:, :-1]), _complex(consts.T))
        w, valid = np.stack([z.real, z.imag], axis=2), np.ones(z.shape, bool)
    else:  # every pair (s, t) of real model roots, s-major
        s, t = (_roots(model.coeffs[j, :-1], consts[:, j]) for j in (0, 1))
        s, t = np.broadcast_arrays(s[:, :, None], t[:, None, :])
        w, valid = np.stack([s.real, t.real], axis=3), _is_real(s) & _is_real(t)
    owner, pts = np.nonzero(valid)[0], _apply(model.inv, w[valid])
    pts, res = _newton(
        model.expansion, model.partials, model.l_j, pts, targets[owner], _POLISH_STEPS
    )
    good = (res <= _FIBER_TOL) & (np.linalg.norm(pts, axis=1) <= epsilon + 1e-12)
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
    """Per-component probe summary."""

    label: int
    cell_count: int
    probes: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    constant: bool
    majority: int
    low_confidence: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "cellCount": self.cell_count,
            "probes": [list(p) for p in self.probes],
            "counts": list(self.counts),
            "constant": self.constant,
            "majority": self.majority,
            "lowConfidence": self.low_confidence,
        }


@dataclass(frozen=True)
class FibrationReport:
    """Local-triviality evidence over the masked target disk."""

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
            "lowConfidence": [c.low_confidence for c in self.components],
        }


def _mask(samples: np.ndarray, eta: float) -> np.ndarray:
    """The raster cells of the samples dilated by a disk of radius two
    cells: the disk's offsets stamped on every distinct sample cell."""
    ij = np.floor((samples + eta) / (2.0 * eta / _TARGET_RES)).astype(int)
    ij = ij[((ij >= 0) & (ij < _TARGET_RES)).all(axis=1)]
    row, col = np.divmod(np.unique(ij[:, 1] * _TARGET_RES + ij[:, 0]), _TARGET_RES)
    offs = np.arange(-_MASK_DILATION, _MASK_DILATION + 1)
    di, dj = np.nonzero(offs[:, None] ** 2 + offs[None, :] ** 2 <= _MASK_DILATION**2)
    # stamp on a grid with a margin as wide as the disk, then cut the margin off
    mask = np.zeros((_TARGET_RES + len(offs) - 1,) * 2, dtype=bool)
    mask[row[:, None] + di, col[:, None] + dj] = True
    return mask[_MASK_DILATION:-_MASK_DILATION, _MASK_DILATION:-_MASK_DILATION]


def _rings(labels: np.ndarray, ncomp: int, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per label, the cells of its ring (outside it and 4-adjacent to it)
    and how many of them are masked.  Two 4-adjacent labelled cells share
    a label, so the ring cells are the unlabelled neighbours."""
    index, keys = np.arange(labels.size).reshape(labels.shape), []
    top, bottom, left, right = np.s_[:-1], np.s_[1:], np.s_[:, :-1], np.s_[:, 1:]
    for free, nbr in ((bottom, top), (top, bottom), (right, left), (left, right)):
        hit = (labels[free] == 0) & (labels[nbr] > 0)
        keys.append(index[free][hit] * (ncomp + 1) + labels[nbr][hit])
    cell, lab = np.divmod(np.unique(np.concatenate(keys)), ncomp + 1)
    masked = lab[mask.ravel()[cell]]
    return np.bincount(lab, minlength=ncomp + 1), np.bincount(masked, minlength=ncomp + 1)


def _component_reports(
    model: _Model, eta: float, epsilon: float, probes: int, seed: int, samples: np.ndarray
) -> tuple[list[ComponentReport], bool]:
    """Mask, label and probe the eta disk in a fixed amount of array work: a
    radius-two disk stamped on every sample cell, one ``ndimage.label``, one
    pass over the labels for all rings, and one batched solve for all probes."""
    from scipy import ndimage
    cell = 2.0 * eta / _TARGET_RES
    centers_axis = -eta + (np.arange(_TARGET_RES) + 0.5) * cell
    mask = _mask(samples, eta)
    inside = centers_axis[None, :] ** 2 + centers_axis[:, None] ** 2 <= eta**2
    labels, ncomp = ndimage.label(~mask & inside)
    sizes = np.bincount(labels.ravel(), minlength=ncomp + 1)
    thin = np.flatnonzero(sizes[1:] < probes) + 1
    if len(thin):
        msg = f"component {thin[0]} spans only {sizes[thin[0]]} cells; need {probes} probes"
        raise MaskTooCoarse(msg)

    # cells grouped by label, row-major within a label as np.argwhere lists them
    cells, starts = np.argsort(labels, axis=None, kind="stable"), np.cumsum(sizes) - sizes
    rng = np.random.Generator(np.random.Philox(seed))
    picks = [rng.choice(sizes[lab], probes, replace=False) for lab in range(1, ncomp + 1)]
    picks = np.array(picks, dtype=int).reshape(ncomp, probes) + starts[1:, None]
    row, col = np.divmod(cells[picks.ravel()], _TARGET_RES)
    targets = np.column_stack([centers_axis[col], centers_axis[row]])
    counts = _fibers(model, targets, epsilon)[1].reshape(ncomp, probes)
    ring, masked_ring = _rings(labels, ncomp, mask)

    reports, consistent = [], True
    for lab, at, n in zip(range(1, ncomp + 1), targets.reshape(ncomp, -1, 2), counts):
        majority = int(np.bincount(n).argmax())
        # a count off the majority is excused only near the mask's samples
        for tgt in at[n != majority]:
            near = np.linalg.norm(samples - tgt, axis=1).min(initial=np.inf)
            consistent &= bool(near <= _CONSISTENCY_CELLS * cell)
        low_conf = bool(ring[lab] > 0 and masked_ring[lab] / ring[lab] > 0.5)
        reports.append(ComponentReport(
            lab, int(sizes[lab]), tuple(map(tuple, at.tolist())), tuple(n.tolist()),
            bool((n == n[0]).all()), majority, low_conf,
        ))
    reports.sort(key=lambda r: -r.cell_count)
    return reports, consistent


def local_triviality_check(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    eta: float = 0.05,
    epsilon: float = 1.0,
    probes_per_component: int = 8,
    seed: int = 1,
) -> FibrationReport:
    """Probe fiber-count constancy over the masked punctured disk.

    The map is carried into the model algebra once.  Its discriminant
    and the target zero-divisor cone are rasterized into a mask (a disk
    of radius two cells stamped on each sample), the unmasked disk is
    flood-filled into components, and seeded random cells of all
    components are probed with fiber counts in one batched model solve.
    When a component is too thin to probe or a count disagreement
    appears away from the mask, eta is halved and the check rerun, up to
    six times.  ``epsilon`` and ``eta`` must be finite and positive.
    """
    if f.nvars != 1:
        raise ValueError("triviality probing with fiber counts needs one variable")
    _check_positive("epsilon", epsilon)
    _check_positive("eta", eta)
    model = _model(f, alg)
    if eta > epsilon / 10.0:
        raise ValueError("eta must be at most epsilon/10")
    if probes_per_component < 1:
        raise ValueError(
            f"probes_per_component must be at least 1, got {probes_per_component}"
        )

    report, error = None, None
    for halving in range(_MAX_HALVINGS + 1):
        cur_eta = eta * 0.5**halving
        disc, cone = _discriminant(model, epsilon, cur_eta), _cone_samples(model, cur_eta)
        try:
            comps, consistent = _component_reports(
                model, cur_eta, epsilon, probes_per_component, seed, np.vstack([disc, cone])
            )
        except MaskTooCoarse as exc:
            error = exc
            continue
        report = FibrationReport(
            model.kind.value, epsilon, cur_eta, tuple(comps), disc, cone, consistent, halving
        )
        if consistent:
            return report
    if report is None:
        raise error
    return report


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
    form the cloud.  Connectivity is estimated by single linkage at five
    mean nearest-neighbor distances.  The target is flagged as
    on-discriminant when it sits within two raster cells of the
    ``critical_values`` samples at eta 0.05 and the same seed.
    ``epsilon`` must be finite and positive.
    """
    if f.nvars != 2:
        raise ValueError("cloud sampling needs a two-variable map")
    _check_positive("epsilon", epsilon)
    if cloud_size < 1:
        raise ValueError(f"cloud_size must be at least 1, got {cloud_size}")
    from scipy import sparse, spatial
    cls = _nondegenerate(alg)
    m, target = f.to_polymap(alg), np.array(c.as_tuple())

    rng = np.random.Generator(np.random.Philox(seed))
    dirs = rng.normal(size=(cloud_size, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = epsilon * rng.uniform(0.0, 1.0, size=cloud_size) ** 0.25
    pts = radii[:, None] * dirs
    pts, res = _newton(m, _x1_partials(m), cls.l_j, pts, target, _NEWTON_ITERS)
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
        tree = spatial.cKDTree(cloud)
        nn = tree.query(cloud, k=2)[0][:, 1]
        mean_nn = float(nn.mean())
        pairs = tree.query_pairs(5.0 * mean_nn, output_type="ndarray")
        graph = sparse.csr_matrix((np.ones(len(pairs)), pairs.T), shape=(len(cloud),) * 2)
        labels = sparse.csgraph.connected_components(graph, directed=False)[1]
        sizes = np.bincount(labels)
        floor = max(4, int(0.01 * len(cloud)))
        connectivity = int((sizes >= floor).sum())
        strays = int(sizes[sizes < floor].sum())
        if connectivity == 0:
            # cloud too sparse for the size floor; fall back to raw count
            connectivity, strays = len(sizes), 0

    disc = _discriminant_nvar(f, cls, epsilon, 0.05, seed)
    near = np.linalg.norm(disc - target, axis=1).min(initial=np.inf)
    on_disc = bool(near <= 2.0 * (2.0 * 0.05 / _TARGET_RES))
    return FiberCloud(cloud, float(res[good].max()), connectivity, strays, mean_nn, on_disc)
