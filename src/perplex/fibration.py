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

One-variable maps are solved in the model algebra.  The isomorphism
from ``classify`` carries f = sum c_k x^k term by term into the model.
Onto C, f becomes one complex polynomial P: its fibers are the roots
of P - w and its discriminant is the finite set P(roots of P').  Onto
R + R, f splits as (p1(s), p2(t)): its fibers are the pairs of real
roots, and its discriminant is the axis-parallel segments
{p1(s*)} x p2(J) and p1(J) x {p2(t*)}, where s* and t* are the real
critical points and J is the part of their critical line inside the
source box.  Roots are carried back and polished by Newton in the
original coordinates; segments are carried back and sampled at raster
density.  The dual numbers have no finite model solve here and are
rejected.

Two-variable fibers are surfaces, sampled as point clouds by
Gauss-Newton projection and summarized by a single-linkage
connectivity estimate (a diagnostic, not certified topology); their
discriminant is sampled by one batched Gauss-Newton solve of the
rank-drop system over all seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .algebra import Perplex, PerplexAlgebra
from .calculus import PolyMap
from .errors import DegenerateAlgebra, EmptyFiber, MaskTooCoarse
from .multivar import PerplexPolyN
from .realpoly import RealPoly
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
_NULLVEC_SEEDS = 96


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
    p1 and p2.  ``inv`` carries model points back to the algebra.
    """

    kind: AlgebraKind
    iso: np.ndarray
    inv: np.ndarray
    coeffs: np.ndarray
    expansion: PolyMap
    jac_polys: list[list[RealPoly]]


def _model(f: PerplexPolyN, alg: PerplexAlgebra) -> _Model:
    cls = _nondegenerate(alg)
    degree = max((exp[0] for exp, _ in f.terms), default=0)
    coeffs = np.zeros((2, degree + 1))
    for (k,), c in f.terms:
        coeffs[:, degree - k] = cls.iso @ np.array(c.as_tuple())
    expansion = f.to_polymap(alg)
    return _Model(
        kind=cls.kind,
        iso=cls.iso,
        inv=np.linalg.inv(cls.iso),
        coeffs=coeffs,
        expansion=expansion,
        jac_polys=_jacobian_polys(expansion),
    )


def _complex(rows: np.ndarray) -> np.ndarray:
    return rows[0] + 1j * rows[1]


def _real_roots(poly: np.ndarray) -> np.ndarray:
    roots = np.roots(poly)
    real = np.abs(roots.imag) <= _REAL_ROOT_TOL * np.maximum(1.0, np.abs(roots))
    return roots.real[real]


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


def _jacobian_polys(m: PolyMap) -> list[list[RealPoly]]:
    dim = 2 * m.nvars
    return [[m.u.pderiv(k) for k in range(dim)], [m.v.pderiv(k) for k in range(dim)]]


def _eval_jacobian(jp: list[list[RealPoly]], pts: np.ndarray) -> np.ndarray:
    """Batched Jacobians, shape (N, 2, dim)."""
    rows = [np.stack([p.eval_many(pts) for p in row], axis=1) for row in jp]
    return np.stack(rows, axis=1)


def critical_values(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    epsilon: float = 1.0,
    eta: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Discriminant samples: the critical set pushed through the map.

    One-variable maps are solved in the model algebra: the critical
    values in the source box are exact, and the hyperbolic segments are
    sampled at most 0.45 raster cells apart, which keeps the rasterized
    discriminant gap-free.  Maps in more variables fall back to
    sampling the rank-drop system (a left null vector of the Jacobian)
    by batched Gauss-Newton from seeded starts, which yields a cloud
    without curve structure.
    Points are returned inside a slightly padded eta box.  ``epsilon``
    and ``eta`` must be finite and positive.
    """
    _check_positive("epsilon", epsilon)
    _check_positive("eta", eta)
    if f.nvars == 1:
        return _discriminant(_model(f, alg), epsilon, eta)
    _nondegenerate(alg)
    expansion = f.to_polymap(alg)
    return _critical_values_nullvec(
        expansion, _jacobian_polys(expansion), epsilon, eta, seed
    )


def _discriminant(model: _Model, epsilon: float, eta: float) -> np.ndarray:
    bound = 1.35 * eta
    degree = model.coeffs.shape[1] - 1
    deriv = model.coeffs[:, :-1] * np.arange(degree, 0, -1)
    inv = model.inv
    if model.kind is AlgebraKind.FIELD:
        crit = np.roots(_complex(deriv))
        sources = np.column_stack([crit.real, crit.imag]) @ inv.T
        crit = crit[np.abs(sources).max(axis=1) <= epsilon]
        vals = np.polyval(_complex(model.coeffs), crit)
        targets = np.column_stack([vals.real, vals.imag]) @ inv.T
        return targets[np.abs(targets).max(axis=1) <= bound]

    spacing = _SEGMENT_SPACING * 2.0 * eta / _TARGET_RES
    turns = [np.roots(d).real for d in deriv]
    segments = [np.empty((0, 2))]
    for axis, other in ((0, 1), (1, 0)):
        # critical lines {model coordinate `axis` = s*}, parametrised by
        # the other coordinate; each maps onto one axis-parallel segment
        for s_star in _real_roots(deriv[axis]):
            j_range = _box_interval(s_star * inv[:, axis], inv[:, other], epsilon)
            if j_range is None:
                continue
            # the extremes of p_other over J sit at its ends or at turning
            # points; a non-real root's real part only adds a value inside
            t = turns[other]
            cand = np.concatenate([j_range, t[(t > j_range[0]) & (t < j_range[1])]])
            vals = np.polyval(model.coeffs[other], cand)
            base = np.polyval(model.coeffs[axis], s_star) * inv[:, axis]
            seen = _box_interval(base, inv[:, other], bound)
            if seen is None:
                continue
            lo, hi = max(vals.min(), seen[0]), min(vals.max(), seen[1])
            if lo > hi:
                continue
            length = (hi - lo) * np.linalg.norm(inv[:, other])
            taus = np.linspace(lo, hi, int(np.ceil(length / spacing)) + 1)
            segments.append(base + taus[:, None] * inv[:, other])
    return np.vstack(segments)


def _critical_values_nullvec(
    expansion: PolyMap,
    jac_polys: list[list[RealPoly]],
    epsilon: float,
    eta: float,
    seed: int,
) -> np.ndarray:
    """Critical values from r(x, v) = [J(x)^T v, v.v - 1] = 0.

    All seeds run one batched Gauss-Newton with the analytic Jacobian
    of r: the x-block is sum_i v_i H_i(x) for the Hessians H_i of the
    two components, the v-block J^T, and the last row (0, 2 v^T).  Each
    step is the minimum-norm one from the pseudo-inverse.
    """
    dim = 2 * expansion.nvars
    hess_polys = [[p.pderiv(k) for k in range(dim)] for row in jac_polys for p in row]

    rng = np.random.Generator(np.random.Philox(seed))
    starts = []
    for _ in range(_NULLVEC_SEEDS):
        x0 = rng.uniform(-epsilon, epsilon, size=dim)
        v0 = rng.normal(size=2)
        v0 /= np.linalg.norm(v0)
        starts.append(np.concatenate([x0, v0]))
    z = np.array(starts)

    for step in range(_NEWTON_ITERS + 1):
        x, v = z[:, :dim], z[:, dim:]
        jac = _eval_jacobian(jac_polys, x)
        null = np.einsum("nik,ni->nk", jac, v)
        res = np.column_stack([null, (v * v).sum(axis=1) - 1.0])
        if step == _NEWTON_ITERS or np.abs(res).max() <= 1e-14:
            break
        hess = _eval_jacobian(hess_polys, x).reshape(len(z), 2, dim, dim)
        dr = np.zeros((len(z), dim + 1, dim + 2))
        dr[:, :dim, :dim] = np.einsum("ni,nikl->nkl", v, hess)
        dr[:, :dim, dim:] = jac.transpose(0, 2, 1)
        dr[:, dim, dim:] = 2.0 * v
        z = z - np.einsum("nij,nj->ni", np.linalg.pinv(dr), res)

    good = (np.abs(res).max(axis=1) <= 1e-8) & (np.linalg.norm(x, axis=1) <= epsilon)
    targets = expansion.eval_many(x[good])
    keep = np.abs(targets).max(axis=1) <= 1.35 * eta
    return targets[keep]


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
    stay at least 1e-6 apart.
    """
    if f.nvars != 1:
        raise ValueError("finite fiber solving needs a one-variable map")
    return _fibers(_model(f, alg), c, epsilon)


def _fibers(model: _Model, c: Perplex, epsilon: float) -> list[Perplex]:
    target = np.array(c.as_tuple())
    shifted = model.coeffs.copy()
    shifted[:, -1] -= model.iso @ target
    if model.kind is AlgebraKind.FIELD:
        z = np.roots(_complex(shifted))
        pts = np.column_stack([z.real, z.imag])
    else:
        s, t = (_real_roots(row) for row in shifted)
        pts = np.column_stack([np.repeat(s, len(t)), np.tile(t, len(s))])
    if len(pts) == 0:
        return []
    pts = pts @ model.inv.T

    expansion = model.expansion
    for _ in range(_POLISH_STEPS):
        res = expansion.eval_many(pts) - target
        jac = _eval_jacobian(model.jac_polys, pts)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        ok = np.abs(det) > 1e-14
        step = np.zeros_like(pts)
        step[ok, 0] = (jac[ok, 1, 1] * res[ok, 0] - jac[ok, 0, 1] * res[ok, 1]) / det[ok]
        step[ok, 1] = (jac[ok, 0, 0] * res[ok, 1] - jac[ok, 1, 0] * res[ok, 0]) / det[ok]
        pts = pts - step

    res = np.abs(expansion.eval_many(pts) - target).max(axis=1)
    good = (res <= _FIBER_TOL) & (np.linalg.norm(pts, axis=1) <= epsilon + 1e-12)
    roots = pts[good]
    order = np.lexsort((roots[:, 1], roots[:, 0]))
    kept: list[np.ndarray] = []
    for p in roots[order]:
        if all(np.linalg.norm(p - q) >= _DEDUPE_RADIUS for q in kept):
            kept.append(p)
    return [Perplex(float(p[0]), float(p[1])) for p in kept]


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


def _component_reports(
    model: _Model,
    eta: float,
    epsilon: float,
    probes_per_component: int,
    seed: int,
    disc: np.ndarray,
    cone: np.ndarray,
) -> tuple[list[ComponentReport], bool]:
    cell = 2.0 * eta / _TARGET_RES
    centers_axis = -eta + (np.arange(_TARGET_RES) + 0.5) * cell
    mask = np.zeros((_TARGET_RES, _TARGET_RES), dtype=bool)
    samples = np.vstack([disc, cone]) if len(cone) else disc
    if len(samples):
        ij = np.floor((samples + eta) / cell).astype(int)
        keep = (ij >= 0).all(axis=1) & (ij < _TARGET_RES).all(axis=1)
        ij = ij[keep]
        mask[ij[:, 1], ij[:, 0]] = True
    offs = np.arange(-_MASK_DILATION, _MASK_DILATION + 1)
    disk_struct = (offs[:, None] ** 2 + offs[None, :] ** 2) <= _MASK_DILATION**2
    mask = ndimage.binary_dilation(mask, structure=disk_struct)

    cx, cy = np.meshgrid(centers_axis, centers_axis)
    inside = cx**2 + cy**2 <= eta**2
    labels, ncomp = ndimage.label(~mask & inside)

    rng = np.random.Generator(np.random.Philox(seed))
    reports: list[ComponentReport] = []
    consistent = True
    sample_tree = cKDTree(samples) if len(samples) else None
    for lab in range(1, ncomp + 1):
        cells = np.argwhere(labels == lab)
        if len(cells) < probes_per_component:
            raise MaskTooCoarse(
                f"component {lab} spans only {len(cells)} cells;"
                f" need {probes_per_component} probes"
            )
        pick = rng.choice(len(cells), size=probes_per_component, replace=False)
        probes, counts = [], []
        for row, col in cells[pick]:
            tgt = (float(centers_axis[col]), float(centers_axis[row]))
            probes.append(tgt)
            counts.append(len(_fibers(model, Perplex(*tgt), epsilon)))
        tally = np.bincount(counts)
        majority = int(tally.argmax())
        constant = bool(all(n == counts[0] for n in counts))
        if not constant and sample_tree is not None:
            for tgt, n in zip(probes, counts):
                if n == majority:
                    continue
                if sample_tree.query(np.array(tgt))[0] > _CONSISTENCY_CELLS * cell:
                    consistent = False
        elif not constant:
            consistent = False

        border = labels == lab
        ring = ndimage.binary_dilation(border) & ~border
        ring_cells = int(ring.sum())
        masked_ring = int((ring & mask).sum())
        low_conf = ring_cells > 0 and masked_ring / ring_cells > 0.5
        reports.append(
            ComponentReport(
                label=lab,
                cell_count=int(len(cells)),
                probes=tuple(probes),
                counts=tuple(counts),
                constant=constant,
                majority=majority,
                low_confidence=low_conf,
            )
        )
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
    and the target zero-divisor cone are rasterized into a mask (dilated
    by two cells), the unmasked disk is flood-filled into components,
    and every component is probed with fiber counts at seeded random
    cells.  When a component is too thin to probe or a count
    disagreement appears away from the mask, eta is halved and the
    check rerun, up to six times.  ``epsilon`` and ``eta`` must be
    finite and positive.
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

    last_error: MaskTooCoarse | None = None
    report: FibrationReport | None = None
    cur_eta = eta
    for halving in range(_MAX_HALVINGS + 1):
        disc = _discriminant(model, epsilon, cur_eta)
        cone = _cone_samples(model, cur_eta)
        try:
            comps, consistent = _component_reports(
                model, cur_eta, epsilon, probes_per_component, seed, disc, cone
            )
        except MaskTooCoarse as exc:
            last_error = exc
            cur_eta *= 0.5
            continue
        report = FibrationReport(
            algebra_kind=model.kind.value,
            epsilon=epsilon,
            eta=cur_eta,
            components=tuple(comps),
            discriminant_samples=disc,
            cone_samples=cone,
            consistent=consistent,
            halvings=halving,
        )
        if consistent:
            return report
        cur_eta *= 0.5
    if report is not None:
        return report
    assert last_error is not None
    raise last_error


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
    Gauss-Newton with the pseudo-inverse; converged points inside the
    ball form the cloud.  Connectivity is estimated by single linkage
    at five mean nearest-neighbor distances.  The target is flagged as
    on-discriminant when it sits within two raster cells of the sampled
    discriminant cloud.  ``epsilon`` must be finite and positive.
    """
    if f.nvars != 2:
        raise ValueError("cloud sampling needs a two-variable map")
    _check_positive("epsilon", epsilon)
    if cloud_size < 1:
        raise ValueError(f"cloud_size must be at least 1, got {cloud_size}")
    _nondegenerate(alg)
    expansion = f.to_polymap(alg)
    jac_polys = _jacobian_polys(expansion)
    target = np.array(c.as_tuple())

    rng = np.random.Generator(np.random.Philox(seed))
    dirs = rng.normal(size=(cloud_size, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = epsilon * rng.uniform(0.0, 1.0, size=cloud_size) ** 0.25
    pts = radii[:, None] * dirs

    for _ in range(_NEWTON_ITERS):
        res = expansion.eval_many(pts) - target
        if np.abs(res).max() <= 1e-14:
            break
        jac = _eval_jacobian(jac_polys, pts)
        step = np.einsum("nij,nj->ni", np.linalg.pinv(jac), res)
        pts = pts - step

    res = np.abs(expansion.eval_many(pts) - target).max(axis=1)
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
        tree = cKDTree(cloud)
        nn = tree.query(cloud, k=2)[0][:, 1]
        mean_nn = float(nn.mean())
        pairs = tree.query_pairs(5.0 * mean_nn, output_type="ndarray")
        graph = sparse.csr_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
            shape=(len(cloud), len(cloud)),
        )
        labels = connected_components(graph, directed=False)[1]
        sizes = np.bincount(labels)
        floor = max(4, int(0.01 * len(cloud)))
        connectivity = int((sizes >= floor).sum())
        strays = int(sizes[sizes < floor].sum())
        if connectivity == 0:
            # cloud too sparse for the size floor; fall back to raw count
            connectivity, strays = len(sizes), 0

    eta_ref = 0.05
    disc = _critical_values_nullvec(expansion, jac_polys, epsilon, eta_ref, seed)
    threshold = 2.0 * (2.0 * eta_ref / _TARGET_RES)
    on_disc = bool(
        len(disc) and cKDTree(disc).query(target)[0] <= threshold
    )
    return FiberCloud(
        points=cloud,
        residual_max=float(res[good].max()) if good.any() else float("nan"),
        connectivity=connectivity,
        stray_count=strays,
        mean_nn_distance=mean_nn,
        on_discriminant=on_disc,
    )
