"""Several-variable perplex polynomials and the exponent scanner.

Polynomials here have Perplex coefficients and n algebra variables.
One evaluator computes them with the algebra's own product, on Python
floats or batched on arrays in the same bits; formal partials follow the
one-variable coefficient rule.  By the generalized
Cauchy-Riemann structure the 2 x 2n real Jacobian's x_ij column is e_j
times the i-th partial, and criticality is decided by its rank.  All
partials being zero divisors is necessary for a critical point but not
sufficient: two complementary zero divisors can sum to a unit, so the
combination test (equivalently the rank test) is the authoritative one.

The gradient-inequality scanner samples log-uniform shells around the
origin, fits a line through the lower envelope of log-gradient versus
log-value, and reports the empirical exponent together with a violation
count.  The envelope fit is one-sided on purpose: a plain regression
over all samples would mix directions where the bound is slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .algebra import Perplex, PerplexAlgebra
from .calculus import PolyMap
from .errors import InsufficientSamples
from .realpoly import RealPoly

_LOJA_BINS = 20
_LOJA_MIN_USABLE = 100
_LOJA_MAX_SAMPLES = 100_000  # memory grows with samples times nvars times the degree


@dataclass(frozen=True)
class PerplexPolyN:
    """Polynomial in n perplex variables with Perplex coefficients.

    ``terms`` maps exponent tuples (one entry per variable) to nonzero
    coefficients.  The zero polynomial has no terms.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], Perplex], ...]

    @staticmethod
    def from_terms(nvars: int, items) -> "PerplexPolyN":
        acc: dict[tuple[int, ...], Perplex] = {}
        for exp, c in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for {nvars} variables")
            if not isinstance(c, Perplex):
                c = Perplex.from_seq(c)
            prev = acc.get(exp)
            acc[exp] = c if prev is None else prev + c
        cleaned = {e: c for e, c in acc.items() if c.max_norm() != 0.0}
        return PerplexPolyN(nvars, tuple(sorted(cleaned.items())))

    def term_dict(self) -> dict[tuple[int, ...], Perplex]:
        return dict(self.terms)

    def constant_term(self) -> Perplex:
        for exp, c in self.terms:
            if all(e == 0 for e in exp):
                return c
        return Perplex(0.0, 0.0)

    def max_coeff(self) -> float:
        return max((c.max_norm() for _, c in self.terms), default=0.0)

    def eval(self, alg: PerplexAlgebra, point: Sequence[Perplex]) -> Perplex:
        """The value at one point (Perplex elements or 2n flat coordinates), in
        Python floats: bit for bit the matching row of ``eval_many``."""
        return Perplex(*_evaluate([self], alg, _point(point, self.nvars))[0])

    def eval_many(self, alg: PerplexAlgebra, points) -> np.ndarray:
        """Values (N, 2) at an (N, 2n) array of flattened points; no row's bits
        depend on another row."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 * self.nvars:
            raise ValueError(f"points must have shape (N, {2 * self.nvars})")
        return np.column_stack(_evaluate([self], alg, np.ascontiguousarray(points.T))[0])

    def to_polymap(self, alg: PerplexAlgebra) -> PolyMap:
        """Real expansion over the 2n flattened coordinates."""
        n2 = 2 * self.nvars
        acc_u, acc_v = RealPoly.zero(n2), RealPoly.zero(n2)
        for exp, c in self.terms:
            pair = (RealPoly.const(n2, c.x1), RealPoly.const(n2, c.x2))
            for i, k in enumerate(exp):
                var_pair = (RealPoly.var(n2, 2 * i), RealPoly.var(n2, 2 * i + 1))
                for _ in range(k):
                    pair = alg.product(*pair, *var_pair)
            acc_u = acc_u + pair[0]
            acc_v = acc_v + pair[1]
        return PolyMap(self.nvars, acc_u, acc_v)

    def to_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(exp), "c": [c.x1, c.x2]} for exp, c in self.terms
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "PerplexPolyN":
        return PerplexPolyN.from_terms(
            int(data["nvars"]),
            [(t["exp"], Perplex.from_seq(t["c"])) for t in data["terms"]],
        )


def partial_derivative(f: PerplexPolyN, i: int) -> PerplexPolyN:
    """Formal perplex partial in variable i (0-based)."""
    if not 0 <= i < f.nvars:
        raise ValueError(f"variable index {i} out of range for {f.nvars} variables")
    items = []
    for exp, c in f.terms:
        k = exp[i]
        if k == 0:
            continue
        dropped = tuple(e - 1 if j == i else e for j, e in enumerate(exp))
        items.append((dropped, c * float(k)))
    return PerplexPolyN.from_terms(f.nvars, items)


def _evaluate(polys, alg: PerplexAlgebra, coords) -> list[tuple]:
    """The values (u, v) of each of polys at flattened coordinates: 2n Python
    floats, or a (2n, N) array.  One cache of the variables' powers, built by
    iterated products as ``PerplexAlgebra.power`` builds them, serves all
    polys.  Floats and arrays go through the same IEEE operations in the same
    order, so a float value is bit for bit the matching array entry."""
    zero = np.zeros(coords.shape[1]) if isinstance(coords, np.ndarray) else 0.0
    powers = [[(coords[2 * i], coords[2 * i + 1])] for i in range(len(coords) // 2)]
    values = []
    for poly in polys:
        u = v = zero
        for exp, c in poly.terms:
            term = c.as_tuple()
            for i, k in enumerate(exp):
                while len(powers[i]) < k:
                    powers[i].append(alg.product(*powers[i][-1], *powers[i][0]))
                if k:
                    term = alg.product(*term, *powers[i][k - 1])
            u, v = u + term[0], v + term[1]
        values.append((u, v))
    return values


def _partials(f: PerplexPolyN) -> list[PerplexPolyN]:
    """The n formal perplex partials of f."""
    return [partial_derivative(f, i) for i in range(f.nvars)]


def _coords(point) -> np.ndarray:
    """A point (Perplex elements or flat coordinates) or an (N, 2n) stack."""
    if len(point) and isinstance(point[0], Perplex):
        point = [c for x in point for c in x.as_tuple()]
    return np.asarray(point, dtype=float)


def _point(point, nvars: int) -> list[float]:
    """One point's 2n flat coordinates as Python floats."""
    coords = _coords(point)
    if coords.shape != (2 * nvars,):
        raise ValueError(f"a point must have {2 * nvars} coordinates, got shape {coords.shape}")
    return coords.tolist()


def gradient(f: PerplexPolyN, alg: PerplexAlgebra, point) -> list[Perplex]:
    """All perplex partials evaluated at the point, given in any shape that
    flattens to its 2n coordinates."""
    coords = _point(_coords(point).reshape(-1), f.nvars)
    return [Perplex(*g) for g in _evaluate(_partials(f), alg, coords)]


def directional_derivative(
    f: PerplexPolyN, alg: PerplexAlgebra, point, direction: Sequence[Perplex]
) -> Perplex:
    """Sum of w_i * (partial_i f)(p) over the variables."""
    if len(direction) != f.nvars:
        raise ValueError("direction arity does not match variable count")
    grad = gradient(f, alg, point)
    total = Perplex(0.0, 0.0)
    for w, g in zip(direction, grad):
        total = total + alg.mul(w, g)
    return total


def real_jacobian(f: PerplexPolyN, alg: PerplexAlgebra, point) -> np.ndarray:
    """2 x 2n Jacobian of the real expansion at a point, or the (N, 2, 2n)
    Jacobians at each row of an (N, 2n) stack.  By the generalized
    Cauchy-Riemann structure the column for real coordinate x_ij is the
    basis operator of e_j applied to the i-th perplex partial."""
    coords = _coords(point)
    rows = np.atleast_2d(coords)
    # entry (r, x_ij) for all points is one gemv, bit for bit op @ partial at each
    # point alone; a spare zero point keeps one point off ddot, which rounds otherwise
    padded = np.vstack([rows, np.zeros(rows.shape[1])])
    grads = [np.column_stack(g) for g in _evaluate(_partials(f), alg, padded.T.copy())]
    ops = alg.basis_matrices()
    cols = [(g @ op[r])[:-1] for r in range(2) for g in grads for op in ops]
    jac = np.stack(cols, axis=1).reshape(len(rows), 2, 2 * f.nvars)
    return jac if coords.ndim == 2 else jac[0]


@dataclass(frozen=True)
class CriticalityReport:
    """Rank-based criticality verdict with the supporting numbers."""

    critical: bool
    rank: int
    singular_values: tuple[float, ...]
    partial_norm_residuals: tuple[float, ...]
    tol: float

    def to_dict(self) -> dict:
        return {
            "critical": self.critical,
            "rank": self.rank,
            "singularValues": list(self.singular_values),
            "partialNormResiduals": list(self.partial_norm_residuals),
        }


def is_critical(
    f: PerplexPolyN, alg: PerplexAlgebra, point, tol: float = 1e-9
) -> CriticalityReport:
    """Critical iff the real Jacobian has rank below 2.

    Rank deficiency is exactly the statement that no perplex combination
    of the partials reaches a unit, because those combinations fill the
    column space of the Jacobian.  The per-partial norm residuals are
    reported too; all of them being small is implied by criticality but
    does not imply it.
    """
    jac = real_jacobian(f, alg, point)
    svals = np.linalg.svd(jac, compute_uv=False)
    top = max(1.0, float(svals[0]))
    rank = int(np.sum(svals > tol * top))
    norms = tuple(
        abs(alg.norm(g)) for g in gradient(f, alg, point)
    )
    return CriticalityReport(
        critical=rank < 2,
        rank=rank,
        singular_values=tuple(float(s) for s in svals),
        partial_norm_residuals=norms,
        tol=tol,
    )


@dataclass(frozen=True)
class LojaFit:
    """Empirical gradient-inequality fit.

    ``theta_hat`` is the slope of the lower-envelope line, ``c_hat`` the
    exponential of its intercept, ``bins`` the (center, min) pairs the
    line was fitted through, and ``violations`` the number of samples
    falling below the fitted bound.
    """

    theta_hat: float
    c_hat: float
    bins: tuple[tuple[float, float], ...]
    violations: int
    sample_count: int

    def to_dict(self) -> dict:
        return {
            "thetaHat": self.theta_hat,
            "cHat": self.c_hat,
            "bins": [[c, m] for c, m in self.bins],
            "violations": self.violations,
            "sampleCount": self.sample_count,
        }


def _loja_sample(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    r_min: float,
    r_max: float,
    samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Usable (||f||_m, ||grad f||_m) pairs on log-uniform shells."""
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
    radii = np.exp(rng.uniform(np.log(r_min), np.log(r_max), size=samples))
    dirs = rng.normal(size=(samples, 2 * f.nvars)).T
    # each sample's sum of squares in np.linalg.norm's order, ((d0^2 + d1^2) + d2^2) + d3^2,
    # so that seeded scans keep their bits
    lengths = np.sqrt(sum(d * d for d in dirs))
    coords = radii * (dirs / lengths)

    # a far sample may overflow; usable drops it
    with np.errstate(over="ignore", invalid="ignore"):
        (fu, fv), *grads = _evaluate([f, *_partials(f)], alg, coords)
        fvals = np.maximum(np.abs(fu), np.abs(fv))
        gvals = reduce(np.maximum, [np.abs(w) for g in grads for w in g])
        usable = (fvals > 0.0) & (fvals < 1.0) & (gvals > 0.0) & (gvals < np.inf)
    return fvals[usable], gvals[usable]


def loja_scan(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    r_min: float,
    r_max: float,
    samples: int,
    seed: int,
) -> LojaFit:
    """Fit the lower envelope of log-gradient against log-value.

    Samples land on shells with log-uniform radii and uniform
    directions; pairs with value norm outside (0, 1), or whose gradient
    overflows, are dropped.  The log-value range [lo, hi] is cut at 21
    evenly spaced edges e_0 = lo, ..., e_20 = hi into 20 half-open bins
    [e_b, e_{b+1}), the value hi itself going into the last bin.  Each
    populated bin contributes its minimum log-gradient, and the
    least-squares line through the bin minima gives the exponent estimate
    (slope) and constant (exp of intercept).  ``samples`` must be in
    [1, 100000].
    """
    fvals, gvals = _loja_sample(f, alg, r_min, r_max, samples, seed)
    if fvals.size < _LOJA_MIN_USABLE:
        raise InsufficientSamples(
            f"only {fvals.size} usable samples, need {_LOJA_MIN_USABLE}"
        )
    logf, logg = np.log(fvals), np.log(gvals)
    lo, hi = float(logf.min()), float(logf.max())
    if hi - lo < 1e-9:
        raise InsufficientSamples("log-value range is degenerate; widen the radii")
    edges = np.linspace(lo, hi, _LOJA_BINS + 1)
    # the arithmetic bin is off by at most one near an edge; one step against the
    # edges themselves gives np.digitize's bin, with hi clipped into the last
    idx = np.minimum(((logf - lo) * (_LOJA_BINS / (hi - lo))).astype(np.intp), _LOJA_BINS - 1)
    idx -= logf < edges[idx]
    idx += (logf >= edges[idx + 1]) & (idx < _LOJA_BINS - 1)
    minima = np.full(_LOJA_BINS, np.inf)
    np.minimum.at(minima, idx, logg)
    filled = minima < np.inf
    centers, minima = (0.5 * (edges[:-1] + edges[1:]))[filled].tolist(), minima[filled].tolist()
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


def loja_violations(
    f: PerplexPolyN,
    alg: PerplexAlgebra,
    r_min: float,
    r_max: float,
    samples: int,
    seed: int,
    theta: float,
    c: float,
) -> tuple[int, int]:
    """Count bound violations on a fresh sample for a fixed (theta, c)."""
    fvals, gvals = _loja_sample(f, alg, r_min, r_max, samples, seed)
    if fvals.size < _LOJA_MIN_USABLE:
        raise InsufficientSamples(
            f"only {fvals.size} usable samples, need {_LOJA_MIN_USABLE}"
        )
    return int(np.sum(gvals < c * fvals**theta)), int(fvals.size)
