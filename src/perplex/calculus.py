"""Differentiability of maps R^2 -> R^2 with respect to a product.

A C^1 map f = (u, v) is differentiable for the product exactly when the
compatibility system

    e2 * (u_x1, v_x1) = e1 * (u_x2, v_x2)

holds; for the complex product this is the classical Cauchy-Riemann
pair u_x1 = v_x2, u_x2 = -v_x1, and for the hyperbolic product the
same with both signs positive.  For polynomial maps the system is a
polynomial identity, so it can be checked exactly on coefficients.

When it holds, the derivative is f'(x) = e1^{-1} * (u_x1, v_x1)
= e2^{-1} * (u_x2, v_x2) and the real Jacobian at x is the
left-multiplication matrix of f'(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import TAU_EQ, Perplex, PerplexAlgebra
from .errors import GcrViolated, NotSeparated
from .realpoly import RealPoly

LADDER_STEPS = 40
LADDER_STOP = 1e-12
DEFAULT_MARGIN = 0.1


# ------------------------------------------------------------------ #
# polynomial maps
# ------------------------------------------------------------------ #


@dataclass
class PolyMap:
    """A polynomial map R^{2n} -> R^2, components u and v.

    ``nvars`` counts algebra variables; the real variables are ordered
    (x_11, x_12, ..., x_n1, x_n2).
    """

    nvars: int
    u: RealPoly
    v: RealPoly

    def __post_init__(self):
        if self.u.nvars != 2 * self.nvars or self.v.nvars != 2 * self.nvars:
            raise ValueError("component polynomials must use 2*nvars real variables")

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        return np.column_stack([self.u.eval_many(points), self.v.eval_many(points)])

    def eval_perplex(self, xs: Sequence[Perplex] | Perplex) -> Perplex:
        if isinstance(xs, Perplex):
            xs = [xs]
        flat = np.array([c for x in xs for c in (x.x1, x.x2)])
        out = self.eval_many(flat[None, :])[0]
        return Perplex(float(out[0]), float(out[1]))

    def partials(self, i: int) -> tuple[RealPoly, RealPoly, RealPoly, RealPoly]:
        """(u_xi1, v_xi1, u_xi2, v_xi2) for algebra variable i."""
        k = 2 * i
        return (
            self.u.pderiv(k),
            self.v.pderiv(k),
            self.u.pderiv(k + 1),
            self.v.pderiv(k + 1),
        )

    def max_coeff(self) -> float:
        return max(self.u.max_coeff(), self.v.max_coeff())

    def to_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "u": self.u.to_term_list(),
            "v": self.v.to_term_list(),
        }

    @staticmethod
    def from_dict(data: dict) -> "PolyMap":
        n = int(data["nvars"])
        return PolyMap(
            n,
            RealPoly.from_term_list(2 * n, data["u"]),
            RealPoly.from_term_list(2 * n, data["v"]),
        )


def linear_polymap(mat: np.ndarray) -> PolyMap:
    """The linear map with matrix [[p, r], [q, s]] as a PolyMap."""
    mat = np.asarray(mat, dtype=float)
    x1, x2 = RealPoly.var(2, 0), RealPoly.var(2, 1)
    return PolyMap(1, x1 * mat[0, 0] + x2 * mat[0, 1], x1 * mat[1, 0] + x2 * mat[1, 1])


# ------------------------------------------------------------------ #
# compatibility residual and derivatives
# ------------------------------------------------------------------ #


@dataclass
class GcrResidual:
    """Coefficients of e2 * (u_x1, v_x1) - e1 * (u_x2, v_x2).

    The map is differentiable (in algebra variable ``var``) exactly
    when both component polynomials vanish identically.
    """

    res_u: RealPoly
    res_v: RealPoly
    max_coeff: float
    scale: float

    def is_zero(self, tol: float = TAU_EQ) -> bool:
        return self.max_coeff <= tol * self.scale


def gcr_residual(m: PolyMap, alg: PerplexAlgebra, var: int = 0) -> GcrResidual:
    a1, a2, a3 = alg.params.a
    b1, b2, b3 = alg.params.b
    u1, v1, u2, v2 = m.partials(var)
    res_u = u1 * a2 + v1 * a3 - u2 * a1 - v2 * a2
    res_v = u1 * b2 + v1 * b3 - u2 * b1 - v2 * b2
    scale = max(1.0, m.max_coeff()) * max(1.0, alg.params.max_abs())
    return GcrResidual(
        res_u, res_v, max(res_u.max_coeff(), res_v.max_coeff()), scale
    )


def derivative_polymap(m: PolyMap, alg: PerplexAlgebra) -> PolyMap:
    """f' = e1^{-1} * (u_x1, v_x1) as a polynomial map (no residual check)."""
    if m.nvars != 1:
        raise ValueError("derivative_polymap expects a one-variable map")
    A, _ = alg.basis_matrices()
    inv_a = np.linalg.inv(A)
    u1, v1 = m.u.pderiv(0), m.v.pderiv(0)
    du = u1 * inv_a[0, 0] + v1 * inv_a[0, 1]
    dv = u1 * inv_a[1, 0] + v1 * inv_a[1, 1]
    return PolyMap(1, du, dv)


def derivative_from_partials(
    m: PolyMap, alg: PerplexAlgebra, x: Perplex, tol: float = TAU_EQ
) -> Perplex:
    """The algebra derivative f'(x); raises GcrViolated when the
    compatibility residual is not identically zero, or when the two
    one-sided formulas disagree numerically."""
    if m.nvars != 1:
        raise ValueError("derivative_from_partials expects a one-variable map")
    res = gcr_residual(m, alg)
    if not res.is_zero(tol):
        raise GcrViolated(
            f"compatibility residual has max coefficient {res.max_coeff:.3e}"
        )
    A, B = alg.basis_matrices()
    u1, v1, u2, v2 = m.partials(0)
    pt = np.array([x.x1, x.x2])
    w1 = np.array([u1.eval_one(pt), v1.eval_one(pt)])
    w2 = np.array([u2.eval_one(pt), v2.eval_one(pt)])
    d1 = np.linalg.solve(A, w1)
    d2 = np.linalg.solve(B, w2)
    gap = float(np.max(np.abs(d1 - d2)))
    if gap > tol * max(1.0, float(np.max(np.abs(d1))), float(np.max(np.abs(d2)))):
        raise GcrViolated(f"one-sided derivative formulas disagree by {gap:.3e}")
    return Perplex(float(d1[0]), float(d1[1]))


# ------------------------------------------------------------------ #
# difference quotients
# ------------------------------------------------------------------ #


@dataclass
class DiffQuotient:
    """Result of the halving ladder (f(x+h) - f(x)) * h^{-1}, h = r*d.

    ``last`` is the raw final rung.  Past roughly r = 2^{-26} float
    cancellation in f(x+h) - f(x) dominates the rungs, so ``estimate``
    reports the stable reading instead: one Richardson step
    2*q(r) - q(2r) removes the O(r) truncation term, and the rung whose
    neighborhood of increments is smallest wins.  ``min_increment`` is
    the Cauchy-style convergence measure of that accelerated sequence.
    """

    estimate: Perplex
    last: Perplex
    best_step: int
    min_increment: float
    steps: int
    converged: bool
    direction: Perplex
    margin: float


def _as_callable(f, alg: PerplexAlgebra) -> Callable[[Perplex], Perplex]:
    from .multivar import PerplexPolyN  # multivar builds on this module

    if isinstance(f, PolyMap):
        return lambda p: f.eval_perplex(p)
    if isinstance(f, PerplexPolyN):
        if f.nvars != 1:
            raise ValueError("difference quotients need a one-variable polynomial")
        return lambda p: f.eval(alg, [p])
    return f


def diff_quotient(
    f,
    alg: PerplexAlgebra,
    x: Perplex,
    direction: Perplex,
    min_margin: float = DEFAULT_MARGIN,
) -> DiffQuotient:
    """Run the difference-quotient ladder along one separated direction."""
    d = direction / direction.euclid_norm()
    margin = alg.separation_margin(d)
    if margin < min_margin:
        raise NotSeparated(
            f"direction {d} has separation margin {margin:.3g} < {min_margin}"
        )
    fn = _as_callable(f, alg)
    f0 = fn(x)
    rungs: list[Perplex] = []
    steps = 0
    stopped = False
    for n in range(1, LADDER_STEPS + 1):
        r = 2.0**-n
        h = d * r
        est = alg.mul(fn(x + h) - f0, alg.inverse(h))
        rungs.append(est)
        steps = n
        if len(rungs) >= 2:
            inc = (rungs[-1] - rungs[-2]).max_norm()
            if inc < LADDER_STOP * max(1.0, est.max_norm()):
                stopped = True
                break
    last = rungs[-1]

    # Richardson acceleration: the O(r) term cancels in 2*q_n - q_{n-1}
    accel = [rungs[i] * 2.0 - rungs[i - 1] for i in range(1, len(rungs))]
    if not accel:
        accel = [last]
    if len(accel) == 1:
        best, best_idx, min_inc = accel[0], 0, 0.0
    else:
        incs = [
            (accel[i] - accel[i - 1]).max_norm() for i in range(1, len(accel))
        ]
        min_inc = min(incs)
        # judge each rung by its worst neighboring increment so a lucky
        # coincidence of two noisy rungs cannot win
        scores = []
        for i in range(len(accel)):
            near = []
            if i >= 1:
                near.append(incs[i - 1])
            if i < len(incs):
                near.append(incs[i])
            scores.append(max(near))
        best_idx = int(np.argmin(scores))
        best = accel[best_idx]
    return DiffQuotient(
        estimate=best,
        last=last,
        best_step=best_idx + 2,
        min_increment=min_inc,
        steps=steps,
        converged=stopped or min_inc <= 1e-6 * max(1.0, best.max_norm()),
        direction=d,
        margin=margin,
    )


@dataclass
class DirectionSpread:
    """Difference-quotient limits along a fan of separated directions."""

    estimates: list[DiffQuotient]
    max_gap: float
    witness: tuple[Perplex, Perplex]


def direction_spread(
    f,
    alg: PerplexAlgebra,
    x: Perplex,
    n_directions: int = 16,
    min_margin: float = DEFAULT_MARGIN,
) -> DirectionSpread:
    """Probe quotient limits along up to ``n_directions`` directions.

    A differentiable map yields agreeing limits; a spread larger than
    the tolerance refutes differentiability at x.
    """
    quotients: list[DiffQuotient] = []
    for k in range(n_directions):
        ang = np.pi * k / n_directions
        d = Perplex(float(np.cos(ang)), float(np.sin(ang)))
        try:
            quotients.append(diff_quotient(f, alg, x, d, min_margin))
        except NotSeparated:
            continue
    if len(quotients) < 2:
        raise NotSeparated(
            "fewer than two directions cleared the separation margin"
        )
    max_gap = -1.0
    witness = (quotients[0].direction, quotients[0].direction)
    for i in range(len(quotients)):
        for k in range(i + 1, len(quotients)):
            gap = (quotients[i].estimate - quotients[k].estimate).max_norm()
            if gap > max_gap:
                max_gap = gap
                witness = (quotients[i].direction, quotients[k].direction)
    return DirectionSpread(estimates=quotients, max_gap=max_gap, witness=witness)
