"""Classification of admissible products up to isomorphism.

Every admissible product on R^2 (standard branch) is isomorphic to
exactly one of three models, decided by the sign of the discriminant

    delta = (a1*b3 - a3*b1)^2 - 4*(a1*b2 - a2*b1)*(a2*b3 - a3*b2)

which also equals the resultant of the two direction quadratics
q_a(t) = a1 + 2*a2*t + a3*t^2 and q_b(t) = b1 + 2*b2*t + b3*t^2:

    delta < 0   "Field"       (complex numbers)
    delta > 0   "Hyperbolic"  (R + R, componentwise product)
    delta = 0   "Degenerate"  (dual numbers, nilpotent epsilon)

The isomorphism is built from the distinguished element j = e2 * e1^{-1}
whose left-multiplication matrix L_j = B A^{-1} has characteristic
discriminant delta / det(A)^2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .algebra import TAU_EQ, AlgebraParams, Perplex, PerplexAlgebra
from .errors import DegenerateParams, IllConditioned

_ISO_CHECK_SEED = 1789
_ISO_CHECK_PAIRS = 100


class AlgebraKind(str, enum.Enum):
    FIELD = "Field"
    HYPERBOLIC = "Hyperbolic"
    DEGENERATE = "Degenerate"


@dataclass
class Classification:
    delta: float
    kind: AlgebraKind
    j: Perplex
    l_j: np.ndarray
    char_trace: float
    char_det: float
    iso: np.ndarray
    iso_residual: float
    band: float

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "kind": self.kind.value,
            "j": [self.j.x1, self.j.x2],
            "charTrace": self.char_trace,
            "charDet": self.char_det,
            "iso": self.iso.tolist(),
            "isoResidual": self.iso_residual,
        }


def discriminant(params: AlgebraParams) -> float:
    a1, a2, a3 = params.a
    b1, b2, b3 = params.b
    return (a1 * b3 - a3 * b1) ** 2 - 4.0 * (a1 * b2 - a2 * b1) * (
        a2 * b3 - a3 * b2
    )


def model_product(kind: AlgebraKind, s: Perplex, t: Perplex) -> Perplex:
    """The product of the target model algebra."""
    if kind is AlgebraKind.FIELD:
        return Perplex(s.x1 * t.x1 - s.x2 * t.x2, s.x1 * t.x2 + s.x2 * t.x1)
    if kind is AlgebraKind.HYPERBOLIC:
        # coordinates along the two idempotents
        return Perplex(s.x1 * t.x1, s.x2 * t.x2)
    return Perplex(s.x1 * t.x1, s.x1 * t.x2 + s.x2 * t.x1)


def model_identity(kind: AlgebraKind) -> Perplex:
    return Perplex(1.0, 1.0) if kind is AlgebraKind.HYPERBOLIC else Perplex(1.0, 0.0)


def _kind_from_delta(delta: float, band: float) -> AlgebraKind:
    if abs(delta) <= band:
        return AlgebraKind.DEGENERATE
    return AlgebraKind.FIELD if delta < 0 else AlgebraKind.HYPERBOLIC


def classify(alg: PerplexAlgebra, tol: float = TAU_EQ) -> Classification:
    """Full classification report for an admissible product.

    Requires the standard branch: products admitted only through the
    diagonal special case (a3 = 0) have a singular second basis vector
    and no classification here.
    """
    if alg.report.branch != "standard":
        raise DegenerateParams(
            "classification needs the four standard conditions, not just "
            "the diagonal special case"
        )
    params = alg.params
    delta = discriminant(params)
    band = tol * max(1.0, params.max_abs()) ** 4
    kind = _kind_from_delta(delta, band)

    A, B = alg.basis_matrices()
    l_j = B @ np.linalg.inv(A)
    j = alg.mul(Perplex(0.0, 1.0), alg.inverse(Perplex(1.0, 0.0)))
    tr = float(np.trace(l_j))
    det = float(np.linalg.det(l_j))

    iso = iso_to_model(alg, kind, j, tr, det, tol)
    residual = _iso_residual(alg, kind, iso)

    return Classification(
        delta=delta,
        kind=kind,
        j=j,
        l_j=l_j,
        char_trace=tr,
        char_det=det,
        iso=iso,
        iso_residual=residual,
        band=band,
    )


def iso_to_model(
    alg: PerplexAlgebra,
    kind: AlgebraKind,
    j: Perplex,
    char_trace: float,
    char_det: float,
    tol: float = TAU_EQ,
) -> np.ndarray:
    """The matrix of a product-preserving linear map onto the model.

    The map sends the identity to the model identity and a normalized
    companion of j to the model generator: for Field a square root of
    -identity, for Hyperbolic a square root of identity (so the two
    idempotents land on the axes), for Degenerate a nilpotent of unit
    max-norm.
    """
    e = alg.identity
    centered = j - e * (char_trace / 2.0)
    disc_quarter = char_trace * char_trace / 4.0 - char_det
    scale = max(1.0, alg.params.max_abs()) ** 2

    if kind is AlgebraKind.FIELD:
        s = -disc_quarter
        if s <= tol * scale:
            raise IllConditioned("field case with vanishing characteristic disc")
        j_hat = centered / np.sqrt(s)
        model_basis = np.eye(2)
    elif kind is AlgebraKind.HYPERBOLIC:
        if disc_quarter <= tol * scale:
            raise IllConditioned("hyperbolic case with vanishing characteristic disc")
        j_hat = centered / np.sqrt(disc_quarter)
        # identity -> (1,1), j_hat -> (1,-1): the idempotents
        # (identity +- j_hat)/2 then map to the coordinate axes
        model_basis = np.array([[1.0, 1.0], [1.0, -1.0]])
    else:
        nn = centered.max_norm()
        if nn <= tol * max(1.0, j.max_norm()):
            raise IllConditioned(
                "no nilpotent direction: j is a multiple of the identity"
            )
        j_hat = centered / nn
        model_basis = np.eye(2)

    basis = np.column_stack([e.as_tuple(), j_hat.as_tuple()])
    det_basis = np.linalg.det(basis)
    if abs(det_basis) <= tol * max(1.0, e.max_norm() * j_hat.max_norm()):
        raise IllConditioned("identity and normalized j are nearly collinear")
    return model_basis @ np.linalg.inv(basis)


def _iso_residual(alg: PerplexAlgebra, kind: AlgebraKind, iso: np.ndarray) -> float:
    """max |phi(x*y) - phi(x) model* phi(y)| over a fixed random sample,
    relative to the natural quadratic scale of each pair."""
    rng = np.random.Generator(np.random.Philox(_ISO_CHECK_SEED))
    worst = 0.0
    for _ in range(_ISO_CHECK_PAIRS):
        xv, yv = rng.uniform(-1.0, 1.0, size=(2, 2))
        x, y = Perplex(*xv), Perplex(*yv)
        px = Perplex(*(iso @ xv))
        py = Perplex(*(iso @ yv))
        lhs = Perplex(*(iso @ np.array(alg.mul(x, y).as_tuple())))
        rhs = model_product(kind, px, py)
        pair_scale = max(1.0, px.max_norm() * py.max_norm())
        worst = max(worst, (lhs - rhs).max_norm() / pair_scale)
    return worst


def nilpotent_directions(alg: PerplexAlgebra, tol: float = TAU_EQ) -> list[Perplex]:
    """Unit directions x with x * x = 0.

    Directions (1, t) correspond to common real roots of the two
    quadratics q_a, q_b; the vertical direction (0, 1) qualifies when
    both leading coefficients a3, b3 vanish.  Returned vectors have
    unit euclidean norm and a canonical sign.
    """
    a1, a2, a3 = alg.params.a
    b1, b2, b3 = alg.params.b
    m = max(1.0, alg.params.max_abs())
    band = tol * m

    out: list[Perplex] = []
    roots = _real_roots((a1, 2.0 * a2, a3), band)
    for t in roots:
        qb = b1 + 2.0 * b2 * t + b3 * t * t
        if abs(qb) <= tol * m * max(1.0, t * t):
            out.append(_canonical_direction(1.0, t))
    if abs(a3) <= band and abs(b3) <= band:
        out.append(Perplex(0.0, 1.0))

    deduped: list[Perplex] = []
    for d in out:
        if all((d - q).max_norm() > 1e-7 for q in deduped):
            deduped.append(d)
    return deduped


def _real_roots(coeffs: tuple[float, float, float], band: float) -> list[float]:
    """Real roots of c0 + c1 t + c2 t^2 with tolerance-aware degree."""
    c0, c1, c2 = coeffs
    if abs(c2) <= band:
        if abs(c1) <= band:
            return []
        return [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    scale = max(c1 * c1, abs(4.0 * c2 * c0), 1e-300)
    if disc < -1e-12 * scale:
        return []
    disc = max(disc, 0.0)
    r = np.sqrt(disc)
    # subtraction-safe quadratic roots
    if c1 >= 0:
        q = -(c1 + r) / 2.0
    else:
        q = -(c1 - r) / 2.0
    roots = [q / c2]
    if abs(q) > 1e-300:
        roots.append(c0 / q)
    else:
        roots.append(-c1 / (2.0 * c2))
    return roots


def _canonical_direction(v1: float, v2: float) -> Perplex:
    r = float(np.hypot(v1, v2))
    d = Perplex(v1 / r, v2 / r)
    if d.x1 < 0 or (d.x1 == 0 and d.x2 < 0):
        d = -d
    return d
