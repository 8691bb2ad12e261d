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
discriminant delta / det(A)^2.  Its residual is exact over the basis
products e1*e1, e1*e2 and e2*e2: both sides of phi(x*y) = phi(x)*phi(y)
are symmetric and bilinear, so these three pairs decide every pair.

``classify`` is the one place that decides the kind.  The nilpotent
directions are read off its isomorphism: none unless the algebra is
Degenerate, and then the line carried onto the model generator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .algebra import TAU_EQ, AlgebraParams, Perplex, PerplexAlgebra
from .errors import DegenerateParams, IllConditioned


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
    if abs(delta) <= band:
        kind = AlgebraKind.DEGENERATE
    else:
        kind = AlgebraKind.FIELD if delta < 0 else AlgebraKind.HYPERBOLIC

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
    """max |phi(x*y) - phi(x) model* phi(y)| over the basis products,
    each relative to the natural quadratic scale of its pair."""
    basis = (Perplex(1.0, 0.0), Perplex(0.0, 1.0))
    images = (Perplex(*iso[:, 0]), Perplex(*iso[:, 1]))
    worst = 0.0
    for i, k in ((0, 0), (0, 1), (1, 1)):
        lhs = Perplex(*(iso @ np.array(alg.mul(basis[i], basis[k]).as_tuple())))
        rhs = model_product(kind, images[i], images[k])
        pair_scale = max(1.0, images[i].max_norm() * images[k].max_norm())
        worst = max(worst, (lhs - rhs).max_norm() / pair_scale)
    return worst


def nilpotent_directions(alg: PerplexAlgebra, tol: float = TAU_EQ) -> list[Perplex]:
    """Unit directions x with x * x = 0.

    Empty unless ``classify`` finds the algebra Degenerate; then the one
    direction is the preimage of the model generator (0, 1) under the
    isomorphism.  It has unit euclidean norm and a canonical sign.
    """
    cls = classify(alg, tol)
    if cls.kind is not AlgebraKind.DEGENERATE:
        return []
    v1, v2 = np.linalg.solve(cls.iso, [0.0, 1.0]).tolist()
    r = float(np.hypot(v1, v2))
    d = Perplex(v1 / r, v2 / r)
    if d.x1 < 0 or (d.x1 == 0 and d.x2 < 0):
        d = -d
    return [d]
