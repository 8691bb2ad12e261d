"""Inverse problems: which linear and quadratic maps admit parameters.

A linear map J is the multiplication operator of some element exactly
when J lies in a two-dimensional commutative matrix algebra span{I, M}
whose representation sends the standard basis vectors to invertible
matrices.  That fails precisely when a coordinate axis is an
eigendirection of J, which shows up as a zero off-diagonal entry; the
failure is certified symbolically, not just reported as "not found".

For quadratic maps the differentiability condition is linear in the
partial-derivative coefficients: the x2-partials must be a fixed 2x2
transfer matrix T applied to the x1-partials.  Fitting T is a small
least-squares problem; turning T back into algebra parameters is only
possible when T's first column is (0, 1) and T is invertible, and the
closed form below constructs the parameters directly in that case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    COMPLEX_PARAMS,
    TAU_FIT,
    AlgebraParams,
    Perplex,
    PerplexAlgebra,
    params_from_span,
    validate_params,
)
from .calculus import PolyMap
from .errors import FitFailed
from .realpoly import RealPoly

_FIT_SEED = 20211
_RANDOM_STARTS = 28
_MARGIN_ACCEPT = 0.05
_MARGIN_FLOOR = 1e-6
MAX_SEQUENCE = 1000  # longest approximating sequence; that many members take seconds

CERT_FIRST_AXIS = (
    "the first coordinate axis is an eigendirection of J (lower-left entry"
    " is zero), so the constraint covector forces a1*b2 - a2*b1 = 0 and no"
    " admissible parameters exist"
)
CERT_SECOND_AXIS = (
    "the second coordinate axis is an eigendirection of J (upper-right"
    " entry is zero), so the constraint covector forces a1*a3 - a2^2 = 0"
    " and no admissible parameters exist"
)
CERT_NOT_FOUND = (
    "multistart search found no admissible parameters with usable margin;"
    " infeasibility is not proven for this J"
)


@dataclass(frozen=True)
class LinearFitResult:
    """Outcome of fitting algebra parameters to a linear map.

    ``status`` is "Exact" or "Infeasible".  On success ``params`` is an
    admissible pair, ``derivative`` is the element whose multiplication
    operator equals J, and ``residual`` is the max-norm defect of that
    operator identity.  On failure ``certificate`` states the violated
    open condition.
    """

    status: str
    params: AlgebraParams | None = None
    derivative: Perplex | None = None
    certificate: str | None = None
    residual: float = float("nan")
    margin: float = 0.0

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.params is not None:
            out["params"] = self.params.to_dict()
        if self.derivative is not None:
            out["derivative"] = list(self.derivative.as_tuple())
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if np.isfinite(self.residual):
            out["residual"] = self.residual
        out["margin"] = self.margin
        return out


@dataclass(frozen=True)
class QuadFitResult:
    """Outcome of the transfer-matrix stage for a quadratic map.

    ``status`` is "Exact" when the six coefficient equations n_k = T m_k
    are consistent to tolerance and "Inconsistent" otherwise.  ``T`` is
    the least-squares transfer matrix either way and ``residual`` its
    defect.  ``params`` is filled when T is also realizable as an
    algebra (first column (0, 1), invertible); ``certificate`` explains
    a failed realization.
    """

    status: str
    T: np.ndarray
    residual: float
    scale: float
    params: AlgebraParams | None = None
    certificate: str | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "status": self.status,
            "T": [[float(v) for v in row] for row in self.T],
            "residual": float(self.residual),
        }
        if self.params is not None:
            out["params"] = self.params.to_dict()
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def _is_scalar(mat: np.ndarray, tol: float) -> bool:
    scale = max(1.0, float(np.abs(mat).max()))
    mean = 0.5 * (mat[0, 0] + mat[1, 1])
    return bool(np.abs(mat - mean * np.eye(2)).max() <= tol * scale)


def _span_bases(mat: np.ndarray, candidates: list[np.ndarray]):
    """(M, basis) for each candidate identity direction u whose basis (u, M u)
    of span{I, M} = span{I, mat} clears the determinant gate, with M = mat.
    Only when the gate rejects every u there, M is the traceless
    mat - (tr mat / 2) I: for a near-scalar mat, M u is nearly parallel to u
    for every u, but the traceless part has no such gap."""
    for span in (mat, mat - 0.5 * np.trace(mat) * np.eye(2)):
        passed = False
        for u in candidates:
            mu = span @ u
            basis = np.column_stack([u, mu])
            gate = 1e-2 * max(np.linalg.norm(u) * np.linalg.norm(mu), 1e-300)
            if abs(np.linalg.det(basis)) >= gate:
                passed = True
                yield span, basis
        if passed:
            return


def _finish_exact(mat: np.ndarray, params: AlgebraParams, margin: float) -> LinearFitResult:
    alg = PerplexAlgebra(params)
    one = alg.identity
    w = Perplex(
        float(mat[0, 0] * one.x1 + mat[0, 1] * one.x2),
        float(mat[1, 0] * one.x1 + mat[1, 1] * one.x2),
    )
    residual = float(np.abs(alg.left_mult_matrix(w) - mat).max())
    return LinearFitResult(
        status="Exact",
        params=params,
        derivative=w,
        residual=residual,
        margin=margin,
    )


def fit_linear(mat: np.ndarray, tol: float = TAU_FIT) -> LinearFitResult:
    """Find algebra parameters whose multiplication operator equals J.

    Scalar J works in every admissible algebra; a fixed canonical pair
    is returned for determinism.  Non-scalar J with a zero off-diagonal
    entry is infeasible with a symbolic certificate.  Otherwise the
    span{I, J} construction is run over a candidate list of identity
    directions (axes, diagonals, then seeded random draws) and the
    first candidate with comfortable margin wins.  A near-scalar J, for
    which every candidate's basis (u, J u) is nearly singular, is read off
    the same span through its traceless part instead.
    """
    mat = np.asarray(mat, dtype=float).reshape(2, 2)
    scale = max(1.0, float(np.abs(mat).max()))
    if _is_scalar(mat, tol):
        return _finish_exact(mat, COMPLEX_PARAMS, 1.0)
    if abs(mat[1, 0]) <= tol * scale:
        return LinearFitResult(status="Infeasible", certificate=CERT_FIRST_AXIS)
    if abs(mat[0, 1]) <= tol * scale:
        return LinearFitResult(status="Infeasible", certificate=CERT_SECOND_AXIS)

    half = np.sqrt(0.5)
    candidates = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([half, half]),
        np.array([half, -half]),
    ]
    rng = np.random.Generator(np.random.Philox(_FIT_SEED))
    for _ in range(_RANDOM_STARTS):
        angle = rng.uniform(0.0, np.pi)
        candidates.append(np.array([np.cos(angle), np.sin(angle)]))

    best: tuple[AlgebraParams, float] | None = None
    for span, basis in _span_bases(mat, candidates):
        hit = params_from_span(span, basis, tol)
        if hit is None:
            continue
        if hit[1] >= _MARGIN_ACCEPT:
            return _finish_exact(mat, hit[0], hit[1])
        if best is None or hit[1] > best[1]:
            best = hit
    if best is not None and best[1] >= _MARGIN_FLOOR:
        return _finish_exact(mat, best[0], best[1])
    return LinearFitResult(status="Infeasible", certificate=CERT_NOT_FOUND)


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


# fixed generic direction for the additive fallback; every entry nonzero
_GENERIC = np.array([[0.37, 0.74], [0.92, -0.41]])


def approx_linear_sequence(
    mat: np.ndarray, n: int, tol: float = TAU_FIT
) -> list[tuple[np.ndarray, AlgebraParams]]:
    """Build J_k -> J with every member exactly fittable.

    An already-fittable J yields the constant sequence.  Otherwise each
    J_k conjugates J by a rotation of angle 1/k, which moves the
    offending eigendirections off the coordinate axes; the angle is
    halved if a member fails to fit or breaks the monotone approach,
    and a generic additive perturbation of size O(1/k) is the fallback.
    ``n`` must be in [1, MAX_SEQUENCE].
    """
    mat = np.asarray(mat, dtype=float).reshape(2, 2)
    if not 1 <= n <= MAX_SEQUENCE:
        raise ValueError(f"sequence length must be in [1, {MAX_SEQUENCE}], got {n}")
    base = fit_linear(mat, tol)
    if base.status == "Exact":
        assert base.params is not None
        return [(mat.copy(), base.params) for _ in range(n)]

    op_scale = max(1.0, float(np.linalg.norm(mat, 2)))
    out: list[tuple[np.ndarray, AlgebraParams]] = []
    prev_dist = np.inf
    moves = (lambda t: _rotation(t) @ mat @ _rotation(t).T, lambda t: mat + t * _GENERIC)
    for k in range(1, n + 1):
        found = None
        for cand in (move(0.5**i / k) for move in moves for i in range(8)):
            dist = float(np.linalg.norm(cand - mat, 2))
            fit = fit_linear(cand, tol)
            if fit.status == "Exact" and dist <= 2.0 * op_scale / k and dist < prev_dist:
                found = (cand, fit.params, dist)
                break
        if found is None:
            raise FitFailed(
                f"no fittable perturbation of size <= {2.0 * op_scale / k:g}"
                f" found at sequence index {k}"
            )
        out.append((found[0], found[1]))
        prev_dist = found[2]
    return out


def _coeff(p: RealPoly, exp: tuple[int, int]) -> float:
    return float(p.terms.get(exp, 0.0))


def _partial_columns(m: PolyMap) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient columns (constant, x1, x2) of both partial vectors."""
    u1, v1, u2, v2 = m.partials(0)
    cols_m = np.array(
        [
            [_coeff(u1, (0, 0)), _coeff(u1, (1, 0)), _coeff(u1, (0, 1))],
            [_coeff(v1, (0, 0)), _coeff(v1, (1, 0)), _coeff(v1, (0, 1))],
        ]
    )
    cols_n = np.array(
        [
            [_coeff(u2, (0, 0)), _coeff(u2, (1, 0)), _coeff(u2, (0, 1))],
            [_coeff(v2, (0, 0)), _coeff(v2, (1, 0)), _coeff(v2, (0, 1))],
        ]
    )
    return cols_m, cols_n


def _require_quadratic(m: PolyMap) -> None:
    if m.nvars != 1:
        raise ValueError("transfer-matrix fitting needs a one-variable map")
    for poly in (m.u, m.v):
        if poly.degree() > 2:
            raise ValueError("components must have total degree at most 2")


def quad_T_matrix(m: PolyMap, tol: float = TAU_FIT) -> QuadFitResult:
    """Least-squares transfer matrix between the two partial vectors.

    The x1-partial of a quadratic map is affine with coefficient
    columns m_0, m_1, m_2 and likewise n_k for the x2-partial; the map
    satisfies the differentiability relation for some T exactly when
    n_k = T m_k for all k.  Six equations, four unknowns, solved by
    least squares; Exact means the residual sits below tolerance.
    """
    _require_quadratic(m)
    cols_m, cols_n = _partial_columns(m)
    if not (np.isfinite(cols_m).all() and np.isfinite(cols_n).all()):
        raise ValueError("the map's partial derivatives overflow: a coefficient is not finite")
    t_mat, *_ = np.linalg.lstsq(cols_m.T, cols_n.T, rcond=None)
    t_mat = t_mat.T
    residual = float(np.abs(cols_n - t_mat @ cols_m).max())
    scale = max(1.0, m.max_coeff())
    if residual > tol * scale:
        return QuadFitResult(
            status="Inconsistent", T=t_mat, residual=residual, scale=scale
        )
    params = None
    certificate = None
    try:
        params = params_from_T(t_mat, tol)
    except FitFailed as exc:
        certificate = str(exc)
    return QuadFitResult(
        status="Exact",
        T=t_mat,
        residual=residual,
        scale=scale,
        params=params,
        certificate=certificate,
    )


def params_from_T(t_mat: np.ndarray, tol: float = TAU_FIT) -> AlgebraParams:
    """Algebra parameters whose partial-derivative transfer matrix is T.

    The multiplication operators of the two basis vectors share a
    column, and with B = A T that forces T e1 = e2 whenever A is
    invertible; invertibility of T is forced as well because the second
    basis operator is never singular in an admissible algebra.  Within
    that feasible set A = I always works and gives a = (1, 0, T01),
    b = (0, 1, T11), which this routine returns after validation.
    """
    t_mat = np.asarray(t_mat, dtype=float).reshape(2, 2)
    scale = max(1.0, float(np.abs(t_mat).max()))
    if abs(t_mat[0, 0]) > tol * scale or abs(t_mat[1, 0] - 1.0) > tol * scale:
        raise FitFailed(
            "shared-column constraint pins the first column of the transfer"
            f" matrix to (0, 1); got ({t_mat[0, 0]:g}, {t_mat[1, 0]:g}),"
            " so no admissible parameters realize it"
        )
    if abs(np.linalg.det(t_mat)) <= tol * scale * scale:
        raise FitFailed(
            "transfer matrix is singular; admissible parameters force an"
            " invertible second basis operator, hence det T != 0"
        )
    params = AlgebraParams((1.0, 0.0, float(t_mat[0, 1])), (0.0, 1.0, float(t_mat[1, 1])))
    report = validate_params(params, tol)
    if not (report.valid and report.branch == "standard"):
        raise FitFailed(
            f"constructed parameters failed validation: {sorted(report.failures)}"
        )
    return params


def _with_coeff(p: RealPoly, exp: tuple[int, int], value: float) -> RealPoly:
    terms = dict(p.terms)
    value = float(value)
    if value == 0.0:
        terms.pop(exp, None)
    else:
        terms[exp] = value
    return RealPoly(p.nvars, terms)


def approx_quadratic(g: PolyMap, eps: float, tol: float = TAU_FIT) -> PolyMap:
    """Perturb a quadratic map until the transfer relation holds.

    Already-consistent maps come back unchanged.  When the constant and
    x1 coefficient columns of the x1-partial are independent, T is
    pinned by them and only the x2^2 coefficients move (by exactly the
    consistency defect).  Otherwise the mixed term of u and the x1^2
    term of v are nudged by eps first, the scheme that turns the plain
    coordinate squares into a consistent map at distance eps.
    """
    if eps == 0.0:
        raise ValueError("eps must be nonzero")
    _require_quadratic(g)
    first = quad_T_matrix(g, tol)
    if first.status == "Exact":
        return PolyMap(g.nvars, g.u, g.v)

    cols_m, cols_n = _partial_columns(g)
    gate = 1e-9 * max(1.0, g.max_coeff()) ** 2
    u, v = g.u, g.v
    if abs(np.linalg.det(cols_m[:, [0, 1]])) > gate:
        t_mat = cols_n[:, [0, 1]] @ np.linalg.inv(cols_m[:, [0, 1]])
        target = t_mat @ cols_m[:, 2]
        u = _with_coeff(u, (0, 2), target[0] / 2.0)
        v = _with_coeff(v, (0, 2), target[1] / 2.0)
    else:
        u = _with_coeff(u, (1, 1), _coeff(u, (1, 1)) + eps)
        v = _with_coeff(v, (2, 0), _coeff(v, (2, 0)) + eps)
        bumped = PolyMap(1, u, v)
        cols_m, cols_n = _partial_columns(bumped)
        if abs(np.linalg.det(cols_m[:, [1, 2]])) <= gate:
            raise FitFailed(
                "x1-partial columns stay dependent after the eps nudge;"
                " no consistent perturbation of this shape exists"
            )
        t_mat = cols_n[:, [1, 2]] @ np.linalg.inv(cols_m[:, [1, 2]])
        target = t_mat @ cols_m[:, 0]
        u = _with_coeff(u, (0, 1), target[0])
        v = _with_coeff(v, (0, 1), target[1])
    result = PolyMap(g.nvars, u, v)
    check = quad_T_matrix(result, tol)
    if check.status != "Exact":
        raise FitFailed(
            f"perturbed map still inconsistent (residual {check.residual:g})"
        )
    return result
