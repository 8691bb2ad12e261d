"""Core arithmetic for two-dimensional commutative unital real algebras.

An algebra here is R^2 equipped with the bilinear product

    x * y = (a1*x1*y1 + a2*(x1*y2 + x2*y1) + a3*x2*y2,
             b1*x1*y1 + b2*(x1*y2 + x2*y1) + b3*x2*y2)

for a parameter pair a = (a1, a2, a3), b = (b1, b2, b3).  Not every
parameter pair gives a unital associative algebra; ``validate_params``
checks the two equality constraints and two open (nonzero) constraints
that carve out the admissible set, plus one special diagonal branch.

The product is commutative by construction.  For admissible parameters
the algebra carries an identity element, a multiplicative quadratic
norm, a conjugation, and inverses away from the zero-divisor conic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateDirection,
    DegenerateParams,
    NotAUnit,
    ZeroInput,
)

# Default tolerances.  Equality checks compare against TAU_EQ times a
# documented scale factor; fit residuals get a slightly looser default
# because they accumulate more arithmetic.
TAU_EQ = 1e-9
TAU_FIT = 1e-8

MAX_POWER = 64


@dataclass(frozen=True)
class Perplex:
    """An element of R^2, written (x1, x2).

    Addition, subtraction and real scaling are componentwise and do not
    depend on the algebra; the product does, so it lives on
    :class:`PerplexAlgebra`.
    """

    x1: float
    x2: float

    def __add__(self, other: "Perplex") -> "Perplex":
        return Perplex(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Perplex") -> "Perplex":
        return Perplex(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "Perplex":
        return Perplex(-self.x1, -self.x2)

    def __mul__(self, scalar: float) -> "Perplex":
        return Perplex(self.x1 * scalar, self.x2 * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Perplex":
        return Perplex(self.x1 / scalar, self.x2 / scalar)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x1, self.x2)

    def max_norm(self) -> float:
        return max(abs(self.x1), abs(self.x2))

    def euclid_norm(self) -> float:
        return math.hypot(self.x1, self.x2)

    @staticmethod
    def from_seq(seq: Sequence[float]) -> "Perplex":
        v1, v2 = seq
        return Perplex(float(v1), float(v2))


@dataclass(frozen=True)
class AlgebraParams:
    """The six structure constants (a1, a2, a3), (b1, b2, b3)."""

    a: tuple[float, float, float]
    b: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if len(self.a) != 3 or len(self.b) != 3:
            raise ValueError("params need exactly three entries per row")

    def max_abs(self) -> float:
        return max(abs(v) for v in self.a + self.b)

    def to_dict(self) -> dict:
        return {"a": list(self.a), "b": list(self.b)}

    @staticmethod
    def from_dict(data: dict) -> "AlgebraParams":
        return AlgebraParams(tuple(data["a"]), tuple(data["b"]))


# Canonical parameter choices used throughout tests and docs.
# COMPLEX_PARAMS gives ordinary complex multiplication, HYPERBOLIC_PARAMS
# the split (hyperbolic) product, DUAL_BOUNDARY_PARAMS a product with a
# double zero-divisor line where (1, -1) squares to zero.
COMPLEX_PARAMS = AlgebraParams((1.0, 0.0, -1.0), (0.0, 1.0, 0.0))
HYPERBOLIC_PARAMS = AlgebraParams((1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
DUAL_BOUNDARY_PARAMS = AlgebraParams((1.0, 0.0, -1.0), (0.0, 1.0, 2.0))


@dataclass
class ValidationReport:
    """Outcome of ``validate_params``.

    ``branch`` is "standard" when the four structural conditions hold,
    "special-case" when they fail but the diagonal shape (a1 = b2 != 0,
    a2 = b1 = 0) holds, and "none" otherwise.  ``special_case`` flags
    the diagonal shape independently of branch.  ``valid`` is true
    exactly when ``failures`` is empty, i.e. on the standard branch
    only; the diagonal shape alone is reported but not admissible.
    Parameters that are NaN or infinite fail as "finite", with no
    residuals.
    """

    valid: bool
    branch: str
    failures: list[str]
    residuals: dict[str, float]
    special_case: bool
    scale: float

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "branch": self.branch,
            "failures": list(self.failures),
            "residuals": dict(self.residuals),
            "specialCase": self.special_case,
            "scale": self.scale,
        }


def validate_params(params: AlgebraParams, tol: float = TAU_EQ) -> ValidationReport:
    """Check whether a parameter pair defines a unital associative product.

    The standard branch requires, with band = tol * max(1, |params|)^2:

        (i)   a1*a3 - a2^2        nonzero (outside the band)
        (ii)  a1*b2 - a2*b1       nonzero
        (iii) a2*b2 - a3*b1       zero (inside the band)
        (iv)  a1*a3 - a2^2 + a2*b3 - a3*b2   zero

    The diagonal shape a1 = b2 != 0, a2 = b1 = 0 still gives a unital
    commutative associative product when the four conditions fail (the
    extra shape has a3 = 0, where the second basis operator is
    singular), so it is flagged distinctly in the report; it does not
    count as valid because every downstream construction (norm form,
    classification, differentiability) needs the standard conditions.
    """
    if not all(math.isfinite(v) for v in params.a + params.b):
        return ValidationReport(
            valid=False,
            branch="none",
            failures=["finite"],
            residuals={},
            special_case=False,
            scale=tol,
        )
    a1, a2, a3 = params.a
    b1, b2, b3 = params.b
    m = max(1.0, params.max_abs())
    band = tol * m * m

    res_i = a1 * a3 - a2 * a2
    res_ii = a1 * b2 - a2 * b1
    res_iii = a2 * b2 - a3 * b1
    res_iv = res_i + a2 * b3 - a3 * b2

    failures = []
    if abs(res_i) <= band:
        failures.append("i")
    if abs(res_ii) <= band:
        failures.append("ii")
    if abs(res_iii) > band:
        failures.append("iii")
    if abs(res_iv) > band:
        failures.append("iv")
    standard_ok = not failures

    band1 = tol * m
    special = (
        abs(a1 - b2) <= band1
        and abs(a2) <= band1
        and abs(b1) <= band1
        and abs(a1) > band1
    )

    if standard_ok:
        branch = "standard"
    elif special:
        branch = "special-case"
    else:
        branch = "none"

    return ValidationReport(
        valid=standard_ok,
        branch=branch,
        failures=failures,
        residuals={"i": res_i, "ii": res_ii, "iii": res_iii, "iv": res_iv},
        special_case=special,
        scale=band,
    )


class PerplexAlgebra:
    """An admissible product on R^2 together with its derived data.

    Construction validates the parameters (pass ``validate=False`` to
    skip, e.g. to probe error paths).  Derived quantities are computed
    once: the identity, the norm-form coefficients, the conjugation
    matrix, and the product bound K.
    """

    def __init__(self, params: AlgebraParams, tol: float = TAU_EQ, validate: bool = True):
        self.params = params
        self.tol = tol
        self.report = validate_params(params, tol)
        if validate and not self.report.valid:
            raise DegenerateParams(
                f"parameters fail conditions {self.report.failures}: {params.to_dict()}"
            )
        a1, a2, a3 = params.a
        b1, b2, b3 = params.b
        self._a = (a1, a2, a3)
        self._b = (b1, b2, b3)
        self.det_a = a1 * b2 - a2 * b1
        # Coefficients (c1, c2, c3) of the multiplicative norm
        # N(x) = c1*x1^2 + c2*x1*x2 + c3*x2^2.
        self.norm_coeffs = (self.det_a, a1 * b3 - a3 * b1, -(a1 * a3 - a2 * a2))
        self.k_bound = 4.0 * max(abs(v) for v in params.a + params.b)
        self._identity: Perplex | None = None
        self._conj_rows: tuple[tuple[float, float], tuple[float, float]] | None = None

    # -- basic data -------------------------------------------------

    @property
    def identity(self) -> Perplex:
        """The multiplicative identity (b2, -b1) / (a1*b2 - a2*b1)."""
        if self._identity is None:
            scale = max(1.0, self.params.max_abs()) ** 2
            if abs(self.det_a) <= self.tol * scale:
                raise DegenerateParams(
                    "identity undefined: a1*b2 - a2*b1 is zero within tolerance"
                )
            b1, b2, _ = self._b
            self._identity = Perplex(b2 / self.det_a, -b1 / self.det_a)
        return self._identity

    def left_mult_matrix(self, x: Perplex) -> np.ndarray:
        """Matrix of y -> x * y in the standard basis."""
        a1, a2, a3 = self._a
        b1, b2, b3 = self._b
        return np.array(
            [
                [a1 * x.x1 + a2 * x.x2, a2 * x.x1 + a3 * x.x2],
                [b1 * x.x1 + b2 * x.x2, b2 * x.x1 + b3 * x.x2],
            ]
        )

    def basis_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Left-multiplication matrices of the basis vectors e1, e2."""
        a1, a2, a3 = self._a
        b1, b2, b3 = self._b
        A = np.array([[a1, a2], [b1, b2]])
        B = np.array([[a2, a3], [b2, b3]])
        return A, B

    # -- arithmetic -------------------------------------------------

    def product(self, x1, x2, y1, y2):
        """(x1, x2) * (y1, y2) with coordinates in floats, arrays or ``RealPoly``."""
        a1, a2, a3 = self._a
        b1, b2, b3 = self._b
        p = x1 * y1
        q = x1 * y2 + x2 * y1
        r = x2 * y2
        return a1 * p + a2 * q + a3 * r, b1 * p + b2 * q + b3 * r

    def mul(self, x: Perplex, y: Perplex) -> Perplex:
        return Perplex(*self.product(x.x1, x.x2, y.x1, y.x2))

    def norm(self, x: Perplex) -> float:
        """The multiplicative quadratic form N with N(x*y) = N(x)N(y)."""
        c1, c2, c3 = self.norm_coeffs
        return c1 * x.x1 * x.x1 + c2 * x.x1 * x.x2 + c3 * x.x2 * x.x2

    def conjugate(self, x: Perplex) -> Perplex:
        """The linear involution with x * conjugate(x) = N(x) * identity."""
        if self._conj_rows is None:
            a1, a2, a3 = self._a
            b1, b2, b3 = self._b
            d = self.det_a
            if d == 0.0:
                raise DegenerateParams("conjugation undefined when a1*b2 - a2*b1 = 0")
            t = b2 * b2 + a2 * b1
            self._conj_rows = (
                (t / d, (b2 * b3 + a3 * b1) / d),
                (-(a1 * b1 + b1 * b2) / d, -t / d),
            )
        (r11, r12), (r21, r22) = self._conj_rows
        return Perplex(r11 * x.x1 + r12 * x.x2, r21 * x.x1 + r22 * x.x2)

    def inverse(self, x: Perplex) -> Perplex:
        """conjugate(x) / N(x); raises NotAUnit on the zero-divisor conic.

        x is first scaled by the power of two 2^-e that brings its max-norm
        into [0.5, 1), which is exact, so N cannot overflow for huge x nor
        underflow for tiny x.  An inverse past the float range is infinite.
        """
        e = math.frexp(x.max_norm())[1]
        y = Perplex(math.ldexp(x.x1, -e), math.ldexp(x.x2, -e))
        n = self.norm(y)
        c_scale = max(1.0, max(abs(c) for c in self.norm_coeffs))
        floor = self.tol * c_scale * max(y.max_norm(), 1e-300) ** 2
        if abs(n) <= floor:
            raise NotAUnit(f"norm {n!r} of x / 2^{e} vanishes within tolerance for {x}")
        return self.conjugate(y) / n * 2.0 ** (-e // 2) * 2.0 ** (-e - -e // 2)

    def power(self, x: Perplex, n: int) -> Perplex:
        """x * x * ... * x (n factors) by iterated multiplication; n <= 64."""
        if not 0 <= n <= MAX_POWER:
            raise ValueError(f"exponent must be in [0, {MAX_POWER}], got {n}")
        if n == 0:
            return self.identity
        acc = x
        for _ in range(n - 1):
            acc = self.mul(acc, x)
        return acc

    # -- bounds, conic, separation ----------------------------------

    def mul_bound(self) -> float:
        """K = 4 * max |structure constant|, so that
        max_norm(x*y) <= K * max_norm(x) * max_norm(y)."""
        return self.k_bound

    def zero_divisor_conic(self) -> tuple[float, float, float]:
        """Coefficients (c1, c2, c3) of the conic of non-units
        c1*x1^2 + c2*x1*x2 + c3*x2^2 = 0: the zero set of the norm."""
        return self.norm_coeffs

    def separation_margin(self, x: Perplex) -> float:
        """|N(x / |x|_2)|: the distance measure of the direction of x
        from the zero-divisor conic.  Zero input is rejected."""
        r = x.euclid_norm()
        if r == 0.0 or r < 1e-300:
            raise ZeroInput("separation margin needs a nonzero element")
        return abs(self.norm(x / r))

    def q_ratio(self, t: Perplex, n: int, theta: float) -> float:
        """max_norm(t^n)^theta / max_norm(t^(n-1)).

        Used to watch the gradient-inequality obstruction blow up along
        a ray: for theta in (0,1) and n > 1/(1-theta) the ratio diverges
        as t -> 0 along separated directions.
        """
        if n < 1:
            raise ValueError("need n >= 1")
        p_lo = self.power(t, n - 1)
        p_hi = self.mul(p_lo, t)
        tm = t.max_norm()
        if tm == 0.0:
            raise ZeroInput("q_ratio needs a nonzero base point")
        kb = max(self.k_bound, 1e-300)
        for k, p in ((n - 1, p_lo), (n, p_hi)):
            ceiling = (kb ** max(k - 1, 0)) * tm**k
            if p.max_norm() <= 1e-12 * ceiling:
                raise DegenerateDirection(
                    f"power {k} of {t} vanished within tolerance; "
                    "the ratio is undefined along this direction"
                )
        return p_hi.max_norm() ** theta / p_lo.max_norm()


def params_from_span(
    mat: np.ndarray, basis: np.ndarray, tol: float = TAU_EQ
) -> tuple[AlgebraParams, float] | None:
    """Read parameters off the matrix algebra span{I, mat} acting on R^2.

    ``basis`` holds the identity direction u and mat @ u as columns;
    callers gate its determinant.  e1 and e2 act as the members of the
    span that send u to them.  The pair is normalized to unit max-norm
    and returned with its margin, the smaller of the open conditions
    (i) and (ii) relative to scale; None when it is not admissible on
    the standard branch.
    """
    try:
        ab1 = np.linalg.solve(basis, np.array([1.0, 0.0]))
        ab2 = np.linalg.solve(basis, np.array([0.0, 1.0]))
    except np.linalg.LinAlgError:
        return None
    m1 = ab1[0] * np.eye(2) + ab1[1] * mat
    m2 = ab2[0] * np.eye(2) + ab2[1] * mat
    raw = AlgebraParams(
        (m1[0, 0], m1[0, 1], m2[0, 1]),
        (m1[1, 0], m1[1, 1], m2[1, 1]),
    )
    top = raw.max_abs()
    if top == 0.0:
        return None
    params = AlgebraParams(
        tuple(v / top for v in raw.a), tuple(v / top for v in raw.b)
    )
    report = validate_params(params, tol)
    if not (report.valid and report.branch == "standard"):
        return None
    scale2 = max(1.0, params.max_abs()) ** 2
    margin = min(abs(report.residuals["i"]), abs(report.residuals["ii"])) / scale2
    return params, margin


def sample_valid_params(
    rng: np.random.Generator,
    min_margin: float = 1e-3,
    max_tries: int = 500,
    tol: float = TAU_EQ,
) -> AlgebraParams:
    """Draw a random admissible parameter pair.

    Every admissible product arises from a two-dimensional commutative
    matrix algebra span{I, M} acting on R^2: pick a random M and a
    random identity direction u, then read the parameters off the
    matrices representing e1 and e2.  Pairs are normalized to unit
    max-norm and rejected until the open conditions clear
    ``min_margin`` relative to scale, so downstream arithmetic stays
    well conditioned.
    """
    for _ in range(max_tries):
        mat = rng.uniform(-1.0, 1.0, size=(2, 2))
        u = rng.normal(size=2)
        nu = np.linalg.norm(u)
        if nu < 1e-3:
            continue
        u /= nu
        basis = np.column_stack([u, mat @ u])
        if abs(np.linalg.det(basis)) < 0.1:
            continue
        hit = params_from_span(mat, basis, tol)
        if hit is not None and hit[1] >= min_margin:
            return hit[0]
    raise RuntimeError("could not sample admissible parameters; loosen min_margin")


def random_elements(
    rng: np.random.Generator, count: int, scale: float = 1.0
) -> list[Perplex]:
    """Uniform random elements in a centered box, handy for law checks."""
    pts = rng.uniform(-scale, scale, size=(count, 2))
    return [Perplex(float(p[0]), float(p[1])) for p in pts]
