"""Reference math the benchmark checks the program against.

Everything here is derived from the definitions of the product on R^2
and of the three model algebras, and is written with numpy only: no
function of the package under test is called.  Each check raises
``OracleError`` with a one-line reason when the program's result
disagrees.
"""

from __future__ import annotations

import json

import numpy as np

# classification band, relative to max(1, |params|)^4
KIND_TOL = 1e-9
# homomorphism defect allowed per pair, relative to the pair's scale
ISO_TOL = 1e-8
# roots this close to the ball's boundary may fall either way
BALL_SLACK = 1e-7
# a point of a two-variable fiber must solve f(x) = c this well
FIBER_TOL = 1e-10
# criterion-7 bands for theta_hat of u*x^k, keyed by k
THETA_BANDS = {2: (0.45, 0.55), 3: (0.61, 0.72)}


class OracleError(Exception):
    """The program's result disagrees with the reference math."""


def product(a, b, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y for the product with structure constants a, b; rows are elements."""
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    p = x[:, 0] * y[:, 0]
    q = x[:, 0] * y[:, 1] + x[:, 1] * y[:, 0]
    r = x[:, 1] * y[:, 1]
    return np.column_stack(
        [a[0] * p + a[1] * q + a[2] * r, b[0] * p + b[1] * q + b[2] * r]
    )


def left_mult(a, b, y) -> np.ndarray:
    """Matrix of x -> y * x."""
    y1, y2 = y
    return np.array(
        [
            [a[0] * y1 + a[1] * y2, a[1] * y1 + a[2] * y2],
            [b[0] * y1 + b[1] * y2, b[1] * y1 + b[2] * y2],
        ]
    )


def identity(a, b) -> np.ndarray:
    """The unit element (b2, -b1) / (a1 b2 - a2 b1)."""
    return np.array([b[1], -b[0]]) / (a[0] * b[1] - a[1] * b[0])


def transfer_matrix(a, b) -> np.ndarray:
    """T with (u_x2, v_x2) = T (u_x1, v_x1) for every differentiable map.

    The x2-partial is e2 * f' and the x1-partial is e1 * f', so T is
    multiplication by e2 * e1^{-1}, that is B A^{-1} with A, B the
    multiplication matrices of e1 and e2.
    """
    mat_a = np.array([[a[0], a[1]], [b[0], b[1]]])
    mat_b = np.array([[a[1], a[2]], [b[1], b[2]]])
    return mat_b @ np.linalg.inv(mat_a)


def admissible(a, b, tol: float = 1e-9) -> bool:
    """The four standard conditions: two open, two closed."""
    m = max(1.0, *(abs(v) for v in tuple(a) + tuple(b)))
    band = tol * m * m
    r1 = a[0] * a[2] - a[1] ** 2
    r2 = a[0] * b[1] - a[1] * b[0]
    r3 = a[1] * b[1] - a[2] * b[0]
    r4 = r1 + a[1] * b[2] - a[2] * b[1]
    return abs(r1) > band and abs(r2) > band and abs(r3) <= band and abs(r4) <= band


def kind(a, b) -> str:
    """Model of the algebra, from the sign of its discriminant."""
    delta = (a[0] * b[2] - a[2] * b[0]) ** 2 - 4.0 * (a[0] * b[1] - a[1] * b[0]) * (
        a[1] * b[2] - a[2] * b[1]
    )
    band = KIND_TOL * max(1.0, *(abs(v) for v in tuple(a) + tuple(b))) ** 4
    if abs(delta) <= band:
        return "Degenerate"
    return "Field" if delta < 0 else "Hyperbolic"


def params_from_matrix(mat: np.ndarray, u: np.ndarray):
    """Structure constants of span{I, mat} acting on R^2 with identity u.

    Every admissible product is of this form; the kind is decided by
    the eigenvalues of mat (complex pair, two real, or a Jordan block).
    Returns (a, b) normalized to unit max-norm.
    """
    basis = np.column_stack([u, mat @ u])
    ab1 = np.linalg.solve(basis, [1.0, 0.0])
    ab2 = np.linalg.solve(basis, [0.0, 1.0])
    m1 = ab1[0] * np.eye(2) + ab1[1] * mat
    m2 = ab2[0] * np.eye(2) + ab2[1] * mat
    raw = np.array([m1[0, 0], m1[0, 1], m2[0, 1], m1[1, 0], m1[1, 1], m2[1, 1]])
    raw /= np.abs(raw).max()
    return tuple(float(v) for v in raw[:3]), tuple(float(v) for v in raw[3:])


def model_product(model: str, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    s, t = np.atleast_2d(s), np.atleast_2d(t)
    if model == "Field":
        return np.column_stack(
            [s[:, 0] * t[:, 0] - s[:, 1] * t[:, 1], s[:, 0] * t[:, 1] + s[:, 1] * t[:, 0]]
        )
    if model == "Hyperbolic":
        return s * t
    return np.column_stack([s[:, 0] * t[:, 0], s[:, 0] * t[:, 1] + s[:, 1] * t[:, 0]])


def check_iso(a, b, model: str, iso: np.ndarray, rng: np.random.Generator, pairs: int = 64) -> None:
    """iso(x * y) = iso(x) * iso(y) in the model, on fresh random pairs."""
    iso = np.asarray(iso, dtype=float)
    if iso.shape != (2, 2) or not np.isfinite(iso).all():
        raise OracleError(f"isomorphism is not a finite 2x2 matrix: {iso.tolist()}")
    if abs(np.linalg.det(iso)) < 1e-12 * max(1.0, np.abs(iso).max()) ** 2:
        raise OracleError("isomorphism matrix is singular")
    x, y = rng.uniform(-1.0, 1.0, size=(2, pairs, 2))
    px, py = x @ iso.T, y @ iso.T
    lhs = product(a, b, x, y) @ iso.T
    rhs = model_product(model, px, py)
    scale = np.maximum(1.0, np.abs(px).max(axis=1) * np.abs(py).max(axis=1))
    worst = float((np.abs(lhs - rhs).max(axis=1) / scale).max())
    if not worst <= ISO_TOL:
        raise OracleError(f"isomorphism defect {worst:.3e} on random pairs")


def model_fiber_count(
    model: str, iso: np.ndarray, u, k: int, c, epsilon: float
) -> tuple[int, int]:
    """Solutions of u * x^k = c in the epsilon ball, solved in the model.

    An isomorphism carries u * x^k to U * X^k with U = iso u; in the
    complex model X runs over the roots of U X^k - C, in the hyperbolic
    model the equation splits into two real ones.  Roots are carried
    back by the inverse isomorphism.  Returns (sure, borderline): roots
    strictly inside the ball and roots within BALL_SLACK of its edge.
    """
    big_u = np.asarray(iso) @ np.asarray(u, dtype=float)
    big_c = np.asarray(iso) @ np.asarray(c, dtype=float)
    if model == "Field":
        poly = np.zeros(k + 1, dtype=complex)
        poly[0] = complex(*big_u)
        poly[-1] = -complex(*big_c)
        roots = np.roots(poly)
        model_pts = np.column_stack([roots.real, roots.imag])
    elif model == "Hyperbolic":
        axes = []
        for j in range(2):
            poly = np.zeros(k + 1)
            poly[0] = big_u[j]
            poly[-1] = -big_c[j]
            r = np.roots(poly)
            axes.append(r.real[np.abs(r.imag) <= 1e-9 * max(1.0, np.abs(r).max())])
        model_pts = np.array([(s, t) for s in axes[0] for t in axes[1]]).reshape(-1, 2)
    else:
        raise OracleError(f"no fiber model for kind {model}")
    pts = np.linalg.solve(np.asarray(iso), model_pts.T).T if len(model_pts) else model_pts
    radius = np.linalg.norm(pts, axis=1)
    sure = int((radius <= epsilon - BALL_SLACK).sum())
    borderline = int((np.abs(radius - epsilon) < BALL_SLACK).sum())
    return sure, borderline


def check_counts(program: int, expected: tuple[int, int], where: str) -> None:
    sure, borderline = expected
    if not sure <= program <= sure + borderline:
        want = str(sure) if not borderline else f"{sure}..{sure + borderline}"
        raise OracleError(f"{where}: program counts {program} roots, the model has {want}")


def model_discriminant_rays(model: str, iso: np.ndarray, u, k: int) -> np.ndarray:
    """Unit directions of the rays from 0 that make up the discriminant of u*x^k.

    In the complex model the only critical point is X = 0, so the
    discriminant is the origin alone (no rays).  In the hyperbolic model
    U X^k = (U1 s^k, U2 t^k) is critical where s = 0 or t = 0, so the
    discriminant is {0} x U2 t^k and U1 s^k x {0}: one half-axis each for
    even k (on the side of U's sign), the whole axis for odd k.  The rays
    are carried back to the algebra by the inverse isomorphism.
    """
    if model == "Field":
        return np.empty((0, 2))
    if model != "Hyperbolic":
        raise OracleError(f"no discriminant model for kind {model}")
    inv = np.linalg.inv(np.asarray(iso, dtype=float))
    big_u = np.asarray(iso) @ np.asarray(u, dtype=float)
    rays = []
    for j in range(2):
        signs = (np.sign(big_u[j]),) if k % 2 == 0 else (1.0, -1.0)
        for s in signs:
            d = inv[:, j] * s
            rays.append(d / np.linalg.norm(d))
    return np.array(rays)


def check_discriminant(samples, rays: np.ndarray, eta: float, cell: float) -> None:
    """The sampled discriminant lies on the model's and covers it at raster density.

    Every sample must be within one raster cell of the origin or of a
    ray; along every ray the samples must start within a cell of the
    origin, leave no gap wider than a cell, and reach the edge of the
    eta disk.  A discriminant that is empty, off the model, missing a
    branch or thinned below raster density is rejected.
    """
    pts = np.asarray(samples, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise OracleError("the discriminant is empty")
    if not np.isfinite(pts).all():
        raise OracleError("the discriminant holds non-finite samples")
    dist = np.linalg.norm(pts, axis=1)
    along = []
    for d in rays:
        t = np.maximum(pts @ d, 0.0)
        off = np.linalg.norm(pts - t[:, None] * d, axis=1)
        dist = np.minimum(dist, off)
        along.append(t[off <= cell])
    worst = float(dist.max())
    if worst > cell:
        raise OracleError(f"a discriminant sample lies {worst / cell:.2f} cells off the model's")
    for i, t in enumerate(along):
        t = np.sort(t[t <= eta + cell])
        if len(t) == 0 or t[-1] < eta - cell:
            reach = t[-1] / eta if len(t) else 0.0
            raise OracleError(f"discriminant branch {i} reaches {reach:.2f} eta, not the disk's edge")
        gap = float(np.diff(np.concatenate([[0.0], t])).max())
        if gap > cell:
            raise OracleError(f"discriminant branch {i} has a gap of {gap / cell:.2f} cells")


def expected_consistent(report, cells: float) -> bool:
    """The program's consistency verdict, recomputed from its own probes and mask samples.

    A component is consistent when its counts are constant, or when every
    probe off the majority count lies within ``cells`` raster cells of a
    discriminant or cone sample (a disagreement next to the mask is a
    rasterization effect, not evidence against local triviality).
    """
    samples = np.vstack([np.asarray(report.discriminant_samples).reshape(-1, 2),
                         np.asarray(report.cone_samples).reshape(-1, 2)])
    reach = cells * 2.0 * report.eta / report.target_res
    for comp in report.components:
        for probe, n in zip(comp.probes, comp.counts):
            if n == comp.majority:
                continue
            if not len(samples) or np.linalg.norm(samples - probe, axis=1).min() > reach:
                return False
    return True


def check_loja(fit, k: int, complex_params: bool, samples: int) -> None:
    """The scanner's fit against its own bins; the exponent band in the complex model.

    In the complex model |u x^k| and |k u x^(k-1)| are powers of |x|, so
    the lower envelope has slope (k - 1)/k and criterion 7's bands
    apply.  Elsewhere the max-norm is not the algebra's modulus and the
    envelope slope over the scanned radii drifts from (k - 1)/k, so only
    the fit itself is checked: the line through the reported bin minima
    must reproduce theta_hat and c_hat.
    """
    if not 100 <= fit.sample_count <= samples:
        raise OracleError(f"loja: {fit.sample_count} usable samples of {samples}")
    centers, minima = np.array(fit.bins).T
    slope, intercept = np.polyfit(centers, minima, 1)
    if not abs(slope - fit.theta_hat) <= 1e-9 * max(1.0, abs(slope)):
        raise OracleError(f"loja: bins give slope {slope:.6f}, theta_hat is {fit.theta_hat:.6f}")
    if not abs(np.exp(intercept) - fit.c_hat) <= 1e-9 * max(1.0, fit.c_hat):
        raise OracleError(f"loja: bins give c {np.exp(intercept):.6g}, c_hat is {fit.c_hat:.6g}")
    lo, hi = THETA_BANDS[k] if complex_params else (0.0, 1.0)
    if not lo < fit.theta_hat <= hi:
        raise OracleError(f"loja: theta_hat {fit.theta_hat:.3f} for x^{k} outside ({lo}, {hi}]")


def strict_json(text: str):
    """json.loads that refuses the non-standard NaN and Infinity tokens."""

    def refuse(token):
        raise OracleError(f"output holds the non-standard JSON token {token}")

    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise OracleError(f"output is not JSON: {exc}") from exc
