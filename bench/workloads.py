"""The in-process workloads: inputs drawn from a seed, one op, its oracle.

Each workload builds a list of cases in ``make_cases`` (set-up), runs
one case per op in ``run`` (the timed part) and checks the result in
``check`` with the reference math of ``oracles`` (untimed).  Ops call
the package through module attributes looked up at call time, so the
tracer's rebinding sees them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import perplex
from perplex import algebra, approximation, calculus, fibration, multivar, structure
from perplex.algebra import AlgebraParams, Perplex, PerplexAlgebra
from perplex.multivar import PerplexPolyN

import oracles as O

EPSILON = 1.0  # default source ball of the fibration layer
ETA = 0.05  # local_triviality_check's default target radius
PROBES_PER_COMPONENT = 8  # local_triviality_check's default
CLOUD_SIZE = 4096  # fiber_cloud's default
# a count disagreement this many raster cells from the mask samples is
# put down to rasterization (fibration's consistency rule)
CONSISTENCY_CELLS = 3.0
# components of the eta disk left by the zero-divisor cone of the model
MODEL_COMPONENTS = {"Field": 1, "Hyperbolic": 4}
# Random hyperbolic algebras for fiber-hyperbolic: the first hyperbolic
# draws of sample_valid_params under this Philox key.  The pool is fixed
# because how a check of u*x^2 goes depends on the algebra: where the
# zero-divisor lines leave a wedge too thin to probe it raises
# MaskTooCoarse at every eta, and draw 3 halves eta two or three times
# (26-37 s a check), which no run can time.  bench/README.md has more.
HYPERBOLIC_POOL_KEY = 20251
HYPERBOLIC_POOL_SKIP = (3,)
HYPERBOLIC_POOL_SIZE = 4


def _draw_kind(rng: np.random.Generator, want: str) -> AlgebraParams:
    while True:
        params = perplex.sample_valid_params(rng)
        if O.kind(params.a, params.b) == want:
            return params


def _unit(rng: np.random.Generator, params: AlgebraParams) -> Perplex:
    """A random element of modulus 0.8-1.25 well away from the zero-divisor cone."""
    a, b = params.a, params.b
    c1 = a[0] * b[1] - a[1] * b[0]
    c2 = a[0] * b[2] - a[2] * b[0]
    c3 = a[1] * b[2] - a[2] * b[1]
    scale = max(abs(c1), abs(c2), abs(c3))
    while True:
        ang = rng.uniform(0.0, 2.0 * np.pi)
        d = np.array([np.cos(ang), np.sin(ang)])
        if abs(c1 * d[0] ** 2 + c2 * d[0] * d[1] + c3 * d[1] ** 2) >= 0.2 * scale:
            r = np.exp(rng.uniform(np.log(0.8), np.log(1.25)))
            return Perplex(float(r * d[0]), float(r * d[1]))


def _off_identity(rng: np.random.Generator, params: AlgebraParams) -> tuple[float, float]:
    """A unit at least 0.3 rad from the identity's direction.

    Its multiplication matrix is then far from scalar; fit_linear's
    search reports a nearly scalar J as not found.
    """
    one = O.identity(params.a, params.b)
    while True:
        y = _unit(rng, params).as_tuple()
        if abs(one[0] * y[1] - one[1] * y[0]) >= np.sin(0.3) * np.hypot(*one) * np.hypot(*y):
            return y


def _power(k: int, u: Perplex) -> PerplexPolyN:
    return PerplexPolyN.from_terms(1, [((k,), u)])


# ---------------------------------------------------------------------------
# fiber-field and fiber-hyperbolic: one local_triviality_check per op


@dataclass
class FiberCase:
    label: str
    params: AlgebraParams
    alg: PerplexAlgebra
    k: int
    u: Perplex
    f: PerplexPolyN
    probe_seed: int
    kind: str  # the kind it was drawn as


def _fiber_case(rng, label, kind, params, k, u=None) -> FiberCase:
    u = _unit(rng, params) if u is None else u
    return FiberCase(
        label=label,
        params=params,
        alg=PerplexAlgebra(params),
        k=k,
        u=u,
        f=_power(k, u),
        probe_seed=int(rng.integers(1, 2**31)),
        kind=kind,
    )


def _root_reach(params: AlgebraParams, u: Perplex, k: int) -> float:
    """Largest modulus of a root of u*x^k = c over the circle |c| = ETA.

    Solved in the complex model on 720 points of the circle and carried
    back by the inverse isomorphism.  A reach below 1 keeps every fiber
    over the eta disk inside the source ball.
    """
    iso = structure.classify(PerplexAlgebra(params)).iso
    big_u = complex(*(iso @ np.array(u.as_tuple())))
    ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    c = ETA * np.column_stack([np.cos(ang), np.sin(ang)]) @ iso.T
    roots = ((c[:, 0] + 1j * c[:, 1]) / big_u) ** (1.0 / k)
    model = np.column_stack([roots.real, roots.imag])
    return float(np.linalg.norm(np.linalg.solve(iso, model.T), axis=0).max())


def _field_case(rng, label: str, accept) -> FiberCase:
    """A random Field algebra and unit for x^2 whose root reach ``accept`` takes."""
    while True:
        params = _draw_kind(rng, "Field")
        u = _unit(rng, params)
        if accept(_root_reach(params, u, 2)):
            return _fiber_case(rng, label, "Field", params, 2, u)


def _hyperbolic_unit(rng, params: AlgebraParams) -> Perplex:
    """A unit whose two model coordinates have modulus 0.9-1.1 and random signs.

    The check's cost grows with the ratio of the two coordinates (about
    15% between ratios 1 and 5), so it is held near 1.
    """
    iso = structure.classify(PerplexAlgebra(params)).iso
    model = rng.uniform(0.9, 1.1, size=2) * rng.choice([-1.0, 1.0], size=2)
    return Perplex(*map(float, np.linalg.solve(iso, model)))


class FiberCheck:
    """Shared op and oracle of the two one-variable fibration workloads."""

    kind = ""

    def run(self, case: FiberCase):
        return fibration.local_triviality_check(
            case.f, case.alg, epsilon=EPSILON, probes_per_component=PROBES_PER_COMPONENT,
            seed=case.probe_seed,
        )

    def check(self, case: FiberCase, report, rng: np.random.Generator) -> None:
        a, b = case.params.a, case.params.b
        model = O.kind(a, b)
        if model != case.kind:
            raise O.OracleError(f"{case.label}: own delta says {model}")
        cls = structure.classify(case.alg)
        if cls.kind.value != model or report.algebra_kind != model:
            raise O.OracleError(
                f"{case.label}: kind {cls.kind.value}/{report.algebra_kind}, delta says {model}"
            )
        O.check_iso(a, b, model, cls.iso, rng)
        cell = 2.0 * report.eta / report.target_res
        rays = O.model_discriminant_rays(model, cls.iso, case.u.as_tuple(), case.k)
        try:
            O.check_discriminant(report.discriminant_samples, rays, report.eta, cell)
        except O.OracleError as exc:
            raise O.OracleError(f"{case.label}: {exc}") from None
        if len(report.components) != MODEL_COMPONENTS[model]:
            raise O.OracleError(
                f"{case.label}: {len(report.components)} components, the model has"
                f" {MODEL_COMPONENTS[model]}"
            )
        # Each count must be the model's.  Constancy follows from that
        # wherever the fibers stay inside the ball; near the boundary of
        # the Field region the inverse isomorphism can carry roots out of
        # it, and then a component's true counts differ.
        for comp in report.components:
            where = f"{case.label} component {comp.label}"
            probes = np.asarray(comp.probes, dtype=float).reshape(-1, 2)
            if len(probes) != PROBES_PER_COMPONENT or len(comp.counts) != PROBES_PER_COMPONENT:
                raise O.OracleError(
                    f"{where}: {len(probes)} probes and {len(comp.counts)} counts,"
                    f" want {PROBES_PER_COMPONENT}"
                )
            if len(np.unique(probes, axis=0)) != len(probes) or (
                np.linalg.norm(probes, axis=1) > report.eta
            ).any():
                raise O.OracleError(f"{where}: probes repeat or leave the eta disk")
            if comp.constant != (len(set(comp.counts)) == 1):
                raise O.OracleError(
                    f"{where}: counts {list(comp.counts)} flagged constant={comp.constant}"
                )
            if comp.counts.count(comp.majority) != max(map(comp.counts.count, comp.counts)):
                raise O.OracleError(f"{where}: majority {comp.majority} of {list(comp.counts)}")
            for probe, n in zip(comp.probes, comp.counts):
                want = O.model_fiber_count(model, cls.iso, case.u.as_tuple(), case.k, probe, EPSILON)
                O.check_counts(n, want, f"{case.label} probe {probe}")
        if report.consistent != O.expected_consistent(report, CONSISTENCY_CELLS):
            raise O.OracleError(f"{case.label}: consistent={report.consistent} against its own probes")


class FiberField(FiberCheck):
    """u*x^k over the complex params (k = 2, 3) and random Field algebras (k = 2).

    A check halves eta when fibers over the eta disk leave the source
    ball, which makes counts differ inside a component.  The random
    draws keep every root inside (``_root_reach`` at most 0.9), so they
    never halve; one fixed draw whose roots leave the ball (it halves eta
    twice) goes into every pass.  So every pass holds the same share of
    halvings and a run's cost does not hang on how many of its draws
    happen to halve.
    """

    kind = "Field"
    HALVING_KEY = 20252  # Philox key of the fixed draw

    def make_cases(self, seed: int) -> list[FiberCase]:
        # one pass: x^2 and x^3 over the complex params, each followed by
        # a random Field algebra; the last of them is the fixed one
        rng = np.random.default_rng(seed)
        cases = []
        for i in range(4):
            cases.append(
                _fiber_case(rng, f"complex x^{2 + i % 2}", "Field", algebra.COMPLEX_PARAMS, 2 + i % 2)
            )
            if i < 3:
                cases.append(_field_case(rng, "random Field x^2", lambda reach: reach <= 0.9))
        fixed = np.random.Generator(np.random.Philox(self.HALVING_KEY))
        cases.append(_field_case(fixed, "halving Field x^2", lambda reach: reach >= 1.5))
        return cases


class FiberHyperbolic(FiberCheck):
    """u*x^2 over the split-complex params and a pool of random hyperbolic ones.

    One pass is a split-complex check and a check over pool algebra
    ``seed % 4``, so both reach the median alike and consecutive seeds
    cover the pool.
    """

    kind = "Hyperbolic"

    def make_cases(self, seed: int) -> list[FiberCase]:
        pool_rng = np.random.Generator(np.random.Philox(HYPERBOLIC_POOL_KEY))
        pool = []
        while len(pool) < HYPERBOLIC_POOL_SIZE + len(HYPERBOLIC_POOL_SKIP):
            pool.append(_draw_kind(pool_rng, "Hyperbolic"))
        pool = [p for i, p in enumerate(pool) if i not in HYPERBOLIC_POOL_SKIP]
        i = seed % len(pool)
        rng = np.random.default_rng(seed)
        return [
            _fiber_case(rng, label, "Hyperbolic", params, 2, _hyperbolic_unit(rng, params))
            for label, params in (
                ("split-complex x^2", algebra.HYPERBOLIC_PARAMS), (f"pool[{i}] x^2", pool[i])
            )
        ]

    def warm_case(self, seed: int) -> FiberCase:
        """The untimed warm-up op: x^2 over the complex params.

        It runs the same functions as a hyperbolic check in about 0.3 s;
        a hyperbolic warm-up would add about 9 s to every run.
        """
        rng = np.random.default_rng(seed + 1)
        return _fiber_case(rng, "warm-up complex x^2", "Field", algebra.COMPLEX_PARAMS, 2)


# ---------------------------------------------------------------------------
# fiber-2var: one fiber_cloud per op


@dataclass
class CloudCase:
    label: str
    alg: PerplexAlgebra
    f: PerplexPolyN
    c: Perplex
    seed: int
    on_discriminant: bool
    components: int


_SPLIT_TO_MODEL = np.array([[1.0, 1.0], [1.0, -1.0]])  # (x1, x2) -> (x1 + x2, x1 - x2)


class Fiber2Var:
    """z1^2 + z2^2 and z1*z2 over the complex and split-complex params.

    Off-discriminant targets keep away from it: for the complex params it
    is the origin; for the split-complex params it is the two model
    axes, and z1^2 + z2^2 only reaches the quadrant where both model
    coordinates are positive.  Expected linkage components follow the
    model topology: a connected fiber everywhere except z1*z2 over the
    split-complex params, whose fiber is a product of two two-branch
    hyperbolas.  Two targets sit on the discriminant, where both maps
    have the critical value 0: complex z1*z2 within ON_DISC_RADIUS of the
    origin, and split-complex z1^2 + z2^2 at the origin, whose fiber is
    the single point 0.  Both fibers are connected.
    """

    # (label, algebra, polynomial, on the discriminant, components)
    PLANS = (
        ("complex z1^2+z2^2", "C", "sq", False, 1),
        ("split z1^2+z2^2", "H", "sq", False, 1),
        ("complex z1*z2", "C", "prod", False, 1),
        ("split z1*z2", "H", "prod", False, 4),
        ("complex z1*z2 by 0", "C", "prod", True, 1),
        ("split z1^2+z2^2 at 0", "H", "sq", True, 1),
    )
    # a quarter of the two raster cells (at eta 0.05 and 256 cells) within
    # which fiber_cloud flags a target as on the discriminant
    ON_DISC_RADIUS = 2e-4

    def make_cases(self, seed: int) -> list[CloudCase]:
        rng = np.random.default_rng(seed)
        one = Perplex(1.0, 0.0)
        polys = {
            "sq": PerplexPolyN.from_terms(2, [((2, 0), one), ((0, 2), one)]),
            "prod": PerplexPolyN.from_terms(2, [((1, 1), one)]),
        }
        algs = {
            "C": PerplexAlgebra(algebra.COMPLEX_PARAMS),
            "H": PerplexAlgebra(algebra.HYPERBOLIC_PARAMS),
        }
        cases = []
        for label, alg_key, poly_key, on_disc, comps in self.PLANS:
            if on_disc:
                r = self.ON_DISC_RADIUS * rng.uniform(0.0, 1.0) if alg_key == "C" else 0.0
                ang = rng.uniform(0.0, 2.0 * np.pi)
                c = np.array([r * np.cos(ang), r * np.sin(ang)])
            elif alg_key == "C":
                r, ang = rng.uniform(0.02, 0.045), rng.uniform(0.0, 2.0 * np.pi)
                c = np.array([r * np.cos(ang), r * np.sin(ang)])
            else:
                model = rng.uniform(0.015, 0.04, size=2)
                if poly_key == "prod":
                    model *= rng.choice([-1.0, 1.0], size=2)
                c = np.linalg.solve(_SPLIT_TO_MODEL, model)
            cases.append(
                CloudCase(label, algs[alg_key], polys[poly_key], Perplex(*map(float, c)),
                          int(rng.integers(1, 2**31)), on_disc, comps)
            )
        return cases

    def run(self, case: CloudCase):
        return fibration.fiber_cloud(
            case.f, case.alg, case.c, epsilon=EPSILON, cloud_size=CLOUD_SIZE, seed=case.seed
        )

    def check(self, case: CloudCase, cloud, rng: np.random.Generator) -> None:
        pts = np.asarray(cloud.points)
        if pts.ndim != 2 or pts.shape[1] != 4 or len(pts) == 0 or not np.isfinite(pts).all():
            raise O.OracleError(f"{case.label}: cloud has shape {pts.shape}")
        if np.linalg.norm(pts, axis=1).max() > EPSILON:
            raise O.OracleError(f"{case.label}: cloud leaves the ball")
        worst = 0.0
        for p in pts:
            z = [Perplex(float(p[0]), float(p[1])), Perplex(float(p[2]), float(p[3]))]
            worst = max(worst, (case.f.eval(case.alg, z) - case.c).max_norm())
        if not worst <= O.FIBER_TOL:
            raise O.OracleError(f"{case.label}: recomputed residual {worst:.3e}")
        if cloud.connectivity != case.components:
            raise O.OracleError(
                f"{case.label}: connectivity {cloud.connectivity}, model has {case.components}"
            )
        if cloud.on_discriminant != case.on_discriminant:
            raise O.OracleError(
                f"{case.label}: on_discriminant={cloud.on_discriminant},"
                f" the model says {case.on_discriminant}"
            )


# ---------------------------------------------------------------------------
# sweep: the algebra, structure, approximation and calculus layers


@dataclass
class SweepCase:
    label: str
    params: AlgebraParams
    kind: str
    triples: np.ndarray  # (n, 3, 2)
    J: np.ndarray  # L_y for a random unit y
    quad: PerplexPolyN  # u*x^2 + v*x + w
    quad_coeffs: np.ndarray  # rows u, v, w
    loja: PerplexPolyN
    loja_k: int
    loja_seed: int


@dataclass
class SweepResult:
    report: object
    cls: object
    products: np.ndarray  # (n, 5, 2): xy, yx, (xy)z, x(yz), 1*x
    norms: np.ndarray  # (n, 3): N(x), N(y), N(xy)
    fit: object
    gcr: object
    deriv: object
    quad: object
    loja: object


def _jordan_params(rng: np.random.Generator):
    """A random dual-number algebra: span{I, M} with M a Jordan block."""
    while True:
        basis = rng.uniform(-1.0, 1.0, size=(2, 2))
        if abs(np.linalg.det(basis)) < 0.3:
            continue
        lam = rng.uniform(-1.0, 1.0)
        mat = basis @ np.array([[lam, 1.0], [0.0, lam]]) @ np.linalg.inv(basis)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        if abs(np.linalg.det(np.column_stack([u, mat @ u]))) < 0.1:
            continue
        a, b = O.params_from_matrix(mat, u)
        if not O.admissible(a, b, tol=1e-3):
            continue
        return AlgebraParams(a, b)


class Sweep:
    """One random admissible algebra of any kind per op."""

    TRIPLES = 64
    LOJA_SAMPLES = 10_000  # the CLI default

    def make_cases(self, seed: int) -> list[SweepCase]:
        # one pass: forty cycles of the complex params, a random Field, a
        # random Hyperbolic and a dual algebra, with k = 2 and 3 in turn;
        # fixed shares keep the mix, and so the cost, alike across seeds
        rng = np.random.default_rng(seed)
        cases = []
        for i in range(160):
            if i % 4 == 0:
                params = algebra.COMPLEX_PARAMS
            elif i % 4 == 3:
                params = algebra.DUAL_BOUNDARY_PARAMS if i % 8 == 3 else _jordan_params(rng)
            else:
                params = _draw_kind(rng, "Field" if i % 4 == 1 else "Hyperbolic")
            cases.append(self._case(rng, params, 2 + (i // 4) % 2))
        return cases

    def _case(self, rng, params: AlgebraParams, k: int) -> SweepCase:
        a, b = params.a, params.b
        kind = O.kind(a, b)
        y = _off_identity(rng, params)
        coeffs = rng.uniform(-1.0, 1.0, size=(3, 2))
        quad = PerplexPolyN.from_terms(
            1, [((2,), Perplex(*coeffs[0])), ((1,), Perplex(*coeffs[1])), ((0,), Perplex(*coeffs[2]))]
        )
        return SweepCase(
            label=f"{kind} {params.to_dict()}",
            params=params,
            kind=kind,
            triples=rng.uniform(-1.0, 1.0, size=(self.TRIPLES, 3, 2)),
            J=O.left_mult(a, b, y),
            quad=quad,
            quad_coeffs=coeffs,
            loja=_power(k, _unit(rng, params)),
            loja_k=k,
            loja_seed=int(rng.integers(1, 2**31)),
        )

    def run(self, case: SweepCase) -> SweepResult:
        report = algebra.validate_params(case.params)
        alg = algebra.PerplexAlgebra(case.params)
        cls = structure.classify(alg)
        one = alg.identity
        products, norms = [], []
        for x, y, z in case.triples:
            x, y, z = Perplex(*x), Perplex(*y), Perplex(*z)
            xy = alg.mul(x, y)
            products.append(
                (xy.as_tuple(), alg.mul(y, x).as_tuple(), alg.mul(xy, z).as_tuple(),
                 alg.mul(x, alg.mul(y, z)).as_tuple(), alg.mul(one, x).as_tuple())
            )
            norms.append((alg.norm(x), alg.norm(y), alg.norm(xy)))
        fit = approximation.fit_linear(case.J)
        m = case.quad.to_polymap(alg)
        gcr = calculus.gcr_residual(m, alg)
        deriv = calculus.derivative_polymap(m, alg)
        quad = approximation.quad_T_matrix(m)
        loja = multivar.loja_scan(case.loja, alg, 1e-4, 1e-1, self.LOJA_SAMPLES, case.loja_seed)
        return SweepResult(
            report, cls, np.array(products), np.array(norms), fit, gcr, deriv, quad, loja
        )

    def check(self, case: SweepCase, res: SweepResult, rng: np.random.Generator) -> None:
        a, b = case.params.a, case.params.b
        where = case.label
        if not res.report.valid or not O.admissible(a, b):
            raise O.OracleError(f"{where}: admissible params reported invalid")
        if res.cls.kind.value != case.kind:
            raise O.OracleError(f"{where}: classify says {res.cls.kind.value}")
        O.check_iso(a, b, case.kind, res.cls.iso, rng)

        x, y, z = case.triples[:, 0], case.triples[:, 1], case.triples[:, 2]
        xy = O.product(a, b, x, y)
        want = np.stack([xy, xy, O.product(a, b, xy, z), O.product(a, b, x, O.product(a, b, y, z)), x], axis=1)
        err = float(np.abs(res.products - want).max())
        if not err <= 1e-12:
            raise O.OracleError(f"{where}: law-check products off by {err:.3e}")
        n_x, n_y, n_xy = res.norms.T
        if not np.abs(n_xy - n_x * n_y).max() <= 1e-9 * max(1.0, np.abs(n_x * n_y).max()):
            raise O.OracleError(f"{where}: norm is not multiplicative")

        fit = res.fit
        if fit.status != "Exact":
            raise O.OracleError(f"{where}: fit_linear({case.J.tolist()}) is {fit.status}")
        fa, fb = fit.params.a, fit.params.b
        if not O.admissible(fa, fb):
            raise O.OracleError(f"{where}: fitted params are not admissible")
        got = O.left_mult(fa, fb, fit.derivative.as_tuple())
        if not np.abs(got - case.J).max() <= 1e-8 * max(1.0, np.abs(case.J).max()):
            raise O.OracleError(f"{where}: fitted multiplication matrix misses J")

        if not res.gcr.max_coeff <= 1e-9 * res.gcr.scale:
            raise O.OracleError(f"{where}: gcr residual {res.gcr.max_coeff:.3e} on a perplex polynomial")
        pts = rng.uniform(-1.0, 1.0, size=(16, 2))
        u, v = case.quad_coeffs[0], case.quad_coeffs[1]
        want = 2.0 * O.product(a, b, np.broadcast_to(u, pts.shape), pts) + v
        got = np.column_stack([_eval_terms(res.deriv.u.terms, pts), _eval_terms(res.deriv.v.terms, pts)])
        if not np.abs(got - want).max() <= 1e-9:
            raise O.OracleError(f"{where}: derivative differs from 2ux + v")
        if res.quad.status != "Exact":
            raise O.OracleError(f"{where}: quad_T_matrix is {res.quad.status}")
        t_want = O.transfer_matrix(a, b)
        if not np.abs(res.quad.T - t_want).max() <= 1e-8 * max(1.0, np.abs(t_want).max()):
            raise O.OracleError(f"{where}: transfer matrix is not B A^-1")

        O.check_loja(res.loja, case.loja_k, case.params == algebra.COMPLEX_PARAMS, self.LOJA_SAMPLES)


def _eval_terms(terms: dict, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(pts))
    for (e1, e2), c in terms.items():
        out += c * pts[:, 0] ** e1 * pts[:, 1] ** e2
    return out


WORKLOADS = {
    "fiber-field": FiberField,
    "fiber-hyperbolic": FiberHyperbolic,
    "fiber-2var": Fiber2Var,
    "sweep": Sweep,
}
