"""Known-root properties of the one-variable fiber solver.

A random polynomial f and a regular point x0 give the target f(x0), so
x0 must be among the solutions that ``fiber_solve`` reports.  The check
uses the algebra's own product, not the model algebra the solver works
in.  A leading term too small to move a double on the ball must change
nothing.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perplex.algebra import (
    COMPLEX_PARAMS,
    HYPERBOLIC_PARAMS,
    Perplex,
    PerplexAlgebra,
    random_elements,
)
from perplex.fibration import _model, fiber_solve, local_triviality_check
from perplex.multivar import PerplexPolyN, partial_derivative
from perplex.structure import AlgebraKind

from conftest import algebra_of_kind, philox


def _regular_point(rng, alg, f) -> Perplex | None:
    """A point with |x0|_inf <= 0.55 where f' is a unit, |N(f'(x0))| >= 1e-3."""
    df = partial_derivative(f, 0)
    for _ in range(100):
        x0 = Perplex(*(float(v) for v in rng.uniform(-0.55, 0.55, size=2)))
        if abs(alg.norm(df.eval(alg, [x0]))) >= 1e-3:
            return x0
    return None


@pytest.mark.parametrize("kind", [AlgebraKind.FIELD, AlgebraKind.HYPERBOLIC])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fiber_solve_finds_known_root(kind, seed):
    rng = philox(seed)
    alg = algebra_of_kind(rng, kind)
    degree = int(rng.integers(1, 5))
    coeffs = random_elements(rng, degree + 1)
    f = PerplexPolyN.from_terms(1, [((k,), c) for k, c in enumerate(coeffs)])
    x0 = _regular_point(rng, alg, f)
    assume(x0 is not None)
    c = f.eval(alg, [x0])

    roots = fiber_solve(f, alg, c)
    pts = np.array([r.as_tuple() for r in roots]).reshape(-1, 2)
    assert len(pts) >= 1
    assert np.linalg.norm(pts - np.array(x0.as_tuple()), axis=1).min() <= 1e-8
    for r in roots:
        assert (f.eval(alg, [r]) - c).max_norm() <= 1e-10
    gaps = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    assert gaps[~np.eye(len(pts), dtype=bool)].min(initial=np.inf) >= 1e-6


def test_check_needs_a_probe_per_component(complex_alg):
    square = PerplexPolyN.from_terms(1, [((2,), Perplex(1.0, 0.0))])
    with pytest.raises(ValueError, match="probe"):
        local_triviality_check(square, complex_alg, probes_per_component=0)


def _solutions(f, alg, targets):
    return [[r.as_tuple() for r in fiber_solve(f, alg, c)] for c in targets]


@pytest.mark.parametrize("params, count", [(COMPLEX_PARAMS, 2), (HYPERBOLIC_PARAMS, 4)])
def test_a_lead_term_invisible_on_the_ball_changes_nothing(params, count):
    # 1e-100 x^4 adds at most 1e-100 to f on the unit ball, where (1, 0.5) x^2
    # + (0.3, 0.1) x has its fibers; the roots it brings lie near |x| = 1e50
    alg = PerplexAlgebra(params)
    terms = [((2,), Perplex(1.0, 0.5)), ((1,), Perplex(0.3, 0.1))]
    f = PerplexPolyN.from_terms(1, terms)
    tiny = PerplexPolyN.from_terms(1, [((4,), Perplex(1e-100, 0.0)), *terms])
    want = local_triviality_check(f, alg, seed=1).to_dict()
    assert local_triviality_check(tiny, alg, seed=1).to_dict() == want
    target = Perplex(0.01, 0.002)
    assert len(fiber_solve(tiny, alg, target)) == count
    assert _solutions(tiny, alg, [target]) == _solutions(f, alg, [target])


@pytest.mark.parametrize("kind", [AlgebraKind.FIELD, AlgebraKind.HYPERBOLIC])
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(1, 3), shrink=st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_negligible_lead_terms_keep_every_bit(kind, seed, extra, shrink):
    # c x^(d + extra) with |c| <= 1e-120 max|c_k| / (1 + R)^(d + extra), R the
    # ball's reach in model coordinates, stays under 1e-120 of f's largest term
    # on the ball: the check and the fibers keep every bit
    rng = philox(seed)
    alg = algebra_of_kind(rng, kind)
    degree = int(rng.integers(1, 5))
    coeffs = random_elements(rng, degree)
    terms = [((k,), c) for k, c in enumerate(coeffs, 1)]
    f = PerplexPolyN.from_terms(1, terms)
    power = degree + extra
    size = 1e-120 * shrink * max(c.max_norm() for c in coeffs)
    size /= (1.0 + _model(f, alg).reach) ** power
    angle = rng.uniform(0.0, 2.0 * np.pi)
    lead = Perplex(size * np.cos(angle), size * np.sin(angle))
    tiny = PerplexPolyN.from_terms(1, [((power,), lead), *terms])
    probe = int(rng.integers(1, 2**31))
    want = local_triviality_check(f, alg, seed=probe).to_dict()
    assert local_triviality_check(tiny, alg, seed=probe).to_dict() == want
    targets = [Perplex(0.0, 0.0)] + random_elements(rng, 3, 0.05)
    assert _solutions(tiny, alg, targets) == _solutions(f, alg, targets)
