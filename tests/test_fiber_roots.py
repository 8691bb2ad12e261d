"""Known-root properties of the one-variable fiber solver.

A random polynomial f and a regular point x0 give the target f(x0), so
x0 must be among the solutions that ``fiber_solve`` reports.  The check
uses the algebra's own product, not the model algebra the solver works
in.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perplex.algebra import Perplex, random_elements
from perplex.fibration import fiber_solve, local_triviality_check
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
