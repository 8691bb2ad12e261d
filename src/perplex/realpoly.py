"""Sparse multivariate real polynomials with vectorized evaluation.

Just enough machinery for symbolic partial derivatives, products, and
batch evaluation over numpy point arrays.  Terms are exponent-tuple ->
coefficient maps; exact zeros are pruned, tiny coefficients are kept
(tolerance decisions belong to the callers, next to their scales).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RealPoly:
    nvars: int
    terms: dict[tuple[int, ...], float] = field(default_factory=dict)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "RealPoly":
        return RealPoly(nvars, {})

    @staticmethod
    def const(nvars: int, c: float) -> "RealPoly":
        c = float(c)
        if c == 0.0:
            return RealPoly.zero(nvars)
        return RealPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, i: int) -> "RealPoly":
        exp = [0] * nvars
        exp[i] = 1
        return RealPoly(nvars, {tuple(exp): 1.0})

    @staticmethod
    def from_terms(nvars: int, items) -> "RealPoly":
        p = RealPoly.zero(nvars)
        for exp, c in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} does not have {nvars} entries")
            if any(e < 0 for e in exp):
                raise ValueError(f"exponent {exp} has a negative entry")
            c = float(c)
            if c != 0.0:
                p.terms[exp] = p.terms.get(exp, 0.0) + c
        p._prune()
        return p

    def _prune(self) -> None:
        dead = [e for e, c in self.terms.items() if c == 0.0]
        for e in dead:
            del self.terms[e]

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "RealPoly") -> "RealPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        p = RealPoly(self.nvars, out)
        p._prune()
        return p

    def __sub__(self, other: "RealPoly") -> "RealPoly":
        return self + (other * -1.0)

    def __neg__(self) -> "RealPoly":
        return self * -1.0

    def __mul__(self, other):
        if isinstance(other, RealPoly):
            out: dict[tuple[int, ...], float] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(i + j for i, j in zip(e1, e2))
                    out[e] = out.get(e, 0.0) + c1 * c2
            p = RealPoly(self.nvars, out)
            p._prune()
            return p
        c = float(other)
        if c == 0.0:
            return RealPoly.zero(self.nvars)
        return RealPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    __rmul__ = __mul__

    def pderiv(self, i: int) -> "RealPoly":
        out: dict[tuple[int, ...], float] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = out.get(tuple(d), 0.0) + c * e[i]
        return RealPoly(self.nvars, out)

    # -- queries -----------------------------------------------------

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, nvars) array of points; returns shape (N,)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        n = points.shape[0]
        acc = np.zeros(n)
        for e, c in self.terms.items():
            term = np.full(n, c)
            for i, k in enumerate(e):
                if k == 1:
                    term = term * points[:, i]
                elif k > 1:
                    term = term * points[:, i] ** k
            acc += term
        return acc

    def eval_one(self, point) -> float:
        return float(self.eval_many(np.asarray(point, dtype=float)[None, :])[0])

    def max_coeff(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> float:
        return self.terms.get((0,) * self.nvars, 0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_coeff() <= tol

    # -- serialization -----------------------------------------------

    def to_term_list(self) -> list[dict]:
        return [
            {"exp": list(e), "c": self.terms[e]}
            for e in sorted(self.terms.keys())
        ]

    @staticmethod
    def from_term_list(nvars: int, items: list[dict]) -> "RealPoly":
        return RealPoly.from_terms(nvars, ((t["exp"], t["c"]) for t in items))
