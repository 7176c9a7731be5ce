"""Sparse multivariate polynomial systems over the complex numbers.

Supports the generic continuation pipeline: term-list systems, the convex
linear homotopy h(x, t) = gamma*(1-t)*g(x) + t*f(x), and total-degree
start systems whose roots-of-unity solutions are written down directly.

A PolySystem compiles its terms once, at construction, into a table of
distinct monomials, their partial derivatives by exponent
differentiation, and a coefficient matrix.  ``evaluate_jacobian`` then
gives values and Jacobian in one vectorized pass, and the homotopy's
fused ``eval_jacobian`` and ``jacobian_dt`` evaluate each of g and f once
per call.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class Term:
    """One monomial: coeff * prod_j x_j**exponents[j]."""

    coeff: complex
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class PolySystem:
    """A tuple of polynomials, each a tuple of Terms, in nvars variables.

    Frozen, so the evaluation table built from ``polys`` at construction
    cannot go stale; ``polys`` may be given as any nested sequence.
    """

    nvars: int
    polys: tuple[tuple[Term, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "polys", tuple(tuple(poly) for poly in self.polys))
        # The evaluation table.  Each distinct exponent tuple e_k is one
        # monomial column of the coefficient matrix, repeated exponents in a
        # polynomial summed.  Beside monomial k sit its nvars partials
        # e_kj * x^(e_k - u_j), the exponent clipped at 0 where e_kj = 0.
        column: dict[tuple[int, ...], int] = {}
        for poly in self.polys:
            for term in poly:
                if len(term.exponents) != self.nvars:
                    raise ValueError(
                        f"term {term} does not have {self.nvars} exponents"
                    )
                if any(e < 0 for e in term.exponents):
                    raise ValueError(f"negative exponent in {term}")
                column.setdefault(tuple(term.exponents), len(column))
        coeffs = np.zeros((len(self.polys), len(column)), dtype=np.complex128)
        for i, poly in enumerate(self.polys):
            for term in poly:
                coeffs[i, column[tuple(term.exponents)]] += term.coeff
        exps = np.array(list(column), dtype=np.intp).reshape(len(column), self.nvars)
        shifted = np.maximum(exps[:, None, :] - np.eye(self.nvars, dtype=np.intp), 0)
        table = {
            "_coeffs": coeffs,
            "_rows": np.concatenate([exps[:, None, :], shifted], axis=1),
            "_weights": np.concatenate([np.ones((len(column), 1)), exps], axis=1),
            "_max_exp": int(exps.max(initial=0)),
        }
        for name, value in table.items():
            object.__setattr__(self, name, value)

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.nvars,):
            raise ValueError(f"expected point of length {self.nvars}, got {x.shape}")
        return x

    def evaluate_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Values (npolys,) and Jacobian (npolys, nvars) at x in one pass.

        Powers x_j^d come from cumulative products, so 0^0 is exactly 1
        and no complex pow is taken.
        """
        x = self._check_point(x)
        powers = np.ones((self._max_exp + 1, self.nvars), dtype=np.complex128)
        powers[1:] = x
        powers = np.cumprod(powers, axis=0)
        terms = self._weights * np.prod(powers[self._rows, np.arange(self.nvars)], axis=2)
        out = self._coeffs @ terms
        return out[:, 0], out[:, 1:]

    def evaluate(self, x) -> np.ndarray:
        return self.evaluate_jacobian(x)[0]

    def jacobian(self, x) -> np.ndarray:
        return self.evaluate_jacobian(x)[1]

    def degrees(self) -> list[int]:
        """Max total degree per polynomial; zero-coefficient terms ignored."""
        out = []
        for poly in self.polys:
            degs = [sum(t.exponents) for t in poly if t.coeff != 0]
            out.append(max(degs) if degs else 0)
        return out

    def is_zero(self, i: int) -> bool:
        return all(t.coeff == 0 for t in self.polys[i])


@dataclass
class Homotopy:
    """h(x, t) = gamma*(1-t)*start(x) + t*target(x), tracked for t in [0, 1]."""

    target: PolySystem
    start: PolySystem
    gamma: complex

    def __post_init__(self) -> None:
        if self.target.nvars != self.start.nvars:
            raise ValueError("start and target systems must share variables")
        if len(self.target.polys) != len(self.start.polys):
            raise ValueError("start and target systems must have equal size")
        if abs(abs(self.gamma) - 1.0) > 1e-9:
            raise ValueError(f"gamma must lie on the unit circle, got {self.gamma!r}")

    @property
    def nvars(self) -> int:
        return self.target.nvars

    @staticmethod
    def _check_t(t: float) -> None:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"continuation parameter t={t} outside [0, 1]")

    def eval(self, x, t: float) -> np.ndarray:
        return self.eval_jacobian(x, t)[0]

    def jacobian_x(self, x, t: float) -> np.ndarray:
        return self.eval_jacobian(x, t)[1]

    def dt(self, x, t: float) -> np.ndarray:
        return self.jacobian_dt(x, t)[1]

    def eval_jacobian(self, x, t: float) -> tuple[np.ndarray, np.ndarray]:
        self._check_t(t)
        g, g_x = self.start.evaluate_jacobian(x)
        f, f_x = self.target.evaluate_jacobian(x)
        scale = self.gamma * (1.0 - t)
        return scale * g + t * f, scale * g_x + t * f_x

    def jacobian_dt(self, x, t: float) -> tuple[np.ndarray, np.ndarray]:
        self._check_t(t)
        g, g_x = self.start.evaluate_jacobian(x)
        f, f_x = self.target.evaluate_jacobian(x)
        return self.gamma * (1.0 - t) * g_x + t * f_x, f - self.gamma * g


def start_roots(degrees: list[int], constants: list[complex]) -> list[np.ndarray]:
    """All solutions of { c_i * x_i^{d_i} = 1 }: a roots-of-unity grid."""
    per_var: list[list[complex]] = []
    for d, c in zip(degrees, constants):
        base = (1.0 / complex(c)) ** (1.0 / d)
        per_var.append([base * np.exp(2j * np.pi * k / d) for k in range(d)])
    return [np.array(combo, dtype=np.complex128)
            for combo in itertools.product(*per_var)]


def total_degree_start(
    f: PolySystem, rng: np.random.Generator
) -> tuple[PolySystem, list[np.ndarray]]:
    """Build the total-degree start system for f and list its solutions.

    g_i = c_i * x_i^{d_i} - 1 with seeded unit-modulus constants c_i, where
    d_i is the max total degree of f_i.  Returns (g, starts) with
    prod(d_i) start points satisfying g to 1e-12.
    """
    degrees = f.degrees()
    for i in range(len(f.polys)):
        if f.is_zero(i):
            raise ValueError(f"polynomial {i} is identically zero")
        if degrees[i] == 0:
            raise ValueError(f"polynomial {i} is a nonzero constant: it has no root")
    constants = [np.exp(2j * np.pi * rng.uniform()) for _ in degrees]
    polys = []
    for i, (d, c) in enumerate(zip(degrees, constants)):
        lead_exp = tuple(d if j == i else 0 for j in range(f.nvars))
        polys.append([Term(c, lead_exp), Term(-1.0 + 0j, (0,) * f.nvars)])
    g = PolySystem(f.nvars, polys)
    starts = start_roots(degrees, constants)
    for s in starts:
        residual = float(np.linalg.norm(g.evaluate(s)))
        if residual > 1e-12:
            raise AssertionError(f"start residual {residual} exceeds 1e-12")
    return g, starts


def system_to_json(f: PolySystem) -> dict[str, Any]:
    return {
        "nvars": f.nvars,
        "polys": [
            [
                {"re": float(t.coeff.real), "im": float(t.coeff.imag),
                 "exp": list(t.exponents)}
                for t in poly
            ]
            for poly in f.polys
        ],
    }


def _json_int(value: Any, name: str) -> int:
    # int() would read 2.5 as 2 and true as 1: a different system, silently
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def system_from_json(obj: Any) -> PolySystem:
    try:
        nvars = _json_int(obj["nvars"], "nvars")
        polys = []
        for poly in obj["polys"]:
            terms = []
            for t in poly:
                coeff = complex(float(t["re"]), float(t["im"]))
                # json reads NaN, Infinity and 1e400 as non-finite floats
                if not np.isfinite(coeff):
                    raise ValueError(f"coefficient must be finite, got {coeff}")
                exps = tuple(_json_int(e, "exponent") for e in t["exp"])
                terms.append(Term(coeff, exps))
            polys.append(terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed polynomial system object: {exc}") from exc
    return PolySystem(nvars, polys)  # arity check happens here
