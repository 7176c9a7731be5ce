"""Sparse multivariate polynomial systems over the complex numbers.

Supports the generic continuation pipeline: term-list systems, the convex
linear homotopy h(x, t) = gamma*(1-t)*g(x) + t*f(x), and total-degree
start systems whose roots-of-unity solutions are written down directly.

A PolySystem compiles its terms once, at construction, into a table of
distinct monomials, their partial derivatives by exponent
differentiation, and a coefficient matrix.  ``evaluate_jacobian`` then
gives values and Jacobian in one vectorized pass, at one point or at a
stack of points.  A Homotopy compiles g and f into one such table, so
its fused ``eval_jacobian`` and ``jacobian_dt`` evaluate both in one pass,
and they take a stack of points with one t per point, which is what
``tracker.track_paths`` passes.  A point's values do not depend on the
other points of its stack.
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


def _points(x, nvars: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0 or x.shape[-1] != nvars:
        raise ValueError(f"expected points of length {nvars}, got shape {x.shape}")
    return x


@dataclass(frozen=True, eq=False)
class _Table:
    """Polynomials compiled for evaluation at a stack of points.

    Each distinct exponent tuple e_k is one monomial column, repeated
    exponents in a polynomial summed.  Beside monomial k sit its nvars
    partials e_kj * x^(e_k - u_j), the exponent clipped at 0 where
    e_kj = 0.  ``coeffs[i, c, k]`` is polynomial i's coefficient of
    monomial k for c = 0 and that times e_k(c-1) for c > 0, so one
    contraction over k with the monomials gives values and Jacobian.
    """

    coeffs: np.ndarray  # (npolys, 1 + nvars, K)
    index: np.ndarray  # (1 + nvars, K, nvars): positions in the flat power table
    max_exp: int

    @classmethod
    def compile(cls, nvars: int, polys) -> _Table:
        column: dict[tuple[int, ...], int] = {}
        for poly in polys:
            for term in poly:
                if len(term.exponents) != nvars:
                    raise ValueError(f"term {term} does not have {nvars} exponents")
                if any(e < 0 for e in term.exponents):
                    raise ValueError(f"negative exponent in {term}")
                column.setdefault(tuple(term.exponents), len(column))
        coeffs = np.zeros((len(polys), len(column)), dtype=np.complex128)
        for i, poly in enumerate(polys):
            for term in poly:
                coeffs[i, column[tuple(term.exponents)]] += term.coeff
        exps = np.array(list(column), dtype=np.intp).reshape(len(column), nvars)
        shifted = np.maximum(exps[None, :, :] - np.eye(nvars, dtype=np.intp)[:, None, :], 0)
        rows = np.concatenate([exps[None], shifted])  # (1 + nvars, K, nvars)
        weights = np.concatenate([np.ones((1, len(column))), exps.T])
        return cls(
            coeffs=coeffs[:, None, :] * weights,
            index=rows * nvars + np.arange(nvars),
            max_exp=int(exps.max(initial=0)),
        )

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Values and partials (..., npolys, 1 + nvars) at points x (..., nvars).

        Every step is elementwise in the leading axes, takes products over
        the variables one at a time or sums over the monomials, the last
        axis, in a fixed order, so a point's result does not depend on the
        other points in the stack.  Powers come from repeated products,
        so 0^0 is exactly 1 and no complex pow is taken.
        """
        lead, nvars = x.shape[:-1], x.shape[-1]
        powers = np.empty(lead + (self.max_exp + 1, nvars), dtype=np.complex128)
        powers[..., 0, :] = 1.0
        for d in range(1, self.max_exp + 1):
            powers[..., d, :] = powers[..., d - 1, :] * x
        factors = np.take(powers.reshape(lead + (-1,)), self.index, axis=-1)
        monomials = factors[..., 0]
        for j in range(1, nvars):
            monomials = monomials * factors[..., j]
        return np.einsum("ick,...ck->...ic", self.coeffs, monomials)


@dataclass(frozen=True)
class PolySystem:
    """A tuple of polynomials, each a tuple of Terms, in nvars variables.

    Frozen, so the evaluation table built from ``polys`` at construction
    cannot go stale; ``polys`` may be given as any nested sequence.
    """

    nvars: int
    polys: tuple[tuple[Term, ...], ...]

    def __post_init__(self) -> None:
        if self.nvars < 1:
            raise ValueError(f"nvars must be positive, got {self.nvars}")
        object.__setattr__(self, "polys", tuple(tuple(poly) for poly in self.polys))
        object.__setattr__(self, "_table", _Table.compile(self.nvars, self.polys))

    def evaluate_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Values (..., npolys) and Jacobian (..., npolys, nvars) in one pass.

        x is one point (nvars,) or a stack of them (..., nvars).
        """
        out = self._table.evaluate(_points(x, self.nvars))
        return out[..., 0], out[..., 1:]

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


@dataclass(frozen=True)
class Homotopy:
    """h(x, t) = gamma*(1-t)*start(x) + t*target(x), tracked for t in [0, 1].

    Frozen, and compiled at construction into one table whose rows are the
    start polynomials and then the target ones, so each call evaluates
    both systems in one pass.  x is one point (nvars,) or a stack
    (..., nvars), and t one value or one per point (...,).
    """

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
        table = _Table.compile(self.nvars, self.start.polys + self.target.polys)
        object.__setattr__(self, "_table", table)

    @property
    def nvars(self) -> int:
        return self.target.nvars

    def _blend(self, x, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(h, g, f), each (..., npolys, 1 + nvars): values, then partials."""
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ValueError(f"continuation parameter t={t} outside [0, 1]")
        out = self._table.evaluate(_points(x, self.nvars))
        npolys = len(self.start.polys)
        g, f = out[..., :npolys, :], out[..., npolys:, :]
        t = t[..., None, None]
        return self.gamma * (1.0 - t) * g + t * f, g, f

    def eval(self, x, t) -> np.ndarray:
        return self.eval_jacobian(x, t)[0]

    def jacobian_x(self, x, t) -> np.ndarray:
        return self.eval_jacobian(x, t)[1]

    def dt(self, x, t) -> np.ndarray:
        return self.jacobian_dt(x, t)[1]

    def eval_jacobian(self, x, t) -> tuple[np.ndarray, np.ndarray]:
        h = self._blend(x, t)[0]
        return h[..., 0], h[..., 1:]

    def jacobian_dt(self, x, t) -> tuple[np.ndarray, np.ndarray]:
        h, g, f = self._blend(x, t)
        return h[..., 1:], f[..., 0] - self.gamma * g[..., 0]


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


def _json_float(value: Any, name: str) -> float:
    # float() would read true as 1.0 and "2.5" as 2.5
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def system_from_json(obj: Any) -> PolySystem:
    try:
        nvars = _json_int(obj["nvars"], "nvars")
        polys = []
        for poly in obj["polys"]:
            terms = []
            for t in poly:
                coeff = complex(_json_float(t["re"], "re"), _json_float(t["im"], "im"))
                # json reads NaN, Infinity and 1e400 as non-finite floats
                if not np.isfinite(coeff):
                    raise ValueError(f"coefficient must be finite, got {coeff}")
                exps = tuple(_json_int(e, "exponent") for e in t["exp"])
                terms.append(Term(coeff, exps))
            polys.append(terms)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed polynomial system object: {exc}") from exc
    return PolySystem(nvars, polys)  # arity check happens here
