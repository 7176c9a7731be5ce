"""Tests for sparse polynomial systems and the total-degree homotopy.

Jacobians are checked against central finite differences; polynomial values
against an independently written per-term evaluator and frozen hand values.
"""
from __future__ import annotations

import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from pierihom.polysys import (
    Homotopy,
    PolySystem,
    Term,
    start_roots,
    system_from_json,
    system_to_json,
    total_degree_start,
)


def naive_eval(system: PolySystem, x) -> list[complex]:
    """Evaluate term by term with plain Python complex arithmetic."""
    values = []
    for poly in system.polys:
        acc = 0j
        for term in poly:
            prod = complex(term.coeff)
            for xj, ej in zip(x, term.exponents):
                for _ in range(ej):
                    prod *= complex(xj)
            acc += prod
        values.append(acc)
    return values


def fd_jacobian(fun, x, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a vector function at a complex point."""
    x = np.asarray(x, dtype=complex)
    cols = []
    for j in range(len(x)):
        step = np.zeros(len(x), dtype=complex)
        step[j] = h
        cols.append((fun(x + step) - fun(x - step)) / (2 * h))
    return np.stack(cols, axis=1)


def random_system(rng: np.random.Generator, nvars: int, npolys: int,
                  max_deg: int = 3, terms: int = 5) -> PolySystem:
    polys = []
    for _ in range(npolys):
        poly = []
        for _ in range(terms):
            exps = tuple(int(e) for e in rng.integers(0, max_deg + 1, nvars))
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            poly.append(Term(coeff, exps))
        polys.append(poly)
    return PolySystem(nvars, polys)


def x_squared_minus(c: float) -> PolySystem:
    return PolySystem(1, [[Term(1.0, (2,)), Term(-c, (0,))]])


def test_evaluate_frozen_values() -> None:
    f = x_squared_minus(1.0)
    assert f.evaluate([1.0])[0] == pytest.approx(0.0)
    assert f.evaluate([2.0])[0] == pytest.approx(3.0)
    assert f.evaluate([1j])[0] == pytest.approx(-2.0)


def test_evaluate_matches_naive_oracle() -> None:
    rng = np.random.default_rng(515)
    for _ in range(10):
        f = random_system(rng, 3, 2)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        got = f.evaluate(x)
        want = naive_eval(f, x)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_evaluate_rejects_wrong_arity() -> None:
    f = x_squared_minus(1.0)
    with pytest.raises(ValueError):
        f.evaluate([1.0, 2.0])
    with pytest.raises(ValueError):
        f.evaluate(1.0)
    with pytest.raises(ValueError, match="nvars must be positive"):
        PolySystem(0, [[Term(1.0, ())]])


def test_jacobian_frozen_values() -> None:
    f = x_squared_minus(1.0)
    assert f.jacobian([3.0])[0, 0] == pytest.approx(6.0)
    # linear system: jacobian equals the coefficient matrix everywhere
    a = [[2.0, 1j], [0.5, -3.0]]
    linear = PolySystem(
        2,
        [
            [Term(a[0][0], (1, 0)), Term(a[0][1], (0, 1))],
            [Term(a[1][0], (1, 0)), Term(a[1][1], (0, 1)), Term(7.0, (0, 0))],
        ],
    )
    for x in ([0.0, 0.0], [1.0, -2.0], [3j, 1.0]):
        assert np.allclose(linear.jacobian(x), a)


def test_jacobian_at_zero_with_unit_exponent() -> None:
    # d/dx of x*y at (0, 0) must be (y, x) = (0, 0), not NaN
    f = PolySystem(2, [[Term(1.0, (1, 1))]])
    assert np.allclose(f.jacobian([0.0, 0.0]), [[0.0, 0.0]])


def test_jacobian_matches_central_differences_20_seeds() -> None:
    rng = np.random.default_rng(606)
    for trial in range(20):
        nvars = int(rng.integers(1, 4))
        f = random_system(rng, nvars, nvars)
        x = rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)
        got = f.jacobian(x)
        want = fd_jacobian(f.evaluate, x)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-6)


def check_against_oracles(f: PolySystem, x) -> None:
    """evaluate_jacobian against naive_eval and central differences."""
    values, jac = f.evaluate_jacobian(x)
    assert values.shape == (len(f.polys),)
    assert jac.shape == (len(f.polys), f.nvars)
    assert np.allclose(values, naive_eval(f, x), rtol=1e-12, atol=1e-12)
    assert np.allclose(jac, fd_jacobian(f.evaluate, x), rtol=1e-6, atol=1e-6)
    assert np.array_equal(f.evaluate(x), values)
    assert np.array_equal(f.jacobian(x), jac)


def test_evaluator_edge_cases_match_oracles() -> None:
    x = np.array([0.7 - 0.2j, -1.3 + 0.4j])
    # repeated exponent tuples within one polynomial are summed
    repeated = PolySystem(2, [
        [Term(1.0, (2, 1)), Term(2.5j, (2, 1)), Term(-1.0, (0, 0)), Term(3.0, (2, 1))],
        [Term(1.0, (0, 3)), Term(-1.0, (0, 3)), Term(4.0, (1, 0))],
    ])
    check_against_oracles(repeated, x)
    # zero coefficients, and a polynomial with no terms
    sparse = PolySystem(2, [[Term(0.0, (3, 0)), Term(2.0, (1, 1))], [],
                            [Term(0.0, (0, 0))]])
    check_against_oracles(sparse, x)
    assert np.array_equal(sparse.evaluate_jacobian(x)[0][1:], [0.0, 0.0])
    # an all-constant system: values are the constants, the Jacobian is 0
    constant = PolySystem(2, [[Term(3.0, (0, 0))], [Term(-1j, (0, 0))]])
    values, jac = constant.evaluate_jacobian(x)
    assert np.array_equal(values, [3.0, -1j])
    assert np.array_equal(jac, np.zeros((2, 2)))
    check_against_oracles(constant, x)


def test_evaluator_at_zero_coordinates() -> None:
    # 0^0 = 1 and 0^(e-1) = 0 for e > 1, 1 for e = 1
    f = PolySystem(3, [
        [Term(2.0, (1, 2, 0)), Term(1j, (0, 0, 0)), Term(-1.0, (0, 1, 3))],
        [Term(1.0, (2, 0, 1)), Term(0.5, (1, 0, 0)), Term(3.0, (0, 0, 1))],
        [Term(1.0, (1, 1, 1)), Term(-2.0, (0, 2, 0))],
    ])
    for x in ([0.0, 0.0, 0.0], [0.0, 1.5 - 2j, 0.0], [0.3j, 0.0, -1.1]):
        check_against_oracles(f, x)
    values, jac = f.evaluate_jacobian([0.0, 0.0, 0.0])
    assert np.array_equal(values, [1j, 0.0, 0.0])
    assert np.array_equal(jac, [[0.0, 0.0, 0.0], [0.5, 0.0, 3.0], [0.0, 0.0, 0.0]])


def test_polysystem_is_frozen() -> None:
    f = PolySystem(2, [[Term(1.0, (2, 0)), Term(-4.0, (0, 0))],
                       [Term(1.0, (0, 2)), Term(-9.0, (0, 0))]])
    assert isinstance(f.polys, tuple)
    assert all(isinstance(poly, tuple) for poly in f.polys)
    before = f.evaluate([1.0, 2.0])
    with pytest.raises(FrozenInstanceError):
        f.polys = [[Term(1.0, (1, 0))]]
    with pytest.raises(FrozenInstanceError):
        f.nvars = 3
    assert np.array_equal(f.evaluate([1.0, 2.0]), before)
    back = system_from_json(system_to_json(f))
    assert back == f
    assert len(back.polys) == back.nvars == 2


def test_degrees_max_total_degree() -> None:
    f = PolySystem(2, [[Term(1.0, (2, 1)), Term(2.0, (0, 1))], [Term(1.0, (0, 0))]])
    assert f.degrees() == [3, 0]
    # zero-coefficient terms do not count toward the degree
    g = PolySystem(1, [[Term(0.0, (5,)), Term(1.0, (1,))]])
    assert g.degrees() == [1]


def test_homotopy_endpoints_and_frozen_midpoint() -> None:
    f = x_squared_minus(4.0)
    g = x_squared_minus(1.0)
    h = Homotopy(target=f, start=g, gamma=1.0)
    assert h.eval([1.0], 0.0)[0] == pytest.approx(g.evaluate([1.0])[0])
    assert h.eval([5.0], 1.0)[0] == pytest.approx(f.evaluate([5.0])[0])
    # hand value: (1-t)*(x^2-1) + t*(x^2-4) at x=1, t=1/3 -> 0 + (1/3)*(-3) = -1
    assert h.eval([1.0], 1.0 / 3.0)[0] == pytest.approx(-1.0)


def test_homotopy_dt_is_f_minus_gamma_g() -> None:
    rng = np.random.default_rng(42)
    f = random_system(rng, 2, 2)
    g = random_system(rng, 2, 2)
    gamma = np.exp(1j * 0.7)
    h = Homotopy(target=f, start=g, gamma=gamma)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    want = np.asarray(f.evaluate(x)) - gamma * np.asarray(g.evaluate(x))
    assert np.allclose(h.dt(x, 0.4), want)
    # and against finite differences in t
    delta = 1e-7
    fd = (h.eval(x, 0.4 + delta) - h.eval(x, 0.4 - delta)) / (2 * delta)
    assert np.allclose(h.dt(x, 0.4), fd, rtol=1e-6, atol=1e-6)


def test_homotopy_jacobian_matches_central_differences() -> None:
    rng = np.random.default_rng(43)
    f = random_system(rng, 2, 2)
    g = random_system(rng, 2, 2)
    h = Homotopy(target=f, start=g, gamma=np.exp(0.3j))
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for t in (0.0, 0.25, 1.0):
        want = fd_jacobian(lambda y: h.eval(y, t), x)
        assert np.allclose(h.jacobian_x(x, t), want, rtol=1e-6, atol=1e-6)


def test_homotopy_fused_calls_match_separate_ones() -> None:
    # the single-value calls are parts of the fused ones, bit for bit
    rng = np.random.default_rng(44)
    f = random_system(rng, 3, 3)
    g = random_system(rng, 3, 3)
    h = Homotopy(target=f, start=g, gamma=np.exp(1.1j))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for t in (0.0, 0.3, 1.0):
        values, jac = h.eval_jacobian(x, t)
        assert np.array_equal(values, h.eval(x, t))
        assert np.array_equal(jac, h.jacobian_x(x, t))
        jac, h_t = h.jacobian_dt(x, t)
        assert np.array_equal(jac, h.jacobian_x(x, t))
        assert np.array_equal(h_t, h.dt(x, t))


def test_stacked_points_match_single_points_bitwise() -> None:
    # a point's values do not depend on the other points of its stack
    rng = np.random.default_rng(45)
    f = random_system(rng, 3, 3)
    g = random_system(rng, 3, 3)
    h = Homotopy(target=f, start=g, gamma=np.exp(0.9j))
    xs = rng.standard_normal((2, 5, 3)) + 1j * rng.standard_normal((2, 5, 3))
    ts = rng.uniform(size=(2, 5))
    values, jac = f.evaluate_jacobian(xs)
    assert values.shape == (2, 5, 3) and jac.shape == (2, 5, 3, 3)
    for call in (h.eval_jacobian, h.jacobian_dt):
        stacked = call(xs, ts)
        for i in range(2):
            for k in range(5):
                for whole, one in zip(stacked, call(xs[i, k], ts[i, k])):
                    assert np.array_equal(whole[i, k], one)
    for i in range(2):
        for k in range(5):
            assert np.array_equal(values[i, k], f.evaluate(xs[i, k]))
            assert np.array_equal(jac[i, k], f.jacobian(xs[i, k]))
    # one table for start and target gives the convex combination
    x, t = xs[0, 0], ts[0, 0]
    want = h.gamma * (1 - t) * g.evaluate(x) + t * f.evaluate(x)
    assert np.allclose(h.eval(x, t), want, rtol=1e-12, atol=1e-12)
    # a t outside [0, 1] anywhere in the stack is rejected
    with pytest.raises(ValueError):
        h.eval(xs[0], np.append(ts[0, :4], 1.5))


def test_homotopy_is_frozen() -> None:
    h = Homotopy(x_squared_minus(4.0), x_squared_minus(1.0), 1.0)
    before = h.eval([1.5], 0.5)
    with pytest.raises(FrozenInstanceError):
        h.gamma = -1.0
    with pytest.raises(FrozenInstanceError):
        h.target = x_squared_minus(9.0)
    assert np.array_equal(h.eval([1.5], 0.5), before)


def test_homotopy_rejects_t_outside_unit_interval() -> None:
    h = Homotopy(x_squared_minus(4.0), x_squared_minus(1.0), 1.0)
    for t in (-0.1, 1.1):
        for method in (h.eval, h.jacobian_x, h.dt, h.eval_jacobian, h.jacobian_dt):
            with pytest.raises(ValueError):
                method([1.0], t)


def test_homotopy_requires_unit_modulus_gamma_and_equal_arity() -> None:
    with pytest.raises(ValueError):
        Homotopy(x_squared_minus(4.0), x_squared_minus(1.0), 2.0)
    with pytest.raises(ValueError):
        Homotopy(x_squared_minus(4.0), PolySystem(2, [[Term(1.0, (1, 0))]]), 1.0)


def test_start_roots_unit_constants_give_sign_grid() -> None:
    starts = start_roots([2, 2], [1.0, 1.0])
    got = sorted((round(s[0].real), round(s[1].real)) for s in starts)
    assert got == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert all(abs(s[0].imag) < 1e-12 and abs(s[1].imag) < 1e-12 for s in starts)


def test_total_degree_start_structure_and_residuals() -> None:
    rng = np.random.default_rng(77)
    f = random_system(rng, 2, 2, max_deg=2)
    g, starts = total_degree_start(f, rng)
    d = f.degrees()
    assert len(starts) == d[0] * d[1]
    # every start satisfies its start equation essentially exactly
    for s in starts:
        assert np.linalg.norm(g.evaluate(s)) <= 1e-12
    # starts are pairwise distinct
    for i in range(len(starts)):
        for j in range(i + 1, len(starts)):
            assert np.linalg.norm(starts[i] - starts[j]) > 1e-6
    # start system is c_i * x_i^{d_i} - 1 with unit-modulus constants
    for i, poly in enumerate(g.polys):
        assert len(poly) == 2
        lead, one = poly
        assert abs(abs(lead.coeff) - 1.0) <= 1e-12
        assert lead.exponents == tuple(d[i] if j == i else 0 for j in range(2))
        assert one.coeff == pytest.approx(-1.0)


def test_total_degree_start_rejects_zero_polynomial() -> None:
    zero = PolySystem(1, [[Term(0.0, (3,))]])
    with pytest.raises(ValueError):
        total_degree_start(zero, np.random.default_rng(1))
    empty = PolySystem(1, [[]])
    with pytest.raises(ValueError):
        total_degree_start(empty, np.random.default_rng(1))
    # a nonzero constant has no root, so no start system fits it
    constant = PolySystem(2, [[Term(1.0, (2, 0)), Term(-4.0, (0, 0))],
                              [Term(3.0, (0, 0))]])
    with pytest.raises(ValueError, match="polynomial 1"):
        total_degree_start(constant, np.random.default_rng(1))


def test_json_round_trip_exact() -> None:
    rng = np.random.default_rng(88)
    f = random_system(rng, 3, 2)
    obj = system_to_json(f)
    back = system_from_json(obj)
    assert back.nvars == f.nvars
    for p_new, p_old in zip(back.polys, f.polys):
        for t_new, t_old in zip(p_new, p_old):
            assert t_new.coeff == t_old.coeff  # bitwise: repr round-trip
            assert t_new.exponents == t_old.exponents


def test_json_of_known_system_shape() -> None:
    f = x_squared_minus(4.0)
    obj = system_to_json(f)
    assert obj["nvars"] == 1
    assert obj["polys"] == [
        [{"re": 1.0, "im": 0.0, "exp": [2]}, {"re": -4.0, "im": 0.0, "exp": [0]}]
    ]


def test_json_malformed_raises_value_error() -> None:
    with pytest.raises(ValueError):
        system_from_json({"polys": []})  # missing nvars
    with pytest.raises(ValueError):
        system_from_json({"nvars": 2, "polys": [[{"re": 1.0, "im": 0.0, "exp": [1]}]]})
    with pytest.raises(ValueError):
        system_from_json({"nvars": 1, "polys": [[{"re": "x", "im": 0.0, "exp": [1]}]]})


def test_json_rejects_non_finite_coefficients() -> None:
    # json.loads reads NaN and Infinity tokens, and 1e400 overflows to inf
    term = '{"re": %s, "im": %s, "exp": [1]}'
    for pair in (("NaN", "0"), ("1", "Infinity"), ("-Infinity", "0"), ("1", "1e400")):
        obj = json.loads('{"nvars": 1, "polys": [[%s]]}' % (term % pair))
        with pytest.raises(ValueError, match="coefficient must be finite"):
            system_from_json(obj)


def test_json_requires_number_coefficients() -> None:
    # float() would read true as 1.0 and "2.5" as 2.5: a different system
    good = system_from_json({"nvars": 1, "polys": [[{"re": 1, "im": 2.5, "exp": [1]}]]})
    assert good.polys[0][0].coeff == 1 + 2.5j
    for re, im in ((True, 0.0), (1.0, "2.5"), (True, "2.5"), (None, 0.0), ([1.0], 0.0)):
        obj = {"nvars": 1, "polys": [[{"re": re, "im": im, "exp": [1]}]]}
        with pytest.raises(ValueError, match="must be a number"):
            system_from_json(obj)
    # a JSON integer beyond the float range is malformed, not a crash
    huge = json.loads('{"nvars": 1, "polys": [[{"re": 1%s, "im": 0, "exp": [1]}]]}' % ("0" * 400))
    with pytest.raises(ValueError):
        system_from_json(huge)


def test_json_requires_integer_nvars_and_exponents() -> None:
    # int() would read these as a different system without a word
    term = {"re": 1.0, "im": 0.0, "exp": [2, 0]}
    good = system_from_json({"nvars": 2, "polys": [[term]]})
    assert good.polys[0][0].exponents == (2, 0)
    for exp in ([2.5, 0], [-0.5, 0], [True, 0], [2.0, 0], ["2", 0]):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            system_from_json({"nvars": 2, "polys": [[dict(term, exp=exp)]]})
    for nvars in (2.9, 2.0, True, "2"):
        with pytest.raises(ValueError, match="nvars must be an integer"):
            system_from_json({"nvars": nvars, "polys": [[term]]})
