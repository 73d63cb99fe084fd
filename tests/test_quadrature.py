import math

import numpy as np
import pytest
from scipy.integrate import quad

from kerrcasimir.lifshitz_nonlinear import (_COUPLING_T, _COUPLING_W,
                                            _frequency_vectors,
                                            _kernel_vectors, _pair_quadrature)
from kerrcasimir import quadrature
from kerrcasimir.quadrature import (MIN_LEVEL, QuadratureResult, Temperature,
                                    clenshaw_curtis, double_matsubara_sum,
                                    integrate_2d, integrate_semi_infinite,
                                    matsubara_sum, semi_infinite_nodes)


def test_order_two_is_simpson():
    x, w = clenshaw_curtis(2)
    assert np.allclose(x, [0.0, 0.5, 1.0], atol=0)
    assert np.allclose(w, [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], atol=1e-15)


@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_polynomial_exactness(m):
    # degree < m integrated exactly on [0, 1]
    x, w = clenshaw_curtis(m)
    for k in range(m):
        assert abs((w * x ** k).sum() - 1.0 / (k + 1)) < 1e-13


def test_weights_positive_and_normalized():
    for m in (2, 8, 64, 256):
        x, w = clenshaw_curtis(m)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-14
        assert np.all(np.diff(x) > 0)


def test_order_validation():
    for bad in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            clenshaw_curtis(bad)


def test_nesting_is_bitwise():
    for m in (8, 32, 128):
        x, _ = clenshaw_curtis(m)
        x2, _ = clenshaw_curtis(2 * m)
        assert np.array_equal(x, x2[::2])
        xs, _ = semi_infinite_nodes(m, scale=2.5)
        xs2, _ = semi_infinite_nodes(2 * m, scale=2.5)
        assert np.array_equal(xs, xs2[::2])


def test_semi_infinite_drops_endpoint():
    x, w = semi_infinite_nodes(16, scale=1.0)
    assert len(x) == 16 and len(w) == 16
    assert x[0] == 0.0
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))


def test_composite_rule_without_breaks_is_the_mapped_rule():
    # the rule x = scale*u/(1-u) on Clenshaw-Curtis nodes u, restated
    for m in (8, 64, 4096):
        for scale in (1.0, 2.5, 3.7e3):
            u, wu = clenshaw_curtis(m)
            u, wu = u[:-1], wu[:-1]
            x, w = semi_infinite_nodes(m, scale, breaks=())
            assert np.array_equal(x, scale * u / (1.0 - u))
            assert np.array_equal(w, wu * scale / (1.0 - u) ** 2)


def test_composite_rule_panels():
    breaks = (0.7, 2.0, 5.5)
    m, scale = 16, 1.5
    x, w = semi_infinite_nodes(m, scale, breaks)
    assert x.size == w.size == 4 * m
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    # every panel starts at its left edge; the tail keeps the mapped rule
    assert np.array_equal(x[m::m][:3], breaks)
    u, wu = clenshaw_curtis(m)
    assert np.array_equal(x[3 * m:], 5.5 + scale * u[:-1] / (1.0 - u[:-1]))
    # polynomials of degree <= m on [0, 5.5] are exact on the panels
    inner = x < 5.5
    # the tail's first node, 5.5, holds the last panel's end weight too
    head = np.append(w[inner], w[3 * m] - wu[0] * scale)
    nodes = np.append(x[inner], 5.5)
    for k in (0, 3, 16):
        assert abs(head @ nodes ** k - 5.5 ** (k + 1) / (k + 1)) \
            < 1e-13 * 5.5 ** (k + 1)
    for bad in ((1.0, 1.0), (-1.0,), (0.0,), (2.0, 1.0), (math.inf,)):
        with pytest.raises(ValueError):
            semi_infinite_nodes(m, scale, bad)


def test_composite_rule_nesting_is_bitwise_across_panels():
    breaks = (0.3, 1.0, 12.0, 400.0)
    for m in (8, 32, 512):
        x, _ = semi_infinite_nodes(m, 3.0, breaks)
        x2, _ = semi_infinite_nodes(2 * m, 3.0, breaks)
        assert np.array_equal(x, x2[::2])


@pytest.mark.parametrize("b", [0.7, 1.3, 2.5])
def test_breakpoint_restores_convergence_of_kinked_integrand(b):
    def f(x):
        return np.exp(-x) * np.abs(x - b)

    exact = b - 1.0 + 2.0 * math.exp(-b)
    split = integrate_semi_infinite(f, rel_tol=1e-13, breaks=(b,))
    assert split.converged and split.n_evals < 4096
    assert abs(split.value - exact) < 1e-12 * exact
    # one rule across the kink converges only algebraically: it reaches
    # the 4096-node cap first and is still off beyond 1e-12
    whole = integrate_semi_infinite(f, rel_tol=1e-13)
    assert not whole.converged and whole.n_evals == 4096
    assert abs(whole.value - exact) > 1e-12 * exact


def test_semi_infinite_against_closed_forms():
    for f, exact in [
        (lambda x: np.exp(-x), 1.0),
        (lambda x: x * x * np.exp(-x), 2.0),
        (lambda x: np.exp(-x * x), 0.5 * math.sqrt(math.pi)),
        (lambda x: x ** 3 * np.exp(-2.0 * x), 6.0 / 16.0),
    ]:
        res = integrate_semi_infinite(f, rel_tol=1e-12)
        assert res.converged
        assert abs(res.value - exact) < 1e-11 * abs(exact)


def test_semi_infinite_matches_scipy():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.0, 2.0)

        def f(x):
            return np.exp(-a * x) / (1.0 + b * x * x)

        res = integrate_semi_infinite(f, rel_tol=1e-11, scale=1.0 / a)
        oracle, err = quad(f, 0.0, np.inf)
        assert res.converged
        assert abs(res.value - oracle) < 1e-9 * abs(oracle) + 10 * err


def test_scale_invariance():
    f = lambda x: np.exp(-x)
    v1 = integrate_semi_infinite(f, rel_tol=1e-11, scale=1.0)
    v2 = integrate_semi_infinite(f, rel_tol=1e-11, scale=7.0)
    assert abs(v1.value - v2.value) < 1e-10


def test_result_fields():
    res = integrate_semi_infinite(lambda x: np.exp(-x), rel_tol=1e-9)
    assert isinstance(res, QuadratureResult)
    assert res.n_evals > 0
    assert res.error >= 0.0
    assert res.converged


def test_integrate_2d_separable():
    res = integrate_2d(lambda x, y: math.exp(-x - y), rel_tol=1e-10)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-9


def test_integrate_2d_polynomial_damped():
    # int x y exp(-x^2 - y^2) = 1/4
    res = integrate_2d(lambda x, y: x * y * math.exp(-x * x - y * y),
                       rel_tol=1e-10)
    assert res.converged
    assert abs(res.value - 0.25) < 1e-9


def _replay(level_total, rel_tol, max_level):
    """The refinement rule, restated: (m, total, change, converged)."""
    m, total, err = 8, level_total(8), math.inf
    while m < max_level:
        m *= 2
        new = level_total(m)
        err, total = abs(new - total), new
        if err <= rel_tol * abs(total):
            return m, total, err, True
    return m, total, err, False


def _check_contract(res, replay, n_evals):
    m, total, err, converged = replay
    assert res.converged == converged
    assert res.n_evals == n_evals(m)
    assert res.value == pytest.approx(total, rel=1e-14)
    assert res.error == pytest.approx(err, rel=1e-6, abs=1e-15 * abs(total))
    assert math.isfinite(res.error)


def test_refinement_contract_semi_infinite():
    def f(x):  # plain arithmetic: reused and fresh node values agree bitwise
        return 1.0 / (1.0 + x * x) ** 2

    def level(m):
        x, w = semi_infinite_nodes(m, 2.0)
        return float(w @ f(x))

    for tol, cap in ((1e-4, 4096), (1e-10, 4096), (1e-15, 16)):
        res = integrate_semi_infinite(f, rel_tol=tol, scale=2.0,
                                      max_level=cap)
        _check_contract(res, _replay(level, tol, cap), lambda m: m)
    assert not res.converged and res.n_evals == 16
    for m in (16, 32, 64):
        # a change of exactly rel_tol * |total| stops the refinement
        edge = abs(level(m) - level(m // 2)) / abs(level(m))
        assert integrate_semi_infinite(f, rel_tol=edge,
                                       scale=2.0).n_evals == m
    # with breakpoints every one of the 3 panels holds m nodes at level m
    breaks = (0.5, 3.0)

    def split_level(m):
        x, w = semi_infinite_nodes(m, 2.0, breaks)
        return float(w @ f(x))

    for tol in (1e-4, 1e-12):
        res = integrate_semi_infinite(f, rel_tol=tol, scale=2.0,
                                      breaks=breaks)
        _check_contract(res, _replay(split_level, tol, 4096),
                        lambda m: 3 * m)


def test_refinement_contract_2d():
    def f(x, y):
        return math.exp(-x - 2.0 * y) / (1.0 + x * y)

    def level(m):
        x, wx = semi_infinite_nodes(m, 1.0)
        y, wy = semi_infinite_nodes(m, 0.5)
        return float(wx @ np.array([[f(a, b) for b in y] for a in x]) @ wy)

    for tol, cap in ((1e-4, 256), (1e-9, 256), (1e-15, 16)):
        res = integrate_2d(f, rel_tol=tol, scale=(1.0, 0.5), max_level=cap)
        _check_contract(res, _replay(level, tol, cap), lambda m: m * m)
    assert not res.converged and res.n_evals == 256


def test_refinement_contract_pair_quadrature():
    # both momentum grids hold m nodes at level m: 2 * (8 + ... + m)
    x, xp = 0.3, 1.7

    def unprimed(y):
        a1, a2, _, _, k1 = _kernel_vectors(x, y, 2.0, 10.0)
        return a1, a2, k1

    def primed(y):
        return _kernel_vectors(xp, y, 2.5, 9.0)[2:]

    def level(m):
        y, wy = semi_infinite_nodes(m, 1.0)
        yp, wyp = semi_infinite_nodes(m, math.sqrt(xp))
        a1, a2, k1 = unprimed(y)
        b1, b2, k1p = primed(yp)
        cross = 1.0 / (k1[:, None] + k1p[None, :])
        return float((wy * a1) @ cross @ (wyp * b1)
                     + (wy * a2) @ cross @ (wyp * b2))

    for tol in (1e-4, 1e-9):
        res = _pair_quadrature(unprimed, primed, 1.0, math.sqrt(xp), tol)
        _check_contract(res, _replay(level, tol, 1024),
                        lambda m: 4 * m - 16)


def test_refinement_contract_frequency_vectors():
    # one grid of m nodes per level feeds both the unprimed and the
    # primed vectors, counted once each: 2 * (8 + ... + m)
    x, eps1, eps3 = 2.3, 2.0, 10.0

    def level(m):
        y, wy = semi_infinite_nodes(m, math.sqrt(x))
        a1, a2, b1, b2, k1 = _kernel_vectors(x, y, eps1, eps3)
        decay = np.exp(-np.outer(k1, _COUPLING_T))
        u1, u2, v1, v2 = ((wy * vec) @ decay for vec in (a1, a2, b1, b2))
        return float(_COUPLING_W @ (u1 * v1 + u2 * v2))

    for tol in (1e-4, 1e-9):
        f, res = _frequency_vectors(x, eps1, eps3, tol)
        _check_contract(res, _replay(level, tol, 1024),
                        lambda m: 4 * m - 16)
        assert f.shape == (4, _COUPLING_T.size)


def test_temperature_validation():
    with pytest.raises(Exception):
        Temperature.finite(-1.0)
    with pytest.raises(Exception):
        Temperature.finite(0.0)
    temp = Temperature.finite(300.0)
    assert temp.kind == "finite"
    assert Temperature.zero().kind == "zero"
    assert Temperature.high(10.0).kelvin == 10.0


def test_matsubara_frequency_values():
    temp = Temperature.finite(300.0)
    # xi_n = 2 pi n kB T / hbar
    from kerrcasimir.constants import HBAR, K_BOLTZMANN
    for n in (0, 1, 5):
        assert temp.xi(n) == 2.0 * math.pi * n * K_BOLTZMANN * 300.0 / HBAR
    assert temp.xi(0.5) == pytest.approx(0.5 * temp.xi(1))


def test_matsubara_sum_geometric():
    temp = Temperature.finite(100.0)
    for r in (0.1, 0.5, 0.9):
        res = matsubara_sum(lambda n: r ** n, temp, rel_tol=1e-12)
        exact = 0.5 + r / (1.0 - r)
        assert res.converged
        assert abs(res.value - exact) < 1e-10 * exact


def test_matsubara_sum_high_is_half_zero_term():
    temp = Temperature.high(250.0)
    res = matsubara_sum(lambda n: 3.0 + n, temp)
    assert res.value == 1.5
    assert res.converged


def test_matsubara_sum_zero_is_continuous_integral():
    temp = Temperature.zero()
    for a in (0.5, 2.0):
        res = matsubara_sum(lambda n: math.exp(-a * n), temp,
                            rel_tol=1e-11, zero_scale=1.0 / a)
        assert res.converged
        assert abs(res.value - 1.0 / a) < 1e-9 / a


def test_matsubara_sum_flags_slow_decay():
    temp = Temperature.finite(1.0)
    res = matsubara_sum(lambda n: 1.0 / (1.0 + n) ** 1.01, temp,
                        rel_tol=1e-10, max_terms=500)
    assert not res.converged


def test_matsubara_sum_euler_maclaurin_tail():
    # sum'_n exp(-2n/s) = coth(1/s)/2; at s = 300 the series would take
    # about 3,500 terms, the head and the integral of the rest a few dozen
    s = 300.0
    calls = []

    def term(n):
        calls.append(n)
        return math.exp(-2.0 * n / s)

    res = matsubara_sum(term, Temperature.finite(300.0), rel_tol=1e-10,
                        zero_scale=s)
    exact = 0.5 / math.tanh(1.0 / s)
    assert res.converged and res.n_evals == len(calls) < 200
    assert any(n != int(n) for n in calls)
    assert abs(res.value - exact) <= res.error <= 1e-10 * exact


_BREAKS = (40.3, 411.7, 3600.5)


def _kinked(n, s=300.0):
    # decays over n ~ s/2, with derivative jumps at every breakpoint
    b1, b2, b3 = _BREAKS
    return math.exp(-2.0 * n / s) * (1.0 + 0.3 * abs(n - b1) / b1
                                     + 0.2 * max(n - b2, 0.0)
                                     + 0.5 * max(n - b3, 0.0))


def test_matsubara_sum_tail_heads_past_kinks():
    # at rel_tol 1e-10 the series takes about 3,450 terms; the head runs
    # past the two kinks below that, the integral splits at the third.
    # The stated error covers the explicit sum of 30,000 terms
    exact = math.fsum([0.5 * _kinked(0)]
                      + [_kinked(n) for n in range(1, 30000)])
    res = matsubara_sum(_kinked, Temperature.finite(300.0), rel_tol=1e-10,
                        zero_scale=300.0, zero_breaks=_BREAKS)
    assert res.converged and res.n_evals < 1000
    assert abs(res.value - exact) <= res.error <= 1e-10 * exact
    # the rule blind to the kinks misses (and the series takes over)
    blind = quadrature._euler_maclaurin(_kinked, 300.0, 1e-10)
    assert not (blind.converged and abs(blind.value - exact) <= blind.error)


def test_matsubara_sum_counts_a_dropped_tail(monkeypatch):
    # a tail integral capped at its first level misses rel_tol; the series
    # then runs as without a scale, and n_evals counts both attempts
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", MIN_LEVEL)
    calls = []

    def term(n):
        calls.append(n)
        return math.exp(-2.0 * n / 300.0)

    temp = Temperature.finite(300.0)
    res = matsubara_sum(term, temp, rel_tol=1e-10, zero_scale=300.0)
    assert res.n_evals == len(calls)
    series = matsubara_sum(term, temp, rel_tol=1e-10)
    assert (res.value, res.error, res.converged) \
        == (series.value, series.error, series.converged)
    assert res.converged and res.n_evals > series.n_evals


def test_double_matsubara_flags_come_from_the_returned_attempt(monkeypatch):
    # the outer tail is dropped, and with it the inner sums at its
    # non-integer indices, which do not converge; the outer series does
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", MIN_LEVEL)
    calls = []

    def term(n, m):
        calls.append(n)
        if n != int(n):
            return 1.0 / (1.0 + m) ** 1.01
        return math.exp(-2.0 * (n + m) / 30.0)

    res = double_matsubara_sum(term, Temperature.finite(300.0),
                               rel_tol=1e-6, max_terms=2000,
                               zero_scale=(30.0, 30.0))
    assert any(n != int(n) for n in calls)
    assert res.converged and res.n_evals == len(calls)
    exact = (0.5 / math.tanh(1.0 / 30.0)) ** 2
    assert abs(res.value - exact) <= 1e-5 * exact


class _Nested:
    """Stand-in inner quadrature: f's value with error 2**-30 |value|,
    1 to 3 evaluations per call, flagged where bad(*args) holds."""

    def __init__(self, f, bad=lambda *args: False):
        self.f, self.bad, self.calls = f, bad, []

    def __call__(self, *args):
        k, flag = 1 + len(self.calls) % 3, not self.bad(*args)
        self.calls.append((args, k, flag))
        v = self.f(*args)
        return QuadratureResult(v, abs(v) * 2.0 ** -30, k, flag)

    @property
    def n_evals(self):
        return sum(k for _, k, _ in self.calls)


def _decay(s):
    return lambda n: math.exp(-2.0 * n / s)


_ZERO, _WARM, _HOT = (Temperature.zero(), Temperature.finite(300.0),
                      Temperature.high(300.0))
_DRIVERS = {
    "semi_infinite": (lambda t: integrate_semi_infinite(t, vectorized=False),
                      lambda x: math.exp(-x)),
    "2d": (integrate_2d, lambda x, y: math.exp(-x - 2.0 * y)),
    "sum_zero": (lambda t: matsubara_sum(t, _ZERO, zero_scale=30.0),
                 _decay(30.0)),
    "sum_series": (lambda t: matsubara_sum(t, _WARM, zero_scale=12.0),
                   _decay(12.0)),
    "sum_tail": (lambda t: matsubara_sum(t, _WARM, zero_scale=300.0),
                 _decay(300.0)),
    "sum_high": (lambda t: matsubara_sum(t, _HOT), _decay(12.0)),
    "double_zero": (lambda t: double_matsubara_sum(t, _ZERO,
                                                   zero_scale=(1.0, 0.5)),
                    lambda n, m: math.exp(-n - 2.0 * m)),
    "double_finite": (lambda t: double_matsubara_sum(
        t, _WARM, rel_tol=1e-6, zero_scale=(30.0, 30.0)),
        lambda n, m: math.exp(-2.0 * (n + m) / 30.0)),
    "double_high": (lambda t: double_matsubara_sum(t, _HOT),
                    lambda n, m: 8.0 + n + m),
}


@pytest.mark.parametrize("name", sorted(_DRIVERS))
def test_nested_results_compose(name, monkeypatch):
    # a term may return a QuadratureResult: the driver uses its value,
    # counts its evaluations over every call and ANDs its flag over the
    # calls of the attempt it returns
    driver, f = _DRIVERS[name]
    plain = driver(f)
    assert plain.converged
    inner = _Nested(f)
    res = driver(inner)
    # the high limit scales the one inner error like the value
    error = plain.value * 2.0 ** -30 if "high" in name else plain.error
    assert (res.value, res.error, res.converged) == (plain.value, error, True)
    assert res.n_evals == inner.n_evals >= len(inner.calls) == plain.n_evals
    # every driver's returned attempt starts at the origin
    inner = _Nested(f, bad=lambda *args: not any(args))
    res = driver(inner)
    assert res.value == plain.value and not res.converged
    assert res.n_evals == inner.n_evals
    if name not in ("sum_tail", "double_finite"):
        return
    # a tail capped at its first level is dropped for the series: the
    # failures at its non-integer indices stay with it, its work does not
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", MIN_LEVEL)
    series = driver(f)
    inner = _Nested(f, bad=lambda *args: any(v != int(v) for v in args))
    res = driver(inner)
    assert not all(flag for *_, flag in inner.calls)
    assert (res.value, res.converged) == (series.value, True)
    assert res.n_evals == inner.n_evals
    # index 5 is in the dropped head and in the series returned
    assert not driver(_Nested(f, bad=lambda n, *m: n == 5)).converged


def _pair(s):
    # the array term n -> (exp(-2n/s), exp(-2n/s)), value the product
    return lambda n: np.full(2, math.exp(-2.0 * n / s))


def _product(total):
    return float(total[0] * total[1])


@pytest.mark.parametrize("temp, s, exact", [
    (_WARM, 12.0, (0.5 / math.tanh(1.0 / 12.0)) ** 2),
    (_WARM, 300.0, (0.5 / math.tanh(1.0 / 300.0)) ** 2),
    (_ZERO, 12.0, 36.0),
], ids=["series", "tail", "zero"])
def test_matsubara_sum_of_vector_terms(temp, s, exact):
    # arrays are summed elementwise, and the tolerance and the error
    # refer to value(sum): here (sum'_n exp(-2n/s))**2
    res = matsubara_sum(_pair(s), temp, rel_tol=1e-9, zero_scale=s,
                        value=_product)
    assert res.converged
    assert abs(res.value - exact) <= res.error <= 1e-9 * exact


def test_matsubara_sum_of_vector_terms_high():
    # value(f_0 / 2) = 1/4, and the error of f_0 is scaled like it
    term = _pair(12.0)
    res = matsubara_sum(
        lambda n: QuadratureResult(term(n), 2.0 ** -30, 7, True), _HOT,
        value=_product)
    assert (res.value, res.error, res.n_evals, res.converged) \
        == (0.25, 2.0 ** -32, 7, True)
    # a term of value 0 keeps a finite error
    res = matsubara_sum(lambda n: QuadratureResult(np.zeros(2), 1e-20, 1,
                                                   True),
                        _HOT, value=_product)
    assert res.value == 0.0 and math.isfinite(res.error)


def test_zero_t_sum_stops_at_the_thermal_cap():
    # an unbroken kink at n = 1.3 keeps the level change far above
    # rel_tol; the integral stops at 256 nodes in each of its two panels
    res = matsubara_sum(lambda n: abs(n - 1.3) * math.exp(-n), _ZERO,
                        rel_tol=1e-12, zero_breaks=(0.7,))
    assert quadrature._TAIL_MAX_LEVEL == 256
    assert not res.converged and res.n_evals == 2 * 256


def test_matsubara_sum_keeps_the_series_below_threshold():
    # n_star ~ 12 at rel_tol 1e-8: the term-by-term series is cheaper, and
    # it runs exactly as without a scale
    temp = Temperature.finite(300.0)

    def term(n):
        return math.exp(-2.0 * n / 12.0)

    assert matsubara_sum(term, temp, zero_scale=12.0) \
        == matsubara_sum(term, temp)


def test_double_matsubara_separable():
    temp = Temperature.finite(77.0)
    r, s = 0.3, 0.6
    res = double_matsubara_sum(lambda n, m: r ** n * s ** m, temp,
                               rel_tol=1e-11)
    exact = (0.5 + r / (1.0 - r)) * (0.5 + s / (1.0 - s))
    assert res.converged
    assert abs(res.value - exact) < 1e-9 * exact


def test_double_matsubara_high():
    temp = Temperature.high(300.0)
    res = double_matsubara_sum(lambda n, m: 8.0 + n + m, temp)
    assert res.value == 2.0


def test_double_matsubara_zero():
    temp = Temperature.zero()
    res = double_matsubara_sum(
        lambda n, m: math.exp(-n - 2.0 * m), temp, rel_tol=1e-10,
        zero_scale=(1.0, 0.5))
    assert res.converged
    assert abs(res.value - 0.5) < 1e-8
