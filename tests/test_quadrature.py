import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from kerrcasimir.lifshitz_nonlinear import (_COUPLING_T, _COUPLING_W,
                                            _contract, _frequency_vectors,
                                            _kernel_vectors)
from kerrcasimir import lifshitz_nonlinear, quadrature
from kerrcasimir.lifshitz_linear import _X_FLOOR, _g_hat
from kerrcasimir.quadrature import (MAX_LEVEL, MIN_LEVEL, QuadratureResult,
                                    Temperature, _cc_rule, _rule,
                                    integrate_semi_infinite, matsubara_sum)


def _rows(term):
    # the row term of a one-index term
    return lambda ns: [term(n) for n in ns]


def _double_sum(term, temperature, rel_tol=1e-8, zero_scale=(1.0, 1.0)):
    # sum'_n sum'_m term(n, m): the matsubara_sum over n of the
    # matsubara_sums over m, to a tenth of rel_tol, so the (0, 0) term
    # weighs 1/4 in every regime
    return matsubara_sum(
        _rows(lambda n: matsubara_sum(_rows(lambda m: term(n, m)),
                                      temperature, rel_tol=0.1 * rel_tol,
                                      zero_scale=zero_scale[1])),
        temperature, rel_tol=rel_tol, zero_scale=zero_scale[0])


def test_order_two_is_simpson():
    x, w = _cc_rule(2)
    assert np.allclose(x, [0.0, 0.5, 1.0], atol=0)
    assert np.allclose(w, [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], atol=1e-15)


@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_polynomial_exactness(m):
    # degree < m integrated exactly on [0, 1]
    x, w = _cc_rule(m)
    for k in range(m):
        assert abs((w * x ** k).sum() - 1.0 / (k + 1)) < 1e-13


def test_weights_positive_and_normalized():
    for m in (2, 8, 64, 256):
        x, w = _cc_rule(m)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-14
        assert np.all(np.diff(x) > 0)


def _cc_matrix_rule(m):
    # the (m/2 + 1) x (m + 1) cosine matrix construction of the weights
    theta = np.pi * np.arange(m + 1) / m
    j = np.arange(m // 2 + 1)
    terms = np.cos(2.0 * np.outer(j, theta)) / (1.0 - 4.0 * j * j)[:, None]
    terms[0] *= 0.5
    terms[-1] *= 0.5
    w = (4.0 / m) * terms.sum(axis=0)
    w[0] *= 0.5
    w[-1] *= 0.5
    return 0.5 * (1.0 - np.cos(theta)), 0.5 * w


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_cc_rule_bitwise_equals_the_matrix_construction():
    # the weights accumulate one cosine row at a time, in O(m) memory;
    # every even order to 256 and the doubling levels to 1024
    for m in [*range(2, 257, 2), 300, 512, 766, 1024]:
        for got, want in zip(quadrature._cc_rule.__wrapped__(m),
                             _cc_matrix_rule(m)):
            assert np.array_equal(_bits(got), _bits(want)), m


def test_semi_infinite_nodes_keep_their_bits():
    # the cached unit rule keeps the operation order of the mapping
    for m in (8, 64, 1024):
        u, wu = _cc_rule(m)
        assert not (u.flags.writeable or wu.flags.writeable)
        for scale in (1.0, 2.7, 1e3):
            x, w = _rule(m, scale)
            assert np.array_equal(_bits(x),
                                  _bits(scale * u[:-1] / (1.0 - u[:-1])))
            assert np.array_equal(
                _bits(w), _bits(wu[:-1] * scale / (1.0 - u[:-1]) ** 2))
            x[:] = w[:] = 0.0  # the caller's copies
    assert not any(a.flags.writeable for a in quadrature._unit_rule(8)[:4])
    assert _rule(8, 1.0)[0][1] > 0.0


def test_nesting_is_bitwise():
    for m in (8, 32, 128):
        x, _ = _cc_rule(m)
        x2, _ = _cc_rule(2 * m)
        assert np.array_equal(x, x2[::2])
        xs, _ = _rule(m, 2.5)
        xs2, _ = _rule(2 * m, 2.5)
        assert np.array_equal(xs, xs2[::2])


def test_semi_infinite_drops_endpoint():
    x, w = _rule(16, 1.0)
    assert len(x) == 16 and len(w) == 16
    assert x[0] == 0.0
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))


def test_composite_rule_without_breaks_is_the_mapped_rule():
    # the rule x = scale*u/(1-u) on Clenshaw-Curtis nodes u, restated
    for m in (8, 64, 4096):
        for scale in (1.0, 2.5, 3.7e3):
            u, wu = _cc_rule(m)
            u, wu = u[:-1], wu[:-1]
            x, w = _rule(m, scale, ())
            assert np.array_equal(x, scale * u / (1.0 - u))
            assert np.array_equal(w, wu * scale / (1.0 - u) ** 2)


def test_composite_rule_panels():
    breaks = (0.7, 2.0, 5.5)
    m, scale = 16, 1.5
    x, w = _rule(m, scale, breaks)
    assert x.size == w.size == 4 * m
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    # every panel starts at its left edge; the tail keeps the mapped rule
    assert np.array_equal(x[m::m][:3], breaks)
    u, wu = _cc_rule(m)
    assert np.array_equal(x[3 * m:], 5.5 + scale * u[:-1] / (1.0 - u[:-1]))
    # polynomials of degree <= m on [0, 5.5] are exact on the panels
    inner = x < 5.5
    # the tail's first node, 5.5, holds the last panel's end weight too
    head = np.append(w[inner], w[3 * m] - wu[0] * scale)
    nodes = np.append(x[inner], 5.5)
    for k in (0, 3, 16):
        assert abs(head @ nodes ** k - 5.5 ** (k + 1) / (k + 1)) \
            < 1e-13 * 5.5 ** (k + 1)
    # breaks that are not finite, positive and increasing
    for bad in ((1.0, 1.0), (-1.0,), (0.0,), (2.0, 1.0), (math.inf,),
                (math.nan,)):
        with pytest.raises(ValueError, match="breaks"):
            integrate_semi_infinite(np.exp, scale=scale, breaks=bad)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_integrate_semi_infinite_rejects_a_bad_scale(scale):
    with pytest.raises(ValueError, match="scale"):
        integrate_semi_infinite(np.exp, scale=scale)


def test_composite_rule_nesting_is_bitwise_across_panels():
    breaks = (0.3, 1.0, 12.0, 400.0)
    for m in (8, 32, 512):
        x, _ = _rule(m, 3.0, breaks)
        x2, _ = _rule(2 * m, 3.0, breaks)
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
        x, w = _rule(m, 2.0)
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
        x, w = _rule(m, 2.0, breaks)
        return float(w @ f(x))

    for tol in (1e-4, 1e-12):
        res = integrate_semi_infinite(f, rel_tol=tol, scale=2.0,
                                      breaks=breaks)
        _check_contract(res, _replay(split_level, tol, 4096),
                        lambda m: 3 * m)


def test_level_cap_is_never_overshot():
    # a cap between powers of two stops at the last level below it: at
    # max_level=100 the rule used to refine to 128 nodes and converge
    def f(x):
        return 1.0 / (1.0 + x * x) ** 2

    res = integrate_semi_infinite(f, rel_tol=1e-15, scale=2.0, max_level=100)
    assert not res.converged and res.n_evals == 64
    assert res == integrate_semi_infinite(f, rel_tol=1e-15, scale=2.0,
                                          max_level=64)
    res = integrate_semi_infinite(f, rel_tol=1e-15, scale=2.0, max_level=8)
    assert not res.converged and res.n_evals == 8
    # an infinite cap never reached its last level and refined without
    # bound; every bad cap raises before f is called
    calls = []
    for cap in (7, 4, 0, -8, math.nan, math.inf, 2 * MAX_LEVEL):
        with pytest.raises(ValueError, match="max_level"):
            integrate_semi_infinite(lambda x: calls.append(x) or f(x),
                                    max_level=cap)
    assert calls == []


# a string or None used to raise a bare TypeError from the comparison
_BAD_REL_TOLS = [0.0, -1.0, 1.0, 2.0, math.nan, "1e-6", None]


@pytest.mark.parametrize("rel_tol", _BAD_REL_TOLS)
def test_integrate_semi_infinite_rejects_a_bad_rel_tol(rel_tol):
    # nan used to spend 4,096 nodes before it flagged
    for f in (np.exp, lambda xs: [math.exp(x) for x in xs]):
        with pytest.raises(ValueError, match="rel_tol"):
            integrate_semi_infinite(f, rel_tol=rel_tol)


@pytest.mark.parametrize("rel_tol", _BAD_REL_TOLS)
def test_matsubara_sum_rejects_a_bad_rel_tol(rel_tol):
    # at finite temperature nan and -1 used to return converged=True
    for temp in (_ZERO, _WARM, _HOT):
        with pytest.raises(ValueError, match="rel_tol"):
            matsubara_sum(_rows(lambda n: 0.5 ** n), temp, rel_tol=rel_tol)


@pytest.mark.parametrize("rel_tol", _BAD_REL_TOLS)
def test_double_matsubara_sum_rejects_a_bad_rel_tol(rel_tol):
    # the outer sum rejects it before any inner sum runs; at finite
    # temperature nan used to take 579,431 terms, converged
    for temp in (_ZERO, _WARM, _HOT):
        with pytest.raises(ValueError, match="rel_tol"):
            _double_sum(lambda n, m: 0.5 ** (n + m), temp, rel_tol=rel_tol)


def test_refinement_contract_frequency_vectors():
    # one grid of m distinct nodes per level feeds both the unprimed
    # and the primed vectors: m
    x, eps1, eps3 = 2.3, 2.0, 10.0

    def level(m):
        y, wy = _rule(m, math.sqrt(x))
        a1, a2, b1, b2, k1 = _kernel_vectors(x, y, eps1, eps3)
        decay = np.exp(-np.outer(k1, _COUPLING_T))
        u1, u2, v1, v2 = ((wy * vec) @ decay for vec in (a1, a2, b1, b2))
        return float(_COUPLING_W @ (u1 * v1 + u2 * v2))

    for tol in (1e-4, 1e-9):
        res, = _frequency_vectors(np.array([x]), eps1, eps3, tol)
        # the value is f; the refinement is that of W(x, x) = <f, f>
        f = res.value
        diagonal = dataclasses.replace(res, value=_contract(f, f))
        _check_contract(diagonal, _replay(level, tol, 1024), lambda m: m)
        assert f.shape == (4, _COUPLING_T.size)


def test_frequency_vectors_stop_at_the_level_cap():
    # the last level's total, bitwise, flagged
    res, = _frequency_vectors(np.array([2.3]), 2.0, 10.0, 1e-18)
    f = res.value
    assert _contract(f, f) == -0.0005122569919398447
    assert not res.converged and res.n_evals == 1024
    assert f.shape == (4, _COUPLING_T.size)


def _count_nodes(monkeypatch, names):
    # sum of the y.size every named kernel function of the Kerr module sees
    seen = [0]
    for name in names:
        def counted(x, y, *args, _f=getattr(lifshitz_nonlinear, name)):
            seen[0] += y.size
            return _f(x, y, *args)
        monkeypatch.setattr(lifshitz_nonlinear, name, counted)
    return seen


@pytest.mark.parametrize("tol", [1e-4, 1e-9, 1e-18])
def test_momentum_quadratures_evaluate_each_node_once(tol, monkeypatch):
    # n_evals counts distinct nodes, and each is evaluated exactly once
    seen = _count_nodes(monkeypatch, ["_kernel_vectors"])
    res, = _frequency_vectors(np.array([2.3]), 2.0, 10.0, tol)
    assert seen[0] == res.n_evals


def test_row_driver_stacks_vectorized_rows():
    # a kernel may return one row per node; levels stack them in node
    # order, each level evaluating only its new nodes
    def rows(x):
        return np.column_stack((x, x * x, np.exp(-x)))

    calls, sizes = [], []

    def f(y, rows_in):
        assert y.shape[0] == 1 and np.array_equal(rows_in, [0])
        calls.append(y.size)
        return rows(y[0])[None]

    def total(w, vals):
        # the block of the one row
        assert w.shape[0] == 1 and vals.shape[0] == 1
        w, vals = w[0], vals[0]
        x, _ = _rule(w.size, 2.0)
        assert vals.shape == (x.size, 3)
        assert np.array_equal(vals, rows(x))
        sizes.append(w.size)
        return [float(w @ vals[:, 2])], [None]

    (_, res), = quadrature._refine_rows(f, total, [2.0], 1e-300, 32)
    assert sizes == [8, 16, 32] and calls == [8, 8, 16]
    assert not res.converged and res.n_evals == 32


def test_row_driver_hands_the_kernel_only_the_rows_still_refining():
    # a (rows x nodes) block per level, with the rows' indices into
    # scales, and one total call per level on the whole block: row 1
    # ((1 + y/s)**-4 on its own scale s, a polynomial under the mapped
    # rule) settles at 16 nodes, and the next calls get rows 0 and 2
    # alone. Each row ends as its one-row run, bit for bit
    decay, power, scales = ([1.0, 0.0, 0.5], [0.0, 4.0, 0.0],
                            [1.0, 2.0, 3.0])

    def kernel_of(idx, calls):
        a, p, s = (np.array(v)[idx, None] for v in (decay, power, scales))

        def kernel(y, rows):
            calls.append((y.shape, rows.tolist()))
            f = (1.0 + y / s[rows]) ** -p[rows] * np.exp(-a[rows] * y)
            return np.stack((f, y * f), axis=-1)
        return kernel

    blocks = []

    def total(w, vals):
        blocks.append(vals.shape)
        return ([float(w_row @ v[:, 0]) for w_row, v in zip(w, vals)],
                [v.copy() for v in vals])

    calls = []
    batch = quadrature._refine_rows(kernel_of([0, 1, 2], calls), total,
                                    scales, 1e-9, 256)
    assert calls == [((3, 8), [0, 1, 2]), ((3, 8), [0, 1, 2]),
                     ((2, 16), [0, 2]), ((2, 32), [0, 2])]
    assert blocks == [(3, 8, 2), (3, 16, 2), (2, 32, 2), (2, 64, 2)]
    assert [res.n_evals for _, res in batch] == [64, 16, 64]
    for i, (payload, res) in enumerate(batch):
        (alone_payload, alone), = quadrature._refine_rows(
            kernel_of([i], []), total, [scales[i]], 1e-9, 256)
        assert res == alone and res.converged
        assert payload.shape == (res.n_evals, 2)
        assert np.array_equal(payload.view(np.uint64),
                              alone_payload.view(np.uint64))


def test_euler_maclaurin_head_runs_in_series_blocks(monkeypatch):
    # the head (35 terms, past the kink at 30.5) is handed to the row
    # term in blocks of at most _SERIES_BLOCK indices, and the tail
    # converges: a smaller block moves no value, error, count or flag
    def run():
        heads = []

        def rows(ns):
            if isinstance(ns, range):  # head and series calls
                heads.append(len(ns))
            return [math.exp(-n / 50.0) * (1.0 + 0.3 * abs(n - 30.5))
                    for n in ns]
        res = matsubara_sum(rows, Temperature.finite(300.0), 1e-8,
                            zero_scale=100.0, zero_breaks=(30.5,))
        return res, heads

    whole, heads = run()
    assert heads == [35] and whole.converged
    monkeypatch.setattr(quadrature, "_SERIES_BLOCK", 8)
    blocked, heads = run()
    assert heads == [8, 8, 8, 8, 3]
    assert (blocked.value.hex(), blocked.error.hex(), blocked.n_evals,
            blocked.converged) == (whole.value.hex(), whole.error.hex(),
                                   whole.n_evals, whole.converged)


def test_temperature_validation():
    with pytest.raises(Exception):
        Temperature.finite(-1.0)
    with pytest.raises(Exception):
        Temperature.finite(0.0)
    temp = Temperature.finite(300.0)
    assert temp.kind == "finite"
    assert Temperature.zero().kind == "zero"
    assert Temperature.high(10.0).kelvin == 10.0


def test_temperature_range():
    # 1e-300 K used to divide by zero in the frequency map, 1e300 K to
    # run 82M evaluations into NaN: kelvin lies in [2**-64, 2**64]
    for kelvin in (1e-300, 1e-200, math.nextafter(2.0 ** -64, 0.0),
                   math.nextafter(2.0 ** 64, math.inf), 1e300, math.inf,
                   math.nan):
        for make in (Temperature.finite, Temperature.high):
            with pytest.raises(ValueError, match="kelvin"):
                make(kelvin)
    for kelvin in (2.0 ** -64, 2.0 ** 64):
        assert Temperature.finite(kelvin).xi(1) > 0.0
        assert Temperature.high(kelvin).kelvin == kelvin


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
        res = matsubara_sum(_rows(lambda n: r ** n), temp, rel_tol=1e-12)
        exact = 0.5 + r / (1.0 - r)
        assert res.converged
        assert abs(res.value - exact) < 1e-10 * exact


def test_matsubara_sum_high_is_half_zero_term():
    temp = Temperature.high(250.0)
    res = matsubara_sum(_rows(lambda n: 3.0 + n), temp)
    assert res.value == 1.5
    assert res.converged


def test_matsubara_sum_zero_is_continuous_integral():
    temp = Temperature.zero()
    for a in (0.5, 2.0):
        res = matsubara_sum(_rows(lambda n: math.exp(-a * n)), temp,
                            rel_tol=1e-11, zero_scale=1.0 / a)
        assert res.converged
        assert abs(res.value - 1.0 / a) < 1e-9 / a


def test_matsubara_sum_flags_slow_decay(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_TERMS", 500)
    temp = Temperature.finite(1.0)
    res = matsubara_sum(_rows(lambda n: 1.0 / (1.0 + n) ** 1.01), temp,
                        rel_tol=1e-10)
    assert not res.converged
    assert res.n_evals <= 500 + 1


def test_matsubara_sum_euler_maclaurin_tail():
    # sum'_n exp(-2n/s) = coth(1/s)/2; at s = 300 the series would take
    # about 3,500 terms, the head and the integral of the rest a few dozen
    s = 300.0
    calls = []

    def term(n):
        calls.append(n)
        return math.exp(-2.0 * n / s)

    res = matsubara_sum(_rows(term), Temperature.finite(300.0),
                        rel_tol=1e-10, zero_scale=s)
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


def test_matsubara_sum_tail_heads_past_kinks(monkeypatch):
    # at rel_tol 1e-10 the series takes about 3,450 terms; the head runs
    # past the two kinks below that, the integral splits at the third.
    # The stated error covers the explicit sum of 30,000 terms
    exact = math.fsum([0.5 * _kinked(0)]
                      + [_kinked(n) for n in range(1, 30000)])
    res = matsubara_sum(_rows(_kinked), Temperature.finite(300.0),
                        rel_tol=1e-10, zero_scale=300.0, zero_breaks=_BREAKS)
    assert res.converged and res.n_evals < 1000
    assert abs(res.value - exact) <= res.error <= 1e-10 * exact
    # the rule blind to the kinks misses (and the series takes over)
    tails, tail = [], quadrature._euler_maclaurin
    monkeypatch.setattr(quadrature, "_euler_maclaurin",
                        lambda *args: tails.append(tail(*args)) or tails[-1])
    matsubara_sum(_rows(_kinked), Temperature.finite(300.0), rel_tol=1e-10,
                  zero_scale=300.0)
    blind, = tails
    assert not (blind.converged and abs(blind.value - exact) <= blind.error)


@pytest.mark.parametrize("scale", [math.nan, 0.0, -1.0, math.inf])
def test_matsubara_sum_rejects_a_bad_zero_scale(scale):
    # the finite and classical regimes used to take these, and inf to
    # run a 64-term first block; the zero regime always refused them
    for temp in (_ZERO, _WARM, _HOT):
        with pytest.raises(ValueError, match="scale"):
            matsubara_sum(_rows(lambda n: 0.5 ** n), temp, zero_scale=scale)


def test_matsubara_sum_takes_a_huge_zero_scale():
    # 1e300 used to raise OverflowError at n_star**2, kinks or not: the
    # tail misses rel_tol at that scale and the series gives the sum. A
    # kink at 1e302 lies past 2B ~ 2.3e301 and is dropped; one at
    # 1.5e301 splits the tail and takes its shift bound
    exact = 1.5
    for breaks in ((), (1.5e301,), (1e302,)):
        res = matsubara_sum(_rows(lambda n: 0.5 ** n), _WARM, rel_tol=1e-10,
                            zero_scale=1e300, zero_breaks=breaks)
        assert res.converged
        assert abs(res.value - exact) <= res.error <= 1e-10 * exact
    assert matsubara_sum(_rows(lambda n: 0.5 ** n), _HOT,
                         zero_scale=1e300).value == 0.5


def test_euler_maclaurin_declines_when_kinks_push_the_head_to_budget(
        monkeypatch):
    # n* = 100 at rel_tol 1e-8: B = 50 ln(1e8) ~ 921 terms. A kink at 900
    # moves the head to N0 = 903, and head, stencil and tail panels
    # would reach B: declined before a term is evaluated, so the sum
    # takes no index off the integers. A kink at 500 leaves room for
    # them: N0 = 503, and the tail converges past the head and stencil
    # [0, 505), which a missed tail would fold on to about B
    calls = []

    def rows(ns):
        calls.extend(ns)
        return [math.exp(-2.0 * n / 100.0) for n in ns]

    def run(kink):
        del calls[:]
        return matsubara_sum(rows, _WARM, 1e-8, zero_scale=100.0,
                             zero_breaks=(kink,))

    assert quadrature._tail_head(100.0, 1e-8, (900.0,)) is None
    assert run(900.0).converged and all(n == int(n) for n in calls)
    tail = run(500.0)
    assert tail.converged and any(n != int(n) for n in calls)
    assert max(calls) >= 503 and tail.n_evals == len(calls)
    assert max(n for n in calls if n == int(n)) == 504
    # a head of more than _MAX_HEAD terms is declined too: with a cap of
    # 100, the kink at 200 (N0 = 203) is, the kink at 90 (N0 = 93) is not
    monkeypatch.setattr(quadrature, "_MAX_HEAD", 100)
    assert quadrature._tail_head(100.0, 1e-8, (200.0,)) is None
    assert run(200.0).converged and all(n == int(n) for n in calls)
    assert run(90.0).converged
    assert max(n for n in calls if n == int(n)) == 94


def test_euler_maclaurin_keeps_no_head_terms():
    # a kink at 997.5 makes a head of N0 = 1000 array terms of 2 kB:
    # they are summed as they come, f(0)/2 + f(1) + ... in index order,
    # and only the stencil f(998..1001) is kept, so the tail starts with
    # a few kB traced instead of the 2 MB head, with the same bits
    shape = np.linspace(1.0, 2.0, 256)
    head_bytes = 1000 * shape.nbytes
    at_tail = []

    def rows(ns):
        if not isinstance(ns, range):  # the tail's nodes
            at_tail.append(tracemalloc.get_traced_memory()[0])
        return [math.exp(-2.0 * n / 1000.0) * (1.0 + 0.3 * abs(n - 997.5))
                * shape for n in ns]

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = matsubara_sum(rows, _WARM, 1e-8, zero_scale=1000.0,
                            zero_breaks=(997.5,),
                            value=lambda total: float(np.sum(total)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # n_evals: the 1,002 terms of head and stencil, and the tail's 64 nodes
    assert (res.value.hex(), res.error.hex(), res.n_evals, res.converged) \
        == ("0x1.17dd584d05bfap+25", "0x1.d67b000000000p-11", 1002 + 64,
            True)
    assert at_tail[0] - base < head_bytes / 10
    assert peak < head_bytes / 2


def test_a_dropped_tail_evaluates_no_index_twice(monkeypatch):
    # the tail, tried past the head of 416 terms, misses at its first
    # level; the same loop goes on from there, so every integer index is
    # evaluated once, and the sum is the series' alone
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", MIN_LEVEL)
    rows = _Recorded(_kinked)
    res = matsubara_sum(rows, _WARM, rel_tol=1e-10, zero_scale=300.0,
                        zero_breaks=_BREAKS)
    integers = [n for n in rows.indices if n == int(n)]
    assert len(integers) < len(rows.indices)
    assert sorted(integers) == list(range(len(integers)))
    assert res.n_evals == len(rows.indices)
    series = _series(_rows(_kinked), 1e-10, 300.0)
    assert (res.value, res.error, res.converged) \
        == (series.value, series.error, True)


def test_matsubara_sum_counts_a_dropped_tail(monkeypatch):
    # a tail integral capped at its first level misses rel_tol; the series
    # then runs as without a scale, and n_evals counts both attempts
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", MIN_LEVEL)
    calls = []

    def term(n):
        calls.append(n)
        return math.exp(-2.0 * n / 300.0)

    temp = Temperature.finite(300.0)
    res = matsubara_sum(_rows(term), temp, rel_tol=1e-10, zero_scale=300.0)
    assert res.n_evals == len(calls)
    series = matsubara_sum(_rows(term), temp, rel_tol=1e-10)
    assert (res.value, res.error, res.converged) \
        == (series.value, series.error, series.converged)
    assert res.converged and res.n_evals > series.n_evals


def test_double_matsubara_flags_come_from_the_returned_attempt(monkeypatch):
    # the outer tail is dropped, and with it the inner sums at its
    # non-integer indices, which do not converge; the outer series does
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", MIN_LEVEL)
    monkeypatch.setattr(quadrature, "_MAX_TERMS", 2000)
    calls = []

    def term(n, m):
        calls.append(n)
        if n != int(n):
            return 1.0 / (1.0 + m) ** 1.01
        return math.exp(-2.0 * (n + m) / 30.0)

    res = _double_sum(term, Temperature.finite(300.0), rel_tol=1e-6,
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
    "semi_infinite": (lambda t: integrate_semi_infinite(_rows(t)),
                      lambda x: math.exp(-x)),
    "sum_zero": (lambda t: matsubara_sum(_rows(t), _ZERO, zero_scale=30.0),
                 _decay(30.0)),
    "sum_series": (lambda t: matsubara_sum(_rows(t), _WARM, zero_scale=12.0),
                   _decay(12.0)),
    "sum_tail": (lambda t: matsubara_sum(_rows(t), _WARM, zero_scale=300.0),
                 _decay(300.0)),
    "sum_high": (lambda t: matsubara_sum(_rows(t), _HOT), _decay(12.0)),
    "double_zero": (lambda t: _double_sum(t, _ZERO, zero_scale=(1.0, 0.5)),
                    lambda n, m: math.exp(-n - 2.0 * m)),
    "double_finite": (lambda t: _double_sum(t, _WARM, rel_tol=1e-6,
                                            zero_scale=(30.0, 30.0)),
                      lambda n, m: math.exp(-2.0 * (n + m) / 30.0)),
    "double_high": (lambda t: _double_sum(t, _HOT),
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
    res = matsubara_sum(_rows(_pair(s)), temp, rel_tol=1e-9, zero_scale=s,
                        value=_product)
    assert res.converged
    assert abs(res.value - exact) <= res.error <= 1e-9 * exact


def test_matsubara_sum_of_vector_terms_high():
    # value(f_0 / 2) = 1/4, and the error of f_0 is scaled like it
    term = _pair(12.0)
    res = matsubara_sum(
        _rows(lambda n: QuadratureResult(term(n), 2.0 ** -30, 7, True)),
        _HOT, value=_product)
    assert (res.value, res.error, res.n_evals, res.converged) \
        == (0.25, 2.0 ** -32, 7, True)
    # a term of value 0 keeps a finite error
    res = matsubara_sum(_rows(lambda n: QuadratureResult(np.zeros(2), 1e-20,
                                                         1, True)),
                        _HOT, value=_product)
    assert res.value == 0.0 and math.isfinite(res.error)


def test_zero_t_sum_stops_at_the_thermal_cap():
    # an unbroken kink at n = 1.3 keeps the level change far above
    # rel_tol; the integral stops at 256 nodes in each of its two panels
    res = matsubara_sum(_rows(lambda n: abs(n - 1.3) * math.exp(-n)), _ZERO,
                        rel_tol=1e-12, zero_breaks=(0.7,))
    assert quadrature._TAIL_MAX_LEVEL == 256
    assert not res.converged and res.n_evals == 2 * 256


def test_zero_t_sum_is_integrate_semi_infinite():
    # the production shape: a row term of one QuadratureResult per node,
    # here the momentum integrals of eps = 2 against a mirror. The
    # zero-T sum and the integral give the same bits, error, flag and
    # n_evals, the nested momentum nodes included; x = 0 is _X_FLOOR, as
    # in every zero-T sum of the pressures
    def rows(ns):
        ns = np.asarray(ns, dtype=float)
        return _g_hat(np.where(ns == 0.0, _X_FLOOR, ns), 2.0, math.inf,
                      1e-10)

    for breaks in ((), (0.7, 3.0)):
        summed = matsubara_sum(rows, _ZERO, 1e-8, zero_scale=2.0,
                               zero_breaks=breaks)
        integral = integrate_semi_infinite(rows, 1e-8, 2.0,
                                           quadrature._TAIL_MAX_LEVEL,
                                           breaks)
        assert summed.converged
        assert (summed.value.hex(), summed.error.hex(), summed.n_evals,
                summed.converged) == (integral.value.hex(),
                                      integral.error.hex(), integral.n_evals,
                                      integral.converged)


@pytest.mark.parametrize("temp", [_ZERO, _WARM], ids=["zero", "finite"])
def test_a_kink_past_the_cut_splits_nothing(temp):
    # the kink rule: a kink at or past 2B = n* ln(1/rel_tol), where a term
    # ~exp(-2n/n*) is below rel_tol**2, is dropped, so it leaves the bits
    # and n_evals of no kink; a kink below B splits a panel at zero T and
    # moves the head at finite T (n* = 300: the tail runs, B ~ 2,763)
    s, rel_tol = 300.0, 1e-8
    cut = 2.0 * quadrature._series_budget(s, rel_tol)
    rows = _rows(lambda n: math.exp(-2.0 * n / s))

    def run(*kinks):
        res = matsubara_sum(rows, temp, rel_tol, zero_scale=s,
                            zero_breaks=kinks)
        return res.value.hex(), res.error.hex(), res.n_evals, res.converged

    plain = run()
    assert plain[3]
    assert run(cut) == run(1.5 * cut, 1e6) == plain
    near = run(0.25 * cut)
    assert near != plain and near[3]
    assert run(0.25 * cut, cut) == near


@pytest.mark.parametrize("temp", [_ZERO, _WARM, _HOT],
                         ids=["zero", "finite", "high"])
@pytest.mark.parametrize("breaks", [(5000.0, 2.0), (math.nan,), (-1.0,),
                                    (0.0,), (1.0, 1.0), (math.inf,)])
def test_matsubara_sum_rejects_bad_breaks(temp, breaks):
    # in every regime, before any term: the finite and classical regimes
    # used to take these, and the zero regime would now drop a NaN kink
    calls = []

    def rows(ns):
        calls.extend(ns)
        return [math.exp(-n / 3.0) for n in ns]

    with pytest.raises(ValueError, match="breaks must be finite, positive "
                                         "and increasing"):
        matsubara_sum(rows, temp, 1e-8, zero_scale=100.0,
                      zero_breaks=breaks)
    assert calls == []


def test_matsubara_sum_keeps_the_series_below_threshold():
    # n_star ~ 12 at rel_tol 1e-8: the term-by-term series is cheaper, and
    # it runs exactly as without a scale
    temp = Temperature.finite(300.0)

    def term(n):
        return math.exp(-2.0 * n / 12.0)

    assert matsubara_sum(_rows(term), temp, zero_scale=12.0) \
        == matsubara_sum(_rows(term), temp)


def _series_replay(term, rel_tol, max_terms, value):
    # the series' stopping rule taking one index at a time: value, error,
    # flag and the last index folded
    total = 0.5 * term(0)
    cur, last, est, converged, n = value(total), [], math.inf, False, 0
    while n < max_terms and not converged:
        n += 1
        t = term(n)
        total = total + t
        prev, cur = cur, value(total)
        last = (last + [abs(t if value is float else cur - prev)])[-3:]
        if len(last) == 3 and n >= 4:
            if last[2] == 0.0:
                est, converged = 0.0, True
            elif last[0] > 0.0 and last[1] > 0.0:
                r = max(last[2] / last[1], last[1] / last[0])
                if r < 1.0:
                    est = last[2] * r / (1.0 - r)
                    converged = est <= rel_tol * abs(cur)
    return cur, est, converged, n


def _tabulated_like(s):
    # decays over n ~ s/2 at a rate that changes at two kinks, as a term
    # of a tabulated permittivity does
    return lambda n: math.exp(-2.0 * n / s) * (
        1.0 + 0.3 * abs(n - 0.7 * s) / s + 2.0 * max(n - 2.3 * s, 0.0) / s)


class _Recorded:
    """Stand-in row term: term at each index, each call's indices kept."""

    def __init__(self, term):
        self.term, self.calls = term, []

    def __call__(self, ns):
        self.calls.append(list(ns))
        return [self.term(n) for n in self.calls[-1]]

    @property
    def indices(self):
        return [n for call in self.calls for n in call]


def _series(rows, rel_tol, s, value=float, max_terms=None):
    # the finite-temperature series alone, even where the Euler-Maclaurin
    # tail would take over (n* = 30 at rel_tol 1e-6), cut after max_terms
    # terms if given
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_tail_head", lambda *args, **kw: None)
        if max_terms is not None:
            mp.setattr(quadrature, "_MAX_TERMS", max_terms)
        return matsubara_sum(rows, _WARM, rel_tol, zero_scale=s, value=value)


@pytest.mark.parametrize("kind", ["float", "array"])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
@pytest.mark.parametrize("s", [1.0, 6.0, 30.0])
@pytest.mark.parametrize("shape", ["geometric", "tabulated"])
def test_blocked_series_matches_the_one_index_replay(shape, s, rel_tol,
                                                     kind):
    # the series asks for blocks of terms but folds them one at a time:
    # value, error and flag are those of the one-index rule, bit for bit
    f = _decay(s) if shape == "geometric" else _tabulated_like(s)
    term, value = f, float
    if kind == "array":
        term, value = (lambda n: np.full(2, f(n))), _product
    rows = _Recorded(term)
    res = _series(rows, rel_tol, s, value)
    cur, est, converged, stop = _series_replay(term, rel_tol,
                                               quadrature._MAX_TERMS, value)
    assert converged
    assert (res.value, res.error, res.converged) == (cur, est, converged)
    # each index once and in order, every one counted
    indices = rows.indices
    assert indices == list(range(len(indices))) and res.n_evals == len(indices)
    # one call per full block up to the stop, and at most one more
    assert len(rows.calls) <= stop // quadrature._SERIES_BLOCK + 2
    # past the stop: the rest of the first block (indices up to the
    # budget B), or at most two terms
    first = len(rows.calls[0]) - 1
    assert first == min(max(4, math.ceil(-0.5 * s * math.log(rel_tol))),
                        quadrature._SERIES_BLOCK - 1)
    assert stop <= indices[-1] <= max(stop + 2, first)


@pytest.mark.parametrize("max_terms", [0, 3, 20, 70, 130])
def test_blocked_series_stops_at_max_terms(max_terms):
    # n* = 30 at rel_tol 1e-10 takes about 350 terms: every run here is
    # cut by max_terms, which no block reaches past
    rows = _Recorded(_tabulated_like(30.0))
    res = _series(rows, 1e-10, 30.0, max_terms=max_terms)
    cur, est, _, stop = _series_replay(rows.term, 1e-10, max_terms, float)
    assert (res.value, res.error, res.converged) == (cur, est, False)
    assert rows.indices == list(range(max_terms + 1)) == list(range(stop + 1))


def test_blocked_series_flags_only_the_terms_it_folds():
    # the last block may run past the stop; the flags of those terms,
    # whose values are not used, do not reach the result, their work does
    term = _decay(6.0)
    stop = _series_replay(term, 1e-6, quadrature._MAX_TERMS, float)[3]
    plain = _Recorded(term)
    res = _series(plain, 1e-6, 6.0)
    assert plain.indices[-1] > stop

    def flagged(bad):
        return _Recorded(lambda n: QuadratureResult(term(n), 0.0, 2,
                                                    not bad(n)))

    rows = flagged(lambda n: n > stop)
    past = _series(rows, 1e-6, 6.0)
    assert (past.value, past.error, past.converged) \
        == (res.value, res.error, True)
    assert past.n_evals == 2 * res.n_evals == 2 * len(rows.indices)
    assert not _series(flagged(lambda n: n == stop), 1e-6, 6.0).converged


def test_double_matsubara_separable():
    temp = Temperature.finite(77.0)
    r, s = 0.3, 0.6
    res = _double_sum(lambda n, m: r ** n * s ** m, temp, rel_tol=1e-11)
    exact = (0.5 + r / (1.0 - r)) * (0.5 + s / (1.0 - s))
    assert res.converged
    assert abs(res.value - exact) < 1e-9 * exact


def test_double_matsubara_high():
    temp = Temperature.high(300.0)
    res = _double_sum(lambda n, m: 8.0 + n + m, temp)
    assert res.value == 2.0


@pytest.mark.parametrize("n", range(700, 746))
def test_zero_t_integral_accepts_subnormal_round_off(n):
    # the integral exp(-n)/2 lies in or near the subnormal range, where no
    # refinement resolves it below n_evals units of 2**-1074
    res = matsubara_sum(_rows(lambda m: math.exp(-n - 2.0 * m)),
                        Temperature.zero(), rel_tol=1e-11, zero_scale=0.5)
    exact = 0.5 * math.exp(-n)
    assert res.converged
    assert abs(res.value - exact) <= 1e-11 * exact + res.n_evals * 2.0 ** -1074


def test_double_matsubara_zero():
    temp = Temperature.zero()
    res = _double_sum(lambda n, m: math.exp(-n - 2.0 * m), temp,
                      rel_tol=1e-10, zero_scale=(1.0, 0.5))
    assert res.converged
    assert abs(res.value - 0.5) < 1e-8
