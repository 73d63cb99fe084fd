import math

import numpy as np
import pytest

from kerrcasimir import fresnel, lifshitz_linear, lifshitz_nonlinear
from kerrcasimir.fresnel import reflection

INF = math.inf


def _fresnel_s(p_a, p_b):
    """Generic s amplitude from the axial wavevectors p on both sides."""
    return (p_a - p_b) / (p_a + p_b)


def _fresnel_p(eps_a, eps_b, p_a, p_b):
    """Generic p amplitude from the axial wavevectors p on both sides."""
    return (eps_b * p_a - eps_a * p_b) / (eps_b * p_a + eps_a * p_b)


def _reference(x, y, eps, pol):
    """One polarization at a time, as the package computed it before the
    two were merged into reflection(); the bitwise reference."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if math.isinf(eps):
        if pol == "s":
            r = np.broadcast_arrays(np.where(x > 0.0, -1.0, 0.0), y)[0]
        else:
            r = np.broadcast_arrays(np.asarray(1.0), x, y)[0]
    elif eps == 1.0:
        r = np.broadcast_arrays(np.asarray(0.0), x, y)[0]
    else:
        k2 = np.hypot(x, y)
        kl = np.sqrt(eps * x * x + y * y)
        if pol == "s":
            num, den, limit = k2 - kl, k2 + kl, 0.0
        else:
            num, den = eps * k2 - kl, eps * k2 + kl
            limit = (eps - 1.0) / (eps + 1.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = num / den
        r = np.where((x == 0.0) & (y == 0.0), limit, r)
    return float(r) if r.ndim == 0 else r


def test_normal_incidence_amplitudes():
    # y = 0: kappa = n * k2, and both polarizations coincide up to sign
    eps = 4.0
    n = math.sqrt(eps)
    for x in (0.3, 2.0):
        rs, rp = reflection(x, 0.0, eps)
        assert rs == pytest.approx((1.0 - n) / (1.0 + n), rel=1e-15)
        assert rp == pytest.approx((n - 1.0) / (n + 1.0), rel=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_imaginary_axis_matches_complex_route(seed):
    # the real-valued reflection amplitudes must equal the generic
    # Fresnel amplitudes evaluated at p = i*kappa
    rng = np.random.default_rng(100 + seed)
    x = rng.uniform(0.01, 5.0)
    y = rng.uniform(0.01, 5.0)
    eps = rng.uniform(1.0, 50.0)
    kappa_gap = math.hypot(x, y)
    kappa_med = math.sqrt(eps * x * x + y * y)
    rs = _fresnel_s(1j * kappa_gap, 1j * kappa_med)
    rp = _fresnel_p(1.0, eps, 1j * kappa_gap, 1j * kappa_med)
    assert abs(rs.imag) < 1e-15 and abs(rp.imag) < 1e-15
    got_s, got_p = reflection(x, y, eps)
    assert got_s == pytest.approx(rs.real, rel=1e-13)
    assert got_p == pytest.approx(rp.real, rel=1e-13)


def test_reflection_bounds_and_signs():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.01, 4.0, size=50)
    y = rng.uniform(0.0, 6.0, size=50)
    for eps in (1.5, 5.0, 80.0):
        rs, rp = reflection(x, y, eps)
        assert np.all(np.abs(rs) <= 1.0) and np.all(np.abs(rp) <= 1.0)
        assert np.all(rs <= 0.0)  # denser medium flips the s amplitude
        assert np.all(rp >= 0.0)


def test_vacuum_reflects_nothing():
    assert reflection(1.0, 2.0, 1.0) == (0.0, 0.0)


def test_mirror_amplitudes():
    assert reflection(0.5, 1.0, INF) == (-1.0, 1.0)
    # static transverse channel dies even for a mirror
    assert reflection(0.0, 1.0, INF) == (0.0, 1.0)


def test_static_limit_finite_material():
    eps = 3.0
    rs, rp = reflection(0.0, 2.0, eps)
    assert rs == 0.0
    assert rp == pytest.approx((eps - 1.0) / (eps + 1.0))


def test_large_eps_approaches_mirror():
    rs, rp = reflection(0.7, 1.3, 1e8)
    assert rs == pytest.approx(-1.0, abs=1e-3)
    assert rp == pytest.approx(1.0, abs=1e-3)


def test_reflection_broadcasting():
    y = np.linspace(0.0, 3.0, 7)
    rs, rp = reflection(0.0, y, INF)
    assert rs.shape == rp.shape == y.shape
    assert np.all(rs == 0.0) and np.all(rp == 1.0)
    rs, _ = reflection(1.0, y, INF)
    assert np.all(rs == -1.0)
    assert all(isinstance(r, float) for r in reflection(1.0, 1.0, 2.0))


_Y = np.array([0.0, 1e-3, 0.4, 1.3, 7.0, 60.0])
_BITWISE_INPUTS = [
    (0.0, 0.0), (0.0, 1.3), (0.7, 0.0), (0.7, 1.3), (1e-300, 2.0),
    (50.0, 1e-3), (np.float64(2.5), np.array(0.5)),        # scalars, 0-d
    (np.array([0.0, 0.0, 0.3, 2.0, 9.0, 1e-300]), _Y),     # same shape
    (0.0, _Y), (0.8, _Y), (_Y, 0.0), (_Y, 1.1),            # scalar vs array
    (_Y[:, None], _Y[None, :]),                            # outer product
]


def _bits(r):
    return np.ascontiguousarray(r, dtype=float).view(np.uint64)


@pytest.mark.parametrize("eps", [1.0, 1.0001, 2.0, 1e4, 1e8, INF])
def test_reflection_bitwise_equals_per_polarization_reference(eps):
    for x, y in _BITWISE_INPUTS:
        got = reflection(x, y, eps)
        want = (_reference(x, y, eps, "s"), _reference(x, y, eps, "p"))
        for g, w in zip(got, want):
            if isinstance(w, float):
                assert isinstance(g, float)
                assert g.hex() == w.hex(), (x, y)
            else:
                assert g.shape == w.shape
                assert np.array_equal(_bits(g), _bits(w)), (x, y)


def test_kernels_call_reflection_once_per_plate(monkeypatch):
    calls = []

    def counted(x, y, eps):
        calls.append(eps)
        return fresnel.reflection(x, y, eps)

    for module in (lifshitz_linear, lifshitz_nonlinear):
        assert module.reflection is fresnel.reflection
        monkeypatch.setattr(module, "reflection", counted)
    y = np.linspace(0.0, 6.0, 13)
    for eps1, eps3 in ((2.0, INF), (1.0, INF), (2.0, 10.0)):
        calls.clear()
        lifshitz_linear._gap_integrand(y, 0.8, eps1, eps3, math.exp(-1.6))
        assert calls == [eps1, eps3]
        calls.clear()
        lifshitz_nonlinear._kernel_vectors(0.8, y, eps1, eps3)
        assert calls == [eps1, eps3]


_EPS_ROWS = np.array([INF, 1.0, 2.0, INF, 1.0001, 1.0, 1e8])
_X_ROWS = np.array([0.0, 0.0, 0.0, 0.7, 1e-300, 0.8, 50.0])


@pytest.mark.parametrize("y", [0.0, 1.3, np.linspace(0.0, 6.0, 7)])
def test_reflection_array_eps_bitwise_equals_elementwise_reference(y):
    # one eps per entry, mirrors and vacua among them: each entry as the
    # float eps would give it, without a warning
    y = np.broadcast_to(np.asarray(y, dtype=float), _X_ROWS.shape)
    got = reflection(_X_ROWS, y, _EPS_ROWS)
    for i, (x, eps) in enumerate(zip(_X_ROWS, _EPS_ROWS)):
        for g, pol in zip(got, "sp"):
            want = _reference(x, y[i], eps, pol)
            assert g[i].hex() == want.hex(), (x, y[i], eps, pol)


def test_reflection_eps_column_broadcasts_over_rows():
    # a column of permittivities against a row of momenta, as the batched
    # kernels pass them: row i is the float eps_i call
    got = reflection(_X_ROWS[:, None], _Y[None, :], _EPS_ROWS[:, None])
    for i, (x, eps) in enumerate(zip(_X_ROWS, _EPS_ROWS)):
        for g, pol in zip(got, "sp"):
            assert np.array_equal(_bits(g[i]), _bits(_reference(x, _Y, eps,
                                                                pol)))
