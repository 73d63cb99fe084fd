import math

import numpy as np
import pytest

from kerrcasimir.fresnel import reflection_p, reflection_s

INF = math.inf


def _fresnel_s(p_a, p_b):
    """Generic s amplitude from the axial wavevectors p on both sides."""
    return (p_a - p_b) / (p_a + p_b)


def _fresnel_p(eps_a, eps_b, p_a, p_b):
    """Generic p amplitude from the axial wavevectors p on both sides."""
    return (eps_b * p_a - eps_a * p_b) / (eps_b * p_a + eps_a * p_b)


def test_normal_incidence_amplitudes():
    # y = 0: kappa = n * k2, and both polarizations coincide up to sign
    eps = 4.0
    n = math.sqrt(eps)
    for x in (0.3, 2.0):
        assert reflection_s(x, 0.0, eps) == pytest.approx(
            (1.0 - n) / (1.0 + n), rel=1e-15)
        assert reflection_p(x, 0.0, eps) == pytest.approx(
            (n - 1.0) / (n + 1.0), rel=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_imaginary_axis_matches_complex_route(seed):
    # the real-valued reflection helpers must equal the generic Fresnel
    # amplitudes evaluated at p = i*kappa
    rng = np.random.default_rng(100 + seed)
    x = rng.uniform(0.01, 5.0)
    y = rng.uniform(0.01, 5.0)
    eps = rng.uniform(1.0, 50.0)
    kappa_gap = math.hypot(x, y)
    kappa_med = math.sqrt(eps * x * x + y * y)
    rs = _fresnel_s(1j * kappa_gap, 1j * kappa_med)
    rp = _fresnel_p(1.0, eps, 1j * kappa_gap, 1j * kappa_med)
    assert abs(rs.imag) < 1e-15 and abs(rp.imag) < 1e-15
    assert reflection_s(x, y, eps) == pytest.approx(rs.real, rel=1e-13)
    assert reflection_p(x, y, eps) == pytest.approx(rp.real, rel=1e-13)


def test_reflection_bounds_and_signs():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.01, 4.0, size=50)
    y = rng.uniform(0.0, 6.0, size=50)
    for eps in (1.5, 5.0, 80.0):
        rs = reflection_s(x, y, eps)
        rp = reflection_p(x, y, eps)
        assert np.all(np.abs(rs) <= 1.0) and np.all(np.abs(rp) <= 1.0)
        assert np.all(rs <= 0.0)  # denser medium flips the s amplitude
        assert np.all(rp >= 0.0)


def test_vacuum_reflects_nothing():
    assert reflection_s(1.0, 2.0, 1.0) == 0.0
    assert reflection_p(1.0, 2.0, 1.0) == 0.0


def test_mirror_amplitudes():
    assert reflection_s(0.5, 1.0, INF) == -1.0
    assert reflection_p(0.5, 1.0, INF) == 1.0
    # static transverse channel dies even for a mirror
    assert reflection_s(0.0, 1.0, INF) == 0.0
    assert reflection_p(0.0, 1.0, INF) == 1.0


def test_static_limit_finite_material():
    eps = 3.0
    assert reflection_s(0.0, 2.0, eps) == 0.0
    assert reflection_p(0.0, 2.0, eps) == pytest.approx(
        (eps - 1.0) / (eps + 1.0))


def test_large_eps_approaches_mirror():
    x, y = 0.7, 1.3
    rs = reflection_s(x, y, 1e8)
    rp = reflection_p(x, y, 1e8)
    assert rs == pytest.approx(-1.0, abs=1e-3)
    assert rp == pytest.approx(1.0, abs=1e-3)


def test_reflection_broadcasting():
    y = np.linspace(0.0, 3.0, 7)
    rs = reflection_s(0.0, y, INF)
    assert rs.shape == y.shape
    assert np.all(rs == 0.0)
    rs = reflection_s(1.0, y, INF)
    assert np.all(rs == -1.0)
    assert isinstance(reflection_s(1.0, 1.0, 2.0), float)
