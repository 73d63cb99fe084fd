"""Tests for the dense 1-D operator laboratory.

Everything here is checked against plain dense linear algebra: the
Lippmann-Schwinger resolvent identity, reciprocity, the two-object
combination rule, the first-order Kerr correction, the Rytov
decomposition and the fluctuation-dissipation statistics.
"""

import math
import tracemalloc

import numpy as np
import pytest

from kerrcasimir import operator_lab
from kerrcasimir import (CheckResult, ConfigError, Grid1D,
                         NearResonanceError, build_linear, build_n_operator,
                         combined_correction, gtilde, monte_carlo_fdt,
                         naive_combination, noise_covariance,
                         run_verification_suite, rytov_residual)


def _im(mat):
    return (mat - np.conj(mat)) / 2j


def _two_blocks(n_points, spacing, chi_val):
    """Two dielectric blocks on a shared grid, one chi amplitude."""
    grid = Grid1D(n_points, spacing)
    block = max(3, n_points // 5)
    a0 = n_points // 8
    b1 = n_points - n_points // 8
    mask_alpha = np.arange(a0, a0 + block)
    mask_beta = np.arange(b1 - block, b1)
    eps = np.ones(n_points)
    eps[mask_alpha] = 2.25
    eps[mask_beta] = 3.0
    chi = np.zeros(n_points)
    chi[mask_alpha] = chi_val
    chi[mask_beta] = 0.5 * chi_val
    return grid, eps, chi, mask_alpha, mask_beta


_OMEGA = 1.0
_WEIGHTS = ((0.8, 0.6), (1.1, 0.4))


def _isolated(grid, eps, chi, mask):
    eps_i = np.ones(grid.n_points)
    eps_i[mask] = eps[mask]
    chi_i = np.zeros(grid.n_points)
    chi_i[mask] = chi[mask]
    _, g1_i, _ = build_linear(grid, eps_i, _OMEGA)
    n_i = build_n_operator(grid, eps_i, chi_i, _OMEGA, _WEIGHTS)
    return g1_i, n_i


def test_verification_suite_all_pass():
    results = run_verification_suite(n_points=32, seed=0)
    assert len(results) == 10
    names = [r.name for r in results]
    assert len(set(names)) == 10
    for row in results:
        assert isinstance(row, CheckResult)
        assert row.passed, "%s: %g > %g" % (row.name, row.value,
                                            row.threshold)
        assert row.value <= row.threshold


def test_linear_identities_on_larger_grids():
    for n in (64, 128):
        grid, eps, chi, mask_a, mask_b = _two_blocks(n, 0.25, 0.0)
        g0, g1, v = build_linear(grid, eps, _OMEGA)
        ident = np.eye(n)
        ls = np.linalg.norm((np.linalg.inv(g0) - v) @ g1 - ident)
        assert ls / math.sqrt(n) < 1e-10
        g1_a, _ = _isolated(grid, eps, chi, mask_a)
        g1_b, _ = _isolated(grid, eps, chi, mask_b)
        combo = naive_combination(g1_a, g1_b, g0)
        assert np.linalg.norm(combo - g1) / np.linalg.norm(g1) < 1e-10
        assert rytov_residual(g1, v, np.zeros_like(v), g0) < 1e-10


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid1D(4, 0.3)
    with pytest.raises(ConfigError):
        Grid1D(16, 0.0)
    with pytest.raises(ConfigError):
        Grid1D(16, 0.3, eta=0.0)
    with pytest.raises(ConfigError):
        Grid1D(16, 0.3, eta=-1e-3)


def test_grid_needs_an_integer_size():
    # 8.5 points used to be accepted, and run_verification_suite(
    # n_points=8.0) to raise TypeError
    for n in (8.5, 8.0, "16", None):
        with pytest.raises(ConfigError, match="integer"):
            Grid1D(n, 0.3)
    with pytest.raises(ConfigError, match="integer"):
        run_verification_suite(n_points=8.0)
    assert Grid1D(np.int64(8), 0.3).n_points == 8


def test_non_finite_frequencies_rejected():
    # inf used to give all-zero responses, NaN "Helmholtz matrix is
    # singular", an inf or NaN weight frequency a NaN operator, and
    # monte_carlo_fdt at inf "n_op must be diagonal"
    grid = Grid1D(16, 0.3)
    eps, chi = np.full(16, 2.0), np.full(16, 1e-3)
    for bad in (math.inf, -math.inf, math.nan):
        for call in (lambda: build_linear(grid, eps, bad),
                     lambda: build_n_operator(grid, eps, chi, bad, _WEIGHTS),
                     lambda: build_n_operator(grid, eps, chi, 1.0,
                                              ((bad, 0.5),)),
                     lambda: monte_carlo_fdt(grid, eps, chi, bad, _WEIGHTS)):
            with pytest.raises(ConfigError, match="omega"):
                call()


def test_build_linear_validation():
    grid = Grid1D(16, 0.3)
    with pytest.raises(ConfigError):
        build_linear(grid, np.full(16, 0.5), 1.0)
    with pytest.raises(ConfigError):
        build_linear(grid, np.ones(8), 1.0)
    with pytest.raises(ConfigError):
        build_linear(grid, np.ones(16), 0.0)
    with pytest.raises(ConfigError):
        build_linear(grid, np.ones(16), 1.0, eta=0.0)


def test_build_linear_inverse_identity():
    grid = Grid1D(24, 0.3)
    eps = np.ones(24)
    eps[8:14] = 2.5
    g0, g1, v = build_linear(grid, eps, 1.3)
    resid = (np.linalg.inv(g0) - v) @ g1 - np.eye(24)
    assert np.linalg.norm(resid) / math.sqrt(24) < 1e-12
    assert np.allclose(v, np.conj(v))
    assert np.count_nonzero(v - np.diag(np.diagonal(v))) == 0


def test_build_n_operator_validation():
    grid = Grid1D(16, 0.3)
    eps = np.ones(16)
    chi = np.zeros(16)
    with pytest.raises(ConfigError):
        build_n_operator(grid, eps, chi, 1.0, ())
    for weight in (-0.5, math.inf, math.nan):  # inf made an inf operator
        with pytest.raises(ConfigError):
            build_n_operator(grid, eps, chi, 1.0, ((0.8, weight),))
    with pytest.raises(ConfigError):
        build_n_operator(grid, eps, chi[:8], 1.0, _WEIGHTS)
    with pytest.raises(ConfigError):
        build_n_operator(grid, np.full(16, 0.5), chi, 1.0, _WEIGHTS)
    with pytest.raises(ConfigError):
        build_n_operator(grid, eps, chi, 1.0, ((0.0, 0.5),))


def test_n_operator_real_diagonal_on_mask():
    grid, eps, chi, mask_a, mask_b = _two_blocks(32, 0.3, 1e-3)
    n_op = build_n_operator(grid, eps, chi, _OMEGA, _WEIGHTS)
    assert np.count_nonzero(n_op - np.diag(np.diagonal(n_op))) == 0
    assert np.isrealobj(n_op)
    diag = np.diagonal(n_op)
    support = np.zeros(32, dtype=bool)
    support[mask_a] = True
    support[mask_b] = True
    assert np.all(diag[~support] == 0.0)
    assert np.all(diag[support] != 0.0)


def test_gtilde_reduces_to_g1_at_zero_chi():
    grid, eps, chi, _, _ = _two_blocks(16, 0.3, 0.0)
    _, g1, _ = build_linear(grid, eps, _OMEGA)
    n_zero = build_n_operator(grid, eps, chi, _OMEGA, _WEIGHTS)
    assert np.array_equal(gtilde(g1, n_zero), g1)


def test_response_matrices_symmetric():
    grid, eps, chi, _, _ = _two_blocks(32, 0.3, 1e-3)
    g0, g1, _ = build_linear(grid, eps, _OMEGA)
    n_op = build_n_operator(grid, eps, chi, _OMEGA, _WEIGHTS)
    gt = gtilde(g1, n_op)
    for mat in (g0, g1, gt):
        assert np.linalg.norm(mat - mat.T) / np.linalg.norm(mat) < 1e-12


def test_im_g1_positive_semidefinite():
    # Im G1 = eta G1 G1^dagger for a uniform absorption, so it must be
    # a valid (PSD) noise correlator on its own
    grid, eps, _, _, _ = _two_blocks(32, 0.3, 0.0)
    _, g1, _ = build_linear(grid, eps, _OMEGA)
    lam = np.linalg.eigvalsh(_im(g1))
    assert lam.min() >= -1e-15 * lam.max()
    direct = grid.eta * g1 @ np.conj(g1).T
    assert np.allclose(_im(g1), direct, rtol=0.0, atol=1e-14)


def test_naive_combination_near_resonance():
    grid, eps, _, _, _ = _two_blocks(16, 0.3, 0.0)
    g0, _, _ = build_linear(grid, eps, _OMEGA)
    # Ga + Gb - Ga inv(G0) Gb vanishes identically for Ga = Gb = 2 G0
    with np.errstate(invalid="ignore"):
        with pytest.raises(NearResonanceError) as info:
            naive_combination(2.0 * g0, 2.0 * g0, g0)
    cond = info.value.condition_number
    assert cond is not None
    assert not np.isfinite(cond) or cond > 1e13


def test_combined_correction_single_object_is_exact():
    grid, eps, chi, mask_a, _ = _two_blocks(32, 0.3, 1e-3)
    g1_a, n_a = _isolated(grid, eps, chi, mask_a)
    gt_a = gtilde(g1_a, n_a)
    out = combined_correction(gt_a, n_a, n_a, np.zeros_like(n_a))
    assert np.array_equal(out, gt_a)


def test_combined_correction_validation():
    n = np.diag([1.0, 2.0, 0.0, 0.0])
    g = np.eye(4, dtype=complex)
    full = np.ones((4, 4))
    with pytest.raises(ConfigError):
        combined_correction(g, full, n, np.zeros_like(n))
    outside = np.diag([0.0, 0.0, 3.0, 0.0])
    with pytest.raises(ConfigError):
        combined_correction(g, n, outside, np.zeros_like(n))


def _union_errors(chi_val):
    """Correction-vs-direct and Rytov residuals at one chi amplitude."""
    grid, eps, chi, mask_a, mask_b = _two_blocks(32, 0.3, chi_val)
    g0, g1, v = build_linear(grid, eps, _OMEGA)
    n_total = build_n_operator(grid, eps, chi, _OMEGA, _WEIGHTS)
    gt_union = gtilde(g1, n_total)
    g1_a, n_a = _isolated(grid, eps, chi, mask_a)
    g1_b, n_b = _isolated(grid, eps, chi, mask_b)
    naive = naive_combination(gtilde(g1_a, n_a), gtilde(g1_b, n_b), g0)
    corrected = combined_correction(naive, n_total, n_a, n_b)
    dev = np.linalg.norm(corrected - gt_union) / np.linalg.norm(gt_union)
    ryt = rytov_residual(gt_union, v, n_total, g0)
    return dev, ryt


def test_first_order_errors_scale_as_chi_squared():
    scales = np.array([1.0, 0.5, 0.25, 0.125])
    base = 2e-2
    pairs = [_union_errors(base * s) for s in scales]
    for idx in range(2):
        vals = np.array([p[idx] for p in pairs])
        assert np.all(vals > 1e-13)
        slope = np.polyfit(np.log(scales), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


def test_noise_covariance_real_kerr_not_clipped():
    grid, eps, chi, _, _ = _two_blocks(32, 0.3, 1e-3)
    _, g1, _ = build_linear(grid, eps, _OMEGA)
    n_op = build_n_operator(grid, eps, chi, _OMEGA, _WEIGHTS)
    c_psd, clipped = noise_covariance(g1, n_op)
    assert clipped == 0.0
    assert np.linalg.norm(c_psd - np.conj(c_psd).T) < 1e-14
    assert np.linalg.eigvalsh(c_psd).min() >= 0.0


def test_noise_covariance_clips_and_warns():
    # a strongly anti-Hermitian Kerr operator drives the covariance
    # indefinite; the projection must clip, warn, and stay PSD
    grid, eps, _, _, _ = _two_blocks(16, 0.3, 0.0)
    _, g1, _ = build_linear(grid, eps, _OMEGA)
    bad_n = -1j * np.eye(16)
    with pytest.warns(UserWarning):
        c_psd, clipped = noise_covariance(g1, bad_n)
    assert clipped > 0.01
    assert np.linalg.eigvalsh(c_psd).min() >= 0.0


def test_monte_carlo_seed_reproducible():
    grid, eps, chi, _, _ = _two_blocks(16, 0.3, 1e-3)
    a = monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS,
                        samples=1000, seed=3)
    b = monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS,
                        samples=1000, seed=3)
    c = monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS,
                        samples=1000, seed=4)
    assert a == b
    assert a != c
    assert 0.0 < a < 1.0


def test_monte_carlo_rejects_tiny_ensembles():
    grid, eps, chi, _, _ = _two_blocks(16, 0.3, 1e-3)
    with pytest.raises(ConfigError):
        monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS, samples=999)
    with pytest.raises(ConfigError):
        monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS, seed=-1)


def _suite_oracle(n_points, seed):
    """The ten suite rows rebuilt through the public functions alone."""
    grid, eps, chi, mask_a, mask_b = _two_blocks(n_points, 0.3, 0.0)
    rows = []
    g0, g1, v = build_linear(grid, eps, _OMEGA)
    rows.append(np.linalg.norm(g1 - g0 - g0 @ v @ g1) / np.linalg.norm(g1))
    probe = chi.copy()
    probe[mask_a] = 1.0
    probe[mask_b] = 0.5
    n_probe = build_n_operator(grid, eps, probe, _OMEGA, _WEIGHTS)
    chi_val = 5e-3 / np.linalg.norm(g1 @ n_probe, 2)
    chi[mask_a] = chi_val
    chi[mask_b] = 0.5 * chi_val
    n_total = build_n_operator(grid, eps, chi, _OMEGA, _WEIGHTS)
    gt = gtilde(g1, n_total)
    rows.append(max(np.linalg.norm(m - m.T) / np.linalg.norm(m)
                    for m in (g0, g1, gt)))
    g1_a, n_a = _isolated(grid, eps, chi, mask_a)
    g1_b, _ = _isolated(grid, eps, chi, mask_b)
    combo = naive_combination(g1_a, g1_b, g0)
    rows.append(np.linalg.norm(combo - g1) / np.linalg.norm(g1))
    rows.append(np.linalg.norm(combo - naive_combination(g1_b, g1_a, g0))
                / np.linalg.norm(combo))
    single = combined_correction(gtilde(g1_a, n_a), n_a, n_a,
                                 np.zeros_like(n_a))
    rows.append(np.linalg.norm(single - gtilde(g1_a, n_a))
                / np.linalg.norm(single))
    rows.append(rytov_residual(g1, v, np.zeros_like(v), g0))
    rows.append(rytov_residual(gt, v, n_total, g0))
    _, g1_m, _ = build_linear(grid, eps, -_OMEGA, eta=-grid.eta)
    rows.append(np.linalg.norm(np.conj(gt) - gtilde(g1_m, n_total))
                / np.linalg.norm(gt))
    rows.append(noise_covariance(g1, n_total)[1])
    rows.append(monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS,
                                samples=2000, seed=seed))
    return [float(r) for r in rows]


@pytest.mark.parametrize("n_points, seed", [(32, 0), (32, 5), (64, 0),
                                            (64, 5)])
def test_suite_matches_public_function_oracle(n_points, seed):
    # the suite shares its inverses and covariance between rows; every
    # exact row must keep its bits, the sampled one its value to 1e-12
    rows = run_verification_suite(n_points=n_points, seed=seed)
    oracle = _suite_oracle(n_points, seed)
    assert [r.value.hex() for r in rows[:-1]] \
        == [v.hex() for v in oracle[:-1]]
    assert rows[-1].name == "monte_carlo_fdt"
    assert rows[-1].value == pytest.approx(oracle[-1], rel=1e-12, abs=0.0)


def test_diagonal_operators_act_as_column_scalings():
    # G1 N with a diagonal N is a column scaling; it must reproduce the
    # dense products bit for bit, and refuse an N that is not diagonal
    grid, eps, chi, mask_a, _ = _two_blocks(32, 0.3, 1e-3)
    _, g1, _ = build_linear(grid, eps, _OMEGA)
    n_op = build_n_operator(grid, eps, chi, _OMEGA, _WEIGHTS)
    n_a = np.where(np.isin(np.arange(32), mask_a), n_op, 0.0)
    assert np.array_equal(gtilde(g1, n_op), (np.eye(32) + g1 @ n_op) @ g1)
    dense = _im(g1) + g1 @ _im(n_op) @ np.conj(g1).T
    dense = 0.5 * (dense + np.conj(dense).T)
    lam, u = np.linalg.eigh(dense)
    assert np.array_equal(noise_covariance(g1, n_op)[0],
                          (u * np.clip(lam, 0.0, None)) @ np.conj(u).T)
    delta = n_op - n_a
    assert np.array_equal(combined_correction(g1, n_op, n_a, 0.0 * n_a),
                          g1 + g1 @ delta @ g1)
    full = n_op + 1e-3 * np.eye(32, k=1)
    for func in (gtilde, noise_covariance):
        with pytest.raises(ConfigError):
            func(g1, full)


def test_monte_carlo_matches_sampled_fields():
    # the ensemble average is formed as B (z z^H / M) B^H; the sampled
    # fields E = (I + G1 N) u sqrt(lam) z give the same average
    grid, eps, chi, _, _ = _two_blocks(24, 0.3, 1e-3)
    _, g1, _ = build_linear(grid, eps, _OMEGA)
    n_op = build_n_operator(grid, eps, chi, _OMEGA, _WEIGHTS)
    lam, u = np.linalg.eigh(noise_covariance(g1, n_op)[0])
    rng = np.random.default_rng(7)
    z = (rng.standard_normal((24, 1500))
         + 1j * rng.standard_normal((24, 1500))) / math.sqrt(2.0)
    e = (np.eye(24) + g1 @ n_op) @ (u @ (np.sqrt(np.clip(lam, 0.0, None))
                                         [:, None] * z))
    target = _im(gtilde(g1, n_op))
    direct = np.max(np.abs(e @ np.conj(e).T / 1500 - target)) \
        / np.max(np.abs(target))
    value = monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS, samples=1500,
                            seed=7)
    assert value == pytest.approx(direct, rel=1e-12, abs=0.0)


@pytest.fixture
def cold_suite_cache():
    # the suite keeps its seed-independent state per n_points; a test
    # that counts or patches the work behind it needs that state built
    # in the test, and must not leave a patched build in the cache
    operator_lab._suite_state.cache_clear()
    yield
    operator_lab._suite_state.cache_clear()


def test_dense_inverse_work_count(monkeypatch, cold_suite_cache):
    # one inverse per dense response the rows compare: g0, g1, g1 of
    # each isolated object, the conjugate g1, and inv(g0), shared by the
    # two rytov rows; the spectral diagonals behind N take none
    calls = []
    inv = np.linalg.inv

    def counted(mat):
        calls.append(mat.shape)
        return inv(mat)

    monkeypatch.setattr(np.linalg, "inv", counted)
    run_verification_suite(n_points=32, seed=0)
    assert len(calls) <= 6
    grid, eps, chi, _, _ = _two_blocks(32, 0.3, 1e-3)
    del calls[:]
    build_n_operator(grid, eps, chi, _OMEGA, _WEIGHTS)
    assert len(calls) == 0
    first = monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS, seed=11)
    assert len(calls) == 1
    assert monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS,
                           seed=11).hex() == first.hex()


def _banded_diagonal(grid, eps, omega, eta):
    """diag(H^-1) by a banded LU solve against the identity."""
    from scipy.linalg import solve_banded
    n = grid.n_points
    h2 = grid.spacing ** 2
    bands = np.zeros((3, n), dtype=complex)
    bands[0, 1:] = bands[2, :-1] = -1.0 / h2
    bands[1] = 2.0 / h2 - omega * omega * eps - 1j * eta
    return np.diagonal(solve_banded((1, 1), bands, np.eye(n)))


@pytest.mark.parametrize("n_points", [8, 32, 256, 1024])
@pytest.mark.parametrize("spacing", [0.05, 0.3, 2.0])
def test_inverse_diagonal_matches_dense_and_banded(n_points, spacing):
    # the O(n) pivot recurrence against a dense inverse and a banded
    # solve, at the weight frequencies and at +-omega, for both signs
    # of eta; the dense inverse is taken once per |omega|, since
    # H(-omega) = H(omega) and H(-eta) = conj(H(eta))
    grid, eps, _, _, _ = _two_blocks(n_points, spacing, 0.0)

    def rel(diag, ref):
        return np.max(np.abs(diag - ref)) / np.max(np.abs(ref))

    for freq in (_OMEGA,) + tuple(w for w, _ in _WEIGHTS):
        dense = np.diagonal(operator_lab._inverse(grid, eps, freq, grid.eta))
        for eta, ref in ((grid.eta, dense), (-grid.eta, np.conj(dense))):
            banded = _banded_diagonal(grid, eps, freq, eta)
            for omega in (freq, -freq):
                diag = operator_lab._inverse_diagonal(grid, eps, omega, eta)
                assert rel(diag, ref) <= 1e-11
                assert rel(diag, banded) <= 1e-11
                # Im G1(z, z) has the sign of eta: dissipative for eta > 0
                assert np.all(np.sign(diag.imag) == np.sign(eta))


@pytest.mark.parametrize("seed", range(4))
def test_linear_inverse_identity_passes_at_256(seed):
    # the residual forms no inverse, so its round-off stays near 1e-14
    row = run_verification_suite(n_points=256, seed=seed)[0]
    assert row.name == "linear_inverse_identity"
    assert row.passed and row.value < 1e-13


@pytest.mark.parametrize("n_points", [32, 256])
@pytest.mark.parametrize("which", [0, 1])
def test_linear_inverse_identity_detects_perturbation(monkeypatch,
                                                      cold_suite_cache,
                                                      n_points, which):
    # one entry of g0 (which = 0) or g1 (which = 1) off by 1e-6 relative
    build = operator_lab.build_linear

    def perturbed(*args, **kwargs):
        mats = list(build(*args, **kwargs))
        mat = mats[which].copy()
        mat[n_points // 2, n_points // 2] *= 1.0 + 1e-6
        mats[which] = mat
        return tuple(mats)

    monkeypatch.setattr(operator_lab, "build_linear", perturbed)
    row = run_verification_suite(n_points=n_points)[0]
    assert row.name == "linear_inverse_identity"
    assert row.value > 1e-12 and not row.passed


def _count_dense_work(monkeypatch):
    """Counts of the dense factorizations, patched where they are looked
    up: numpy.linalg for the lab's own calls and numpy's implementation
    module for those of norm(ord=2) and cond."""
    calls = {name: 0 for name in ("inv", "solve", "eigh", "svd")}
    modules = (np.linalg, getattr(np.linalg, "_linalg", np.linalg))
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n_points", [32, 128])
def test_a_warm_suite_does_no_dense_work(monkeypatch, cold_suite_cache,
                                         n_points):
    # the first suite at a size builds its rows and operands; a later
    # one at the same size, any seed, only draws, and returns the rows
    # the cold call returned, bit for bit
    calls = _count_dense_work(monkeypatch)
    cold = run_verification_suite(n_points=n_points, seed=3)
    assert 0 < calls["inv"] <= 6
    assert min(calls.values()) > 0
    for name in calls:
        calls[name] = 0
    warm = run_verification_suite(n_points=n_points, seed=3)
    other = run_verification_suite(n_points=n_points, seed=9)
    assert calls == {"inv": 0, "solve": 0, "eigh": 0, "svd": 0}

    def bits(rows):
        return [(r.name, r.value.hex(), r.threshold.hex(), r.passed)
                for r in rows]

    assert bits(warm) == bits(cold)
    assert bits(other)[:-1] == bits(cold)[:-1]
    assert other[-1].value != cold[-1].value
    operator_lab._suite_state.cache_clear()
    assert bits(run_verification_suite(n_points=n_points, seed=9)) \
        == bits(other)


def test_a_cold_suite_at_256_peaks_below_13_mib(cold_suite_cache):
    # the draws (7.8 MiB of normals) come before the dense build, and
    # the build drops each response after its last row: 11.5 MiB of
    # traced arrays, where the draws after a build that kept every
    # response to its end peaked at 17.0 MiB
    tracemalloc.start()
    try:
        cold = run_verification_suite(n_points=256, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 2 ** 20
    warm = run_verification_suite(n_points=256, seed=3)
    assert [(r.name, r.value.hex(), r.passed) for r in warm] \
        == [(r.name, r.value.hex(), r.passed) for r in cold]


def test_suite_state_is_read_only(cold_suite_cache):
    # an entry keeps B (complex) and Im Gt (real): 24 n**2 bytes
    rows, operands = operator_lab._suite_state(Grid1D(16, 0.3))
    assert isinstance(rows, tuple) and len(rows) == 9
    assert sum(array.nbytes for array in operands[:2]) == 24 * 16 ** 2
    for array in operands[:2]:
        assert array.base is None and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    assert operator_lab._suite_state.cache_info().maxsize \
        == operator_lab._SUITE_CACHE_SIZE


def test_suite_validates_in_front_of_the_cache(cold_suite_cache):
    # lru_cache takes the keys 8 and 8.0 as one; the grid check comes
    # first, and a negative seed raises before any work
    run_verification_suite(8)
    with pytest.raises(ConfigError, match="integer"):
        run_verification_suite(n_points=8.0)
    operator_lab._suite_state.cache_clear()
    with pytest.raises(ConfigError, match="seed"):
        run_verification_suite(n_points=8, seed=-1)
    info = operator_lab._suite_state.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
def test_a_seed_that_is_not_an_integer_is_a_config_error(cold_suite_cache,
                                                         seed):
    # numpy's SeedSequence used to raise a TypeError for 1.5; the seed is
    # checked like n_points, before any work: no grid state is built
    grid, eps, chi, _, _ = _two_blocks(16, 0.3, 1e-3)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        run_verification_suite(n_points=8, seed=seed)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS, seed=seed)
    assert operator_lab._suite_state.cache_info().currsize == 0


@pytest.mark.parametrize("samples", [math.nan, math.inf, 1500.9, 2000.0,
                                     "2000", None])
def test_samples_that_are_not_an_integer_are_a_config_error(monkeypatch,
                                                            samples):
    # int(samples) used to raise ValueError or OverflowError, cut 1500.9
    # to 1500 and accept "2000"; samples is checked before any work
    grid, eps, chi, _, _ = _two_blocks(16, 0.3, 1e-3)

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(operator_lab, "build_n_operator", no_work)
    with pytest.raises(ConfigError,
                       match="samples must be an integer >= 1000"):
        monte_carlo_fdt(grid, eps, chi, _OMEGA, _WEIGHTS, samples=samples)


@pytest.mark.parametrize("weight_spec, match", [
    ([(1.0,)], "weight_spec"), ([(0.8, 0.6, 0.1)], "weight_spec"),
    ([1.0], "weight_spec"), (((0.8, 0.6), (1.1,)), "weight_spec"),
    (0.8, "weight_spec"), ([("0.8", 0.6)], "omega"),
    ([(True, 0.6)], "omega"), ([(0.8, "0.6")], "weights"),
    ([(0.8, True)], "weights"), ([(0.8, np.True_)], "weights")],
    ids=["single", "triple", "bare_float", "short_second", "no_sequence",
         "str_frequency", "bool_frequency", "str_weight", "bool_weight",
         "numpy_bool_weight"])
def test_a_weight_spec_of_no_pairs_is_a_config_error(weight_spec, match):
    # numpy used to raise "not enough values to unpack" for [(1.0,)]; a
    # string frequency was parsed, a string weight raised TypeError, and
    # a bool frequency or weight counted as 1
    grid, eps, chi, _, _ = _two_blocks(16, 0.3, 1e-3)
    with pytest.raises(ConfigError, match=match):
        build_n_operator(grid, eps, chi, _OMEGA, weight_spec)
    with pytest.raises(ConfigError, match=match):
        monte_carlo_fdt(grid, eps, chi, _OMEGA, weight_spec)


@pytest.mark.parametrize("omega", ["1.0", True, np.True_, None, 1j],
                         ids=["str", "bool", "numpy_bool", "none", "complex"])
def test_an_omega_that_is_not_a_real_number_is_a_config_error(omega):
    # "1.0" and True used to be taken as 1.0, None and 1j to raise
    # TypeError
    grid, eps, chi, _, _ = _two_blocks(16, 0.3, 1e-3)
    for call in (lambda: build_linear(grid, eps, omega),
                 lambda: build_n_operator(grid, eps, chi, omega, _WEIGHTS),
                 lambda: monte_carlo_fdt(grid, eps, chi, omega, _WEIGHTS)):
        with pytest.raises(ConfigError, match="omega"):
            call()


def test_integer_and_numpy_frequencies_and_weights_keep_their_bits():
    grid, eps, chi, _, _ = _two_blocks(16, 0.3, 1e-3)
    for a, b in zip(build_linear(grid, eps, 1.0),
                    build_linear(grid, eps, np.float64(1.0))):
        assert np.array_equal(a, b)
    assert np.array_equal(build_linear(grid, eps, 1)[1],
                          build_linear(grid, eps, 1.0)[1])
    spec = ((1.0, 0.5), (0.8, 1.0))
    reference = build_n_operator(grid, eps, chi, 1.0, spec)
    for omega, weights in ((1, ((1, 0.5), (0.8, 1))),
                           (np.float64(1.0),
                            ((np.int64(1), np.float64(0.5)),
                             (np.float64(0.8), np.int64(1))))):
        assert np.array_equal(build_n_operator(grid, eps, chi, omega,
                                               weights), reference)
