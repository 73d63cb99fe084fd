"""Dense-matrix laboratory for the fluctuation-operator identities.

A 1-D scalar Helmholtz model (natural units, c = 1) stands in for the
full vector problem: every identity exercised here, the amended Green's
function, the noise correlator, the Rytov decomposition and the
non-additive combination of two objects, is dimension-agnostic algebra
on a symmetric response matrix and a diagonal local Kerr operator, so a
desk-sized dense realization can verify them to machine precision.

The linear system is H = -D2 - omega**2 diag(eps) - i eta I with D2
the three-point Laplacian; a small uniform absorption eta > 0 plays the
role of the outgoing-wave boundary, and the identities hold for any
dissipative completion. The Kerr response enters as the diagonal
operator

    N(z) = 3 omega**2 chi(z) * sum_w w * Im G1(z, z; omega_w),

a finite positive weight set standing in for the thermal spectrum (the
identities are weight-independent). The amended response is
Gt = (I + G1 N) G1, first order in chi throughout. The diagonal
operators act as column scalings, not as dense products; N takes O(n)
per weight frequency (_inverse_diagonal), and run_verification_suite
builds a grid's dense work once per process (_suite_state).

Conventions: Im of a matrix is elementwise, (A - conj(A)) / 2i, which
for the symmetric matrices of this model equals the anti-Hermitian
part; A* means the elementwise conjugate.
"""

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NearResonanceError
from .quadrature import _real

_COND_LIMIT = 1e13


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with a dissipative background.

    n_points is the matrix dimension (an integer >= 8), spacing the
    step h, eta the uniform absorption added to every diagonal (> 0, so
    that the response is invertible and dissipative).
    """

    n_points: int
    spacing: float
    eta: float = 1e-3

    def __post_init__(self):
        if not (isinstance(self.n_points, numbers.Integral)
                and self.n_points >= 8):
            raise ConfigError("n_points must be an integer >= 8")
        if not (self.spacing > 0.0 and math.isfinite(self.spacing)):
            raise ConfigError("spacing must be positive and finite")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ConfigError("eta must be positive and finite")


def _check_profile(grid, profile, name):
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (grid.n_points,):
        raise ConfigError("%s must have length n_points" % name)
    if not np.all(np.isfinite(profile)):
        raise ConfigError("%s must be finite" % name)
    return profile


def _check_eps(grid, eps_profile):
    eps = _check_profile(grid, eps_profile, "eps_profile")
    if np.any(eps < 1.0):
        raise ConfigError("eps_profile must be >= 1 everywhere")
    return eps


def _check_omega(omega):
    # a frequency of the model as float; the conjugation identity
    # rebuilds at -omega, so only 0, inf and NaN are meaningless
    if not (_real(omega) and omega != 0.0 and math.isfinite(omega)):
        raise ConfigError("omega must be a nonzero, finite real number")
    return float(omega)


def _helmholtz_diagonal(grid, eps, omega, eta):
    """Diagonal of H = -D2 - omega**2 eps - i eta; -1/h**2 beside it."""
    omega = _check_omega(omega)
    return 2.0 / grid.spacing ** 2 - omega * omega * eps - 1j * eta


def _inverse(grid, eps, omega, eta):
    """Dense inverse of the Helmholtz matrix -D2 - omega**2 eps - i eta."""
    off = np.full(grid.n_points - 1, 1.0 / grid.spacing ** 2)
    h = np.diag(_helmholtz_diagonal(grid, eps, omega, eta)) - np.diag(off, 1) \
        - np.diag(off, -1)
    try:
        return np.linalg.inv(h)
    except np.linalg.LinAlgError:
        raise ConfigError("Helmholtz matrix is singular; increase eta")


def _inverse_diagonal(grid, eps, omega, eta):
    """diag(inv(H)) in O(n) from the pivots of the tridiagonal H.

    inv(H)_ii = 1/(L_i + R_i - a_i) with a = diag(H), b = -1/h**2 and
    the pivots L_1 = a_1, L_i = a_i - b**2/L_(i-1), R_n = a_n,
    R_i = a_i - b**2/R_(i+1) (Meurant, SIAM J. Matrix Anal. Appl. 13
    (1992) 707). None can vanish: Im a_i = -eta and Im(-b**2/L) has the
    sign of Im L, so every Im L_k, Im R_k <= -eta for eta > 0 (>= -eta
    for eta < 0), and so is Im(L_i + R_i - a_i).
    """
    diag = _helmholtz_diagonal(grid, eps, omega, eta).tolist()
    b2 = grid.spacing ** -4
    left, right = diag[:1], diag[-1:]
    for a_fwd, a_bwd in zip(diag[1:], diag[-2::-1]):
        left.append(a_fwd - b2 / left[-1])
        right.append(a_bwd - b2 / right[-1])
    return 1.0 / (np.array(left) + right[::-1] - np.array(diag))


def build_linear(grid, eps_profile, omega, eta=None):
    """Vacuum and full response of the linear 1-D model.

    Parameters
    ----------
    grid : Grid1D
    eps_profile : array
        Real permittivity per point, >= 1 (1 outside the objects).
    omega : float
        Frequency, nonzero and finite (natural units).
    eta : float, optional
        Override of grid.eta. A negative value builds the conjugate
        (time-reversed) completion, used by the conjugation identity
        G(-omega, -eta) = conj(G(omega, eta)).

    Returns
    -------
    g0, g1, v : ndarray
        Dense inverses of the vacuum and full Helmholtz matrices and
        the diagonal potential v = omega**2 (eps - 1), satisfying
        inv(g1) = inv(g0) - v to machine precision.
    """
    eps = _check_eps(grid, eps_profile)
    omega = _check_omega(omega)
    eta = float(grid.eta if eta is None else eta)
    if eta == 0.0 or not math.isfinite(eta):
        raise ConfigError("eta must be nonzero and finite")
    g0 = _inverse(grid, np.ones(grid.n_points), omega, eta)
    g1 = _inverse(grid, eps, omega, eta)
    return g0, g1, omega * omega * np.diag(eps - 1.0)


def _spectral_diag(grid, eps, weights):
    """sum_w w * diag(Im G1(omega_w)), in O(n) per weight frequency."""
    acc = np.zeros(grid.n_points)
    for w_freq, w in weights:
        if not (_real(w) and 0.0 < w < math.inf):
            raise ConfigError("weights must be positive, finite real numbers")
        acc += w * _inverse_diagonal(grid, eps, w_freq, grid.eta).imag
    return acc


def _n_diag(omega, chi, spectral):
    return np.diag(3.0 * omega * omega * chi * spectral)


def build_n_operator(grid, eps_profile, chi_profile, omega, weight_spec):
    """Diagonal Kerr operator from the local fluctuation spectrum.

    N(z) = 3 omega**2 chi(z) sum_(w', w) w * Im G1(z, z; w'): the diagonal
    of the full response at every weight frequency, O(n) each, which
    is why the permittivity profile is required alongside chi.

    Parameters
    ----------
    weight_spec : sequence of (frequency, weight) pairs
        Finite positive surrogate for the thermal spectrum; must be
        non-empty, frequencies nonzero and finite, weights in (0, inf).

    Returns
    -------
    ndarray
        Real diagonal matrix supported on the chi mask.
    """
    chi = _check_profile(grid, chi_profile, "chi_profile")
    eps = _check_eps(grid, eps_profile)
    try:
        weights = [(w_freq, w) for w_freq, w in weight_spec]
    except (TypeError, ValueError):
        raise ConfigError("weight_spec must hold (frequency, weight) pairs")
    if not weights:
        raise ConfigError("weight_spec must not be empty")
    return _n_diag(_check_omega(omega), chi,
                   _spectral_diag(grid, eps, weights))


def gtilde(g1, n_op):
    """Amended response (I + G1 N) G1, first order in the Kerr term."""
    _check_diagonal(n_op, "n_op")
    return (np.eye(g1.shape[0]) + g1 * np.diagonal(n_op)) @ g1


def naive_combination(gt_alpha, gt_beta, g0):
    """Linear-rule combination of two dressed single-object responses.

    Evaluates Gb @ inv(Ga + Gb - Ga inv(G0) Gb) @ Ga by dense solves.
    For purely linear objects this reproduces the union system exactly;
    with Kerr terms it misses the cross contribution that
    combined_correction restores. Raises NearResonanceError (with the
    condition number attached) when the inner matrix is too ill
    conditioned to trust.
    """
    inner = gt_alpha + gt_beta - gt_alpha @ np.linalg.solve(g0, gt_beta)
    cond = np.linalg.cond(inner)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NearResonanceError(
            "combination matrix condition number %.3g exceeds %.1g"
            % (cond, _COND_LIMIT), condition_number=float(cond))
    return gt_beta @ np.linalg.solve(inner, gt_alpha)


def _check_diagonal(mat, name):
    if np.count_nonzero(mat - np.diag(np.diagonal(mat))):
        raise ConfigError("%s must be diagonal" % name)


def combined_correction(g_prime, n_total, n_alpha, n_beta):
    """Restore the union Kerr term on a combined response.

    Returns G' + G' (N_total - N_alpha - N_beta) G'. The correction is
    the part of the union N that no single-object response carries: it
    vanishes when one object is alone (N_total = N_alpha, N_beta = 0)
    and the result matches the directly built union response to second
    order in chi.
    """
    for name, mat in (("n_total", n_total), ("n_alpha", n_alpha),
                      ("n_beta", n_beta)):
        _check_diagonal(mat, name)
    support = np.diagonal(n_alpha).astype(bool) \
        | np.diagonal(n_beta).astype(bool)
    if np.any(support & ~np.diagonal(n_total).astype(bool)):
        raise ConfigError(
            "single-object Kerr masks must lie inside the union mask")
    delta = np.diagonal(n_total - n_alpha - n_beta)
    return g_prime + (g_prime * delta) @ g_prime


def _im(mat):
    return (mat - np.conj(mat)) / 2j


def _rytov_residual(gt, v, n_op, h0):
    # h0 = inv(G0), which the verification suite shares between its rows
    target = _im(gt)
    resid = target - gt @ _im(v + n_op - h0) @ np.conj(gt)
    return float(np.linalg.norm(resid) / np.linalg.norm(target))


def rytov_residual(gt, v, n_op, g0):
    """Relative defect of the fluctuation-dissipation decomposition.

    Computes ||Im Gt - Gt Im[V + N - inv(G0)] Gt*||_F / ||Im Gt||_F
    with elementwise Im and conjugation. The identity is exact for the
    linear system and holds to O(chi**2) with the first-order Kerr
    response. A noise strength b would scale numerator and denominator
    alike, so it is left out.
    """
    return _rytov_residual(gt, v, n_op, np.linalg.inv(g0))


def noise_covariance(g1, n_op):
    """Covariance of the propagated noise field, projected to PSD.

    C = Im G1 + G1 (Im N) G1*, hermitized (no noise strength b: it would
    scale every target alike); negative eigenvalues are clipped to zero
    so the matrix can seed Gaussian sampling.

    Returns
    -------
    c_psd : ndarray
        Hermitian positive-semidefinite covariance.
    clipped : float
        Clipped mass as a fraction of the trace; a warning is emitted
        above 1% (first-order theory strained). With a real Kerr
        operator the second term vanishes and nothing is clipped.
    """
    _check_diagonal(n_op, "n_op")
    c = _im(g1) + (g1 * _im(np.diagonal(n_op))) @ np.conj(g1).T
    c = 0.5 * (c + np.conj(c).T)
    lam, u = np.linalg.eigh(c)
    clipped_mass = float(-lam[lam < 0.0].sum()) + 0.0
    trace = float(lam.sum())
    fraction = clipped_mass / trace if trace > 0.0 else math.inf
    if fraction > 0.01:
        warnings.warn("noise covariance clipped %.3g of its trace"
                      % fraction, stacklevel=2)
    c_psd = (u * np.clip(lam, 0.0, None)) @ np.conj(u).T
    return c_psd, fraction


def _mc_operands(g1, n_op, gt, c_psd):
    """The seed-independent operands of the sampled check.

    B = (I + G1 N) u sqrt(lam), where c_psd = u diag(lam) u^H, and the
    target Im Gt of gt = gtilde(g1, n_op), real, with its max-abs.
    """
    dressing = np.eye(g1.shape[0]) + g1 * np.diagonal(n_op)
    lam, u = np.linalg.eigh(c_psd)
    b_mat = dressing @ (u * np.sqrt(np.clip(lam, 0.0, None)))
    # a copy: the .real view would keep the complex array alive
    target = _im(gt).real.copy()
    return b_mat, target, np.max(np.abs(target))


def _mc_deviation(b_mat, target, target_max, samples, rng):
    """Deviation of the sampled <E (x) E*> from Im Gt, relative.

    The fields are E = B z, where z = (x + i y)/sqrt(2) holds `samples`
    complex normal columns from rng, so the ensemble average is
    B (z z^H / samples) B^H; 2 z z^H = x x^T + y y^T + i (y x^T - x y^T)
    is formed in real arithmetic.
    """
    n = b_mat.shape[0]
    x = rng.standard_normal((n, samples))
    y = rng.standard_normal((n, samples))
    cross = y @ x.T
    gram = (x @ x.T + y @ y.T + 1j * (cross - cross.T)) / (2.0 * samples)
    del x, y, cross  # the draws would otherwise set the peak memory
    c_mc = b_mat @ gram @ np.conj(b_mat).T
    return float(np.max(np.abs(c_mc - target)) / target_max)


def monte_carlo_fdt(grid, eps_profile, chi_profile, omega, weight_spec,
                    samples=1000, seed=0):
    """Sampled check of the amended fluctuation-dissipation relation.

    Draws Gaussian noise fields with the projected covariance, dresses
    them to first order, E = (I + G1 N)(G1 F), and compares the
    ensemble average <E (x) E*> against Im Gt.

    samples must be an integer >= 1000 and seed one >= 0, else ConfigError.

    Returns
    -------
    float
        max |<E (x) E*> - Im Gt| / max |Im Gt|; decays like
        samples**-0.5 and is bitwise reproducible for a fixed seed.
    """
    if not (isinstance(samples, numbers.Integral) and samples >= 1000):
        raise ConfigError("samples must be an integer >= 1000")
    rng = _generator(seed)
    n_op = build_n_operator(grid, eps_profile, chi_profile, omega,
                            weight_spec)
    g1 = _inverse(grid, _check_eps(grid, eps_profile), omega, grid.eta)
    c_psd, _ = noise_covariance(g1, n_op)
    operands = _mc_operands(g1, n_op, gtilde(g1, n_op), c_psd)
    del n_op, g1, c_psd  # free before the draws
    return _mc_deviation(*operands, samples, rng)


def _generator(seed):
    if not isinstance(seed, numbers.Integral):
        raise ConfigError("seed must be an integer")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class CheckResult:
    """One row of the verification table."""

    name: str
    value: float
    threshold: float
    passed: bool


# a fixed bound on the cached suite states: a sweep of seeds that cycles
# through at most this many grid sizes finds every state after its first
# pass; each entry keeps about 24 n_points**2 bytes (1.5 MB at 256)
_SUITE_CACHE_SIZE = 8


def _asymmetry(mat):
    return float(np.linalg.norm(mat - mat.T) / np.linalg.norm(mat))


def run_verification_suite(n_points=32, seed=0):
    """Exercise every operator identity on a two-object scenario.

    Builds two dielectric blocks on n_points cells of width 0.3, calibrates
    the Kerr amplitude so that ||G1 N|| is a small perturbation (~1e-2), and
    returns a list of CheckResult rows: exact linear identities at machine
    thresholds, first-order identities at O(chi**2) thresholds, and the
    statistical fluctuation-dissipation check.

    The seed, an integer >= 0 (else ConfigError), enters only the last
    row's draw; the other rows are the same, bit for bit, whether this
    call built them or found them built (_suite_state).
    """
    rng = _generator(seed)
    # the grid checks n_points in front of the cache, whose keys 8 and
    # 8.0 would be equal
    rows, operands = _suite_state(Grid1D(n_points, 0.3))
    mc_samples = 2000
    value = _mc_deviation(*operands, mc_samples, rng)
    threshold = 5.0 / math.sqrt(mc_samples)
    return list(rows) + [CheckResult("monte_carlo_fdt", value, threshold,
                                     value <= threshold)]


@functools.lru_cache(maxsize=_SUITE_CACHE_SIZE)
def _suite_state(grid):
    """The suite's seed-independent rows and Monte-Carlo operands.

    Returns the nine CheckResult rows before the sampled one, as a
    tuple, and the operands of _mc_deviation (_mc_operands), read-only.
    The seed enters only the draw, so a grid's dense work is kept in an
    LRU cache of _SUITE_CACHE_SIZE grids and done once per process; each
    response the rows compare is inverted once, and G1, inv(G0), N and
    the noise covariance are shared between the rows and the operands.
    """
    n_points = grid.n_points
    block = max(3, n_points // 5)
    a0 = n_points // 8
    b1 = n_points - n_points // 8
    mask_alpha = np.arange(a0, a0 + block)
    mask_beta = np.arange(b1 - block, b1)
    eps = np.ones(n_points)
    eps[mask_alpha] = 2.25
    eps[mask_beta] = 3.0
    omega = 1.0
    weight_spec = ((0.8, 0.6), (1.1, 0.4))
    results = []

    def add(name, value, threshold):
        results.append(CheckResult(name, float(value), float(threshold),
                                   bool(value <= threshold)))

    g0, g1, v = build_linear(grid, eps, omega)
    # inv(g1) = inv(g0) - v in resolvent form, so that no second
    # inversion's round-off enters the residual; v is diagonal
    add("linear_inverse_identity",
        np.linalg.norm(g1 - g0 - (g0 * np.diagonal(v)) @ g1)
        / np.linalg.norm(g1), 1e-12)

    # calibrate chi so the Kerr dressing is a genuine small perturbation
    spectral = _spectral_diag(grid, eps, weight_spec)
    probe = np.zeros(n_points)
    probe[mask_alpha] = 1.0
    probe[mask_beta] = 0.5
    scale = np.linalg.norm(g1 * np.diagonal(_n_diag(omega, probe, spectral)),
                           2)
    chi = 5e-3 / scale * probe

    n_total = _n_diag(omega, chi, spectral)
    gt = gtilde(g1, n_total)
    add("reciprocity", max(_asymmetry(g0), _asymmetry(g1), _asymmetry(gt)),
        1e-12)

    # single-object systems on the same grid
    def isolated(mask):
        eps_i = np.ones(n_points)
        eps_i[mask] = eps[mask]
        chi_i = np.zeros(n_points)
        chi_i[mask] = chi[mask]
        return (_inverse(grid, eps_i, omega, grid.eta),
                _n_diag(omega, chi_i,
                        _spectral_diag(grid, eps_i, weight_spec)))

    g1_a, n_a = isolated(mask_alpha)
    g1_b, n_b = isolated(mask_beta)

    combo_linear = naive_combination(g1_a, g1_b, g0)
    add("union_combination_linear",
        np.linalg.norm(combo_linear - g1) / np.linalg.norm(g1), 1e-10)
    combo_swapped = naive_combination(g1_b, g1_a, g0)
    add("combination_symmetry",
        np.linalg.norm(combo_linear - combo_swapped)
        / np.linalg.norm(combo_linear), 1e-10)

    gt_a = gtilde(g1_a, n_a)
    corrected_single = combined_correction(gt_a, n_a, n_a, np.zeros_like(n_a))
    add("single_object_correction",
        np.linalg.norm(corrected_single - gt_a)
        / np.linalg.norm(corrected_single), 1e-13)

    h0 = np.linalg.inv(g0)
    add("rytov_linear", _rytov_residual(g1, v, np.zeros_like(v), h0), 1e-10)
    add("rytov_nonlinear", _rytov_residual(gt, v, n_total, h0), 1e-3)
    del h0, gt_a  # free before the noise rows, whose arrays set the peak

    gt_m = gtilde(_inverse(grid, eps, -omega, -grid.eta), n_total)
    add("conjugation",
        np.linalg.norm(np.conj(gt) - gt_m) / np.linalg.norm(gt), 1e-12)

    c_psd, clipped = noise_covariance(g1, n_total)
    add("noise_psd_clip", clipped, 1e-12)

    operands = _mc_operands(g1, n_total, gt, c_psd)
    for array in operands[:2]:
        array.flags.writeable = False
    return tuple(results), operands
