"""Nested Clenshaw-Curtis quadrature and thermal frequency summation.

Every pressure integrand in this package is exponentially decaying and
smooth, except for kinks where a tabulated permittivity has a node,
which makes doubling Clenshaw-Curtis rules a good fit: each refinement
reuses all previous function evaluations and the change between two
successive levels is a usable error estimate.

One composite rule covers [0, inf) (semi_infinite_nodes). Breakpoints
b_1 < ... < b_K cut it into finite panels [0, b_1], ..., [b_(K-1), b_K],
each with the order-m rule, and a tail [b_K, inf), with the order-m
rule mapped via x = b_K + scale*u/(1-u). Every panel contributes m
nodes: its right endpoint is the next panel's first node and passes its
weight on to it. Level-m nodes therefore stay the even-indexed nodes of
level 2*m across panel edges, so the nested refinement reuses them
exactly as without breakpoints, and without breakpoints the rule is the
mapped rule alone. Breakpoints at the kinks of an integrand leave it
smooth on every panel, so the rule converges geometrically where one
rule across the kinks converges only algebraically. Level caps count m,
the nodes per panel.

One refinement rule serves every adaptive quadrature here (_refine):
the order doubles from 8 until the change between two successive
levels is at most rel_tol times the latest total, which is returned
with that change as its error. An integrator that reaches its level
cap first returns its last total and change with converged=False.

The same machinery drives the three thermal regimes. A sum over
discrete thermal frequencies (weight 1/2 on the n = 0 term) turns into
an integral over continuous n at zero temperature and collapses to its
n = 0 term in the classical limit. At finite temperature, once the
index n_star over which the terms decay is large for the tolerance, a
head of terms plus the integral of the rest replaces the series.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import HBAR, K_BOLTZMANN

MIN_LEVEL = 8
MAX_LEVEL = 4096

_KINDS = ("zero", "finite", "high")


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive integration or summation.

    Attributes
    ----------
    value : float
        Best estimate.
    error : float
        Estimated absolute error (level-to-level change, a geometric
        tail bound for series, plus Euler-Maclaurin terms for tails).
    n_evals : int
        Number of integrand or term evaluations.
    converged : bool
        Whether the requested tolerance was reached. Callers decide how
        to react; nothing is raised here.
    """

    value: float
    error: float
    n_evals: int
    converged: bool


@dataclass(frozen=True)
class Temperature:
    """Thermal state selector for frequency sums.

    kind is one of "zero", "finite", "high". kelvin is the physical
    temperature for "finite" and "high". For "zero" it is a reference
    value (1 K by convention) that cancels identically in every thermal
    average: the sum over thermal frequencies is replaced by an integral
    over continuous index n, and k_B * kelvin * dn is exactly
    hbar / (2 pi) * dxi independent of the reference.
    """

    kind: str
    kelvin: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("kind must be one of %r" % (_KINDS,))
        if not (self.kelvin > 0.0 and math.isfinite(self.kelvin)):
            raise ValueError("kelvin must be positive and finite")

    @classmethod
    def zero(cls):
        return cls("zero", 1.0)

    @classmethod
    def finite(cls, kelvin):
        return cls("finite", float(kelvin))

    @classmethod
    def high(cls, kelvin):
        return cls("high", float(kelvin))

    def xi(self, n):
        """n-th thermal frequency on the positive imaginary axis, rad/s.

        Accepts non-integer n as well; the "zero" regime integrates over
        continuous n.
        """
        return 2.0 * math.pi * n * K_BOLTZMANN * self.kelvin / HBAR


@lru_cache(maxsize=64)
def _cc_rule(m):
    # Clenshaw-Curtis on [0, 1]: nodes ascending, endpoints included.
    theta = np.pi * np.arange(m + 1) / m
    j = np.arange(m // 2 + 1)
    terms = np.cos(2.0 * np.outer(j, theta)) / (1.0 - 4.0 * j * j)[:, None]
    terms[0] *= 0.5
    terms[-1] *= 0.5
    w = (4.0 / m) * terms.sum(axis=0)
    w[0] *= 0.5
    w[-1] *= 0.5
    x = 0.5 * (1.0 - np.cos(theta))
    return x, 0.5 * w


def clenshaw_curtis(m):
    """Nodes and weights of the (m+1)-point Clenshaw-Curtis rule on [0, 1].

    Parameters
    ----------
    m : int
        Even order >= 2. The rule has m + 1 nodes including both
        endpoints, and the rules for m and 2*m are nested.

    Returns
    -------
    x, w : ndarray
        Nodes in ascending order and the matching weights.
    """
    m = int(m)
    if m < 2 or m % 2:
        raise ValueError("order must be even and >= 2")
    x, w = _cc_rule(m)
    return x.copy(), w.copy()


def semi_infinite_nodes(m, scale=1.0, breaks=()):
    """Composite Clenshaw-Curtis rule on [0, inf), split at breaks.

    The ascending positive breakpoints b_1 < ... < b_K cut [0, inf) into
    the finite panels [0, b_1], ..., [b_(K-1), b_K], each carrying the
    order-m rule, and the tail [b_K, inf) (all of [0, inf) without
    breakpoints), carrying the order-m rule mapped via
    x = b_K + scale*u/(1-u). Each panel contributes m nodes, so both
    arrays have length (K + 1)*m: a finite panel drops its right
    endpoint, which is the first node of the next panel, and moves its
    weight there; the tail drops u = 1 (x = inf). Dropping that one is
    exact whenever the integrand decays faster than 1/x**2, which holds
    for every exponentially damped kernel here. Rules for m and 2*m
    stay nested across panel edges: node k of level m is node 2*k of
    level 2*m, bitwise.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    u, wu = _cc_rule(int(m))
    end_weight = wu[-1]
    u = u[:-1]
    wu = wu[:-1]
    xs, ws = [], []
    a = carry = 0.0
    for b in breaks:
        b = float(b)
        if not a < b < math.inf:
            raise ValueError("breaks must be finite, positive and increasing")
        w = (b - a) * wu
        w[0] += carry
        xs.append(a + (b - a) * u)
        ws.append(w)
        a, carry = b, (b - a) * end_weight
    x = scale * u / (1.0 - u)
    w = wu * scale / (1.0 - u) ** 2
    if not xs:
        return x, w
    w[0] += carry
    xs.append(a + x)
    ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def _refine(levels, rel_tol):
    """Drive a doubling refinement to rel_tol: the module's one stopping rule.

    levels yields (total, cumulative n_evals), coarsest level first, and
    is only advanced while the tolerance is unmet; it ends at the
    caller's level cap.
    """
    total, n_evals = next(levels)
    err = math.inf
    for new_total, n_evals in levels:
        err = abs(new_total - total)
        total = new_total
        if err <= rel_tol * abs(total):
            return QuadratureResult(total, err, n_evals, True)
    return QuadratureResult(total, err, n_evals, False)


def _evaluate(f, x, vectorized):
    if vectorized:
        return np.asarray(f(x), dtype=float)
    return np.array([f(v) for v in x], dtype=float)


def _nested_values(f, scale, max_level, vectorized, breaks=()):
    """Weights and values of f on semi_infinite_nodes(m, scale, breaks),
    m = 8, 16, ..., max_level: each level evaluates f on its new nodes
    only.

    f may return arrays (non-vectorized); vals then stacks them on the
    first axis, node by node.
    """
    m = MIN_LEVEL
    x, w = semi_infinite_nodes(m, scale, breaks)
    vals = _evaluate(f, x, vectorized)
    yield w, vals
    while m < max_level:
        m *= 2
        x, w = semi_infinite_nodes(m, scale, breaks)
        fine = np.empty(x.shape + vals.shape[1:])
        fine[0::2] = vals
        fine[1::2] = _evaluate(f, x[1::2], vectorized)
        vals = fine
        yield w, vals


def integrate_semi_infinite(f, rel_tol=1e-9, scale=1.0, max_level=MAX_LEVEL,
                            vectorized=True, breaks=()):
    """Integrate f over [0, inf) with doubling Clenshaw-Curtis rules.

    Parameters
    ----------
    f : callable
        Integrand. Receives a 1-D array of abscissas when vectorized,
        one float at a time otherwise. Must decay faster than x**-2.
    rel_tol : float
        Target for the level-to-level change relative to the integral.
    scale : float
        Characteristic width of the integrand beyond its last
        breakpoint (beyond 0 without any); the tail nodes put half of
        their mass within scale of that point.
    breaks : sequence of float
        Ascending positive points where f has a kink (a discontinuous
        derivative); see semi_infinite_nodes.

    Returns
    -------
    QuadratureResult
    """
    levels = ((float(w @ vals), w.size)
              for w, vals in _nested_values(f, scale, max_level, vectorized,
                                            breaks))
    return _refine(levels, rel_tol)


def _eval_grid(f, x, y):
    out = np.empty((x.size, y.size))
    for i, xv in enumerate(x):
        for j, yv in enumerate(y):
            out[i, j] = f(xv, yv)
    return out


def integrate_2d(f, rel_tol=1e-8, scale=(1.0, 1.0), max_level=256):
    """Integrate f(x, y) over the quarter plane [0, inf)**2.

    Tensor product of doubling Clenshaw-Curtis rules, refined jointly on
    both axes; previously computed values are reused at every level.
    f is called once per node pair with two floats (keep it cheap, or
    accept the cost: the transparent-plate/mirror route runs one inner
    momentum quadrature per node).

    Returns
    -------
    QuadratureResult
    """
    sx, sy = scale

    def levels():
        m = MIN_LEVEL
        x, wx = semi_infinite_nodes(m, sx)
        y, wy = semi_infinite_nodes(m, sy)
        grid = _eval_grid(f, x, y)
        n_evals = grid.size
        yield float(wx @ grid @ wy), n_evals
        while m < max_level:
            m *= 2
            x, wx = semi_infinite_nodes(m, sx)
            y, wy = semi_infinite_nodes(m, sy)
            fine = np.empty((m, m))
            fine[0::2, 0::2] = grid
            fine[1::2, :] = _eval_grid(f, x[1::2], y)
            fine[0::2, 1::2] = _eval_grid(f, x[0::2], y[1::2])
            n_evals += m * m - grid.size
            grid = fine
            yield float(wx @ grid @ wy), n_evals

    return _refine(levels(), rel_tol)


_TAIL_HEAD = 8
_TAIL_MAX_LEVEL = 256
# f' and f''' at 0 of the cubic through f(-3/2), ..., f(3/2)
_CENTRED = np.array([[1, -27, 27, -1], [-24, 72, -72, 24]]) / 24.0


def _euler_maclaurin(term, n_star, rel_tol, breaks=(), value=float):
    """sum'_n f(n), f = term, by midpoint Euler-Maclaurin beyond a head.

    sum'_n f(n) = f(0)/2 + sum_(1 <= n < N0) f(n) + int_(N0-1/2)^inf f dn
    + f'(N0-1/2)/24 - 7 f'''(N0-1/2)/5760, with the derivatives from the
    cubic through f(N0-2..N0+1). A term ~exp(-2n/n_star) takes
    B = n_star ln(1/rel_tol)/2 series terms, and its f''' term is about
    7/(360 n_star**4) of the sum. The head (N0 >= 8) runs past every
    break (kink) below B; the integral (semi_infinite_nodes, scale
    n_star) splits at those beyond, each of which shifts the sum by
    about 2 exp(-2b/n_star)/n_star**2 of it at most. value maps a sum of
    terms (floats or arrays) to the float rel_tol refers to. The error
    adds those shifts, the integral's level change and the effect of
    the f''' term, which must stay under rel_tol/10. None where the
    series is predicted cheaper or the rule too coarse.
    """
    if not (0.0 < rel_tol < 1.0
            and (7.0 / (36.0 * rel_tol)) ** 0.25 <= n_star < math.inf):
        return None
    budget = -0.5 * n_star * math.log(rel_tol)
    n0 = max([_TAIL_HEAD] + [math.floor(b) + 3 for b in breaks
                             if b < budget])
    light = [float(b) for b in breaks if b >= budget]
    # any break left in the stencil f(N0-2..N0+1) lies past B: declined
    if n0 + 2 + 32 * (len(light) + 1) >= budget:
        return None
    start = n0 - 0.5
    fs = [term(n) for n in range(n0 + 2)]
    d1, d3 = np.tensordot(_CENTRED, np.array(fs[n0 - 2:]), 1)
    last = -7.0 * d3 / 5760.0
    total = fixed = sum(fs[1:n0], 0.5 * fs[0]) + d1 / 24.0 + last

    def levels():
        nonlocal total
        for w, vals in _nested_values(lambda x: term(start + x), n_star,
                                      _TAIL_MAX_LEVEL, False,
                                      [b - start for b in light]):
            total = fixed + np.tensordot(w, vals, 1)
            yield value(total), n0 + 2 + w.size

    res = _refine(levels(), 0.5 * rel_tol)
    bound = rel_tol * abs(res.value)
    last_err = abs(value(total + last) - res.value)
    err = res.error + last_err + 2.0 * abs(res.value) * math.fsum(
        math.exp(-2.0 * b / n_star) for b in light) / n_star ** 2
    return QuadratureResult(res.value, err, res.n_evals, res.converged
                            and err <= bound and last_err <= 0.1 * bound)


def matsubara_sum(term, temperature, rel_tol=1e-8, max_terms=20000,
                  zero_scale=1.0, zero_breaks=()):
    """Primed sum over thermal frequencies: sum'_n term(n), n >= 0.

    The n = 0 term carries weight 1/2. Behaviour per temperature kind:

    * "finite": a head of terms plus the integral of the rest if
      zero_scale is large (_euler_maclaurin; term must accept floats
      beyond the head). Otherwise, or if that misses rel_tol (n_evals
      counts both attempts), the series is summed until a geometric
      bound on the remaining tail, estimated from the last three terms,
      drops below rel_tol relative to the accumulated sum. Each attempt
      starts at term(0), where callers reset flags gathered by term.
    * "high": only the halved n = 0 term survives.
    * "zero": the frequency spacing vanishes and the sum becomes the
      integral of term over continuous n >= 0 (term must accept floats
      there); k_B * temperature.kelvin * result is then the physical
      average for any reference kelvin. Both integrals take zero_scale
      as the n over which term decays and zero_breaks as its kinks.

    Returns
    -------
    QuadratureResult
    """
    kind = temperature.kind
    if kind == "high":
        return QuadratureResult(0.5 * term(0), 0.0, 1, True)
    if kind == "zero":
        return integrate_semi_infinite(term, rel_tol=rel_tol,
                                       scale=zero_scale, vectorized=False,
                                       breaks=zero_breaks)
    tail = _euler_maclaurin(term, zero_scale, rel_tol, zero_breaks)
    if tail is not None and tail.converged:
        return tail
    used = tail.n_evals if tail else 0

    total = 0.5 * term(0)
    last = []
    est = math.inf
    n = 0
    while n < max_terms:
        n += 1
        t = term(n)
        total += t
        last.append(abs(t))
        if len(last) > 3:
            last.pop(0)
        if len(last) == 3 and n >= 4:
            if last[2] == 0.0:
                return QuadratureResult(total, 0.0, used + n + 1, True)
            if last[0] > 0.0 and last[1] > 0.0:
                r = max(last[2] / last[1], last[1] / last[0])
                if r < 1.0:
                    est = last[2] * r / (1.0 - r)
                    if est <= rel_tol * abs(total):
                        return QuadratureResult(total, est, used + n + 1, True)
    return QuadratureResult(total, est, used + n + 1, False)


def double_matsubara_sum(term, temperature, rel_tol=1e-8, max_terms=20000,
                         zero_scale=(1.0, 1.0)):
    """Doubly primed double sum: sum'_n sum'_m term(n, m).

    Both the n = 0 and the m = 0 slices carry weight 1/2 (so the (0, 0)
    term carries 1/4). Regime semantics match matsubara_sum; in the
    "zero" regime the result is the double integral of term over
    continuous (n, m).

    Returns
    -------
    QuadratureResult
    """
    kind = temperature.kind
    if kind == "high":
        return QuadratureResult(0.25 * term(0, 0), 0.0, 1, True)
    if kind == "zero":
        return integrate_2d(term, rel_tol=rel_tol, scale=zero_scale)

    inner_ok = [True]
    count = [0]

    def outer_term(n):
        res = matsubara_sum(lambda m_: term(n, m_), temperature,
                            rel_tol=0.1 * rel_tol, max_terms=max_terms,
                            zero_scale=zero_scale[1])
        inner_ok[0] = (n == 0 or inner_ok[0]) and res.converged
        count[0] += res.n_evals
        return res.value

    res = matsubara_sum(outer_term, temperature, rel_tol=rel_tol,
                        max_terms=max_terms, zero_scale=zero_scale[0])
    return QuadratureResult(res.value, res.error, count[0],
                            res.converged and inner_ok[0])
