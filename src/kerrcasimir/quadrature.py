"""Nested Clenshaw-Curtis quadrature and thermal frequency summation.

Every pressure integrand in this package is exponentially decaying and
smooth, except for kinks where a tabulated permittivity has a node,
which makes doubling Clenshaw-Curtis rules a good fit: each refinement
reuses all previous function evaluations and the change between two
successive levels is a usable error estimate. A panel edge at a kink
leaves the integrand smooth on every panel, so the rule converges
geometrically where one rule across the kinks converges only
algebraically.

The module in brief: _rule is the composite rule on [0, inf);
_refine_rows, the row driver, is the one doubling loop and _settled its
stopping rule; _Books keeps the work and flags of nested quadratures;
integrate_semi_infinite and matsubara_sum are the public drivers, the
latter the sum over thermal frequencies in its three regimes.
"""

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .constants import HBAR, K_BOLTZMANN

MIN_LEVEL = 8
MAX_LEVEL = 4096

_KINDS = ("zero", "finite", "high")
# kelvin range: xi_1 and n_star at every LayerStack gap stay normal
_MIN_KELVIN = 2.0 ** -64
_MAX_KELVIN = 2.0 ** 64


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
        Number of innermost integrand or term evaluations.
    converged : bool
        Whether the requested tolerance was reached. Callers decide how
        to react; nothing is raised here.
    """

    value: float
    error: float
    n_evals: int
    converged: bool

    def scaled(self, factor):
        """The result times factor: value * factor, error * |factor|,
        and a zero value +0.0 whatever the sign of factor."""
        return QuadratureResult(factor * self.value + 0.0,
                                abs(factor) * self.error,
                                self.n_evals, self.converged)


def _as_result(value):
    # a plain term value is one exact evaluation
    return (value if isinstance(value, QuadratureResult)
            else QuadratureResult(value, 0.0, 1, True))


class _Books:
    """The work and flags of a row term over every attempt of a driver.

    Quadratures nest: a term may be a QuadratureResult. The books pass
    on its value and add its n_evals (a plain number counts 1) over
    every call, dropped attempts included, so n_evals counts the
    innermost evaluations; they AND the flags of the calls (an
    integral's terms, not the series' entries), and close puts both on
    the attempt a driver returns. Called with indices or nodes, the
    books return the list of the row term's values.
    """

    def __init__(self, rows):
        self.rows, self.n_evals, self.ok = rows, 0, True

    def __call__(self, ns):
        values, flags = self.entries(ns)
        self.ok = self.ok and all(flags)
        return values

    def entries(self, ns):
        """The values of ns and one flag each, the flags left out of the
        books': the series keeps those of the terms it folds."""
        values, flags = [], []
        for res in self.rows(ns):
            res = _as_result(res)
            self.n_evals += res.n_evals
            values.append(res.value)
            flags.append(res.converged)
        return values, flags

    def close(self, res):
        """res, an attempt over these books, with their work and the
        flags of their calls."""
        return replace(res, n_evals=self.n_evals,
                       converged=res.converged and self.ok)


@dataclass(frozen=True)
class Temperature:
    """Thermal state selector for frequency sums.

    kind is one of "zero", "finite", "high". kelvin is the physical
    temperature for "finite" and "high". For "zero" it is a reference
    value (1 K by convention) that cancels identically in every thermal
    average: the sum over thermal frequencies is replaced by an integral
    over continuous index n, and k_B * kelvin * dn is exactly
    hbar / (2 pi) * dxi independent of the reference. kelvin must be a
    real number (_real) in [2**-64, 2**64] (about 5.4e-20 to 1.8e19 K),
    kept as a float; anything else raises ValueError.
    """

    kind: str
    kelvin: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("kind must be one of %r" % (_KINDS,))
        if not (_real(self.kelvin)
                and _MIN_KELVIN <= self.kelvin <= _MAX_KELVIN):  # NaN too
            raise ValueError("kelvin must be a real number in [2**-64, "
                             "2**64]")
        object.__setattr__(self, "kelvin", float(self.kelvin))

    @classmethod
    def zero(cls):
        return cls("zero", 1.0)

    @classmethod
    def finite(cls, kelvin):
        return cls("finite", kelvin)

    @classmethod
    def high(cls, kelvin):
        return cls("high", kelvin)

    def xi(self, n):
        """n-th thermal frequency on the positive imaginary axis, rad/s.

        Accepts non-integer n as well; the "zero" regime integrates over
        continuous n.
        """
        return 2.0 * math.pi * n * K_BOLTZMANN * self.kelvin / HBAR


@lru_cache(maxsize=64)
def _cc_rule(m):
    # Clenshaw-Curtis on [0, 1]: nodes ascending, endpoints included. The
    # cosine rows j = 0 .. m/2 of the weight sum are added one at a time,
    # in order: O(m) memory, and the bits of the row-by-row matrix sum
    theta = np.pi * np.arange(m + 1) / m
    half = m // 2
    total = np.full(m + 1, 0.5)  # row j = 0, halved
    for j in range(1, half + 1):
        row = np.cos(2.0 * (j * theta)) / (1.0 - 4.0 * j * j)
        total += 0.5 * row if j == half else row
    w = (4.0 / m) * total
    w[0] *= 0.5
    w[-1] *= 0.5
    x = 0.5 * (1.0 - np.cos(theta))
    return _frozen(x, 0.5 * w)


@lru_cache(maxsize=64)
def _unit_rule(m):
    # the order-m rule without u = 1: u, wu, 1 - u, (1 - u)**2, and the
    # weight of the dropped end node
    u, wu = _cc_rule(m)
    om = 1.0 - u[:-1]
    return _frozen(u[:-1], wu[:-1], om, om ** 2) + (wu[-1],)


def _frozen(*arrays):
    # cached rules are shared: read-only
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _rule(m, scale, breaks=()):
    """Nodes and weights of the composite rule of order m on [0, inf).

    Breakpoints b_1 < ... < b_K cut it into finite panels [0, b_1], ...,
    [b_(K-1), b_K], each with the order-m rule, and a tail [b_K, inf),
    with the order-m rule mapped via x = b_K + scale*u/(1-u). Every panel
    contributes m nodes: its right endpoint is the next panel's first
    node and passes its weight on to it, and the tail drops u = 1
    (x = inf), which is exact for an integrand that decays faster than
    1/x**2, as every exponentially damped kernel here does. So node k of
    level m is node 2k of level 2m, bitwise, across panel edges, and
    without breakpoints the rule is the mapped rule alone. scale may be
    a column: one row of nodes and weights per scale, sharing the breaks.
    """
    u, wu, om, om2, end_weight = _unit_rule(m)
    xs, ws = [], []
    a = carry = 0.0
    for b in breaks:
        w = (b - a) * wu
        w[0] += carry
        xs.append(a + (b - a) * u)
        ws.append(w)
        a, carry = b, (b - a) * end_weight
    x, w = scale * u / om, wu * scale / om2
    if not xs:
        return x, w
    w[..., 0] += carry
    xs.append(a + x)
    ws.append(w)
    return tuple(np.concatenate(np.broadcast_arrays(*v), axis=-1)
                 for v in (xs, ws))


def _check_scale(scale):
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")


def _check_breaks(breaks):
    breaks = [float(b) for b in breaks]
    if not all(a < b < math.inf for a, b in zip([0.0] + breaks, breaks)):
        raise ValueError("breaks must be finite, positive and increasing")
    return breaks


def _real(value):
    # a real number of every input check; not a bool, which is an int but
    # means a flag, nor a string that float() would parse
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_rel_tol(rel_tol):
    if not 0.0 < rel_tol < 1.0:  # NaN included
        raise ValueError("rel_tol must lie in (0, 1)")


def _settled(err, total, n_nodes, rel_tol):
    # the one stopping rule: the change err between two successive levels
    # is at most rel_tol times the latest total, or at most n_nodes times
    # 2**-1074, by which a sum of n_nodes products can be off however far
    # the rule is refined (this binds only when |total| <~ 1e-307)
    return err <= rel_tol * abs(total) + n_nodes * 2.0 ** -1074


def _refine_rows(kernel, total, scales, rel_tol, max_level, breaks=()):
    """One doubling refinement per row, in lockstep: the row driver.

    Row i integrates over the composite rule _rule(m, scales[i], breaks),
    m = 8, 16, ... up to max_level. Each level makes one call
    kernel(y, rows) for the rows still refining: y is the block of their
    new nodes, one row each, and rows the array of their indices into
    scales. kernel returns the values at y in its shape, with any
    trailing axes after it. total(w, vals) maps one row's weights and
    node values to (total, payload). A row stops by _settled and drops
    out, so it ends as it would alone, bit for bit, whatever rows share
    its batch; a row that reaches max_level first returns its last total
    and change, flagged.

    Returns
    -------
    list of (payload, QuadratureResult)
        One per row, from its last level; n_evals counts its nodes.
    """
    scales = np.array(scales, dtype=float)[:, None]
    rows = np.arange(len(scales))
    out, totals = [None] * len(rows), [None] * len(rows)
    m = MIN_LEVEL
    y, w = _rule(m, scales, breaks)
    vals = kernel(y, rows)
    while True:
        last = 2 * m > max_level
        n_nodes = w.shape[1]
        keep = []
        for j, i in enumerate(rows):
            t, payload = total(w[j], vals[j])
            err = math.inf if totals[j] is None else abs(t - totals[j])
            ok = totals[j] is not None and _settled(err, t, n_nodes, rel_tol)
            if ok or last:
                out[i] = payload, QuadratureResult(t, err, n_nodes, ok)
            totals[j] = t
            keep.append(not ok)
        if last or not any(keep):
            return out
        if not all(keep):
            rows, scales, vals = rows[keep], scales[keep], vals[keep]
            totals = [t for t, k in zip(totals, keep) if k]
        m *= 2
        y, w = _rule(m, scales, breaks)
        fine = np.empty(w.shape + vals.shape[2:])
        fine[:, 0::2] = vals
        fine[:, 1::2] = kernel(y[:, 1::2], rows)
        vals = fine


def integrate_semi_infinite(f, rel_tol=1e-9, scale=1.0, max_level=MAX_LEVEL,
                            breaks=(), value=float):
    """Integrate f over [0, inf) with doubling Clenshaw-Curtis rules.

    Parameters
    ----------
    f : callable
        Integrand, a row term: called once per level with a 1-D array of
        all the new abscissas of the level, it returns one float, array
        or QuadratureResult per abscissa, as a sequence or as one array
        of its values, so that an inner quadrature can refine them all
        at once as the rows of one batch. Must decay faster than x**-2.
    rel_tol : float
        Target for the level-to-level change relative to the integral;
        a value outside (0, 1), NaN included, raises ValueError.
    scale : float
        Characteristic width of the integrand beyond its last
        breakpoint (beyond 0 without any); the tail nodes put half of
        their mass within scale of that point. Not positive and
        finite: ValueError.
    max_level : int
        Largest order per panel, in [8, 4096] (else ValueError, raised
        before f is evaluated): the rule doubles from 8 and stops at the
        last order not above it.
    breaks : sequence of float
        Ascending positive finite points where f has a kink (a
        discontinuous derivative), each the edge of a panel of the
        composite rule (_rule); else ValueError, raised before f is
        evaluated.
    value : callable
        Maps the elementwise integral of f to the float that is
        returned and that rel_tol refers to.

    Returns
    -------
    QuadratureResult
        n_evals counts the innermost evaluations (_Books).
    """
    _check_rel_tol(rel_tol)
    _check_scale(scale)
    if not MIN_LEVEL <= max_level <= MAX_LEVEL:  # NaN and inf included
        raise ValueError("max_level must lie in [8, 4096]")
    books = _Books(f)
    (_, res), = _refine_rows(
        lambda y, _: np.asarray(books(y[0]), dtype=float)[None],
        lambda w, vals: (value(np.tensordot(w, vals, 1)), None),
        [scale], rel_tol, max_level, _check_breaks(breaks))
    return books.close(res)


_TAIL_HEAD = 8
# level cap of both thermal integrals: zero T, and the tail at finite T
_TAIL_MAX_LEVEL = 256
# f' and f''' at 0 of the cubic through f(-3/2), ..., f(3/2)
_CENTRED = np.array([[1, -27, 27, -1], [-24, 72, -72, 24]]) / 24.0
# most terms in one block of the finite-temperature series, so a bound
# on the momentum batch a block is (lifshitz_linear._momentum_batch).
# Blocks end at the head's end, then at the budget B, then where the
# geometric tail estimate meets the rule; n_evals counts the terms the
# last block evaluates past the stop. A block moves no value, error or
# flag: rows end as alone, and the series folds one term at a time
_SERIES_BLOCK = 64
# most terms past index 0 that the finite series folds (matsubara_sum)
_MAX_TERMS = 20000
# most terms in the head of the Euler-Maclaurin tail
_MAX_HEAD = 2 ** 16


def _series_budget(n_star, rel_tol):
    # B: the series terms that a term ~exp(-2n/n_star) takes to fall
    # to rel_tol of the sum
    return -0.5 * n_star * math.log(rel_tol)


def _tail_head(n_star, rel_tol, breaks):
    """(N0 + 2, light): the terms of the Euler-Maclaurin tail's head
    f(0..N0-1) and stencil f(N0-2..N0+1), and the breaks of its
    integral; or None: the tail is declined.

    With B = _series_budget(n_star, rel_tol), the head (N0 >= 8) runs
    past every break (kink) below B, so the stencil holds none; light
    are the others, those that matsubara_sum's kink rule keeps, past N0,
    where the integral splits. The tail's f''' term is about
    7/(360 n_star**4) of the sum and must stay under rel_tol/10.
    Declined where n_star is too small for that, where the head, the
    stencil and 32 nodes per panel of the integral reach B (the series
    is predicted cheaper), or where the head would hold more than
    _MAX_HEAD terms (a table kink far beyond the thermal frequency, as
    far below 1 K).
    """
    budget = _series_budget(n_star, rel_tol)
    light = [b for b in breaks if b >= budget]
    head = max([_TAIL_HEAD] + [math.floor(b) + 3 for b in breaks
                               if b < budget]) + 2
    if (n_star < (7.0 / (36.0 * rel_tol)) ** 0.25 or head > _MAX_HEAD
            or head + 32 * (1 + len(light)) >= budget):
        return None
    return head, light


def _euler_maclaurin(books, n0, head_sum, stencil, n_star, rel_tol, light,
                     value):
    """sum'_n f(n) from its head by midpoint Euler-Maclaurin.

    sum'_n f(n) = head_sum + int_(N0-1/2)^inf f dn + f'(N0-1/2)/24
    - 7 f'''(N0-1/2)/5760, where head_sum = f(0)/2 + f(1) + ... +
    f(N0-1) and the derivatives come from the cubic through the stencil
    f(N0-2..N0+1). The integral (_rule, scale n_star) is a batch of one
    row of the row driver, one call of books per level, whose payload
    is the array total of its last level, for the f''' check. It splits
    at the kinks light (_tail_head), each of which shifts the sum by
    about 2 exp(-2b/n_star)/n_star**2 of it at most; value is
    matsubara_sum's. The error adds those shifts, the integral's level
    change and the effect of the f''' term, which must stay under
    rel_tol/10; n_evals counts the integral's nodes.
    """
    start = n0 - 0.5
    d1, d3 = np.tensordot(_CENTRED, np.array(stencil), 1)
    last = -7.0 * d3 / 5760.0
    fixed = head_sum + d1 / 24.0 + last

    def level(w, vals):
        total = fixed + np.tensordot(w, vals, 1)
        return value(total), total

    (total, res), = _refine_rows(
        lambda y, _: np.asarray(books(start + y[0]), dtype=float)[None],
        level, [n_star], 0.5 * rel_tol, _TAIL_MAX_LEVEL,
        breaks=[b - start for b in light])
    bound = rel_tol * abs(res.value)
    last_err = abs(value(total + last) - res.value)
    # n_star is capped where its square would overflow: that overstates
    # only a bound below 1e-300 of the sum
    err = res.error + last_err + 2.0 * abs(res.value) * math.fsum(
        math.exp(-2.0 * b / n_star) for b in light) / min(n_star, 1e150) ** 2
    return QuadratureResult(res.value, err, res.n_evals, res.converged
                            and err <= bound and last_err <= 0.1 * bound)


def matsubara_sum(rows, temperature, rel_tol=1e-8, zero_scale=1.0,
                  zero_breaks=(), value=float):
    """Primed sum over thermal frequencies: sum'_n f(n), n >= 0.

    rows maps a sequence of thermal indices to their terms f(n), a row
    term as integrate_semi_infinite's f; the n = 0 term carries weight
    1/2. Behaviour per kind:

    * "finite": one loop sums the series from n = 0, its terms folded
      one at a time in index order, and has two stops. Where zero_scale
      is large (_tail_head), the first is at N0 + 1, past the head and
      its stencil: unless the series has stopped, the head sum and the
      stencil give the Euler-Maclaurin tail (_euler_maclaurin; rows must
      accept floats beyond the head), which is the result if it meets
      rel_tol. Otherwise the loop goes on to the second: a geometric
      bound on the remaining tail, estimated from the last three steps
      of value(partial sum), drops below rel_tol relative to
      value(partial sum), or the series stops flagged after
      max(_MAX_TERMS, N0 + 1) terms past n = 0.
    * "high": only the halved n = 0 term survives, value(f(0) / 2),
      and its error is scaled like the value (1/2 for value = float,
      1/4 for a quadratic form); rows is called with [0] alone.
    * "zero": the frequency spacing vanishes and the sum becomes
      integrate_semi_infinite of f over continuous n >= 0 (rows must
      accept floats); k_B T times the result is the physical average
      (Temperature). Both integrals take zero_scale as the n over which
      f decays and stop at _TAIL_MAX_LEVEL nodes per panel.

    zero_breaks are the kinks of f in n, and one rule, enforced here
    for every regime, says which of them matter. With zero_scale = n*
    and B = n* ln(1/rel_tol)/2 (_series_budget), a kink at or past 2B
    is dropped: there a term ~exp(-2n/n*) has fallen below rel_tol**2,
    and the level change of the rule covers the kink with no panel.
    Every kink left lies below 2B. The zero-temperature integral splits
    its panels at them; at finite temperature the head runs past those
    below B (_tail_head) and the tail's integral splits at those in
    [B, 2B). So f falls by a factor of at most 1/rel_tol**2 across the
    first panel, [0, b_1], which its rule resolves with no further edge.

    Arrays are summed elementwise and value maps the sum to the float
    returned, which rel_tol and the error refer to (<F, F> for the Kerr
    frequency vectors F). A rel_tol outside (0, 1), NaN included, raises
    ValueError, and so do a zero_scale that is not positive and finite
    and zero_breaks that are not positive, finite and increasing, in
    every regime, before rows is called.

    Returns
    -------
    QuadratureResult
        n_evals counts the innermost evaluations of every attempt
        (_Books); the flag is that of the attempt returned.
    """
    _check_rel_tol(rel_tol)
    _check_scale(zero_scale)
    # the kink rule (see above): kinks at or past 2B are dropped
    budget = _series_budget(zero_scale, rel_tol)
    kinks = [b for b in _check_breaks(zero_breaks) if b < 2.0 * budget]
    kind = temperature.kind
    if kind == "high":
        res = _as_result(rows([0])[0])
        full, half = value(res.value), value(0.5 * res.value)
        return replace(res, value=half,
                       error=abs(half / full if full else 0.5) * res.error)
    if kind == "zero":
        return integrate_semi_infinite(rows, rel_tol, zero_scale,
                                       _TAIL_MAX_LEVEL, kinks, value)
    books = _Books(rows)
    # the head and its stencil, [0, N0 + 2); none where the tail declines
    head, light = _tail_head(zero_scale, rel_tol, kinks) or (0, ())
    first = max(4.0, budget) + 1.0
    cap = max(_MAX_TERMS, head - 1)

    def block(start, size):
        # the values and flags of the next size terms from index start:
        # at least one, none past cap (_SERIES_BLOCK)
        size = math.ceil(min(size, _SERIES_BLOCK)) if size >= 1.0 else 1
        return zip(*books.entries(range(start, min(start + size, cap + 1))))

    terms = block(0, head or first)
    t, ok = next(terms)
    total = 0.5 * t
    cur = value(total)
    last, stencil = [], []
    est, r = math.inf, 1.0
    converged = False
    n = 0
    while n < cap and not converged:
        n += 1
        step = next(terms, None)
        if step is None:
            end = head if n < head else min(first, _SERIES_BLOCK)
            # a float sum is projected to its limit, so that the block
            # ends where the estimate first meets the rule
            ahead = t * r / (1.0 - r) if value is float and r < 1.0 else 0.0
            terms = block(n, end - n if n < end else _terms_to_go(
                est, r, rel_tol * abs(cur + ahead)))
            step = next(terms)
        t, flag = step
        ok = ok and flag
        total = total + t
        prev, cur = cur, value(total)
        # a float term is its own step, exact where the difference of
        # two rounded sums keeps only its digits above the sum's last bit
        last.append(abs(t if value is float else cur - prev))
        del last[:-3]
        if len(last) == 3 and n >= 4:
            if last[2] == 0.0:
                est, converged = 0.0, True
            elif last[0] > 0.0 and last[1] > 0.0:
                r = max(last[2] / last[1], last[1] / last[0])
                if r < 1.0:
                    est = last[2] * r / (1.0 - r)
                    converged = est <= rel_tol * abs(cur)
        if head - 4 <= n < head:
            stencil.append(t)
            if n == head - 3:
                head_sum = total  # up to f(N0 - 1)
        if n == head - 1 and not converged:
            tail = _euler_maclaurin(books, head - 2, head_sum, stencil,
                                    zero_scale, rel_tol, light, value)
            if tail.converged:
                # flagged by the head's terms and the integral's
                return books.close(replace(tail, converged=ok))
    # the books' flags are the dropped tail's
    return QuadratureResult(cur, est, books.n_evals, converged and ok)


def _terms_to_go(est, r, target):
    # the terms a geometric tail estimate est, shrinking by r a term,
    # takes to fall to target; 1 where it predicts nothing
    if 0.0 < r < 1.0 and 0.0 < target < est < math.inf:
        return (math.log(target) - math.log(est)) / math.log(r)
    return 1.0
