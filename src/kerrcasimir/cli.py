"""Command-line front end: scans, comparison reports, verification.

Subcommands
-----------
pressure       single-gap evaluation, one CSV row
scan-distance  pressure table over a log-spaced distance grid
scan-epsilon   dimensionless coefficient tables over permittivity grids
transparent    index-matched Kerr plate vs mirror, dual-route report
crossover      gap at which the Kerr term catches the linear term
verify         dense operator-laboratory identity suite

Configuration is a flat ``key = value`` UTF-8 text file (``#`` starts a
comment); command-line flags mirror the keys and override the file.
Unknown keys are rejected. Infinite permittivities are written ``inf``.
The ``threads`` key of the two scans is accepted, validated and hashed
like any other, but scans run serially: the work holds the interpreter
lock, so a thread pool made it slower, not faster. Zero-temperature
and classical rows are cached coefficients times powers of d
(lifshitz_nonlinear._pressure_pair).

Output is CSV with a header line, then a ``# config-hash:`` comment
(SHA-256 over the sorted effective configuration, output path
excluded), then the data rows with floats at 17 significant digits.
For a fixed configuration and seed the emitted bytes are identical
across runs under one BLAS thread setting (OPENBLAS_NUM_THREADS and
the like): the verify rows differ in their last digits between 1 and 2
BLAS threads, and the config hash does not cover the thread count.
Exit status: 0 success, 1 invalid configuration, 2
numerics out of tolerance (including failed verification rows).
"""

import argparse
import functools
import hashlib
import math
import re
import sys
from dataclasses import dataclass

from .errors import ConfigError, KerrCasimirError, MaterialError
from .lifshitz_linear import _i_lin, _linear_tol
from .lifshitz_nonlinear import (_i_nl, _pressure_pair, crossover_distance,
                                 pressure_nonlinear,
                                 pressure_transparent_mirror)
from .materials import LayerStack, MaterialResponse, _check_gap
from .operator_lab import run_verification_suite
from .quadrature import _MAX_KELVIN, _MIN_KELVIN, Temperature

_REGIMES = ("zero", "finite", "high")
_LIMITS = ("zero", "high")

# key -> (kind, default); kinds drive parsing and validation
_KEYS = {
    "eps_nl": ("eps", 2.0),
    "eps_lin": ("eps", math.inf),
    "chi3": ("float", 2e-16),
    "gap": ("gap", 1e-8),
    "temperature": ("kelvin", 300.0),
    "regime": ("regime", "zero"),
    "d_min": ("gap", 1e-9),
    "d_max": ("gap", 1e-6),
    "d_count": ("count", 25),
    "eps_nl_values": ("epslist", (1.0, 2.0, 5.0, 10.0, 100.0)),
    "eps_lin_values": ("epslist", (2.0, 10.0, math.inf)),
    "limit": ("limit", "zero"),
    "n_points": ("count", 32),
    "seed": ("int", 0),
    "threads": ("count", 1),
    "tol": ("tol", 1e-6),
    "out": ("path", None),
}

_SUBCOMMAND_KEYS = {
    "pressure": ("eps_nl", "eps_lin", "chi3", "gap", "temperature",
                 "regime", "tol", "out"),
    "scan-distance": ("eps_nl", "eps_lin", "chi3", "temperature", "regime",
                      "d_min", "d_max", "d_count", "threads", "tol", "out"),
    "scan-epsilon": ("eps_nl_values", "eps_lin_values", "limit", "threads",
                     "tol", "out"),
    "transparent": ("chi3", "gap", "temperature", "regime", "tol", "out"),
    "crossover": ("eps_nl", "eps_lin", "chi3", "temperature", "regime",
                  "tol", "out"),
    "verify": ("n_points", "seed", "out"),
}


def _parse_value(key, text):
    kind = _KEYS[key][0]
    text = str(text).strip()
    try:
        if kind in ("float", "gap", "kelvin", "eps", "tol"):
            value = float(text)
        elif kind in ("int", "count"):
            value = int(text)
        elif kind == "epslist":
            value = tuple(float(t) for t in text.split(","))
        else:
            value = text
    except ValueError:
        raise ConfigError("invalid value for %s: %r" % (key, text))
    _validate(key, value)
    return value


def _validate(key, value):
    kind = _KEYS[key][0]
    if kind == "float" and not math.isfinite(value):
        raise ConfigError("%s must be finite" % key)
    if kind == "gap":
        try:
            _check_gap(value)  # the LayerStack bounds, up front
        except MaterialError as exc:
            raise ConfigError(str(exc))
    if kind == "kelvin" and not _MIN_KELVIN <= value <= _MAX_KELVIN:
        raise ConfigError("%s must lie in [2**-64, 2**64] K" % key)
    if kind == "eps" and not value >= 1.0:
        raise ConfigError("%s must be >= 1 (inf for a mirror)" % key)
    if kind == "tol" and not 1e-12 <= value <= 1e-3:
        raise ConfigError("tol must lie in [1e-12, 1e-3]")
    if kind == "count" and value < 1:
        raise ConfigError("%s must be >= 1" % key)
    if kind == "epslist":
        if not value or not all(v >= 1.0 for v in value):
            raise ConfigError("%s entries must be >= 1" % key)
    if kind == "regime" and value not in _REGIMES:
        raise ConfigError("regime must be one of %s" % (_REGIMES,))
    if kind == "limit" and value not in _LIMITS:
        raise ConfigError("limit must be one of %s" % (_LIMITS,))


def _read_config_file(path, allowed):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        values[key] = _parse_value(key, text)
    return values


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    subcommand: str
    values: dict

    def __post_init__(self):
        if "d_min" in self.values:
            if not self.values["d_min"] < self.values["d_max"]:
                raise ConfigError("d_min must be smaller than d_max")
            if self.values["d_count"] < 2:
                raise ConfigError("d_count must be >= 2")

    def __getitem__(self, key):
        return self.values[key]

    def config_hash(self):
        lines = sorted("%s=%s" % (key, _canonical(value))
                       for key, value in self.values.items()
                       if key != "out")
        lines.append("subcommand=%s" % self.subcommand)
        payload = "\n".join(sorted(lines)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def _canonical(value):
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def build_config(subcommand, config_path=None, overrides=None):
    """Merge defaults, the optional config file, and flag overrides."""
    if subcommand not in _SUBCOMMAND_KEYS:
        raise ConfigError("unknown subcommand %r" % (subcommand,))
    allowed = _SUBCOMMAND_KEYS[subcommand]
    values = {key: _KEYS[key][1] for key in allowed}
    if config_path is not None:
        values.update(_read_config_file(config_path, allowed))
    for key, text in (overrides or {}).items():
        if text is None:
            continue
        if key not in allowed:
            raise ConfigError("unknown key %r for %s" % (key, subcommand))
        values[key] = _parse_value(key, text)  # parsed as flag text
    return RunConfig(subcommand, values)


def _temperature(config):
    regime = config["regime"]
    if regime == "zero":
        return Temperature.zero()
    if regime == "high":
        return Temperature.high(config["temperature"])
    return Temperature.finite(config["temperature"])


def _stack(config, gap):
    layer1 = MaterialResponse(eps_constant=config["eps_nl"],
                              chi3=config["chi3"])
    layer3 = MaterialResponse(eps_constant=config["eps_lin"])
    return LayerStack(layer1, layer3, gap, _temperature(config))


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.16e" % value
    return str(value)


def _emit(config, header, rows):
    lines = [",".join(header), "# config-hash: " + config.config_hash()]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    out = config["out"]
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError("cannot write output file: %s" % exc)


def _kelvin_column(config):
    return 0.0 if config["regime"] == "zero" else config["temperature"]


_PRESSURE_HEADER = ("d", "temperature", "p_lin", "p_nl", "p_total",
                    "err_lin", "err_nl")


def _gaps(config):
    if "gap" in config.values:  # pressure, not scan-distance
        return [config["gap"]]
    lo = math.log(config["d_min"])
    hi = math.log(config["d_max"])
    count = config["d_count"]
    return [math.exp(lo + (hi - lo) * i / (count - 1)) for i in range(count)]


def _run_pressure(config):
    gaps = _gaps(config)
    pair = _pressure_pair(_stack(config, gaps[0]), config["tol"])
    results = [pair(d) for d in gaps]
    _emit(config, _PRESSURE_HEADER,
          [(d, _kelvin_column(config), p.linear.value, p.nonlinear.value,
            p.value, p.linear.error, p.nonlinear.error)
           for d, p in zip(gaps, results)])
    return 0 if all(p.converged for p in results) else 2


def _run_scan_epsilon(config):
    # the error columns are the quadratures' own estimates
    tol = config["tol"]
    limit = config["limit"]
    rows = []
    for eps_lin in config["eps_lin_values"]:
        for eps_nl in config["eps_nl_values"]:
            lin = _i_lin(limit, eps_nl, eps_lin, _linear_tol(tol))
            nl = _i_nl(limit, eps_nl, eps_lin, tol)
            rows.append((eps_lin, eps_nl, lin.value, nl.value, lin.error,
                         nl.error))
    _emit(config, ("eps_lin", "eps_nl", "i_lin", "i_nl", "err_lin",
                   "err_nl"), rows)
    return 0


def _run_transparent(config):
    gap = config["gap"]
    temp = _temperature(config)
    chi3 = config["chi3"]
    tol = config["tol"]
    direct = pressure_transparent_mirror(gap, temp, chi3, rel_tol=tol)
    general = pressure_nonlinear(LayerStack(
        MaterialResponse(eps_constant=1.0, chi3=chi3),
        MaterialResponse.perfect_mirror(), gap, temp), rel_tol=tol)
    scale = max(abs(direct.value), abs(general.value))
    rel_diff = abs(direct.value - general.value) / scale if scale else 0.0
    _emit(config, ("d", "temperature", "p_transparent", "p_general",
                   "rel_diff", "err_transparent", "err_general"),
          [(gap, _kelvin_column(config), direct.value, general.value,
            rel_diff, direct.error, general.error)])
    return 0 if direct.converged and general.converged else 2


def _run_crossover(config):
    # the stack gap is a placeholder; the bisection scans distances
    stack = _stack(config, 1e-8)
    d_star = crossover_distance(stack, rel_tol=config["tol"])
    _emit(config, ("d_star", "eps_nl", "eps_lin", "chi3", "temperature"),
          [(math.nan if d_star is None else d_star, config["eps_nl"],
            config["eps_lin"], config["chi3"], _kelvin_column(config))])
    return 0


def _run_verify(config):
    results = run_verification_suite(n_points=config["n_points"],
                                     seed=config["seed"])
    rows = [(r.name, r.value, r.threshold, r.passed) for r in results]
    _emit(config, ("name", "residual", "threshold", "passed"), rows)
    return 0 if all(r.passed for r in results) else 2


_RUNNERS = {
    "pressure": _run_pressure,
    "scan-distance": _run_pressure,
    "scan-epsilon": _run_scan_epsilon,
    "transparent": _run_transparent,
    "crossover": _run_crossover,
    "verify": _run_verify,
}


def run(config):
    """Execute a resolved RunConfig; returns the process exit status."""
    return _RUNNERS[config.subcommand](config)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser():
    # built on the first main call, not at import; argparse keeps no
    # state between parses, so every later call reuses it
    parser = _Parser(prog="kerrcasimir", description=__doc__.split("\n")[0])
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in _SUBCOMMAND_KEYS.items():
        sub = subparsers.add_parser(name)
        # argparse's own pattern takes "-1" but not "-2e-16" for a value
        sub._negative_number_matcher = re.compile(r"^-\.?\d")
        sub.add_argument("--config", default=None)
        for key in keys:
            sub.add_argument("--" + key.replace("_", "-"), dest=key,
                             default=None)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        overrides = {key: getattr(args, key)
                     for key in _SUBCOMMAND_KEYS[args.subcommand]}
        config = build_config(args.subcommand, args.config, overrides)
        return run(config)
    except (ConfigError, MaterialError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except KerrCasimirError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
