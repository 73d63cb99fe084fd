"""Tests for the command-line front end.

The CLI contract under test: flat key = value config files with
comments, flags overriding the file, strict rejection of unknown keys,
CSV output with a config-hash comment, bitwise determinism (including
across the accepted thread counts), and the 0/1/2 exit-status
convention.
"""

import dataclasses
import math
import os
import subprocess
import sys

import pytest

import kerrcasimir.cli as cli
import kerrcasimir.lifshitz_linear as ll
import kerrcasimir.lifshitz_nonlinear as ln
from kerrcasimir import (CheckResult, ConfigError, LayerStack,
                         MaterialResponse, Temperature, casimir_pressure,
                         pressure_nonlinear)
from kerrcasimir.cli import build_config, main


def _parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert lines[1].startswith("# config-hash: ")
    digest = lines[1].split(": ", 1)[1]
    rows = [line.split(",") for line in lines[2:]]
    return header, digest, rows


def _run(capsys, argv):
    status = main(argv)
    return status, capsys.readouterr().out


def test_pressure_single_row(capsys):
    status, out = _run(capsys, [
        "pressure", "--eps-nl", "2", "--eps-lin", "inf", "--chi3", "2e-16",
        "--gap", "1e-7", "--regime", "high", "--temperature", "300"])
    assert status == 0
    header, digest, rows = _parse_csv(out)
    assert header == ["d", "temperature", "p_lin", "p_nl", "p_total",
                      "err_lin", "err_nl"]
    assert len(digest) == 64
    assert len(rows) == 1
    d, temp, p_lin, p_nl, p_total, err_lin, err_nl = map(float, rows[0])
    assert d == 1e-7 and temp == 300.0
    assert p_lin > 0.0 and p_nl > 0.0
    assert p_total == pytest.approx(p_lin + p_nl, rel=1e-15)
    assert err_lin > 0.0 and err_nl > 0.0


def test_config_file_with_comments_and_override(capsys, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# single-gap pressure\n"
        "eps_nl = 2.0\n"
        "eps_lin = inf   # mirror\n"
        "gap = 1e-7\n"
        "regime = high\n"
        "temperature = 300\n",
        encoding="utf-8")
    status, out = _run(capsys, ["pressure", "--config", str(conf)])
    assert status == 0
    _, _, rows = _parse_csv(out)
    assert float(rows[0][0]) == 1e-7
    # a flag overrides the file value
    status, out = _run(capsys, ["pressure", "--config", str(conf),
                                "--gap", "2e-7"])
    assert status == 0
    _, _, rows = _parse_csv(out)
    assert float(rows[0][0]) == 2e-7


def test_unknown_key_rejected(capsys, tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("banana = 3\n", encoding="utf-8")
    status = main(["pressure", "--config", str(conf)])
    captured = capsys.readouterr()
    assert status == 1
    assert "banana" in captured.err
    # keys legal for another subcommand are still rejected here
    conf.write_text("d_min = 1e-9\n", encoding="utf-8")
    assert main(["pressure", "--config", str(conf)]) == 1


def test_invalid_values_rejected(capsys):
    assert main(["pressure", "--gap", "-1e-7"]) == 1
    assert main(["pressure", "--gap", "zero"]) == 1
    assert main(["pressure", "--eps-nl", "0.5"]) == 1
    assert main(["pressure", "--regime", "warm"]) == 1
    assert main(["pressure", "--tol", "1"]) == 1
    assert main(["scan-distance", "--d-min", "1e-6", "--d-max", "1e-9"]) == 1
    capsys.readouterr()


def test_missing_config_file(capsys):
    assert main(["pressure", "--config", "/nonexistent/x.conf"]) == 1
    capsys.readouterr()


def test_config_file_not_utf8(capsys, tmp_path):
    conf = tmp_path / "latin.conf"
    conf.write_bytes(b"gap = 1e-7 # \xff\n")
    assert main(["pressure", "--config", str(conf)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read config file: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_no_subcommand(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_scan_distance_deterministic_across_threads(tmp_path):
    base = ["scan-distance", "--eps-nl", "2", "--eps-lin", "10",
            "--chi3", "2e-16", "--regime", "high", "--temperature", "300",
            "--d-min", "1e-8", "--d-max", "1e-7", "--d-count", "5"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(base + ["--threads", "1", "--out", str(paths[0])]) == 0
    assert main(base + ["--threads", "1", "--out", str(paths[1])]) == 0
    assert main(base + ["--threads", "2", "--out", str(paths[2])]) == 0
    blob = paths[0].read_bytes()
    assert paths[1].read_bytes() == blob
    # the thread count is part of the hashed configuration, but the data
    # rows must come out identical and in grid order regardless of it
    rows_serial = blob.decode("utf-8").strip().split("\n")[2:]
    rows_pool = paths[2].read_text().strip().split("\n")[2:]
    assert rows_pool == rows_serial
    lines = blob.decode("utf-8").strip().split("\n")
    assert len(lines) == 2 + 5
    distances = [float(line.split(",")[0]) for line in lines[2:]]
    assert distances == sorted(distances)
    assert distances[0] == pytest.approx(1e-8, rel=1e-12)
    assert distances[-1] == pytest.approx(1e-7, rel=1e-12)


def test_a_zero_kerr_part_prints_as_plus_zero(capsys):
    # a vacuum Kerr partner: the zero Kerr part used to print as -0.0
    for argv in (["pressure", "--regime", "high", "--eps-nl", "1",
                  "--eps-lin", "1"],
                 ["scan-epsilon", "--limit", "zero", "--eps-nl-values", "1",
                  "--eps-lin-values", "1"]):
        status, out = _run(capsys, argv)
        assert status == 0 and "-0." not in out
        assert float(_parse_csv(out)[2][0][3]) == 0.0


def test_scan_epsilon_high_limit(capsys):
    status, out = _run(capsys, [
        "scan-epsilon", "--eps-nl-values", "1,2",
        "--eps-lin-values", "inf", "--limit", "high"])
    assert status == 0
    header, _, rows = _parse_csv(out)
    assert header == ["eps_lin", "eps_nl", "i_lin", "i_nl", "err_lin",
                      "err_nl"]
    assert len(rows) == 2
    table = {float(r[1]): (float(r[2]), float(r[3])) for r in rows}
    # transparent Kerr plate: no linear reflection, closed-form Kerr term
    assert table[1.0][0] == 0.0
    assert table[1.0][1] == pytest.approx(21.0 / (4096.0 * math.pi ** 4),
                                          rel=1e-5)
    assert 0.0 < table[2.0][1] < table[1.0][1]
    assert table[2.0][0] > 0.0


def test_scan_epsilon_zero_limit_default_grid(capsys):
    status, out = _run(capsys, ["scan-epsilon", "--limit", "zero"])
    assert status == 0
    _, _, rows = _parse_csv(out)
    assert len(rows) == 15
    assert all(float(r[3]) > 0.0 for r in rows)


def test_scan_epsilon_errors_are_the_quadrature_estimates(capsys):
    # the error columns were tol-scaled values; they are the estimates
    # of the coefficient quadratures, scaled like the values
    from kerrcasimir.lifshitz_linear import _i_lin
    from kerrcasimir.lifshitz_nonlinear import _i_nl
    status, out = _run(capsys, ["scan-epsilon", "--limit", "high",
                                "--tol", "1e-6"])
    assert status == 0
    _, _, rows = _parse_csv(out)
    assert len(rows) == 15
    for row in rows:
        eps_lin, eps_nl, i_lin, i_nl, err_lin, err_nl = map(float, row)
        lin = _i_lin("high", eps_nl, eps_lin, 1e-9)
        nl = _i_nl("high", eps_nl, eps_lin, 1e-6)
        assert (i_lin, i_nl, err_lin, err_nl) \
            == (lin.value, nl.value, lin.error, nl.error)
        assert 0.0 < err_nl < 1e-6 * abs(i_nl)
        assert err_lin < 1e-9 * abs(i_lin) or i_lin == 0.0


def test_transparent_dual_route(capsys):
    status, out = _run(capsys, [
        "transparent", "--chi3", "2e-16", "--gap", "1e-7",
        "--regime", "high", "--temperature", "300"])
    assert status == 0
    header, _, rows = _parse_csv(out)
    assert header == ["d", "temperature", "p_transparent", "p_general",
                      "rel_diff", "err_transparent", "err_general"]
    row = list(map(float, rows[0]))
    assert row[2] > 0.0 and row[3] > 0.0
    assert row[4] < 1e-4


def test_transparent_dual_route_finite_t_at_nanometre_gap(capsys):
    # both thermal double sums take the Euler-Maclaurin tail at 300 K and
    # 10 nm, the transparent route on each of its nested sums
    status, out = _run(capsys, [
        "transparent", "--regime", "finite", "--temperature", "300",
        "--gap", "1e-8"])
    assert status == 0
    row = list(map(float, _parse_csv(out)[2][0]))
    assert row[4] <= 1e-4


def test_crossover_finite_regime(capsys):
    # the bisection starts at 1e-11 m, where n_star ~ 1e5; the thermal
    # correction at the crossover gap is far below its tolerance
    status, out = _run(capsys, [
        "crossover", "--eps-nl", "2", "--eps-lin", "inf",
        "--chi3", "2e-16", "--regime", "finite", "--temperature", "300"])
    assert status == 0
    d_star = float(_parse_csv(out)[2][0][0])
    assert d_star == pytest.approx(4.2519035e-9, rel=1e-4)


def test_scan_distance_finite_regime_from_default_d_min(capsys):
    status, out = _run(capsys, ["scan-distance", "--regime", "finite",
                                "--d-count", "3"])
    assert status == 0
    rows = _parse_csv(out)[2]
    assert float(rows[0][0]) == pytest.approx(1e-9) and len(rows) == 3


def test_crossover_reports_nan_without_kerr(capsys):
    status, out = _run(capsys, [
        "crossover", "--eps-nl", "2", "--eps-lin", "inf", "--chi3", "0",
        "--regime", "high", "--temperature", "300"])
    assert status == 0
    _, _, rows = _parse_csv(out)
    assert math.isnan(float(rows[0][0]))


def test_crossover_high_regime(capsys):
    status, out = _run(capsys, [
        "crossover", "--eps-nl", "2", "--eps-lin", "inf",
        "--chi3", "2e-16", "--regime", "high", "--temperature", "300"])
    assert status == 0
    _, _, rows = _parse_csv(out)
    d_star = float(rows[0][0])
    assert 1e-11 < d_star < 1e-4


def test_verify_all_rows_pass(capsys):
    status, out = _run(capsys, ["verify", "--n-points", "32", "--seed", "0"])
    assert status == 0
    header, _, rows = _parse_csv(out)
    assert header == ["name", "residual", "threshold", "passed"]
    assert len(rows) == 10
    assert all(row[3] == "true" for row in rows)


def test_verify_failure_exits_two(capsys, monkeypatch):
    def fake_suite(n_points=32, seed=0):
        return [CheckResult("broken", 1.0, 0.5, False)]

    monkeypatch.setattr(cli, "run_verification_suite", fake_suite)
    status, out = _run(capsys, ["verify"])
    assert status == 2
    _, _, rows = _parse_csv(out)
    assert rows[0][0] == "broken" and rows[0][3] == "false"


def test_verify_rejects_negative_seed(capsys, tmp_path):
    # a negative seed is a configuration error (exit 1), raised by the
    # suite before any work, not a numpy ValueError traceback
    conf = tmp_path / "verify.conf"
    conf.write_text("seed = -3\n", encoding="utf-8")
    for argv in (["verify", "--seed", "-1"],
                 ["verify", "--config", str(conf)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0\n"


def test_unwritable_out_path_is_a_config_error(capsys, tmp_path):
    out = tmp_path / "missing" / "x.csv"
    assert main(["verify", "--n-points", "8", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output file")
    assert not out.exists()


def test_config_hash_tracks_parameters(capsys):
    argv = ["pressure", "--eps-nl", "2", "--eps-lin", "10",
            "--regime", "high", "--temperature", "300", "--gap", "1e-7"]
    _, out_a = _run(capsys, argv)
    _, out_b = _run(capsys, argv)
    assert out_a == out_b
    _, out_c = _run(capsys, argv[:-1] + ["2e-7"])
    digest_a = _parse_csv(out_a)[1]
    digest_c = _parse_csv(out_c)[1]
    assert digest_a != digest_c


def test_config_hash_ignores_out_path(tmp_path):
    argv = ["pressure", "--eps-nl", "2", "--eps-lin", "10",
            "--regime", "high", "--temperature", "300", "--gap", "1e-7"]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(path_a)]) == 0
    assert main(argv + ["--out", str(path_b)]) == 0
    hash_a = path_a.read_text().split("\n")[1]
    hash_b = path_b.read_text().split("\n")[1]
    assert hash_a == hash_b


def test_config_hash_pins_threads_key(monkeypatch):
    # scans run serially, but threads stays parsed, validated and hashed,
    # so that these digests of existing configurations never move
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    scan = ["scan-distance", "--regime", "zero", "--eps-nl", "2",
            "--eps-lin", "inf", "--chi3", "2e-16", "--d-min", "1e-8",
            "--d-max", "1e-6", "--d-count", "3"]
    pinned = [
        (scan + ["--threads", "2"],
         "76f6854f4b32ff53d038da3fff055953f88042878da469399b6754f244c8d20f"),
        (scan,
         "d49aabc733b9216604ee06c88904591660d0516daba9c828e916c22b3cbe27ec"),
        (["scan-epsilon"],
         "81f80c9e920a527122168c65c03b2cdd0c8043723be490846a691dbe117726b6"),
    ]
    for argv, digest in pinned:
        assert main(argv) == 0
        assert seen[-1].config_hash() == digest
    assert seen[0]["threads"] == 2 and seen[1]["threads"] == 1
    assert main(scan + ["--threads", "0"]) == 1
    assert main(["scan-epsilon", "--threads", "x"]) == 1
    assert len(seen) == 3


def test_build_config_defaults_and_types():
    config = build_config("pressure")
    assert config["eps_nl"] == 2.0
    assert math.isinf(config["eps_lin"])
    assert config["regime"] == "zero"
    assert config["out"] is None
    digest = config.config_hash()
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


@pytest.mark.parametrize("subcommand, overrides", [
    ("pressure", {"tol": 5.0, "gap": -1.0}),
    ("pressure", {"gap": -1.0}),
    ("verify", {"n_points": 0}),
    ("scan-distance", {"d_count": 2.5}),
])
def test_build_config_validates_non_text_overrides(subcommand, overrides):
    with pytest.raises(ConfigError):
        build_config(subcommand, overrides=overrides)


def test_build_config_rejects_an_unknown_subcommand(tmp_path):
    # it used to raise KeyError, before any configuration check
    path = tmp_path / "run.cfg"
    path.write_text("gap = 1e-8\n")
    for kwargs in ({}, {"overrides": {"gap": "1e-8"}},
                   {"config_path": str(path)}):
        with pytest.raises(ConfigError, match="unknown subcommand 'bogus'"):
            build_config("bogus", **kwargs)


def test_build_config_parses_overrides_as_flag_text():
    numbers = build_config("pressure", overrides={"tol": 5e-7, "gap": 2e-8})
    text = build_config("pressure", overrides={"tol": "5e-7", "gap": "2e-8"})
    assert numbers.values == text.values
    assert numbers.config_hash() == text.config_hash()


def test_negative_chi3_parses_in_every_spelling(capsys, tmp_path):
    # argparse's own negative-number pattern has no exponent form, so
    # "--chi3 -2e-16" used to exit 1 with "expected one argument"
    conf = tmp_path / "kerr.conf"
    conf.write_text("chi3 = -2e-16\n", encoding="utf-8")
    base = ["pressure", "--regime", "high", "--gap", "1e-7"]
    outs = []
    for extra in (["--chi3", "-2e-16"], ["--chi3=-2e-16"],
                  ["--config", str(conf)]):
        status, out = _run(capsys, base + extra)
        assert status == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert float(_parse_csv(outs[0])[2][0][3]) < 0.0
    assert main(base + ["--chi3", "-x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --chi3: expected one argument" in captured.err


_REGIMES = {"zero": ["--regime", "zero"],
            "high": ["--regime", "high", "--temperature", "300"]}


def _scan(capsys, plates, d_count=4, regime="zero"):
    status, out = _run(capsys, [
        "scan-distance", "--d-min", "1e-9", "--d-max", "1e-6",
        "--d-count", str(d_count)] + _REGIMES[regime] + plates)
    return status, out


_PLATES = [("2", "inf", "2e-16"), ("1", "10", "2e-16"),
           ("5", "2", "-1e-16"), ("2", "inf", "0")]


# the zero-T cases keep their bare ids
@pytest.mark.parametrize("regime, eps_nl, eps_lin, chi3", [
    pytest.param(regime, *plates, id="-".join(
        plates if regime == "zero" else (regime,) + plates))
    for regime in _REGIMES for plates in _PLATES])
def test_zero_t_rows_match_the_direct_route(capsys, regime, eps_nl, eps_lin,
                                            chi3):
    # zero-T and high-T rows are d-independent coefficients times powers
    # of d; each lies within both stated errors of a direct evaluation
    # at its gap, and pressure --gap d prints the scan's row at d
    plates = ["--eps-nl", eps_nl, "--eps-lin", eps_lin, "--chi3", chi3]
    status, out = _scan(capsys, plates, regime=regime)
    assert status == 0
    lines = out.strip().split("\n")[2:]
    assert len(lines) == 4
    for line in lines:
        d, _, p_lin, p_nl, p_total, err_lin, err_nl = map(
            float, line.split(","))
        stack = cli._stack(build_config(
            "pressure", overrides={"eps_nl": eps_nl, "eps_lin": eps_lin,
                                   "chi3": chi3, "regime": regime}), d)
        direct = casimir_pressure(stack, rel_tol_linear=1e-8,
                                  rel_tol_nonlinear=1e-6)
        for value, err, ref in ((p_lin, err_lin, direct.linear),
                                (p_nl, err_nl, direct.nonlinear)):
            bound = err + ref.error + 4 * math.ulp(ref.value)
            assert abs(value - ref.value) <= bound
        assert p_total == p_lin + p_nl
        status, single = _run(capsys, ["pressure", "--gap", repr(d)]
                              + _REGIMES[regime] + plates)
        assert status == 0
        assert single.strip().split("\n")[2] == line
        if float(chi3) == 0.0:
            assert line.split(",")[3] == line.split(",")[6] \
                == "0.0000000000000000e+00"


def test_zero_t_rows_without_chi3_compute_no_kerr_coefficient(
        capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("Kerr coefficient computed for chi3 = 0")

    monkeypatch.setattr(ln, "_i_nl_raw", refuse)
    for regime in _REGIMES:
        for chi3 in ("0", "-0.0"):
            status, out = _scan(capsys, ["--chi3", chi3], d_count=3,
                                regime=regime)
            assert status == 0
            for row in _parse_csv(out)[2]:
                assert row[3] == row[6] == "0.0000000000000000e+00"


def test_zero_t_rows_reject_a_kerr_mirror(capsys):
    for argv in (["pressure", "--regime", "zero"],
                 ["scan-distance", "--regime", "zero", "--d-count", "3"]):
        assert main(argv + ["--eps-nl", "inf", "--chi3", "2e-16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err \
            == "error: a perfect mirror cannot carry a Kerr response\n"


def test_a_gap_below_the_bound_is_a_configuration_error(capsys):
    # --gap 1e-100 used to end in a ZeroDivisionError traceback
    for argv in (["pressure", "--gap", "1e-100"],
                 ["pressure", "--gap", "1e-150", "--regime", "finite"],
                 ["scan-distance", "--d-min", "1e-100", "--d-count", "3"],
                 ["transparent", "--gap", "1e-150"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err \
            == "error: gap must be finite and at least 2**-127 m\n"


def test_out_of_range_inputs_are_configuration_errors(capsys):
    # --gap 1e60 used to end in an OverflowError traceback, and
    # --temperature 1e-300 in a ZeroDivisionError one
    gap = "error: gap must be at most 2**127 m\n"
    kelvin = "error: temperature must lie in [2**-64, 2**64] K\n"
    for argv, err in (
            (["pressure", "--gap", "1e60"], gap),
            (["scan-distance", "--d-max", "1e60", "--d-count", "3"], gap),
            (["transparent", "--gap", "1e300"], gap),
            (["pressure", "--regime", "finite", "--temperature", "1e-300"],
             kelvin),
            (["crossover", "--regime", "high", "--temperature", "1e300"],
             kelvin),
            (["scan-distance", "--temperature", "nan"], kelvin)):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)


@pytest.mark.parametrize("regime", ["zero", "finite", "high"])
def test_rows_at_the_corners_of_the_input_box(capsys, regime):
    # pressure and transparent rows are finite and converged (exit 0) at
    # each corner of the gap and temperature ranges
    for kelvin in (2.0 ** -64, 2.0 ** 64):
        for gap in (2.0 ** -127, 2.0 ** 127):
            for command in ("pressure", "transparent"):
                status, out = _run(capsys, [
                    command, "--regime", regime, "--temperature",
                    repr(kelvin), "--gap", repr(gap)])
                assert status == 0
                _, _, rows = _parse_csv(out)
                assert all(math.isfinite(float(v)) for v in rows[0])


def test_an_unconverged_coefficient_table_exits_two(capsys, monkeypatch):
    # scan-epsilon raises UnconvergedError for an unconverged
    # coefficient: no table, an error line and exit status 2
    real = ll._i_lin_raw
    monkeypatch.setattr(ll, "_i_lin_raw", lambda *args: dataclasses.replace(
        real(*args), converged=False))
    assert main(["scan-epsilon", "--limit", "high"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: high-temperature pressure integral " \
        "missed tolerance 1e-08\n"


def _count_calls(monkeypatch, module, name):
    # counts calls of module.name, starting from empty coefficient caches
    ln._i_nl_raw.cache_clear()
    ll._i_lin_raw.cache_clear()
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_zero_t_scan_runs_one_kerr_double_integral(capsys, monkeypatch):
    # a count, not a timing: it does not depend on the machine; each Kerr
    # pressure or coefficient is one thermal sum of the Kerr module
    calls = _count_calls(monkeypatch, ln, "_thermal_sum")
    status, out = _run(capsys, ["scan-distance", "--regime", "zero"])
    assert status == 0 and len(_parse_csv(out)[2]) == 25
    assert len(calls) == 1
    # finite-T rows keep their per-gap evaluation
    del calls[:]
    status, out = _run(capsys, ["scan-distance", "--regime", "finite",
                                "--d-min", "2e-7", "--d-max", "1e-6",
                                "--d-count", "3"])
    assert status == 0 and len(_parse_csv(out)[2]) == 3
    assert len(calls) == 3


def test_zero_t_scan_refines_each_frequency_level_at_once(capsys,
                                                         monkeypatch):
    # a count, not a timing: each level of the frequency integrals hands
    # all its frequencies to one momentum refinement, one kernel call per
    # momentum level (257 _kernel_vectors and 322 _gap_integrand calls
    # with one frequency per call)
    vectors = _count_calls(monkeypatch, ln, "_kernel_vectors")
    gaps = _count_calls(monkeypatch, ll, "_gap_integrand")
    status, out = _run(capsys, ["scan-distance", "--regime", "zero"])
    assert status == 0 and len(_parse_csv(out)[2]) == 25
    assert 0 < len(vectors) <= 25 and 0 < len(gaps) <= 30


def test_pressure_nonlinear_keeps_no_cache(monkeypatch):
    calls = _count_calls(monkeypatch, ln, "_thermal_sum")
    for gap in (1e-8, 1e-7):
        stack = LayerStack(MaterialResponse.constant(2.0, chi3=2e-16),
                           MaterialResponse.perfect_mirror(), gap,
                           Temperature.zero())
        assert pressure_nonlinear(stack, rel_tol=1e-6).n_evals == 3968
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["_i_nl_raw", "_i_lin_raw"])
def test_zero_t_scan_with_unconverged_coefficient_exits_two(
        capsys, monkeypatch, name):
    real = getattr(ln, name)
    monkeypatch.setattr(ln, name, lambda *args: dataclasses.replace(
        real(*args), converged=False))
    # the rows are still printed, flagged by the exit status alone
    for regime in _REGIMES:
        status = main(["scan-distance", "--d-count", "5"]
                      + _REGIMES[regime])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err == ""
        assert len(_parse_csv(captured.out)[2]) == 5


def test_crossover_after_a_zero_t_scan_reuses_its_coefficients(
        capsys, monkeypatch):
    # rows and crossover take the linear coefficient at one tolerance
    g_hats = _count_calls(monkeypatch, ll, "_g_hat")
    double_sums = _count_calls(monkeypatch, ln, "_thermal_sum")
    assert _run(capsys, ["scan-distance", "--regime", "zero"])[0] == 0
    assert len(g_hats) > 0 and len(double_sums) == 1
    del g_hats[:], double_sums[:]
    status, out = _run(capsys, ["crossover", "--regime", "zero"])
    assert status == 0
    assert float(_parse_csv(out)[2][0][0]) \
        == pytest.approx(4.2519035e-9, rel=1e-4)
    assert len(g_hats) == len(double_sums) == 0


def test_high_t_scan_computes_each_coefficient_once(capsys, monkeypatch):
    g_hats = _count_calls(monkeypatch, ll, "_g_hat")
    vectors = _count_calls(monkeypatch, ln, "_frequency_vectors")
    status, out = _run(capsys, ["scan-distance"] + _REGIMES["high"])
    assert status == 0 and len(_parse_csv(out)[2]) == 25
    assert len(g_hats) == len(vectors) == 1


def test_one_parser_serves_every_call_of_a_process(capsys):
    # the parser is built on the first main call and reused: a failed
    # parse leaves nothing behind, and a scan prints the same bytes
    # before and after other subcommands
    before = cli._build_parser.cache_info()
    scan = ["scan-distance", "--regime", "high", "--d-count", "3"]
    assert main(["pressure", "--no-such-key", "1"]) == 1
    assert "error:" in capsys.readouterr().err
    status, first = _run(capsys, scan)
    assert status == 0
    assert _run(capsys, ["verify", "--n-points", "16", "--seed", "2"])[0] \
        == 0
    assert _run(capsys, scan) == (0, first)
    after = cli._build_parser.cache_info()
    assert after.misses - before.misses <= 1
    assert (after.hits + after.misses) - (before.hits + before.misses) == 4


def test_importing_the_cli_builds_no_parser():
    code = ("import kerrcasimir.cli as cli; "
            "print(cli._build_parser.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "0"
