"""Tests for the command-line front end.

The CLI contract under test: flat key = value config files with
comments, flags overriding the file, strict rejection of unknown keys,
CSV output with a config-hash comment, bitwise determinism (including
across the accepted thread counts), and the 0/1/2 exit-status
convention.
"""

import math

import pytest

import kerrcasimir.cli as cli
from kerrcasimir import CheckResult
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
