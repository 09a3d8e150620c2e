import ast
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scakit import aes, cli
from scakit.cpa import cpa_attack
from scakit.hd import wrong_horse_scan
from scakit.leakage import Augmentation, LeakageConfig, simulate_campaign
from scakit.traceio import read_sctr

from helpers import encrypt, export_raw, traced_peak, write_digest_outputs

KEY = "2041e2770445067328090a7f0c0d0e7b"
CORRECT_BYTE0 = 51


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def noisy_sctr(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "noisy.sctr"
    assert cli.main(["simulate", "--key", KEY, "--n", "3000", "--sigma", "4",
                     "--seed", "1", "-o", str(path)]) == 0
    return path


def test_simulate_writes_campaign(tmp_path, capsys):
    out = tmp_path / "c.sctr"
    assert run("simulate", "--key", KEY.upper(), "--n", 40, "--sigma", 0.5,
               "--seed", 9, "-o", out) == 0
    effective = json.loads(capsys.readouterr().out)
    assert effective["n"] == 40 and effective["seed"] == 9
    assert effective["key"] == KEY.upper()   # echoed as given
    ts = read_sctr(out)
    assert ts.n_traces == 40
    _, cts = encrypt(ts.true_key, ts.plaintexts)
    assert np.array_equal(cts, ts.ciphertexts)


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.sctr", tmp_path / "b.sctr"
    for out in (a, b):
        assert run("simulate", "--key", KEY, "--n", 64, "--sigma", 2,
                   "--seed", 5, "-o", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_with_ro_bank_offset(tmp_path, capsys):
    out = tmp_path / "ro.sctr"
    assert run("simulate", "--key", KEY, "--n", 16, "--n-ro", 70,
               "--alpha", 1 / 17.5, "--pulse", 1.0, "--seed", 1, "-o", out) == 0
    effective = json.loads(capsys.readouterr().out)
    assert effective["offset"] == pytest.approx(4.0)


def test_simulate_requires_alpha_with_n_ro(tmp_path, capsys):
    assert run("simulate", "--n", 4, "--n-ro", 70, "-o", tmp_path / "x.sctr") == 1
    err = json.loads(capsys.readouterr().err)
    assert "alpha" in err["error"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text(
        "# campaign parameters\n"
        f"key = {KEY}\n"
        "n = 50\n"
        "sigma = 1.0\n"
        "seed = 3\n"
    )
    out = tmp_path / "cfg.sctr"
    assert run("simulate", "--config", cfg, "--n", 64, "-o", out) == 0
    effective = json.loads(capsys.readouterr().out)
    assert effective["n"] == 64          # flag wins
    assert effective["sigma"] == 1.0     # file value applies
    assert read_sctr(out).n_traces == 64


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text in ("bogus = 1\n", "trigger = bogus\n"):
        cfg.write_text(text)
        assert run("simulate", "--config", cfg, "-o", tmp_path / "x.sctr") == 1
        assert "bogus" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "x.sctr").exists()


def test_config_file_reports_bad_value_with_its_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sigma = 1.0\nn = abc\n")
    assert run("simulate", "--config", cfg, "-o", tmp_path / "x.sctr") == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"{cfg}:2: bad value for 'n': ")
    assert "'abc'" in error
    # the key is parsed like every other value, before any work
    cfg.write_text("key = 0011\n")
    assert run("simulate", "--config", cfg, "-o", tmp_path / "x.sctr") == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"{cfg}:1: bad value for 'key': block must have exactly 16 bytes, got shape (2,)"
    assert not (tmp_path / "x.sctr").exists()


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--offsets", "0", "--bits", "2"]],
                         ids=["simulate", "sweep"])
@pytest.mark.parametrize("key", ["zz", "0011"])
def test_bad_key_flag_names_the_flag(tmp_path, capsys, command, key):
    out = tmp_path / "x.out"
    assert run(*command, "--key", key, "-o", out) == 1
    assert assert_json_error(capsys, out) == (f"scakit {command[0]}: argument --key: "
                                              f"invalid cipher key value: '{key}'")


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--offsets", "0", "--bits", "2"]],
                         ids=["simulate", "sweep"])
@pytest.mark.parametrize("text,message", [
    (b"n = 5\nn = 7\n", "2: duplicate config key 'n' (first set on line 1)"),
    (b"sigma = 1.0\nn 5\n", "2: expected 'key = value', got 'n 5'"),
    # the byte-order mark is not part of the first key
    (b"\xef\xbb\xbfn = 5\nn = 7\n", "2: duplicate config key 'n' (first set on line 1)"),
    (b"n = 5\n\xff\n", "2: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
                        "invalid start byte"),
], ids=["duplicate-key", "no-equals", "byte-order-mark", "not-utf8"])
def test_config_file_line_errors(tmp_path, capsys, command, text, message):
    cfg, out = tmp_path / "c.cfg", tmp_path / "x.out"
    cfg.write_bytes(text)
    assert run(*command, "--config", cfg, "-o", out) == 1
    assert assert_json_error(capsys, out) == f"{cfg}:{message}"


def assert_json_error(capsys, *unwritten):
    """The command printed nothing but one JSON error and wrote none of
    ``unwritten``; returns the error message."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    for path in unwritten:
        assert not path.exists()
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "abc", "-o", "x.sctr"],
    ["simulate", "--trigger", "bogus", "-o", "x.sctr"],
    ["simulate", "--n", "4"],
    ["simulate", "--n", "4", "--samples", "0", "-o", "x.sctr"],
    ["attack"],
    ["nonsense"],
    [],
    # flags are never prefix-matched
    ["simulate", "--n", "4", "--sig", "4", "-o", "x.sctr"],
    ["simulate", "--n", "4", "--out", "x.sctr"],
    ["sweep", "--n", "500", "--offset", "4", "--offsets", "0", "--bits", "2", "-o", "x.sctr"],
    ["sweep", "--n", "500", "--offsets", "0", "--bit", "2", "-o", "x.sctr"],
    ["sweep", "--n", "500", "--offsets", "", "--bits", "2", "-o", "x.sctr"],
    ["sweep", "--n", "500", "--offsets", "0", "--bits", "2,,5", "-o", "x.sctr"],
])
def test_usage_errors_are_json(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 1
    assert_json_error(capsys, tmp_path / "x.sctr")


@pytest.mark.parametrize("flag,value,kind", [("--offsets", "", "float"),
                                             ("--bits", "2,,5", "int")])
def test_sweep_grid_errors_name_their_flag(tmp_path, capsys, flag, value, kind):
    grid = {"--offsets": "0", "--bits": "2", flag: value}
    out = tmp_path / "s.csv"
    assert run("sweep", "--n", 500, *(x for item in grid.items() for x in item), "-o", out) == 1
    assert assert_json_error(capsys, out) == (
        f"scakit sweep: argument {flag}: invalid comma-separated {kind} value: {value!r}")


def test_cli_imports_no_private_names():
    # No module imports a private name from another, and the CLI reaches no
    # private attribute of a scakit module it imports: it drives the library
    # through public names only.  (Library modules may call each other's
    # private helpers as attributes, as leakage and hd do aes's.)
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))}
    private = [f"{name}:{node.lineno}: {node.module}.{alias.name}"
               for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name.startswith("_")]
    modules = {alias.asname or alias.name for node in ast.walk(trees["cli.py"])
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}
    assert "aes" in modules
    private += [f"cli.py:{node.lineno}: {node.value.id}.{node.attr}"
                for node in ast.walk(trees["cli.py"])
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


@pytest.mark.parametrize("param,value", [
    ("offset", "100"), ("augment_bit", "7"), ("n_ro", "700"), ("alpha", "1"), ("pulse", "1"),
])
def test_sweep_rejects_single_augmentation_parameters(tmp_path, capsys, param, value):
    # the grid sets the bit and offset, so these would be silently ignored
    out = tmp_path / "s.csv"
    sweep = ["sweep", "--key", KEY, "--n", 500, "--offsets", "0,4", "--bits", "2", "-o", out]
    assert run(*sweep, f"--{param.replace('_', '-')}", value) == 1
    assert "unrecognized" in assert_json_error(capsys, out)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{param} = {value}\n")
    assert run(*sweep, "--config", cfg) == 1
    assert f"unknown config key {param!r}" in assert_json_error(capsys, out)


def test_simulate_rejects_offset_with_oscillator_count(tmp_path, capsys):
    out = tmp_path / "x.sctr"
    assert run("simulate", "--n", 4, "--offset", 4, "--n-ro", 70, "--alpha", 0.1, "-o", out) == 1
    assert "n_ro" in assert_json_error(capsys, out)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_ro = 70\nalpha = 0.1\n")
    assert run("simulate", "--config", cfg, "--n", 4, "--offset", 4, "-o", out) == 1
    assert "n_ro" in assert_json_error(capsys, out)


@pytest.mark.parametrize("param,value,others", [
    ("alpha", "0.1", []),
    ("pulse", "0.5", []),
    ("pulse", "1", ["--offset", "4"]),          # the default value, given
    ("augment_byte", "3", []),
    ("augment_bit", "2", []),                   # the default value, given
    ("trigger", "toggle", []),
])
def test_simulate_rejects_parameters_it_would_ignore(tmp_path, capsys, param, value, others):
    # alpha and pulse act only through n_ro, the augmentation's byte, bit
    # and trigger only with an offset
    out = tmp_path / "x.sctr"
    assert run("simulate", "--n", 4, *others, f"--{param.replace('_', '-')}", value,
               "-o", out) == 1
    assert param in assert_json_error(capsys, out)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{param} = {value}\n")
    assert run("simulate", "--config", cfg, "--n", 4, *others, "-o", out) == 1
    assert param in assert_json_error(capsys, out)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("simulate", "--help")
    assert exit_info.value.code == 0
    assert "usage: scakit simulate" in capsys.readouterr().out


@st.composite
def campaign_params(draw):
    samples = draw(st.integers(1, 3))
    params = {
        "key": draw(st.binary(min_size=16, max_size=16)).hex(),
        "n": draw(st.integers(1, 40)),
        "sigma": draw(st.floats(0, 8)),
        "weight": draw(st.floats(0, 4)),
        "baseline": draw(st.floats(-100, 100)),
        "samples": samples,
        "poi": draw(st.integers(0, samples - 1)),
        "seed": draw(st.integers(0, 2 ** 64 - 1)),
    }
    source = draw(st.sampled_from(["none", "offset", "ro-bank"]))
    if source != "none":   # without an offset simulate rejects these
        params.update(augment_byte=draw(st.integers(0, 15)),
                      augment_bit=draw(st.integers(0, 7)),
                      trigger=draw(st.sampled_from(["static", "toggle"])))
    if source == "offset":
        params["offset"] = draw(st.floats(0, 10))
    elif source == "ro-bank":
        params.update(n_ro=draw(st.integers(0, 200)), alpha=draw(st.floats(0, 1)),
                      pulse=draw(st.floats(0, 1)))
    return params


@settings(max_examples=25, deadline=None)
@given(params=campaign_params())
def test_config_file_and_flags_agree(params):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.cfg", Path(tmp) / "c.sctr"
        cfg.write_text("".join(f"{name} = {value}\n" for name, value in params.items()))
        flags = [f"--{name.replace('_', '-')}={value}" for name, value in params.items()]
        results = []
        for argv in (["--config", cfg], flags):
            echo = io.StringIO()
            with contextlib.redirect_stdout(echo):
                assert run("simulate", *argv, "-o", out) == 0
            results.append((echo.getvalue(), out.read_bytes()))
    assert results[0] == results[1]
    effective = json.loads(results[0][0])
    assert {name: effective[name] for name in params} == params


def test_simulate_rejects_seed_the_header_cannot_hold(tmp_path, capsys):
    out = tmp_path / "x.sctr"
    assert run("simulate", "--n", 4, "--seed", 2 ** 64, "-o", out) == 1
    assert "seed" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


@pytest.mark.parametrize("value", [2 ** 32, 10 ** 20])
@pytest.mark.parametrize("flag", ["--n", "--samples"])
@pytest.mark.parametrize("command", [["simulate"], *(["sweep", "--offsets", "0", "--bits", "2",
                                                       "--stride", stride] for stride in (1, 100))],
                         ids=["simulate", "sweep-stride-1", "sweep-stride-100"])
def test_sizes_past_the_header_fields_are_one_json_error(tmp_path, monkeypatch, capsys, command,
                                                         flag, value):
    # The size rule fires before any work: before the checkpoints are listed
    # (a MemoryError at 10**20 traces, an OverflowError at stride 1) and
    # before the first chunk is simulated.
    def never(*args, **kwargs):
        raise AssertionError("work began before the size rule")
    for name in ("checkpoint_schedule", "simulate_campaign", "simulate_offset_grid"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "x.out"
    assert run(*command, flag, value, "-o", out) == 1
    field = "n_traces" if flag == "--n" else "samples_per_trace"
    assert assert_json_error(capsys, out) == f"{field} {value} does not fit SCTR's 32-bit field"


@pytest.mark.parametrize("error,message", [
    (MemoryError(), "MemoryError"),
    (MemoryError("Unable to allocate 8.00 EiB for an array with shape (1 << 60,)"),
     "Unable to allocate 8.00 EiB for an array with shape (1 << 60,)"),
])
def test_out_of_memory_is_one_json_error(tmp_path, monkeypatch, capsys, error, message):
    def exhausted(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "simulate_campaign", exhausted)
    out = tmp_path / "x.sctr"
    assert run("simulate", "--n", 4, "-o", out) == 1
    assert assert_json_error(capsys, out) == message


@pytest.mark.parametrize("flag", ["--offset", "--weight", "--sigma", "--baseline"])
def test_simulate_rejects_non_finite_parameters(tmp_path, capsys, flag):
    out = tmp_path / "x.sctr"
    for value in ("nan", "inf", "-inf"):
        assert run("simulate", "--n", 4, f"{flag}={value}", "-o", out) == 1
        assert "finite" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--baseline", "1e39"],
    ["simulate", "--sigma", "1e308"],
    ["simulate", "--weight", "1e300"],
    ["simulate", "--weight", "1e307"],   # past float64's range before the cast
    ["sweep", "--offsets", "0,1e39", "--bits", "2"],
], ids=["baseline", "sigma", "weight", "weight-float64", "sweep-offset"])
def test_samples_past_float32_are_one_json_error(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    assert run(*argv, "--n", 50, "-o", out) == 1
    error = assert_json_error(capsys, out)
    assert "float32" in error and "baseline" in error and "offset" in error


def test_attack_report_and_evolution_csv(noisy_sctr, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    evo_path = tmp_path / "evo.csv"
    assert run("attack", noisy_sctr, "--byte", 0, "--report", report_path,
               "--evolution-csv", evo_path) == 0
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == 1
    assert report["best_guess"] == CORRECT_BYTE0
    assert report["correct_guess"] == CORRECT_BYTE0
    assert report["correct_rank"] == 1
    assert isinstance(report["disclosure"], int)
    assert sorted(report["ranking"]) == list(range(256))
    assert len(report["scores"]) == 256
    checkpoints = report["evolution"]["checkpoints"]
    assert checkpoints[-1] == 3000
    assert len(report["evolution"]["curves"]) == 256

    # the emitted CSV parses back with plain csv tooling, values intact
    with open(evo_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 256 * len(checkpoints)
    for row in rows[:512]:
        guess, i = int(row["guess"]), checkpoints.index(int(row["checkpoint"]))
        assert float(row["r"]) == report["evolution"]["curves"][guess][i]
    # and holds the very bytes csv.writer gives for the same rows
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["checkpoint", "guess", "r"])
    writer.writerows([count, guess, format(report["evolution"]["curves"][guess][i], ".17g")]
                     for i, count in enumerate(checkpoints) for guess in range(256))
    assert evo_path.read_bytes() == expected.getvalue().encode()


def test_attack_is_deterministic(noisy_sctr, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run("attack", noisy_sctr, "--report", path) == 0
    assert a.read_text() == b.read_text()


def test_attack_stride_clamps_to_single_checkpoint(noisy_sctr, capsys):
    assert run("attack", noisy_sctr, "--stride", 100000) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["evolution"]["checkpoints"] == [3000]


def test_attack_all_bytes_recovers_key(noisy_sctr, tmp_path, capsys):
    report_path = tmp_path / "all.json"
    assert run("attack", noisy_sctr, "--all-bytes", "--stride", 3000,
               "--report", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["mode"] == "all"
    assert len(report["bytes"]) == 16
    assert report["recovered"] is True
    assert report["cipher_key_hex"] == KEY
    assert report["last_round_key_hex"] == report["true_last_round_key_hex"]


def test_json_writer_gives_the_bytes_of_json_dumps(noisy_sctr, tmp_path, capsys):
    # _json streams json.dumps(indent=2)'s text: the single-byte and all-byte
    # reports, the one printed to stdout, and the values a report can hold
    reports = []
    for mode in ("--byte", "--all-bytes"):
        path = tmp_path / f"{mode}.json"
        assert run("attack", noisy_sctr, *([mode, 5] if mode == "--byte" else [mode]),
                   "--stride", 700, "--report", path) == 0
        reports.append((path.read_text(), json.loads(path.read_text())))
    capsys.readouterr()
    assert run("attack", noisy_sctr, "--stride", 1000) == 0
    printed = capsys.readouterr().out
    reports.append((printed, json.loads(printed)))
    for text, report in reports:
        assert "".join(cli._json(report)) == json.dumps(report, indent=2) == text[:-1]
    edges = {"empty": [], "none": None, "bool": True, "nan": float("nan"), "dict": {},
             "mixed": [1, -0.0, 2.5e-300, None, False, float("inf")],
             "nested": [[], [1, 2], [{"a": "x, y", "b": [[3]]}], ["s, t", 4]]}
    for value in (edges, *edges.values()):
        assert "".join(cli._json(value)) == json.dumps(value, indent=2)


def test_attack_all_bytes_rejects_evolution_csv(noisy_sctr, tmp_path, capsys):
    evo = tmp_path / "evo.csv"
    assert run("attack", noisy_sctr, "--all-bytes", "--evolution-csv", evo) == 1
    assert "single-byte" in json.loads(capsys.readouterr().err)["error"]
    assert not evo.exists()


@pytest.mark.parametrize("byte", [0, 3])
def test_attack_all_bytes_rejects_byte(noisy_sctr, tmp_path, capsys, byte):
    # --all-bytes attacks every byte, so an explicit --byte would be ignored
    report = tmp_path / "all.json"
    assert run("attack", noisy_sctr, "--all-bytes", "--byte", byte, "--report", report) == 1
    assert "--byte would be ignored" in assert_json_error(capsys, report)


@pytest.mark.parametrize("campaign", [["--n", 1], ["--n", 500, "--weight", 0]],
                         ids=["one-trace", "all-zero-samples"])
def test_uninformative_campaign_is_an_error(tmp_path, capsys, campaign):
    sctr = tmp_path / "c.sctr"
    assert run("simulate", "--key", KEY, *campaign, "-o", sctr) == 0
    traces = read_sctr(sctr)
    assert len(traces) == 1 or not traces.samples.any()
    outputs = [tmp_path / name for name in ("all.json", "evo.csv", "sweep.csv")]
    for argv in (["attack", sctr, "--all-bytes", "--report", outputs[0]],
                 ["attack", sctr, "--evolution-csv", outputs[1]],
                 ["sweep", "--key", KEY, *campaign, "--offsets", "0", "--bits", "2",
                  "-o", outputs[2]]):
        capsys.readouterr()
        assert run(*argv) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert "2 traces" in error and "vary" in error
    assert not any(path.exists() for path in outputs)


def test_attack_missing_file_fails(tmp_path, capsys):
    assert run("attack", tmp_path / "absent.sctr") == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_fit_hd_outputs(noisy_sctr, tmp_path, capsys):
    points, fits = tmp_path / "points.csv", tmp_path / "fits.csv"
    assert run("fit-hd", noisy_sctr, "--guess", 51, "--guess", 62,
               "--points", points, "--fits", fits) == 0
    with open(points, newline="") as fh:
        point_rows = list(csv.DictReader(fh))
    assert {row["guess"] for row in point_rows} == {"51", "62"}
    counts = sum(int(r["count"]) for r in point_rows if r["guess"] == "51")
    assert counts == 3000
    with open(fits, newline="") as fh:
        fit_rows = list(csv.DictReader(fh))
    assert len(fit_rows) == 2
    slope_51 = float(next(r["slope"] for r in fit_rows if r["guess"] == "51"))
    assert slope_51 < 0


def test_fit_hd_defaults_to_correct_guess(noisy_sctr, capsys):
    assert run("fit-hd", noisy_sctr) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"guess  {CORRECT_BYTE0}")


def test_fit_hd_needs_a_guess_without_a_recorded_key(noisy_sctr, tmp_path, capsys):
    raw, meta, converted = tmp_path / "c.f32", tmp_path / "c.csv", tmp_path / "c.sctr"
    export_raw(read_sctr(noisy_sctr), raw, meta)
    assert run("convert", raw, meta, "-o", converted) == 0
    capsys.readouterr()
    points = tmp_path / "points.csv"
    assert run("fit-hd", converted, "--points", points) == 1
    assert "records no true key" in assert_json_error(capsys, points)


def test_sweep_table(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--key", KEY, "--n", 4000, "--sigma", 4, "--seed", 1,
               "--offsets", "0,6", "--bits", "2", "-o", out) == 0
    with open(out, newline="") as fh:
        rows = {row["offset"]: row for row in csv.DictReader(fh)}
    assert set(rows) == {"0", "6"}
    # zero offset behaves like no countermeasure at all
    plain = tmp_path / "plain.sctr"
    assert run("simulate", "--key", KEY, "--n", 4000, "--sigma", 4,
               "--seed", 1, "-o", plain) == 0
    report_path = tmp_path / "plain.json"
    assert run("attack", plain, "--report", report_path) == 0
    report = json.loads(report_path.read_text())
    assert rows["0"]["disclosure"] == str(report["disclosure"])
    assert rows["0"]["wrong_horse_count"] == "0"
    # a sufficient offset suppresses disclosure in the same campaign
    assert rows["6"]["disclosure"] == ""
    assert int(rows["6"]["wrong_horse_count"]) >= 1


def test_sweep_memory_does_not_grow_with_the_checkpoints(tmp_path):
    # The sweep-s1 shape: 12 points of 20k traces, 200 checkpoints each.  The
    # grid keeps no evolutions, which alone would take 4.7 MiB, so the traced
    # peak stays below 7 MiB.
    def sweep(n):
        return run("sweep", "--key", KEY, "--sigma", 4, "--seed", 0, "--n", n,
                   "--offsets", "0,2,4,4.5,6,8", "--bits", "2,5", "-o", tmp_path / "sweep.csv")
    assert sweep(200) == 0   # imports and first-call set-up, outside the traced run
    code, peak = traced_peak(lambda: sweep(20000))
    assert code == 0 and peak < 7 * 2 ** 20


# Sweep parameters by flag name; the rest take the defaults below.
SWEEP_CASES = {
    "static-s1": dict(n=5000, sigma=4.0, seed=2, offsets=(0, 4.5), bits=(2, 5)),
    "toggle-s3-poi1": dict(n=9001, sigma=2.0, seed=7, samples=3, poi=1, baseline=2.5,
                           trigger="toggle", augment_byte=5, byte=5, stride=250,
                           offsets=(0, 3, 9), bits=(1, 6)),
}
SWEEP_DEFAULTS = dict(samples=1, poi=0, baseline=0.0, trigger="static", augment_byte=0,
                      byte=0, stride=100)


@pytest.mark.parametrize("case", SWEEP_CASES.values(), ids=SWEEP_CASES)
def test_sweep_equals_per_point_oracle(tmp_path, case):
    p = {**SWEEP_DEFAULTS, **case}
    flags = {**p, **{grid: ",".join(map(str, p[grid])) for grid in ("offsets", "bits")}}
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--key", KEY, *(f"--{name.replace('_', '-')}={value}"
                                        for name, value in flags.items()), "-o", out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))

    correct = aes.correct_last_round_guess(KEY, p["byte"])
    expected = []
    for bit in p["bits"]:
        for offset in p["offsets"]:
            config = LeakageConfig.equal_weights(
                1.0, baseline=p["baseline"], noise_sigma=p["sigma"],
                samples_per_trace=p["samples"], poi_index=p["poi"])
            traces = simulate_campaign(KEY, p["n"], config, p["seed"],
                                       Augmentation(p["augment_byte"], bit, offset, p["trigger"]))
            result = cpa_attack(traces, p["byte"], p["stride"])
            horses = wrong_horse_scan(traces, p["byte"], correct, sample_index=p["poi"])
            expected.append({"bit": str(bit), "offset": format(float(offset), ".17g"),
                             "disclosure": "" if result.disclosure is None
                             else str(result.disclosure),
                             "wrong_horse_count": str(len(horses))})
    assert rows == expected
    # without an offset the attack settles, so the comparison is not vacuous
    assert all(row["disclosure"] for row in rows if row["offset"] == "0")


@pytest.mark.parametrize("flags", [
    ["--bits", "2,9"],
    ["--bits", "2", "--offsets", "0,-1"],
    ["--bits", "2", "--stride", "0"],
    ["--bits", "2", "--byte", "16"],
    ["--bits", "2", "--poi", "3"],
])
def test_sweep_validates_grid_before_simulating(tmp_path, monkeypatch, capsys, flags):
    def never(*args, **kwargs):
        raise AssertionError("the sweep simulated before validating its grid")
    monkeypatch.setattr(cli, "simulate_offset_grid", never)
    monkeypatch.setattr(aes, "_encrypt_states", never)
    argv = ["sweep", "--n", 2000, "--offsets", "0,2", *flags, "-o", tmp_path / "s.csv"]
    assert run(*argv) == 1
    assert "error" in json.loads(capsys.readouterr().err)
    assert not (tmp_path / "s.csv").exists()


def test_convert_round_trip(tmp_path, capsys):
    src = tmp_path / "src.sctr"
    assert run("simulate", "--key", KEY, "--n", 25, "--sigma", 1,
               "--samples", 3, "--seed", 2, "-o", src) == 0
    ts = read_sctr(src)
    raw, meta = tmp_path / "dump.f32", tmp_path / "dump.csv"
    export_raw(ts, raw, meta)
    out = tmp_path / "converted.sctr"
    assert run("convert", raw, meta, "--samples-per-trace", 3, "-o", out) == 0
    back = read_sctr(out)
    assert back.samples.tobytes() == ts.samples.tobytes()
    assert np.array_equal(back.ciphertexts, ts.ciphertexts)
    assert back.true_key is None


def test_convert_accepts_a_byte_order_mark(tmp_path, capsys):
    ts = simulate_campaign(KEY, 25, LeakageConfig.equal_weights(1.0, noise_sigma=1.0), seed=2)
    raw, meta, bom_meta = tmp_path / "dump.f32", tmp_path / "dump.csv", tmp_path / "bom.csv"
    export_raw(ts, raw, meta)
    bom_meta.write_bytes(b"\xef\xbb\xbf" + meta.read_bytes())   # as spreadsheets save it
    plain, bom = tmp_path / "plain.sctr", tmp_path / "bom.sctr"
    assert run("convert", raw, meta, "-o", plain) == 0
    assert run("convert", raw, bom_meta, "-o", bom) == 0
    assert bom.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
def test_convert_names_the_row_that_is_not_utf8(tmp_path, capsys, bom):
    ts = simulate_campaign(KEY, 3, LeakageConfig.equal_weights(1.0), seed=2)
    raw, meta, out = tmp_path / "dump.f32", tmp_path / "dump.csv", tmp_path / "x.sctr"
    export_raw(ts, raw, meta)
    header, row1, row2, row3 = meta.read_bytes().splitlines(keepends=True)
    meta.write_bytes(bom + header + row1 + b"\xff" + row2[1:] + row3)
    assert run("convert", raw, meta, "-o", out) == 1
    position = len(bom + header + row1)
    assert assert_json_error(capsys, out) == (
        f"{meta}: row 2: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position "
        f"{position}: invalid start byte")


def test_convert_mismatch_fails(tmp_path, capsys):
    raw = tmp_path / "r.f32"
    meta = tmp_path / "r.csv"
    raw.write_bytes(np.zeros(6, dtype="<f4").tobytes())
    meta.write_text("plaintext_hex,ciphertext_hex\n" + "00" * 16 + "," + "11" * 16 + "\n")
    assert run("convert", raw, meta, "--samples-per-trace", 4,
               "-o", tmp_path / "x.sctr") == 1
    err = json.loads(capsys.readouterr().err)
    assert "mismatch" in err["error"]


# SHA-256 of every output of a few small runs, recorded at commit 7776160
# with numpy 2.4.6; sweep5.csv recorded at commit 4465a48; the fit-hd
# CSVs and the stdout.txt that includes their lines at commit 0a36760;
# the wide (S=300) attack's files at commit 20ecf9a.
# The same flags must give the same bytes, so a faster kernel has to
# reproduce these exactly.
RECORDED_DIGESTS = {
    "byte0.json": "713d8c2fb46eb052d3bf3e3bf6390683b4972533088df25302c19bc0c7fd0ab4",
    "capture.csv": "388033e7f25dbd322b705a3444199b6347d8c9bd7b7ac751dd61c37412b5ec9a",
    "capture.f32": "2069f11b3590d753a14fe64d0f2de376be69b74ff1039bcb8f1f2a371a5c7da8",
    "converted.sctr": "0813110befec1cdddd5996fc2de7507e75a5e18c826358fdd5899fbf51a5fd13",
    "evolution.csv": "b775612840c7fb62a5fbea9bc11006befefe759c8ad18559b54f585f7fb90f82",
    "fit5_lines.csv": "29aea54df0a9b07eec9ad15d7135443110473f464d6b4e0f354cbfda5eb13258",
    "fit5_points.csv": "07ef8422b4ecd475168ad83d24695b76174c5d5b504bc59afaafaafc88af3aed",
    "fit_lines.csv": "7508f3c4c4038151ba498d331ba4502877ec3e344ec1a96450504efa3bc2b145",
    "fit_points.csv": "bfdfea38aa49715fc8f6109f5e146082deda59bb570e035a047b2aacef9c3ad3",
    "full.json": "79d457e5b8e67ac2758fcae61f4916ca572b4e5b0154cc2c7f5c20e39a83899d",
    "full.sctr": "57b4609ad37bbf5e6faaea3eeee00efac4d65fb74a99f76d2230387084bc3c16",
    "s8.sctr": "c0c4cd3483e0141ca41bd10f1933457613dfe44e91dff84c2398052b1ad9a124",
    "stdout.txt": "b11f55a3842e28e58b171a7468cf88fb0ea2682a4bb29f8f5a400d88a337e51d",
    "sweep.csv": "0e5664c31ef42219823d40de90ac57191bfef4e458d5292da94787127bdb0867",
    "sweep5.csv": "a88f2019213e499b31b67ac3e19b4b53b8b51928a384659938952cd863941e5c",
    "wide.json": "3620d092b4e6703513a4ef17e0bd80299dc96fedbd92266dbb4453341e9bc4f4",
    "wide.sctr": "4e291ab88281b1f9ecc58025a8fcb98f48b253ed77e16c223287e94803498335",
    "wide_evolution.csv": "269470673502e8cce39def38cd214e5bb7be9eaec92f8d0ff71d84ed92da8964",
}


def test_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # reports echo the input path they were given
    write_digest_outputs()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == RECORDED_DIGESTS


# Runs each argv of the JSON list it is given through cli.main, in one
# process; the exit code counts the commands that failed.
_COMMANDS_SCRIPT = ("import json, sys; from scakit.cli import main; "
                    "sys.exit(sum(main(argv) != 0 for argv in json.loads(sys.argv[1])))")


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # S=300 at a stride of 140 makes each checkpoint's x.T @ y a 256 x 140 x 300
    # product, past the 4 * 65536 multiply-adds below which OpenBLAS keeps a
    # product on one thread.
    noise = ["--key", KEY, "--sigma", "4"]
    commands = [
        ["simulate", *noise, "--n", "1500", "--samples", "300", "--poi", "150", "--seed", "4",
         "-o", "wide.sctr"],
        ["attack", "wide.sctr", "--stride", "140", "--report", "wide.json",
         "--evolution-csv", "wide_evolution.csv"],
        ["sweep", *noise, "--n", "2000", "--seed", "3", "--offsets", "0,8", "--bits", "2",
         "-o", "sweep.csv"],
    ]
    src = str(Path(cli.__file__).parent.parent)
    outputs = []
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _COMMANDS_SCRIPT, json.dumps(commands)],
                              cwd=work, env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        outputs.append({"stdout": done.stdout, "stderr": done.stderr,
                        **{path.name: path.read_bytes() for path in sorted(work.iterdir())}})
    assert sorted(outputs[0]) == ["stderr", "stdout", "sweep.csv", "wide.json",
                                  "wide.sctr", "wide_evolution.csv"]
    assert outputs[0] == outputs[1]


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernels by CPU, and OPENBLAS_CORETYPE forces one for a
    # process.  A BLAS dot product's summation order is the kernel's: a
    # 9-element one rounds three ways under the default, Haswell and Prescott
    # kernels.  Every recorded output must keep its bytes under both forced
    # kernels; a BLAS that ignores the variable runs the same kernel twice.
    tests, src = Path(__file__).parent, Path(cli.__file__).parent.parent
    outputs = []
    for coretype in ("Haswell", "Prescott"):
        work = tmp_path / coretype
        work.mkdir()
        env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c",
                               "import helpers; helpers.write_digest_outputs()"],
                              cwd=work, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        outputs.append({path.name: path.read_bytes() for path in sorted(work.iterdir())})
    assert outputs[0] == outputs[1]
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs[0].items()} == RECORDED_DIGESTS


# Runs scakit.cli as __main__, as `python -m scakit.cli` does, and reports the
# collector's freeze count on stderr from an atexit hook, after main returned.
_ENTRY_SCRIPT = ("import atexit, gc, runpy, sys; atexit.register(lambda: sys.stderr.write("
                 "f'frozen {gc.get_freeze_count()}\\n')); "
                 "runpy.run_module('scakit.cli', run_name='__main__')")


def test_process_entry_matches_main_and_freezes_the_collector(tmp_path, monkeypatch, capsys):
    commands = [["simulate", "--key", KEY, "--n", "1500", "--sigma", "4", "--seed", "1",
                 "-o", "a.sctr"], ["attack", "a.sctr", "--report", "r.json"]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH")]))}

    def child(work, *argv):
        return subprocess.run([sys.executable, *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=60)

    outputs, frozen = [], gc.get_freeze_count()
    for name in ("main", "entry"):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        stdout = []
        for argv in commands:
            if name == "main":
                assert cli.main(argv) == 0
                stdout.append(capsys.readouterr().out)
            else:
                done = child(work, "-m", "scakit.cli", *argv)
                assert (done.returncode, done.stderr) == (0, ""), done.stderr
                stdout.append(done.stdout)
        outputs.append({"stdout": stdout, **{p.name: p.read_bytes() for p in work.iterdir()}})
    assert gc.get_freeze_count() == frozen   # main(argv) leaves the caller's heap alone
    assert sorted(outputs[0]) == ["a.sctr", "r.json", "stdout"] and outputs[0] == outputs[1]

    done = child(tmp_path, "-m", "scakit.cli", "simulate", "--n", "abc", "-o", "x.sctr")
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and "--n" in json.loads(lines[0])["error"]
    done = child(tmp_path, "-c", _ENTRY_SCRIPT, *commands[0])
    assert done.returncode == 0 and done.stderr.startswith("frozen "), done.stderr
    assert int(done.stderr.split()[1]) > 0


# The fuzz below draws valid campaigns (campaign_params) and flags, and half
# the time replaces or adds one value from BAD; every run must end in output
# or one JSON error, never a traceback.  No draw asks for a large campaign:
# n <= 40, samples <= 16, grids <= 2 x 2, and the size rule rejects the two
# BAD counts past SCTR's 32-bit fields before any work.
BAD = st.sampled_from(["", "abc", "nan", "inf", "-inf", "-1", "1e400", "1e39", "0x10", "1.5",
                       "8", "16", "00ff", "zz" * 16, "static", "4294967296",
                       "100000000000000000000"])


@st.composite
def fuzz_campaign(draw, names):
    """Campaign flags and a config file text (or None) over ``names``."""
    params = {name: value for name, value in draw(campaign_params()).items() if name in names}
    junk = []
    if draw(st.booleans()):
        params[draw(st.sampled_from(sorted(names)))] = draw(BAD)
        junk = draw(st.lists(st.sampled_from(["# comment", "bogus = 1", "no equals"]), max_size=1))
    in_file = [name for name in params if draw(st.booleans())]
    lines = [f"{name} = {params[name]}" for name in in_file] + junk
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in params.items()
             if name not in in_file]
    return flags, "\n".join(lines) if lines else None


def run_fuzzed(tmp, command, flags, config=None):
    """Run one drawn command: it exits 0 with nothing on stderr, or 1 with
    stderr holding exactly one JSON object, the error."""
    if config is not None:
        (tmp / "c.cfg").write_text(config)
        flags = [*flags, "--config", tmp / "c.cfg"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(command, *flags)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1 and set(json.loads(err.getvalue())) == {"error"}, err.getvalue()


def maybe(draw, flag, values):
    """``[flag, value]`` for a drawn value or a drawn BAD one, or no flag."""
    value = draw(st.one_of(st.none(), values.map(str), values.map(str), BAD))
    return [] if value is None else [flag, value]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), campaign=fuzz_campaign(cli._SIM_PARAMS))
def test_fuzzed_simulate_attack_and_fit_hd_exit_with_one_json_error(data, campaign):
    draw = data.draw
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sctr = tmp / "c.sctr"
        run_fuzzed(tmp, "simulate", [*campaign[0], "-o", sctr], campaign[1])
        attack = [*maybe(draw, "--byte", st.integers(0, 15)),
                  *maybe(draw, "--stride", st.integers(1, 400))]
        for flag, value in (("--all-bytes", ()), ("--report", (tmp / "r.json",)),
                            ("--evolution-csv", (tmp / "e.csv",))):
            attack += [flag, *value] * draw(st.booleans())
        run_fuzzed(tmp, "attack", [sctr, *attack])
        fit = [*maybe(draw, "--byte", st.integers(0, 15)),
               *maybe(draw, "--sample", st.integers(0, 4)),
               *maybe(draw, "--guess", st.integers(0, 255)),
               *maybe(draw, "--guess", st.integers(0, 255))]
        fit += ["--points", tmp / "p.csv", "--fits", tmp / "f.csv"] * draw(st.booleans())
        run_fuzzed(tmp, "fit-hd", [sctr, *fit])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), campaign=fuzz_campaign(cli._SWEEP_PARAMS))
def test_fuzzed_sweep_exits_with_one_json_error(data, campaign):
    draw = data.draw
    grid = {flag: ",".join(map(str, draw(st.lists(values, min_size=1, max_size=2))))
            for flag, values in (("--offsets", st.floats(0, 20)), ("--bits", st.integers(0, 7)))}
    if draw(st.booleans()):
        grid[draw(st.sampled_from(sorted(grid)))] = draw(BAD)
    flags = [*campaign[0], "--offsets", grid["--offsets"], "--bits", grid["--bits"]]
    flags += [*maybe(draw, "--byte", st.integers(0, 15)),
              *maybe(draw, "--stride", st.integers(1, 400))]
    with tempfile.TemporaryDirectory() as tmp:
        run_fuzzed(Path(tmp), "sweep", [*flags, "-o", Path(tmp) / "s.csv"], campaign[1])
