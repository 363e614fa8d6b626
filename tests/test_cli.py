import ast
import hashlib
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import randamp
from randamp import bounds, sv_source
from randamp.cli import main
from randamp.ks_bell import cell_entry, var_index
from randamp.ns_certify import CertificationError, build_lp, solve_lp
from randamp.protocol import default_functional
from randamp.sv_source import SVSource


@pytest.fixture()
def runner():
    return CliRunner()


SMALL_SIM = {
    "protocol": {"n": 4000, "eps": 0.0, "delta": 1e-8,
                 "mu1": 1e-9, "kappa": 4e-10, "enforce_bounds": False},
    "device": {"kind": "ideal"},
    "source": {"strategy": "unbiased"},
    "extractor": {"m": 8, "L": 64, "rule": "target_rounds"},
    "master_seed": 424242,
    "trials": 3,
}


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_certify_small_grid(runner, tmp_path):
    res = runner.invoke(main, ["certify", "--delta-grid", "0,0.1",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "certify_summary.json").read_text())
    assert [r["optimum"] for r in summary["results"]] == ["3/4", "23/30"]
    assert all(r["certificate_verified"] for r in summary["results"])
    assert all(r["optimum_attained"] for r in summary["results"])
    assert (tmp_path / "certificate_cap_0.json").exists()
    assert (tmp_path / "certificate_cap_1over10.json").exists()


def test_certify_rejects_negative_grid(runner, tmp_path):
    res = runner.invoke(main, ["certify", "--delta-grid", "0,-0.1",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2


@pytest.mark.parametrize("grid, message", [
    ("", "bad grid: no cap in ''"), (",", "bad grid: no cap in ','"),
    ("1e400", "bad grid: 1e400 is too large"),
    ("0, 1e400 ", "bad grid: 1e400 is too large"),
    # caps whose certificate file names would pass 255 bytes
    ("1e-400", "bad grid: 1e-400 needs a file name over 255 bytes"),
    ("0,1e250", "bad grid: 1e250 needs a file name over 255 bytes"),
    # caps that are not numbers
    ("abc", "bad grid: Invalid literal for Fraction: 'abc'"),
    ("1/0", "bad grid: 1/0 has a zero denominator")])
def test_certify_rejects_an_empty_or_overflowing_grid(runner, tmp_path, grid,
                                                      message):
    res = runner.invoke(main, ["certify", "--delta-grid", grid,
                               "--out", str(tmp_path)])
    assert res.exit_code == 2 and message in res.output, res.output
    assert not (tmp_path / "certify_summary.json").exists()


def test_certify_solves_each_distinct_cap_once(runner, tmp_path):
    res = runner.invoke(main, ["certify", "--delta-grid", "0.5,1/2,0,0.5",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert res.output.count("cap=1/2:") == 1
    summary = json.loads((tmp_path / "certify_summary.json").read_text())
    assert summary["grid"] == ["1/2", "0"]
    assert [r["cap"] for r in summary["results"]] == ["1/2", "0"]


def test_certify_an_ordinary_cap(runner, tmp_path):
    """A cap whose optimum 4501009/6000000 has a denominator past 10^6."""
    res = runner.invoke(main, ["certify", "--delta-grid", "1009/1000000",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "certify_summary.json").read_text())
    [row] = summary["results"]
    assert row["optimum"] == "4501009/6000000"
    assert row["certificate_verified"] and row["optimum_attained"]


_DEFAULT_GRID_DIGESTS = {
    "certificate_cap_0.json":
        "523219a8b6a294548321dd059957d638cf49f954041fe4a5c2399b6fce570966",
    "certificate_cap_1over10.json":
        "f5db4a85e5a5d5e1c66f75065374381d9191af5cc5e33c5789d48c100639d996",
    "certificate_cap_1over2.json":
        "cfd9e042a89175a66c5e08f9a8e4cff2e21c9351bd0010014c1666302dc4e656",
    "certificate_cap_1over20.json":
        "d4eb53c9588dc812b11489a01c6f7d2bc79206f61e3def733ea71022ea090d30",
    "certificate_cap_1over4.json":
        "b85828fa7002974042f2dee101ec158eb67caa4cfeee0d02aacbaf93c1bcdc42",
    "certificate_cap_1over5.json":
        "820d007819e20c856763d885031f06a5400e7cfa8e94037b9c194507c157da84",
    "certificate_cap_2over5.json":
        "e1cf97bfdfe764ccc0862b24eeb9e58384949c27e7dac43158ca5ad36db656bb",
    "certificate_cap_3over10.json":
        "2367a436f30b4ae219b5d92ebd08098f290615b3ba236fe6676f906a1d4f0aa5",
    "certificate_cap_3over20.json":
        "990283d80bcc04914c37681b540f26d0a028dff64b22d56da0c6ba923ce3fd1d",
    "certificate_cap_7over20.json":
        "94dfc5d9c58bafc03204ec3c5a9873f3d57d1ea969b7f0889345dc9b55d5c167",
    "certificate_cap_9over20.json":
        "efaf9e74b8061ae436f16fb3b29ba7c1e89b42830a5a27c3d8b60055575270be",
    "certify_summary.json":
        "58fbc690bd13161f2fa583bea62bc4541d8d6d9a7f7735c97a3f3b50812a1d09",
}


def test_certify_digests(runner, tmp_path):
    """Regression anchor: sha256 of every file the default 11-cap grid
    writes, frozen from the ladder of roundings (denominators up to 10^6,
    10^9, 10^13, then multiples of 1/(144 q)) that one rule at the scales
    q and 1 replaced."""
    res = runner.invoke(main, ["certify", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_DEFAULT_GRID_DIGESTS)
    for name, digest in _DEFAULT_GRID_DIGESTS.items():
        body = (tmp_path / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest, name


def test_certify_solver_failure_exits_2(runner, tmp_path, monkeypatch):
    """A failure inside `solve_lp` exits 2, names the cap and writes no
    summary."""
    def fail(problem):
        raise CertificationError("no exact certificate")

    monkeypatch.setattr("randamp.cli.solve_lp", fail)
    res = runner.invoke(main, ["certify", "--delta-grid", "1/10,0",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "solver failure at cap 1/10: no exact certificate" in res.output
    assert not (tmp_path / "certify_summary.json").exists()


def _report_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_certify_on_several_threads_matches_serial_solves(
        runner, tmp_path, monkeypatch, functional):
    """With 4 CPUs reported, the caps are solved on several threads, and
    each certificate is the serial solve's, bit for bit; stdout and the
    summary list the caps in grid order."""
    _report_cpus(monkeypatch, 4)
    threads = set()

    def recorded(problem):
        threads.add(threading.get_ident())
        return solve_lp(problem)

    monkeypatch.setattr("randamp.cli.solve_lp", recorded)
    grid = [Fraction(g) for g in ("0", "1/2", "1/7", "1009/1000000", "2")]
    res = runner.invoke(main, ["certify", "--delta-grid", ",".join(map(str, grid)),
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert len(threads) > 1
    assert [line.split(":")[0] for line in res.output.splitlines()] == \
        [f"cap={g}" for g in grid]
    rows = json.loads((tmp_path / "certify_summary.json").read_text())["results"]
    assert [r["cap"] for r in rows] == [str(g) for g in grid]
    for g, row in zip(grid, rows):
        cert = json.loads(solve_lp(build_lp(functional, g)).certificate.to_json())
        cert["version"] = randamp.__version__
        assert (tmp_path / row["file"]).read_text() == \
            json.dumps(cert, sort_keys=True) + "\n", g


def test_certify_reports_the_first_failure_in_grid_order(runner, tmp_path,
                                                          monkeypatch):
    """On several threads a failing cap still exits 2 in grid order: the
    certificates of the caps before it are written, none after it even
    when they were solved first, no summary, and no solver thread is left."""
    _report_cpus(monkeypatch, 4)

    def slow_or_fail(problem):
        if problem.delta_tilde == Fraction(1, 10):
            raise CertificationError("no exact certificate")
        if problem.delta_tilde == 0:
            time.sleep(0.3)             # the later caps finish first
        return solve_lp(problem)

    monkeypatch.setattr("randamp.cli.solve_lp", slow_or_fail)
    before = threading.active_count()
    res = runner.invoke(main, ["certify", "--delta-grid", "0,1/10,1/5",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "solver failure at cap 1/10: no exact certificate" in res.output
    assert [p.name for p in tmp_path.iterdir()] == ["certificate_cap_0.json"]
    assert threading.active_count() == before


def test_simulate_emits_outputs(runner, tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0, res.output
    csv = (out / "campaign.csv").read_text().splitlines()
    assert csv[0].startswith("# randamp ")
    assert csv[1] == "trial,Ln,Sn,verdict"
    assert len(csv) == 2 + 3
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["trials"] == 3
    assert (out / "trial0.jsonl").exists()


def test_simulate_idempotent(runner, tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
    assert (out1 / "campaign.csv").read_bytes() == (out2 / "campaign.csv").read_bytes()
    assert (out1 / "trial0.jsonl").read_bytes() == (out2 / "trial0.jsonl").read_bytes()


@pytest.mark.parametrize("cfg, csv_digest, transcript_digest", [
    ({"device": {"kind": "depolarized", "eta": 0.03}},
     "00c431f3d7f661d2ea3d7c96a8cd00a04dbebf263c9e0d56e89c18a24d006971",
     "b12876ca183860493b3c7eedeb2918d49b13a6ffb33d48bba5e754c4f49b4826"),
    ({"protocol": {"eps": 0.05}, "device": {"kind": "switch_after", "k": 20000},
      "source": {"strategy": ["constant_bias", [0.05, -0.05]]}},
     "de954d35059a4a38b0d69d7fa75bc1dbe65459ef7bb8030e7c732fc03d9b23d4",
     "400470f607e9cc014543d540318b0793ae6527d8bc97c2ffac67386e085c6cea"),
], ids=["depolarized", "switch_after"])
def test_simulate_digests(runner, tmp_path, cfg, csv_digest, transcript_digest):
    """Regression anchor: sha256 of the `campaign.csv` and `trial0.jsonl`
    bodies (after the first line) of 3 trials at n = 40000, frozen from the
    device that compared every round's uniform with its cumulative row.
    At eta 0.03 rounds fall in buckets a threshold splits; k = 20000 puts
    tau inside the second chunk."""
    cfg = dict(cfg, trials=3)
    cfg["protocol"] = dict(cfg.get("protocol", {}), n=40_000)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--config", write_config(tmp_path, cfg),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    for name, digest in (("campaign.csv", csv_digest),
                         ("trial0.jsonl", transcript_digest)):
        body = "\n".join((out / name).read_text().splitlines()[1:])
        assert hashlib.sha256(body.encode()).hexdigest() == digest, name


_SEED = '"seed": 9380863847830809416'      # derive_seed(424242, 0, 1)


@pytest.mark.parametrize("device, header", [
    ({"kind": "ideal"},
     '{"behavior": {"kind": "ideal"}, "kind": "iid", ' + _SEED + '}'),
    ({"kind": "uniform"},
     '{"behavior": {"kind": "uniform"}, "kind": "iid", ' + _SEED + '}'),
    ({"kind": "depolarized", "eta": 0.25},
     '{"behavior": {"base": "ideal", "eta": 0.25, "kind": "depolarized"}, '
     '"kind": "iid", ' + _SEED + '}'),
    ({"kind": "lp_attack_zero"},
     '{"behavior": {"certified": true, "delta_tilde": 0.0, "kind": "lp_vertex", '
     '"sense": "min"}, "kind": "iid", ' + _SEED + '}'),
    ({"kind": "switch_after", "k": 2000},
     '{"k": 2000, "kind": "switch_after", ' + _SEED + '}'),
    ({"kind": "history_trigger", "pattern": [[5, 5], [6, 6]]},
     '{"kind": "history_trigger", "pattern": [[5, 5], [6, 6]], ' + _SEED + '}'),
], ids=["ideal", "uniform", "depolarized", "lp_attack_zero", "switch_after",
        "history_trigger"])
def test_transcript_header_device_is_pinned(runner, tmp_path, device, header):
    """The `device` object of trial 0's transcript header, as
    `json.dumps(..., sort_keys=True)` writes it, for every device kind.
    The frozen digests hash only the lines after the header, so this is
    what holds a behavior's meta to its bytes."""
    cfg = write_config(tmp_path, dict(SMALL_SIM, device=device, trials=1))
    res = runner.invoke(main, ["simulate", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    first = (tmp_path / "out" / "trial0.jsonl").read_text().splitlines()[0]
    assert json.dumps(json.loads(first)["device"], sort_keys=True) == header


def test_simulate_builds_the_source_strategy_once(runner, tmp_path,
                                                  monkeypatch):
    """A 3-trial campaign builds its strategy table once, and every trial's
    source shares it: the same bytes as sources that each build their own."""
    calls, build = [], sv_source.make_strategy
    monkeypatch.setattr(sv_source, "make_strategy",
                        lambda spec, eps: calls.append(spec) or build(spec, eps))
    cfg = write_config(tmp_path, dict(
        SMALL_SIM, protocol=dict(SMALL_SIM["protocol"], eps=0.05),
        source={"strategy": ["avoid_target"]}))
    res = runner.invoke(main, ["simulate", "--config", cfg,
                               "--out", str(tmp_path / "shared")])
    assert res.exit_code == 0, res.output
    assert calls == [["avoid_target"]]
    monkeypatch.setattr("randamp.cli.parse_source", lambda source, eps:
                        lambda seed: SVSource(eps, source["strategy"], seed))
    res = runner.invoke(main, ["simulate", "--config", cfg,
                               "--out", str(tmp_path / "own")])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1 + 3
    for name in ("campaign.csv", "trial0.jsonl"):
        assert (tmp_path / "shared" / name).read_bytes() == \
            (tmp_path / "own" / name).read_bytes()


def test_seed_and_trials_flags_are_the_config_keys(runner, tmp_path):
    """--trials and --seed override the top-level `trials` and
    `master_seed`: the same bytes as a config that sets them."""
    res = runner.invoke(main, ["simulate", "--config",
                               write_config(tmp_path, SMALL_SIM), "--trials",
                               "2", "--seed", "7", "--out", str(tmp_path / "flag")])
    assert res.exit_code == 0, res.output
    cfg = write_config(tmp_path, dict(SMALL_SIM, trials=2, master_seed=7))
    res = runner.invoke(main, ["simulate", "--config", cfg,
                               "--out", str(tmp_path / "file")])
    assert res.exit_code == 0, res.output
    for name in ("campaign.csv", "trial0.jsonl"):
        assert (tmp_path / "flag" / name).read_bytes() == \
            (tmp_path / "file" / name).read_bytes()


def test_source_strategy_flag_takes_a_name_or_a_json_spec(runner, tmp_path):
    """A JSON spec on the flag runs as the same spec in a config file, a
    bare name still works, and a malformed spec exits 2."""
    spec = ["constant_bias", [0.05, -0.05]]
    biased = dict(SMALL_SIM, protocol=dict(SMALL_SIM["protocol"], eps=0.05))
    cfg = write_config(tmp_path, biased)
    res = runner.invoke(main, ["simulate", "--config", cfg,
                               "--source-strategy", json.dumps(spec),
                               "--out", str(tmp_path / "flag")])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "flag" / "simulate_summary.json").read_text())
    assert summary["config"]["source"]["strategy"] == spec
    cfg = write_config(tmp_path, dict(biased, source={"strategy": spec}))
    res = runner.invoke(main, ["simulate", "--config", cfg,
                               "--out", str(tmp_path / "file")])
    assert res.exit_code == 0, res.output
    for name in ("campaign.csv", "trial0.jsonl"):
        assert (tmp_path / "flag" / name).read_bytes() == \
            (tmp_path / "file" / name).read_bytes()
    cfg = write_config(tmp_path, SMALL_SIM)
    for value in ("unbiased", '"unbiased"'):
        res = runner.invoke(main, ["simulate", "--config", cfg, "--source-strategy",
                                   value, "--out", str(tmp_path / "name")])
        assert res.exit_code == 0, (value, res.output)
    for value in ('["constant_bias", 5]', '["constant_bias"', '["bogus"]',
                  "null", "[" * 100_000, "unbiassed"):
        res = runner.invoke(main, ["simulate", "--config", cfg, "--source-strategy",
                                   value, "--out", str(tmp_path / "bad")])
        assert res.exit_code == 2, (value[:20], res.output)
        assert "error: source.strategy: " in res.output, res.output


def test_a_bias_over_a_zero_denominator_is_named(runner, tmp_path):
    """A bias "1/0" exits 2 naming the token and its zero denominator; the
    message was "Fraction(1, 0)"."""
    res = runner.invoke(main, ["simulate", "--config",
                               write_config(tmp_path, SMALL_SIM),
                               "--epsilon", "0.05", "--source-strategy",
                               '["constant_bias", ["1/0"]]',
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "error: source.strategy: '1/0' has a zero denominator" in \
        res.output, res.output
    assert not (tmp_path / "out" / "campaign.csv").exists()


def test_simulate_rejects_invalid_params(runner, tmp_path):
    bad = [dict(SMALL_SIM, protocol=dict(SMALL_SIM["protocol"],
                                         enforce_bounds=True, delta=0.5))]
    bad += [dict(SMALL_SIM, device=device) for device in (
        {"kind": "switch_after"},
        {"kind": "switch_after", "k": -1},
        {"kind": "switch_after", "k": True},
        {"kind": "history_trigger"},
        {"kind": "history_trigger", "pattern": []},
        {"kind": "history_trigger", "pattern": [[5, 12]]},
        {"kind": "history_trigger", "pattern": [[1, 2, 3]]},
        {"kind": "depolarized"},
        {"kind": "depolarized", "eta": 1.5},
        # a key the kind does not read (ran the device without it)
        {"kind": "ideal", "eta": 0.5},
        {"kind": "depolarized", "eta": 0.5, "k": 3},
        {"kind": "switch_after", "k": 3, "pattern": [[1, 2]]},
        {"kind": "history_trigger", "pattern": [[1, 2]], "eta": 0.1},
        {"kind": "lp_attack_zero", "b1": "ideal"},
        {"kind": ["ideal"]})]
    # source strategies that cannot be built: too biased for eps, unknown,
    # an avoid_target pair outside 1..9, and bools where numbers belong
    biased = dict(SMALL_SIM["protocol"], eps=0.05)
    bad += [dict(SMALL_SIM, protocol=biased, source={"strategy": strategy})
            for strategy in (["constant_bias", [0.2]], ["bogus"],
                             ["avoid_target", [0, 12]],
                             ["toward_pattern", True],
                             ["constant_bias", [0.05, False]])]
    # a kind with other arguments than it takes, no kind, null, and a bias
    # cycle that is not a non-empty list (the string "0" ran as a cycle of
    # one zero bias), at an eps that every argument here is within
    wide = dict(SMALL_SIM["protocol"], eps=0.3)
    bad += [dict(SMALL_SIM, protocol=wide, source={"strategy": strategy})
            for strategy in (["unbiased", 0.3], ["toward_pattern", 5, 6],
                             ["avoid_target", [1, 2], "junk"],
                             ["constant_bias", [0.01], 7], ["toward_pattern"],
                             ["constant_bias"], [], None,
                             ["constant_bias", "0"], ["constant_bias", []],
                             ["constant_bias", 0.01])]
    for cfg in bad:
        res = runner.invoke(main, ["simulate", "--config", write_config(tmp_path, cfg),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, (cfg["device"], cfg["source"], res.output)
        if cfg["source"] is not SMALL_SIM["source"]:
            assert "source.strategy: " in res.output, res.output
    # config files that are not one JSON object: nested too deeply to
    # parse, and a list
    raw = tmp_path / "raw.json"
    for text in ("[" * 200_000 + "]" * 200_000, "[1, 2]"):
        raw.write_text(text)
        res = runner.invoke(main, ["simulate", "--config", str(raw),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, (text[:10], res.output)
    cfg = write_config(tmp_path, SMALL_SIM)
    for kind in ("switch_after", "depolarized"):
        res = runner.invoke(main, ["simulate", "--config", cfg, "--device", kind,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, (kind, res.output)
    # fields of the wrong type or out of range, each named by its JSON path
    # in the message: the first ten exited 1, the next five were coerced
    for text, path in (('{"protocol": {"n": null}}', "protocol.n"),
                       ('{"protocol": [1]}', "protocol"),
                       ('{"source": "unbiased"}', "source"),
                       ('{"device": "ideal"}', "device"),
                       ('{"extractor": "x"}', "extractor"),
                       ('{"extractor": {"m": null}}', "extractor.m"),
                       ('{"master_seed": null}', "master_seed"),
                       ('{"trials": "abc"}', "trials"),
                       ('{"trials": 0}', "trials"),
                       ('{"protocol": {"n": 200.7}}', "protocol.n"),
                       ('{"trials": 2.5}', "trials"),
                       ('{"protocol": {"eps": "0.1"}}', "protocol.eps"),
                       ('{"master_seed": "12"}', "master_seed"),
                       ('{"protocol": {"enforce_bounds": "no"}}',
                        "protocol.enforce_bounds"),
                       # ExtractorConfig's own checks, under the section's path
                       ('{"extractor": {"m": 300}}', "extractor"),
                       ('{"extractor": {"rule": "bogus"}}', "extractor"),
                       # an L past sys.maxsize ran an accepted trial, then
                       # crashed slicing its bits (exit 1)
                       (json.dumps(dict(SMALL_SIM, extractor={"L": 10 ** 29})),
                        "extractor")):
        raw.write_text(text)
        res = runner.invoke(main, ["simulate", "--config", str(raw),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, (text, res.output)
        assert f"error: {path}: " in res.output, (text, res.output)
    # --eta on the default ideal device exited 0 and recorded the eta
    res = runner.invoke(main, ["simulate", "--n", "100", "--eta", "0.5",
                               "--out", str(tmp_path / "eta")])
    assert res.exit_code == 2, res.output
    assert "error: device.eta: not read by kind 'ideal'" in res.output
    assert not (tmp_path / "eta" / "simulate_summary.json").exists()
    # a flag aimed into a section that is not an object (raised TypeError)
    raw.write_text('{"protocol": [1]}')
    res = runner.invoke(main, ["simulate", "--config", str(raw), "--n", "5",
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output


def test_config_constants_outside_json_exit_2(runner, tmp_path):
    """NaN and +-Infinity are not JSON: a config holding one, even in a key
    nothing reads, was run and copied into the summary."""
    raw = tmp_path / "raw.json"
    for const in ("NaN", "Infinity", "-Infinity"):
        raw.write_text('{"source": {"note": %s}}' % const)
        res = runner.invoke(main, ["simulate", "--config", str(raw), "--n", "100",
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, (const, res.output)
        assert f"error: cannot read config {raw}: {const} is not valid JSON" \
            in res.output, res.output
    # a number literal past the float range parsed to infinity: it ran,
    # and the summary held Infinity
    for text, literal in (('{"protocol": {"n": 1e400}}', "1e400"),
                          ('{"source": {"note": 1e400}}', "1e400"),
                          ('{"source": {"note": -1e400}}', "-1e400")):
        raw.write_text(text)
        res = runner.invoke(main, ["simulate", "--config", str(raw), "--n", "100",
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, (text, res.output)
        assert f"error: cannot read config {raw}: {literal} is not a finite " \
            "number" in res.output, res.output
    assert not (tmp_path / "out").exists()


_FUZZ_BASE = dict(SMALL_SIM, protocol=dict(SMALL_SIM["protocol"], n=200),
                  trials=1)
# ints within +-500, so no example runs more than 10^5 rounds: n or trials
# at 500, or a section replaced by an object without n, which merges onto
# the default n = 10^5 at one trial
_CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-500, 500) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def _mutated_config(draw):
    """The small config with one key, at the top or in a section, set to
    an arbitrary JSON value."""
    cfg = json.loads(json.dumps(_FUZZ_BASE))
    obj = draw(st.sampled_from([cfg] + [cfg[k] for k in sorted(cfg)
                                        if isinstance(cfg[k], dict)]))
    obj[draw(st.sampled_from(sorted(obj)) | st.text(max_size=4))] = \
        draw(_CONFIG_VALUES)
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cfg=_mutated_config())
def test_simulate_exits_0_or_2_on_any_config(tmp_path_factory, cfg):
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz_config.json"
    path.write_text(json.dumps(cfg))
    res = CliRunner().invoke(main, ["simulate", "--config", str(path),
                                    "--out", str(base / "fuzz_out")])
    assert res.exit_code in (0, 2), (cfg, res.output, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_replay_reproduces_stored_run(runner, tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", cfg,
                                "--out", str(out)]).exit_code == 0
    res = runner.invoke(main, ["replay", str(out / "trial0.jsonl")])
    assert res.exit_code == 0, res.output
    body = json.loads(res.output)
    assert body["identical"] is True


def test_replay_detects_tampering(runner, tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", cfg,
                                "--out", str(out)]).exit_code == 0
    path = out / "trial0.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["x"] = [1, 3] if rec["x"] != [1, 3] else [2, 2]
    rec["u"] = [1, 2]
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["replay", str(path)])
    assert res.exit_code == 1


def _transcript_text(header=None, record=None, summary=None):
    """A well-formed one-round transcript, with any line replaced."""
    lines = [header or {"type": "header", "version": 1, "source": {
                 "epsilon": 0.0, "strategy": "unbiased", "seed": 0},
                 "params": {"n": 1, "eps": 0.0, "delta": 1e-8, "mu1": 1e-9,
                            "kappa": 4e-10, "extractor": {}}},
             record or {"i": 1, "u": [1, 1], "x": [1, 1]},
             summary or {"type": "summary", "Ln": 0.0, "Sn": 0.0,
                         "verdict": "AbortTomography"}]
    return "".join(json.dumps(line) + "\n" for line in lines)


def test_replay_malformed_file(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_transcript_text())
    assert runner.invoke(main, ["replay", str(bad)]).exit_code == 0
    for text in ("this is not json\n",
                 '{"type": "header", "params": {}}\n{"i": 1, "u": [1, 2]}\n',
                 _transcript_text(record={"i": 1, "u": [1, 12], "x": [1, 1]}),
                 _transcript_text(record={"i": 1, "u": [1, 1], "x": [0, 1]}),
                 _transcript_text(record={"i": 1, "u": [True, 1], "x": [1, 1]}),
                 _transcript_text(record={"i": 1, "u": [1, 1], "x": [1.0, 1]}),
                 _transcript_text(header={"type": "header", "version": 1}),
                 _transcript_text(header={"type": "header", "version": 1, "params": {
                     "n": 1, "eps": 0.0, "delta": 1e-8, "mu1": 1e-9,
                     "kappa": 4e-10, "extractor": {}}}),
                 _transcript_text(header={"type": "header", "version": 1, "source": {},
                                          "params": {"n": 1, "eps": 0.0,
                                                     "delta": 1e-8, "kappa": 4e-10,
                                                     "extractor": {}}}),
                 _transcript_text(header={"type": "header", "version": 1, "source": {},
                                          "params": {"n": 1, "eps": 0.0,
                                                     "delta": "1e-8", "mu1": 1e-9,
                                                     "kappa": 4e-10, "extractor": {}}}),
                 _transcript_text(summary={"type": "summary", "Sn": 0.0,
                                           "verdict": "AbortTomography"}),
                 "".join(_transcript_text().splitlines(True)[::2]),
                 # another format version, a header without one, and
                 # versions that equal 1 but are no int
                 _transcript_text().replace('"version": 1', '"version": 2'),
                 _transcript_text().replace('"version": 1, ', ''),
                 _transcript_text().replace('"version": 1', '"version": true'),
                 _transcript_text().replace('"version": 1', '"version": 1.0'),
                 # record count other than n: a truncated file
                 _transcript_text().replace('"n": 1', '"n": 2'),
                 # record numbers other than 1, 2, ..., n
                 _transcript_text(record={"i": 2, "u": [1, 1], "x": [1, 1]}),
                 _transcript_text(record={"u": [1, 1], "x": [1, 1]}),
                 _transcript_text(record={"i": True, "u": [1, 1], "x": [1, 1]}),
                 # nesting too deep for the JSON parser
                 "[" * 200_000 + "]" * 200_000 + "\n",
                 # a record in any form but the written one
                 _transcript_text().replace('{"i": 1, "u": [1, 1], "x": [1, 1]}',
                                            '{"i":1,"u":[1,1],"x":[1,1]}'),
                 _transcript_text(record={"u": [1, 1], "i": 1, "x": [1, 1]}),
                 _transcript_text(record={"i": 1, "u": [1, 1], "x": [1, 1],
                                          "t": 0}),
                 # a blank line, a second summary or a second header
                 _transcript_text().replace('\n{"type": "summary"',
                                            '\n\n{"type": "summary"'),
                 _transcript_text(summary={"type": "summary", "Ln": 0.0,
                                           "Sn": 1.0, "verdict": "Accept"})
                 + json.dumps({"type": "summary", "Ln": 0.0, "Sn": 0.0,
                               "verdict": "AbortTomography"}) + "\n",
                 _transcript_text().replace('"seed": 0', '"seed": 1')
                 .splitlines(True)[0] + _transcript_text(),
                 # a line that is not UTF-8
                 _transcript_text().splitlines(True)[0].encode() + b"\xff\xfe\n",
                 # summary values of the wrong type or out of range
                 _transcript_text(summary={"type": "summary", "Ln": "0.0",
                                           "Sn": 0.0, "verdict": "AbortTomography"}),
                 _transcript_text(summary={"type": "summary", "Ln": 0.0,
                                           "Sn": 0.0, "verdict": "Maybe"}),
                 # record 1 numbered by a longer or zero-padded number
                 _transcript_text().replace('{"i": 1,', '{"i": 10,'),
                 _transcript_text().replace('{"i": 1,', '{"i": 01,')):
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        res = runner.invoke(main, ["replay", str(bad)])
        assert res.exit_code == 2, res.output
        assert "bad.jsonl" in res.output


def test_extract_matches_stored_output(runner, tmp_path):
    biased = ["constant_bias", [0.05, -0.05]]
    for rule, eps, strategy in (("target_rounds", 0.0, "unbiased"),
                                ("all_rounds", 0.0, "unbiased"),
                                ("target_rounds", 0.05, biased)):
        cfg = write_config(tmp_path, dict(
            SMALL_SIM, protocol=dict(SMALL_SIM["protocol"], eps=eps),
            source={"strategy": strategy},
            extractor=dict(SMALL_SIM["extractor"], rule=rule)))
        out = tmp_path / f"{rule}-{eps}"
        assert runner.invoke(main, ["simulate", "--config", cfg,
                                    "--out", str(out)]).exit_code == 0
        summary = json.loads((out / "trial0.jsonl").read_text().splitlines()[-1])
        assert summary["verdict"] == "Accept"
        res = runner.invoke(main, ["extract", str(out / "trial0.jsonl"),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert res.output.strip().endswith(summary["output_hex"])
        sidecar = json.loads((out / "extracted.json").read_text())
        assert sidecar["output_hex"] == summary["output_hex"]
        assert sidecar["rule"] == rule
        stored = summary["extraction"]
        assert stored["rule"] == rule
        assert sidecar["validity_condition_met"] == stored["honest_condition_met"]
        assert sidecar["rates"]["rate_t"] == stored["rate_t"]
        assert stored["rate_t"] == (1.0 if eps == 0 else -math.log2(0.55))
        assert stored["certified_rate_x"] >= 0


def test_extract_recomputes_the_verdict(runner, tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", cfg,
                                "--out", str(out)]).exit_code == 0
    path = out / "trial0.jsonl"
    lines = path.read_text().splitlines()
    assert json.loads(lines[-1])["verdict"] == "Accept"
    changed = 0
    for i in range(1, len(lines) - 1):
        rec = json.loads(lines[i])
        if rec["u"] != [1, 2] and changed < 3:
            # ((1,2),(1,1)) is a Bell-indicator cell; the target rounds and
            # so the extracted bits stay as they were
            rec["u"], rec["x"] = [1, 1], [1, 2]
            lines[i] = json.dumps(rec)
            changed += 1
    path.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["extract", str(path), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "recomputed AbortBell" in res.output


def test_extract_checks_the_settings_stream(runner, tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", cfg,
                                "--out", str(out)]).exit_code == 0
    path = out / "trial0.jsonl"
    lines = path.read_text().splitlines()
    f = default_functional()
    target = list(cell_entry(f.target_cell)[:2])
    rec = json.loads(lines[1])
    assert rec["u"] != target
    # another non-target pair whose cell is not a Bell cell: the verdict
    # and the extracted bits stay as they were, only the settings moved
    rec["u"] = next([u1, u2] for u1 in range(1, 10) for u2 in range(1, 10)
                    if [u1, u2] not in (rec["u"], target)
                    and var_index(u1, u2, *rec["x"]) not in f.bell_cells)
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    assert runner.invoke(main, ["replay", str(path)]).exit_code == 0
    res = runner.invoke(main, ["extract", str(path), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "round 1 settings" in res.output
    # report grants no entropy claims to those settings either
    res = runner.invoke(main, ["report", "--config", cfg, "--run-file",
                               str(path), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "round 1 settings are not the source's" in res.output
    assert not (out / "security_report.json").exists()


def test_extract_rejects_malformed_header(runner, tmp_path):
    """Header fields of the wrong type exit 2 with their JSON path: an
    extractor that is not an object (exited 1), a string enforce_bounds and
    a float n (coerced), an extractor L past sys.maxsize (a traceback), and
    a source epsilon other than params.eps."""
    cfg = write_config(tmp_path, SMALL_SIM)
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", cfg,
                                "--out", str(out)]).exit_code == 0
    path = out / "trial0.jsonl"
    lines = path.read_text().splitlines()
    assert json.loads(lines[-1])["verdict"] == "Accept"
    for section, key, val, where in (
            ("params", "extractor", "x", "params.extractor"),
            ("params", "enforce_bounds", "no", "params.enforce_bounds"),
            ("params", "n", 4000.0, "params.n"),
            ("params", "extractor", {"m": 8, "L": 10 ** 29}, "params.extractor"),
            ("source", "epsilon", 0.05, "source.epsilon")):
        header = json.loads(lines[0])
        header[section][key] = val
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        res = runner.invoke(main, ["extract", str(bad), "--out", str(out)])
        assert res.exit_code == 2, (key, res.output)
        assert f"bad.jsonl:1: {where}: " in res.output, (key, res.output)


def test_extract_refuses_an_aborted_run(runner, tmp_path):
    cfg = write_config(tmp_path, dict(SMALL_SIM, device={"kind": "uniform"}))
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", cfg,
                                "--out", str(out)]).exit_code == 0
    res = runner.invoke(main, ["extract", str(out / "trial0.jsonl"),
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "run was not accepted; nothing to extract" in res.output
    assert not (out / "extracted.json").exists()


def test_extract_detects_a_changed_stored_output(runner, tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", cfg,
                                "--out", str(out)]).exit_code == 0
    path = out / "trial0.jsonl"
    lines = path.read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["verdict"] == "Accept" and summary["output_hex"]
    first = summary["output_hex"][0]
    summary["output_hex"] = ("1" if first == "0" else "0") + summary["output_hex"][1:]
    path.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
    res = runner.invoke(main, ["extract", str(path), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "stored and recomputed outputs differ" in res.output


@pytest.mark.parametrize("value", [5, [1], None, "upper"], ids=repr)
def test_extract_rejects_a_stored_output_that_is_not_lowercase_hex(
        runner, tmp_path, accepted_run_file, value):
    """A summary output_hex that is not a string of lowercase hex digits
    (5, [1], null, or one with an upper-case digit) is malformed input:
    exit 2 with the summary's line, where it exited 1, "stored and
    recomputed outputs differ"."""
    lines = Path(accepted_run_file).read_text().splitlines()
    summary = json.loads(lines[-1])
    summary["output_hex"] = "A" + summary["output_hex"][1:] \
        if value == "upper" else value
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
    res = runner.invoke(main, ["extract", str(path), "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert f"bad.jsonl:{len(lines)}: summary.output_hex: needs a string of" \
        " lowercase hex digits" in res.output


def test_report_fields_and_aborted_run(runner, tmp_path):
    cfg = write_config(tmp_path, dict(SMALL_SIM, device={"kind": "uniform"}))
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", cfg,
                                "--out", str(out)]).exit_code == 0
    res = runner.invoke(main, ["report", "--config", cfg,
                               "--run-file", str(out / "trial0.jsonl"),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "security_report.json").read_text())
    assert rep["run_verdict"] == "AbortBell"
    assert "min_entropy_bound" not in rep
    assert rep["note"].startswith("run aborted")
    assert "config_hash" in rep and "version" in rep


def test_report_recomputes_the_run(runner, tmp_path):
    cfg = write_config(tmp_path, dict(SMALL_SIM, device={"kind": "uniform"}))
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", cfg,
                                "--out", str(out)]).exit_code == 0
    path = out / "trial0.jsonl"
    lines = path.read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["verdict"] == "AbortBell"
    summary["verdict"] = "Accept"
    lines[-1] = json.dumps(summary)
    path.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["report", "--config", cfg, "--run-file", str(path),
                               "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "min_entropy_bound" not in res.output
    for key, val in (("n", 3000), ("eps", 0.01), ("delta", 1e-9),
                     ("mu1", 2e-9), ("kappa", 1e-10)):
        other = write_config(tmp_path, dict(
            SMALL_SIM, protocol=dict(SMALL_SIM["protocol"], **{key: val})))
        res = runner.invoke(main, ["report", "--config", other,
                                   "--run-file", str(path), "--out", str(out)])
        assert res.exit_code == 2, (key, res.output)
        assert key in res.output


def test_report_plain(runner, tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    res = runner.invoke(main, ["report", "--config", cfg,
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rep = json.loads((tmp_path / "security_report.json").read_text())
    for key in ("mu2", "mu3", "mu4", "gamma", "eps_az1", "eps_az2", "delta1"):
        assert key in rep


def test_report_n_past_the_float_range_exits_2(runner, tmp_path):
    """A 401-digit n overflowed the bounds' float arithmetic: a traceback
    and exit 1.  n = 10^30 is an int a float holds, and is reported."""
    for n, code in ((10 ** 400, 2), (10 ** 30, 0)):
        cfg = write_config(tmp_path, dict(
            SMALL_SIM, protocol=dict(SMALL_SIM["protocol"], n=n)))
        out = tmp_path / f"out{code}"
        res = runner.invoke(main, ["report", "--config", cfg, "--out", str(out)])
        assert res.exit_code == code, res.output
        assert (out / "security_report.json").exists() is (code == 0)
        if code:
            assert "error: protocol.n: int too large for a float (401 digits)" \
                in res.output, res.output


def test_report_q_acc_is_an_acceptance_probability(runner, tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    report = ["report", "--config", cfg, "--out", str(tmp_path)]
    for q_acc in ("0", "-1", "1.5", "1e6", "nan"):
        res = runner.invoke(main, report + ["--q-acc", q_acc])
        assert res.exit_code == 2, (q_acc, res.output)
        assert "error: q_acc: " in res.output
    plain = runner.invoke(main, report)
    assert runner.invoke(main, report + ["--q-acc", "1"]).output == plain.output
    res = runner.invoke(main, report + ["--q-acc", "0.5"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    bias = math.sqrt(rep["delta1"] / 0.5)
    assert rep["q_acc"] == 0.5
    assert rep["output_bias_bound"] == min(1.0, bias)
    assert rep["guarantee_probability"] == max(0.0, 1.0 - bias)


def test_out_that_cannot_be_created_exits_2(runner, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("")
    for args in (["report", "--out", str(afile)],
                 ["verify-bounds", "--out", str(afile / "sub")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
        assert "error: cannot create output directory" in res.output


def test_verify_bounds_reports_a_failed_check(runner, tmp_path, monkeypatch):
    """A bound patched to 0 fails its rows, which print the measured
    frequency, and exits 1, also under python -O (it strips asserts)."""
    monkeypatch.setattr(bounds, "chernoff_bound", lambda n, gamma, zeta: 0.0)
    res = runner.invoke(main, ["verify-bounds", "--trials", "500",
                               "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    rows = [line.split(",") for line in
            (tmp_path / "bounds_table.csv").read_text().splitlines()[2:]]
    failing = [r for r in rows if r[-1] == "False"]
    assert failing and all(r[0] == "chernoff" for r in failing)
    for _, n, param, empirical, bound, _ in failing:
        gamma, zeta = (float(p.split("=")[1]) for p in param.split(";"))
        want = bounds.chernoff_empirical(int(n), gamma, zeta, 500, seed=7)
        assert float(empirical) == want["empirical"] > 0
        assert float(bound) == 0.0

    code = ("import sys, randamp.bounds as b\n"
            "b.chernoff_bound = lambda n, gamma, zeta: 0.0\n"
            "from randamp.cli import main\n"
            "main(['verify-bounds', '--trials', '500', '--out', sys.argv[1]])\n")
    src = str(Path(randamp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(tmp_path / "O")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr


def test_verify_bounds_counts_on_one_thread_per_cpu(runner, tmp_path,
                                                   monkeypatch):
    """With 1 and with 4 CPUs reported, the table and stdout are the same
    bytes; with 4 the row ranges are counted on several threads, and no
    thread outlives the command."""
    counts_below = bounds._counts_below
    seen = {}
    for cpus in (1, 4):
        _report_cpus(monkeypatch, cpus)
        threads = set()

        def recorded(*args):
            threads.add(threading.get_ident())
            return counts_below(*args)

        monkeypatch.setattr(bounds, "_counts_below", recorded)
        before = threading.active_count()
        res = runner.invoke(main, ["verify-bounds", "--trials", "3000",
                                   "--out", str(tmp_path / str(cpus))])
        assert res.exit_code == 0, res.output
        assert threading.active_count() == before
        seen[cpus] = (res.output,
                      (tmp_path / str(cpus) / "bounds_table.csv").read_bytes(),
                      len(threads))
    assert seen[1][:2] == seen[4][:2]
    assert seen[1][2] == 1 and seen[4][2] > 1


def test_verify_bounds_leaves_no_thread_on_failure(runner, tmp_path,
                                                   monkeypatch):
    """A failed check (exit 1) and a failing row range both shut the pool
    of 4 down."""
    _report_cpus(monkeypatch, 4)
    before = threading.active_count()
    with monkeypatch.context() as m:
        m.setattr(bounds, "chernoff_bound", lambda n, gamma, zeta: 0.0)
        res = runner.invoke(main, ["verify-bounds", "--trials", "500",
                                   "--out", str(tmp_path / "check")])
    assert res.exit_code == 1, res.output
    assert threading.active_count() == before

    counts_below = bounds._counts_below

    def fail_late(n, limits, seed, start, stop):
        if start:
            raise MemoryError("no room for the block")
        return counts_below(n, limits, seed, start, stop)

    monkeypatch.setattr(bounds, "_counts_below", fail_late)
    res = runner.invoke(main, ["verify-bounds", "--trials", "500",
                               "--out", str(tmp_path / "range")])
    assert isinstance(res.exception, MemoryError), res.output
    assert not (tmp_path / "range" / "bounds_table.csv").exists()
    assert threading.active_count() == before


def test_verify_bounds_rejects_trials_below_one(runner, tmp_path):
    for trials in ("0", "-3"):
        res = runner.invoke(main, ["verify-bounds", "--trials", trials,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2, (trials, res.output)


@pytest.fixture(scope="module")
def accepted_run_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("accepted")
    res = CliRunner().invoke(main, ["simulate", "--config", write_config(
        out, dict(SMALL_SIM, trials=1)), "--out", str(out)])
    assert res.exit_code == 0, res.output
    return str(out / "trial0.jsonl")


@pytest.mark.parametrize("args, blocked", [
    (["certify", "--delta-grid", "0"], "certificate_cap_0.json"),
    (["certify", "--delta-grid", "0"], "certify_summary.json"),
    (["simulate"], "campaign.csv"),
    (["simulate"], "trial0.jsonl"),
    (["simulate"], "simulate_summary.json"),
    (["report"], "security_report.json"),
    (["extract"], "extracted.json"),
    (["verify-bounds", "--trials", "10"], "bounds_table.csv"),
])
def test_output_that_cannot_be_written_exits_2(runner, tmp_path,
                                               accepted_run_file, args, blocked):
    """A directory in the place of an output file is an I/O error (exit 2),
    not a traceback and not a falsified claim (exit 1)."""
    (tmp_path / blocked).mkdir()
    if args[0] == "simulate":
        args = args + ["--config", write_config(tmp_path, SMALL_SIM)]
    if args[0] == "extract":
        args = args + [accepted_run_file]
    res = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert f"error: cannot write {tmp_path / blocked}: " in res.output


def test_protocol_commands_load_no_scipy(tmp_path):
    """Only the LP needs scipy: a fresh process that imports randamp and
    its CLI and runs simulate, replay and extract loads no scipy module and
    never builds the LP's equality rows.  A subprocess, because other
    tests have imported scipy into this one."""
    code = ("import json, sys\n"
            "import randamp, randamp.cli\n"
            "from click.testing import CliRunner\n"
            "out, runner = sys.argv[1], CliRunner()\n"
            "codes = [runner.invoke(randamp.cli.main, args).exit_code for args in (\n"
            "    ['simulate', '--n', '2000', '--out', out],\n"
            "    ['replay', out + '/trial0.jsonl'],\n"
            "    ['extract', out + '/trial0.jsonl', '--out', out])]\n"
            "print(json.dumps({'codes': codes, 'scipy': sorted(\n"
            "    m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
            "    'lp_tables': randamp.ns_certify._nonzeros.cache_info().currsize}))\n")
    src = str(Path(randamp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"codes": [0, 0, 0], "scipy": [], "lp_tables": 0}, got


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_replay_rejects_a_fifo_a_directory_or_a_device(tmp_path):
    """`replay` of a path that is not a regular file exits 2 with the
    reader's message, a named pipe with no writer included, whose open
    must not block.  A subprocess under a timeout, so that a reader that
    blocks fails this test instead of hanging the suite."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    paths = [str(fifo), str(tmp_path), os.devnull]
    code = ("import json, sys\n"
            "import randamp.cli\n"
            "from click.testing import CliRunner\n"
            "res = [CliRunner().invoke(randamp.cli.main, ['replay', p])\n"
            "       for p in sys.argv[1:]]\n"
            "print(json.dumps([[r.exit_code, r.output] for r in res]))\n")
    src = str(Path(randamp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *paths], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for path, (exit_code, output) in zip(paths, json.loads(proc.stdout)):
        assert exit_code == 2, (path, output)
        assert output == (f"error: {path}: needs a regular file to seek in,"
                          f" not a pipe or a device\n"), output


def test_lp_attack_zero_loads_no_scipy(tmp_path):
    """The `lp_attack_zero` device plays a stored, exactly checked vertex:
    a fresh process that simulates it solves no LP and loads no scipy
    module.  A subprocess, because other tests have imported scipy into
    this one."""
    code = ("import json, sys\n"
            "import randamp.cli\n"
            "from click.testing import CliRunner\n"
            "res = CliRunner().invoke(randamp.cli.main, ['simulate', '--device',\n"
            "    'lp_attack_zero', '--n', '2000', '--out', sys.argv[1]])\n"
            "print(json.dumps({'code': res.exit_code, 'scipy': sorted(\n"
            "    m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n")
    src = str(Path(randamp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"code": 0, "scipy": []}, got
    assert (tmp_path / "trial0.jsonl").exists()


def test_cli_import_loads_no_scipy_or_thread_pool():
    """A fresh `import randamp.cli` loads no scipy module and no
    concurrent.futures: only `certify` needs scipy, `certify` and
    `verify-bounds` need concurrent.futures, and each loads them when it
    runs.  A subprocess, because other tests have imported both into this
    one."""
    code = ("import json, sys\n"
            "import randamp.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "    if m.split('.')[0] in ('scipy', 'concurrent'))))\n")
    src = str(Path(randamp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == []


def test_numpy_random_loads_on_the_first_draw():
    """Importing randamp and its CLI, and building a generator stream,
    load no numpy.random module (about 14 ms): the stream's first draw
    does.  A subprocess, because other tests have imported numpy.random
    into this one."""
    code = ("import json, sys\n"
            "import randamp, randamp.cli\n"
            "from randamp.seeding import Stream\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('numpy.random'))\n"
            "on_import = loaded()\n"
            "stream = Stream(5)\n"
            "built = loaded()\n"
            "stream.words(1)\n"
            "print(json.dumps([on_import, built, 'numpy.random' in loaded()]))\n")
    src = str(Path(randamp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == [[], [], True]


def test_benchmark_traced_names_resolve():
    """The benchmark's tracer wraps functions, methods and commands by name
    and reports a missing one as unmeasured rather than failing; renaming
    a traced name must fail here instead."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, modname, name in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), name, None)), \
            (modname, name)
    for _, modname, method in tracer.METHODS:
        mod = importlib.import_module(modname)
        assert any(isinstance(c, type) and c.__module__ == modname
                   and method in vars(c) for c in vars(mod).values()), \
            (modname, method)
    assert set(tracer.COMMANDS) <= set(main.commands)


_ITEM3_GAMMA = ("claim oracle for the gamma^(mu4 n) row that ROADMAP item 3's"
                " `check` writes")
_TRACED = "the benchmark's tracer wraps it"
# Public names and methods that nothing in src/randamp but their own
# definition and __init__.py reaches, each with the reason it stays in src/.
_UNREACHED = {
    "sv_chernoff_oracle": "claim oracle for the README's zeta^k row, which"
                          " ROADMAP item 3's `check` writes",
    "max_sequence_probability_product": _ITEM3_GAMMA,
    "max_sequence_probability_chained": _ITEM3_GAMMA,
    "expected_tomography_rate": "one row of ROADMAP item 10's `round_law`,"
                                " which replaces it",
    "azuma_empirical": _TRACED,
    "chernoff_empirical": _TRACED,
    "classical_minimum": "the benchmark's certify workload calls it",
    "ks_coloring_count": "the benchmark's certify workload calls it",
    "SVSource.next_block": _TRACED,
    "Device.respond": _TRACED,
    "DualCertificate.from_json": "ROADMAP item 3's `check` reads every"
                                 " certificate through it",
}


def _reads(node):
    """The names and attribute names read anywhere in node."""
    return [getattr(sub, "id", None) or getattr(sub, "attr", None)
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))]


def test_src_holds_no_test_only_code():
    """Every public top-level function and class of src/randamp is read,
    as a name or an attribute, outside its own definition by another part
    of the package (cli's click commands and __init__.py aside), and so is
    every public method of a top-level class, by its attribute name outside
    its own body; or it is on _UNREACHED with its reason (a method as
    Class.method).  The list holds nothing that is reached."""
    defined, reads = set(), set()
    everywhere, own = Counter(), {}     # a method's reads of its own name
    for path in Path(randamp.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", "")
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not name.startswith("_")
                    and not (path.name == "cli.py" and node.decorator_list)):
                defined.add(name)
            words = _reads(node)
            reads |= {(word, name) for word in words}
            everywhere.update(words)
            if isinstance(node, ast.ClassDef):
                own |= {f"{name}.{item.name}": _reads(item).count(item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")}
    reached = {word for word, owner in reads if word != owner}
    reached |= {method for method, count in own.items()
                if everywhere[method.split(".")[1]] > count}
    assert (defined | set(own)) - reached == set(_UNREACHED)


# Dataclass fields that nothing in src/randamp reads, each with the reason
# it stays.
_UNREAD_FIELDS = {
    "Strategy.floats": "the tests' reference walk (`sv_reference.walk`)"
                       " reads it",
    "LPSolution.primal": "the verified vertex behind `exact_optimum`;"
                         " ROADMAP items 6 and 11 read it",
}


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        getattr(d, "id", None) == "dataclass"
        or getattr(getattr(d, "func", None), "id", None) == "dataclass"
        for d in node.decorator_list)


def test_src_dataclass_fields_are_read():
    """Every field of a dataclass in src/randamp is read as an attribute
    (`x.field`) somewhere in src/randamp, its own class's methods
    included; or it is on _UNREAD_FIELDS, as Class.field, with its
    reason.  The list holds nothing that is read."""
    fields, reads = set(), set()
    for path in Path(randamp.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        fields |= {f"{node.name}.{item.target.id}"
                   for node in tree.body if _is_dataclass(node)
                   for item in node.body if isinstance(item, ast.AnnAssign)}
        reads |= {sub.attr for sub in ast.walk(tree)
                  if isinstance(sub, ast.Attribute)
                  and isinstance(sub.ctx, ast.Load)}
    assert {f for f in fields if f.split(".")[1] not in reads} == \
        set(_UNREAD_FIELDS)


def test_verify_bounds_rejects_a_negative_seed(runner, tmp_path):
    # numpy takes no negative seed; that is a usage error, not exit 1
    res = runner.invoke(main, ["verify-bounds", "--trials", "10", "--seed", "-1",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "--seed" in res.output
    assert not (tmp_path / "bounds_table.csv").exists()


def test_verify_bounds_table(runner, tmp_path):
    res = runner.invoke(main, ["verify-bounds", "--trials", "2000",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    table = (tmp_path / "bounds_table.csv").read_text().splitlines()
    assert table[0].startswith("# randamp ")
    assert table[1] == "family,n,param,empirical,bound,pass"
    assert all(line.endswith("True") for line in table[2:])
