import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import randamp
from randamp import bounds
from randamp.cli import main
from randamp.ks_bell import var_index
from randamp.protocol import default_functional


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


def test_simulate_rejects_invalid_params(runner, tmp_path):
    bad = [dict(SMALL_SIM, protocol=dict(SMALL_SIM["protocol"],
                                         enforce_bounds=True, delta=0.5))]
    bad += [dict(SMALL_SIM, device=device) for device in (
        {"kind": "switch_after"},
        {"kind": "switch_after", "k": -1},
        {"kind": "history_trigger"},
        {"kind": "history_trigger", "pattern": []},
        {"kind": "history_trigger", "pattern": [[5, 12]]},
        {"kind": "depolarized"},
        {"kind": "depolarized", "eta": 1.5})]
    # source strategies that cannot be built: too biased for eps, unknown,
    # an avoid_target pair outside 1..9, and bools where numbers belong
    biased = dict(SMALL_SIM["protocol"], eps=0.05)
    bad += [dict(SMALL_SIM, protocol=biased, source={"strategy": strategy})
            for strategy in (["constant_bias", [0.2]], ["bogus"],
                             ["avoid_target", [0, 12]],
                             ["toward_pattern", True],
                             ["constant_bias", [0.05, False]])]
    for cfg in bad:
        res = runner.invoke(main, ["simulate", "--config", write_config(tmp_path, cfg),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, (cfg["device"], cfg["source"], res.output)
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
    # in the message: the first ten exited 1, the last five were coerced
    for text, path in (('{"protocol": {"n": null}}', "protocol.n"),
                       ('{"protocol": [1]}', "protocol"),
                       ('{"protocol": {"n": 1e400}}', "protocol.n"),
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
                        "protocol.enforce_bounds")):
        raw.write_text(text)
        res = runner.invoke(main, ["simulate", "--config", str(raw),
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, (text, res.output)
        assert f"error: {path}: " in res.output, (text, res.output)
    # a flag aimed into a section that is not an object (raised TypeError)
    raw.write_text('{"protocol": [1]}')
    res = runner.invoke(main, ["simulate", "--config", str(raw), "--n", "5",
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output


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
                 # another format version, and a header without one
                 _transcript_text().replace('"version": 1', '"version": 2'),
                 _transcript_text().replace('"version": 1, ', ''),
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
                 _transcript_text().splitlines(True)[0].encode() + b"\xff\xfe\n"):
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
    target = list(f.d_target[1])
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


def test_extract_rejects_malformed_header(runner, tmp_path):
    """Header fields of the wrong type exit 2 with their JSON path: an
    extractor that is not an object (exited 1), a string enforce_bounds and
    a float n (coerced), and a source epsilon other than params.eps."""
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
            ("source", "epsilon", 0.05, "source.epsilon")):
        header = json.loads(lines[0])
        header[section][key] = val
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        res = runner.invoke(main, ["extract", str(bad), "--out", str(out)])
        assert res.exit_code == 2, (key, res.output)
        assert f"bad.jsonl:1: {where}: " in res.output, (key, res.output)


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


def test_verify_bounds_rejects_trials_below_one(runner, tmp_path):
    for trials in ("0", "-3"):
        res = runner.invoke(main, ["verify-bounds", "--trials", trials,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2, (trials, res.output)


def test_verify_bounds_table(runner, tmp_path):
    res = runner.invoke(main, ["verify-bounds", "--trials", "2000",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    table = (tmp_path / "bounds_table.csv").read_text().splitlines()
    assert table[0].startswith("# randamp ")
    assert table[1] == "family,n,param,empirical,bound,pass"
    assert all(line.endswith("True") for line in table[2:])
