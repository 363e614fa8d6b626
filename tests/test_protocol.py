import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randamp.boxes import (bell_value, depolarize, ideal_quantum_box,
                           make_iid_device, uniform_box)
from randamp.cli import build_device_factory
from randamp.ks_bell import (N_CELLS, build_bell_functional, build_ks_model,
                             var_index)
from randamp.extractor import output_hex
from randamp.ns_certify import build_lp, solve_lp, zero_target_box
from randamp.protocol import (_RECORD_TAIL, _VERDICTS, CHUNK, FORMAT_VERSION,
                              ProtocolParams, ProtocolRun, _field, _tagged,
                              dc_distance, parse_header, parse_real,
                              default_functional, expected_tomography_rate,
                              extract_output, monte_carlo, read_transcript,
                              replay_transcript, run_protocol, security_report,
                              select_params, wilson_interval, write_transcript)
from randamp.seeding import derive_seed
from randamp.sv_source import DEFAULT_MAP, SVSource
from sv_reference import ReferenceSource, stream_state


@pytest.fixture(scope="module")
def model():
    return build_ks_model()


@pytest.fixture(scope="module")
def functional(model):
    return build_bell_functional(model)


@pytest.fixture(scope="module")
def ideal(model):
    return ideal_quantum_box(model)


def test_select_params_examples():
    assert select_params(0.1, 0.5, 0.1) == pytest.approx(0.4 ** 16 / 8)
    assert select_params(0.0, 5e-4, 1e-4) == pytest.approx(
        0.5 * ((5e-4 - 2e-4) / (2 * (1 - 1e-4))) ** 2)
    assert select_params(0.0, 5e-4, 1e-4) == pytest.approx(1.1252e-8, rel=1e-3)
    with pytest.raises(ValueError):
        select_params(0.0, 0.5, 0.25)       # kappa = mu1/2
    with pytest.raises(ValueError):
        select_params(0.6, 0.5, 0.1)


def test_params_validation():
    ProtocolParams(n=1000).validate()
    with pytest.raises(ValueError):
        ProtocolParams(n=1000, delta=1e-6).validate()     # above the bound
    # explicit escape hatch for exploratory studies
    p = ProtocolParams(n=1000, delta=1e-6, enforce_bounds=False)
    p.validate()
    assert not p.in_certified_regime()


def test_run_protocol_ideal_accepts_with_exact_zero_bell(ideal):
    params = ProtocolParams(n=100_000)
    dev = make_iid_device(ideal, seed=101)
    src = SVSource(0, "unbiased", seed=202)
    run = run_protocol(dev, src, params)
    assert run.verdict == "Accept"
    assert run.bell_count == 0                 # forbidden events have prob 0
    assert run.target_frequency >= params.mu1
    assert run.output_bits is not None and len(run.output_bits) == 32
    # the extractor reads L of the n t-side bits, and only those are drawn
    assert run.extraction["t_bits_available"] == params.n
    assert src.bits_emitted == 8 * params.n + params.extractor.L
    assert run.extraction["honest_condition_met"]
    assert run.extraction["rule"] == "target_rounds"


def test_run_protocol_uniform_box_aborts_bell(ideal):
    params = ProtocolParams(n=5000)
    dev = make_iid_device(uniform_box(), seed=7)
    src = SVSource(0, "unbiased", seed=8)
    run = run_protocol(dev, src, params)
    assert run.verdict == "AbortBell"
    assert run.bell_average == pytest.approx(0.39, abs=0.05)


def test_run_protocol_zero_attack_aborts_tomography(functional):
    box, val = zero_target_box(functional)
    assert val == 0
    params = ProtocolParams(n=5000)
    dev = make_iid_device(box, seed=9)
    src = SVSource(0, "unbiased", seed=10)
    run = run_protocol(dev, src, params)
    assert run.verdict == "AbortTomography"
    assert run.bell_count == 0                 # Bell test passes first
    assert run.target_count == 0


def test_max_attack_accepts_and_target_counts_dominate(functional):
    """Accepted transcripts by construction carry >= mu1 n target hits."""
    sol = solve_lp(build_lp(functional, 0))
    box, val = sol.primal, sol.exact_optimum
    assert val == Fraction(3, 4)
    params = ProtocolParams(n=20_000)
    accepted = 0
    for seed in range(5):
        dev = make_iid_device(box, seed=seed)
        src = SVSource(0, "unbiased", seed=1000 + seed)
        run = run_protocol(dev, src, params)
        if run.verdict == "Accept":
            accepted += 1
            assert run.target_count >= params.mu1 * params.n
    assert accepted == 5                       # rate 3/64 >> mu1


def test_verdict_recomputable_from_transcript(ideal):
    params = ProtocolParams(n=3000, mu1=1e-9, kappa=4e-10,
                            enforce_bounds=False)
    dev = make_iid_device(ideal, seed=31)
    src = SVSource(0, "unbiased", seed=32)
    run = run_protocol(dev, src, params)
    redo = replay_transcript(params, run.cells)
    assert (redo.bell_average, redo.target_frequency, redo.verdict) == \
        (run.bell_average, run.target_frequency, run.verdict)


def test_transcript_file_roundtrip(tmp_path, ideal):
    params = ProtocolParams(n=2000, mu1=1e-9, kappa=4e-10,
                            enforce_bounds=False)
    dev = make_iid_device(ideal, seed=41)
    src = SVSource(0, "unbiased", seed=42)
    run = run_protocol(dev, src, params)
    path = tmp_path / "run.jsonl"
    write_transcript(run, path, config_hash="abc123")
    header, source, redo, summary = read_transcript(path)
    assert header["config_hash"] == "abc123"
    assert header["source"] == {"epsilon": 0.0, "strategy": "unbiased", "seed": 42}
    assert redo.params == params
    assert redo.hist == run.hist and np.array_equal(redo.cells, run.cells)
    assert summary["verdict"] == run.verdict
    assert (redo.bell_average, redo.target_frequency, redo.verdict) == \
        (summary["Ln"], summary["Sn"], summary["verdict"])
    # the source is rebuilt at stream position 0
    assert source.spec() == run.source_spec
    spec = run.source_spec
    assert source.next_block(8) == \
        SVSource(spec["epsilon"], spec["strategy"], spec["seed"]).next_block(8)


def test_transcript_roundtrip_of_every_cell(tmp_path):
    """A run whose rounds are the 1296 cells, each once, in a seeded
    shuffle (so that i crosses 9/10, 99/100 and 999/1000) reads back as the
    same cells and histogram, and each record line holds its cell's
    settings and outcomes."""
    cells = np.random.default_rng(11).permutation(N_CELLS)
    params = ProtocolParams(n=N_CELLS)
    run = ProtocolRun(params, {"kind": "uniform"},
                      SVSource(0, "unbiased", 5).spec(), [1] * N_CELLS, cells)
    path = tmp_path / "cells.jsonl"
    write_transcript(run, path)
    _, _, redo, summary = read_transcript(path)
    assert np.array_equal(redo.cells, cells) and redo.hist == [1] * N_CELLS
    assert summary["verdict"] == redo.verdict == "AbortBell"
    records = [json.loads(line) for line in path.read_text().splitlines()[1:-1]]
    assert [r["i"] for r in records] == list(range(1, N_CELLS + 1))
    assert [var_index(*r["u"], *r["x"]) for r in records] == cells.tolist()


def test_transcript_codec_streams(tmp_path):
    """Writing and reading a 10^5-round transcript (about 4 MB of records)
    each peak below 6 MB of traced allocations: both go one fixed-width
    block of at most CHUNK records at a time (one write, or one read of
    CHUNK record widths) and hold no copy of the whole record part."""
    params = ProtocolParams(n=100_000)
    run = run_protocol(make_iid_device(uniform_box(), 1),
                       SVSource(0, "unbiased", 2), params)
    path = tmp_path / "big.jsonl"
    tracemalloc.start()
    try:
        write_transcript(run, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        read_transcript(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak < 6e6 and read_peak < 6e6, (write_peak, read_peak)


@pytest.mark.parametrize("key, value, message", [
    ("Ln", "0.0", "summary.Ln: needs a finite number in [0, 1]"),
    ("Ln", True, "summary.Ln: needs a finite number in [0, 1]"),
    ("Sn", 1.5, "summary.Sn: needs a finite number in [0, 1]"),
    ("Sn", math.nan, "summary.Sn: needs a finite number in [0, 1]"),
    ("verdict", "Maybe", "summary.verdict: needs Accept or AbortBell or"),
    ("verdict", None, "summary.verdict: needs Accept or AbortBell or")])
def test_read_transcript_checks_the_summary_values(tmp_path, key, value,
                                                   message):
    lines = [dict(obj) for obj in _WELL_FORMED]
    lines[-1][key] = value
    path = tmp_path / "summary.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    with pytest.raises(ValueError, match=re.escape(f"summary.jsonl:4: {message}")):
        read_transcript(path)


DEVICE_SPECS = [{"kind": "ideal"}, {"kind": "uniform"},
                {"kind": "depolarized", "eta": 0.5}, {"kind": "lp_attack_zero"},
                {"kind": "switch_after", "k": 3},
                {"kind": "history_trigger", "pattern": [[1, 2], [1, 2]]}]


@pytest.mark.parametrize("spec", DEVICE_SPECS, ids=lambda s: s["kind"])
def test_histogram_is_the_run(spec):
    """The batch engine's histogram, tallied chunk by chunk, against the
    one `replay_transcript` tallies from the run's kept cells in one
    `np.bincount`: both, and so every statistic and the verdict, agree for
    each device kind and source strategy."""
    device_factory = build_device_factory(spec)
    for eps, strategy in ((0.0, "unbiased"), (0.05, ["avoid_target"])):
        for n in (1, 7, 20_000):
            params = ProtocolParams(n=n, eps=eps)
            run = run_protocol(device_factory(n), SVSource(eps, strategy, n),
                               params)
            redo = replay_transcript(params, run.cells)
            assert run.hist == redo.hist and sum(run.hist) == n
            assert (run.n, run.bell_count, run.target_count,
                    run.bell_average, run.target_frequency, run.verdict) == \
                (redo.n, redo.bell_count, redo.target_count,
                 redo.bell_average, redo.target_frequency, redo.verdict)
            if spec["kind"] == "uniform" and eps == 0 and n == 20_000:
                assert min(run.hist) > 0      # every cell is reached


def _round_loop(device, source, params, keep_transcript=True):
    """The reference engine: one round at a time through the stream
    definitions `next_block(8)` (of a `ReferenceSource`), `map_block` and
    `respond(k, u)`."""
    hist = [0] * N_CELLS
    cells = []
    for k in range(params.n):
        u = DEFAULT_MAP.map_block(source.next_block(8))
        cells.append(var_index(*u, *device.respond(k, u)))
        hist[cells[-1]] += 1
    run = ProtocolRun(params, device.spec(), source.spec(), hist,
                      np.array(cells) if keep_transcript else None)
    if run.verdict == "Accept" and keep_transcript:
        extract_output(run, source)
    return run


def _state(device, source):
    return (device.rng.getstate(), device.tau, list(device._recent),
            stream_state(source))


STRATEGIES = [(0.0, "unbiased"), (0.05, ["avoid_target"]),
              (0.05, ["toward_pattern", 1]),
              (0.05, ["constant_bias", [0.05, -0.02, 0.03]])]


def _trigger_across_chunks(end):
    """A history_trigger spec whose 3-pair pattern is the settings of the
    unbiased seed-0 source in rounds end-2..end, where it first completes;
    `end` = CHUNK or CHUNK + 1 puts it across the first chunk boundary."""
    src = SVSource(0, "unbiased", 0)
    pairs = [DEFAULT_MAP.map_block(src.next_block(8)) for _ in range(end + 1)]
    assert pairs[-3:] not in (pairs[k - 2:k + 1] for k in range(2, end))
    return {"kind": "history_trigger", "pattern": [list(u) for u in pairs[-3:]]}


def test_batch_engine_matches_the_round_loop():
    """`run_protocol` against `_round_loop` on every device kind and source
    strategy: histogram, cells, verdict, output bits, extraction report,
    and both generators' and the device's state after the run.  n spans
    the chunk edges; tau falls inside the second chunk, and a trigger
    pattern completes across the first chunk boundary."""
    cases = [(spec, eps, strategy, n, keep)
             for spec in DEVICE_SPECS for eps, strategy in STRATEGIES
             for n in (1, 7, 2000) for keep in (True, False)]
    cases += [({"kind": "ideal"}, 0.0, "unbiased", n, True)
              for n in (CHUNK - 1, CHUNK)]
    cases += [({"kind": "ideal"}, eps, strategy, CHUNK + 1, True)
              for eps, strategy in STRATEGIES]
    cases += [({"kind": "switch_after", "k": CHUNK + 100}, 0.05,
               ["avoid_target"], CHUNK + 200, True)]
    cases += [(_trigger_across_chunks(end), 0.0, "unbiased", CHUNK + 50, True)
              for end in (CHUNK, CHUNK + 1)]
    factories = {}      # a factory builds its boxes once
    for spec, eps, strategy, n, keep in cases:
        params = ProtocolParams(n=n, eps=eps, mu1=1e-9, kappa=4e-10,
                                enforce_bounds=False)
        key = json.dumps(spec)
        device_factory = factories.get(key) or factories.setdefault(
            key, build_device_factory(spec))
        seed = 0 if spec["kind"] == "history_trigger" else n
        dev, src = device_factory(n), SVSource(eps, strategy, seed)
        ref_dev, ref_src = device_factory(n), ReferenceSource(eps, strategy, seed)
        run = run_protocol(dev, src, params, keep)
        ref = _round_loop(ref_dev, ref_src, params, keep)
        assert (run.hist, run.verdict, run.output_bits, run.extraction) == \
            (ref.hist, ref.verdict, ref.output_bits, ref.extraction), \
            (spec, strategy, n)
        assert (run.cells is ref.cells is None if not keep else
                np.array_equal(run.cells, ref.cells)), (spec, strategy, n)
        assert _state(dev, src) == _state(ref_dev, ref_src), (spec, strategy, n)


def test_read_transcript_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "header"}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_transcript(bad)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

_WELL_FORMED = [
    {"type": "header", "version": 1,
     "source": {"epsilon": 0.0, "strategy": "unbiased", "seed": 0},
     "params": {"n": 2, "eps": 0.0, "delta": 1e-8, "mu1": 1e-9,
                "kappa": 4e-10, "extractor": {}}},
    {"i": 1, "u": [1, 2], "x": [1, 3]},
    {"i": 2, "u": [4, 4], "x": [2, 1]},
    {"type": "summary", "Ln": 0.0, "Sn": 0.5, "verdict": "Accept"},
]


@st.composite
def _mutated_transcript(draw):
    """The well-formed transcript with one line replaced by arbitrary text,
    by another JSON value, or by itself with one key set to any value."""
    lines = [json.dumps(obj) for obj in _WELL_FORMED]
    k = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["text", "value", "key"]))
    if how == "text":
        lines[k] = draw(st.text(max_size=40))
    elif how == "value":
        lines[k] = json.dumps(draw(_JSON_VALUES))
    else:
        obj = dict(_WELL_FORMED[k])
        obj[draw(st.sampled_from(sorted(obj)) | st.text(max_size=4))] = \
            draw(_JSON_VALUES)
        lines[k] = json.dumps(obj)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_mutated_transcript())
def test_read_transcript_raises_only_value_error(tmp_path_factory, text):
    """Any mutation loads or raises ValueError, as the line-loop reference
    does, with the same cells or the same message."""
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    assert _outcome(read_transcript, path) == \
        _outcome(_read_transcript_lines, path)


_TAIL_CELL = {tail: cell for cell, tail in enumerate(_RECORD_TAIL)}


def _write_transcript_join(run, path):
    """The reference writer: each record joined as b'{"i": %d%b' from
    `_RECORD_TAIL`, one line at a time."""
    header = {"type": "header", "version": FORMAT_VERSION,
              "package_version": "", "config_hash": "",
              "params": run.params.to_dict(), "device": run.device_spec,
              "source": run.source_spec}
    summary = {"type": "summary", "Ln": run.bell_average,
               "Sn": run.target_frequency, "verdict": run.verdict}
    if run.output_bits is not None:
        summary["output_hex"] = output_hex(run.output_bits)
        summary["extraction"] = run.extraction
    path.write_bytes(
        json.dumps(header, sort_keys=True).encode() + b"\n"
        + b"".join(b'{"i": %d%b' % (i, _RECORD_TAIL[c])
                   for i, c in enumerate(run.cells.tolist(), 1))
        + json.dumps(summary, sort_keys=True).encode() + b"\n")


def _read_transcript_lines(path):
    """The reference reader: one Python step per line, each record looked
    up in the table of tails."""
    cells = []
    with open(path, "rb") as fh:
        header = _tagged(path, 1, next(fh, b""), "header", "the header")
        for line_no, line in enumerate(fh, start=2):
            head = b'{"i": %d' % (line_no - 1)
            if not line.startswith(head) or \
                    (cell := _TAIL_CELL.get(line[len(head):])) is None:
                break
            cells.append(cell)
        else:
            raise ValueError(f"{path}: no summary line")
        summary = _tagged(path, line_no, line, "summary", f"record"
                          f" {line_no - 1} in the written form or the summary")
        if next(fh, None) is not None:
            raise ValueError(f"{path}:{line_no + 1}: text after the summary")
    if type(version := header.get("version")) is not int \
            or version != FORMAT_VERSION:
        raise ValueError(f"{path}:1: format version {version!r},"
                         f" expected {FORMAT_VERSION}")
    try:
        params, source = parse_header(header)
    except ValueError as e:
        raise ValueError(f"{path}:1: {e}") from e
    if params.n != len(cells):
        raise ValueError(f"{path}:1: header n is {params.n}"
                         f" but the file has {len(cells)} records")
    try:
        for key in ("Ln", "Sn"):
            parse_real(summary, key, "summary", lambda v: 0 <= v <= 1, "in [0, 1]")
        _field(summary, "verdict", "summary", lambda v: v in _VERDICTS, " or ".join(_VERDICTS))
    except ValueError as e:
        raise ValueError(f"{path}:{line_no}: {e}") from e
    return header, source, replay_transcript(params, np.array(cells)), summary


def _outcome(reader, path):
    """What `reader` makes of a file: the parts it returns, in comparable
    form, or the message of the ValueError it raises."""
    try:
        header, source, run, summary = reader(path)
    except ValueError as e:
        return str(e)
    return header, source.spec(), run.cells.tolist(), run.hist, summary


def _cells_run(n, seed=0):
    """A run of n rounds in seeded random cells."""
    cells = np.random.default_rng(seed).integers(0, N_CELLS, n)
    return ProtocolRun(ProtocolParams(n=n), {"kind": "uniform"},
                       SVSource(0, "unbiased", 5).spec(),
                       np.bincount(cells, minlength=N_CELLS).tolist(), cells)


@pytest.mark.parametrize("n", [1, 9, 10, 99, 100, CHUNK - 1, CHUNK,
                               CHUNK + 1, 100_000])
def test_writer_matches_the_record_join(tmp_path, n):
    """The block writer's file is the reference join's byte for byte, and
    reads back as the run's cells; n = 10^5 crosses i = 99999/100000."""
    run = _cells_run(n)
    path, ref = tmp_path / "blocks.jsonl", tmp_path / "join.jsonl"
    write_transcript(run, path)
    _write_transcript_join(run, ref)
    assert path.read_bytes() == ref.read_bytes()
    assert np.array_equal(read_transcript(path)[2].cells, run.cells)


def _tampered(data, k, how):
    """The bytes of a transcript with record k (line k + 1) changed."""
    lines = data.splitlines(keepends=True)
    line = lines[k]
    u1, x2 = line.index(b'"u": [') + 6, len(line) - 4
    lines[k:k + 1] = {
        "x digit": [line[:x2] + b"9" + line[x2 + 1:]],   # outcome 9: no cell
        "u digit": [line[:u1] + b"0" + line[u1 + 1:]],   # setting 0: no cell
        "other cell": [line[:x2] + b"%d" % (line[x2] % 4 + 1) + line[x2 + 1:]],
        "i": [line.replace(b'{"i": %d' % k, b'{"i": %d' % (k + 1))],
        "space": [line.replace(b", ", b",  ", 1)],
        "deleted": [],
        "doubled": [line, line],
        "summary": [lines[-1]],
        "crlf": [line[:-1] + b"\r\n"],
    }[how]
    return b"".join(lines)


_TAMPERINGS = ["x digit", "u digit", "other cell", "i", "space", "deleted",
               "doubled", "summary", "crlf"]


@pytest.mark.parametrize("k", [1, 9, 10, 9999, 10_000, 10_000 + CHUNK - 1,
                               10_000 + CHUNK, 10_000 + CHUNK + 777, 30_000])
def test_reader_matches_the_line_loop_on_tampered_records(tmp_path, k):
    """A 30000-round transcript tampered at record k, in each way of
    `_TAMPERINGS`: the block reader gives the reference's message, or its
    cells where the tampered record is another cell's.  The k cover the digit-width changes (9/10, 9999/10000), both sides of a CHUNK
    edge inside the 5-digit block, the middle of a CHUNK block and the last
    record."""
    path = tmp_path / "run.jsonl"
    write_transcript(_cells_run(30_000, k), path)
    data = path.read_bytes()
    for how in _TAMPERINGS:
        path.write_bytes(_tampered(data, k, how))
        got = _outcome(read_transcript, path)
        assert got == _outcome(_read_transcript_lines, path), how
        assert isinstance(got, str) == (how != "other cell"), how


def test_reader_matches_the_line_loop_at_the_file_end(tmp_path):
    """Truncations inside and right after a record, and a summary without
    its final newline, read as the reference reads them."""
    path = tmp_path / "run.jsonl"
    write_transcript(_cells_run(12_000), path)
    data = path.read_bytes()
    end = len(data) - len(data.splitlines(keepends=True)[-1])
    cases = {"inside record 10000": data[:data.index(b'{"i": 10000,') + 20],
             "inside the last record": data[:end - 5],
             "after the last record": data[:end],
             "inside the summary": data[:end + 10],
             "no final newline": data[:-1],
             "header only": data[:data.index(b"\n") + 1],
             "text after the summary": data + b"\n"}
    for name, text in cases.items():
        path.write_bytes(text)
        got = _outcome(read_transcript, path)
        assert got == _outcome(_read_transcript_lines, path), name
        assert isinstance(got, str) == (name != "no final newline"), name


def test_read_transcript_accepts_only_the_written_order(tmp_path):
    """Of every sequence of 1 to 5 lines drawn from the well-formed
    transcript's lines (1364 files), only the well-formed order loads."""
    lines = [json.dumps(obj) + "\n" for obj in _WELL_FORMED]
    path = tmp_path / "order.jsonl"
    loaded = []
    for k in range(1, 6):
        for seq in itertools.product(range(len(lines)), repeat=k):
            path.write_text("".join(lines[j] for j in seq))
            try:
                read_transcript(path)
            except ValueError:
                continue
            loaded.append(seq)
    assert loaded == [tuple(range(len(lines)))]


def test_expected_tomography_rate(ideal, functional):
    assert expected_tomography_rate(ideal) == pytest.approx(1 / 1024)
    assert expected_tomography_rate(uniform_box()) == pytest.approx(1 / 1024)
    box, _ = zero_target_box(functional)
    assert expected_tomography_rate(box) == 0.0


def test_security_report_values():
    params = ProtocolParams(n=100_000)
    rep = security_report(params)
    assert rep.mu2 == pytest.approx(1 - math.sqrt(2e-8), rel=1e-12)
    assert rep.mu3 == pytest.approx(1.50015e-4, rel=1e-4)
    assert rep.mu4 == pytest.approx(8.5936e-6, rel=1e-3)
    assert rep.mu4 == pytest.approx(rep.mu2 + rep.mu3 - 1, rel=1e-6)
    assert rep.gamma == 1 - 1e-4               # the kappa branch dominates
    assert rep.eps_az1 == pytest.approx(2 * math.exp(-100_000 * 1e-16 / 4))
    assert rep.eps_az2 == pytest.approx(2 * math.exp(-100_000 * 25e-8 / 16))
    assert rep.delta1 == pytest.approx(
        2 * (rep.eps_az1 + rep.eps_az2) + rep.gamma ** (rep.mu4 * params.n))
    assert rep.min_entropy_bound / params.n == pytest.approx(1.24e-9, rel=1e-2)
    assert rep.params_valid
    assert rep.map_name == "mod9"
    assert rep.output_bias_bound == 1.0        # vacuous at desk scale, reported


def test_min_entropy_bound_clamped_outside_certified_regime():
    # the second set's gamma^(mu4 n) is about e^17600: it raised OverflowError
    for params in (ProtocolParams(n=10 ** 7, delta=1e-6, mu1=3e-4, kappa=1e-4,
                                  enforce_bounds=False),
                   ProtocolParams(n=10 ** 5, mu1=1e-9, kappa=0.4,
                                  enforce_bounds=False)):
        rep = security_report(params)
        assert rep.mu4 < 0
        assert rep.min_entropy_bound == 0
        assert rep.delta1 == 2 * (rep.eps_az1 + rep.eps_az2) + 1
        assert not rep.params_valid


def test_security_report_gamma_other_branch():
    # large kappa pushes the Bell-side branch to the max
    params = ProtocolParams(n=1000, eps=0.0, delta=1e-8, mu1=0.9, kappa=0.4,
                            enforce_bounds=False)
    rep = security_report(params)
    expect = (3 + 2 * math.sqrt(2e-8) / 0.5 ** 8) / 4
    assert rep.gamma == pytest.approx(expect)
    assert not rep.params_valid or params.in_certified_regime()


def test_dc_distance_uniform_independent():
    p = np.full((2, 2, 2, 2), 1 / 8)
    got = dc_distance(p)
    assert got["dc"] == pytest.approx(0.0, abs=1e-15)
    assert got["d"] == pytest.approx(0.0, abs=1e-15)
    assert got["relation_ok"]


def test_dc_distance_deterministic_s():
    p = np.zeros((2, 1, 1, 1))
    p[0] = 1.0
    got = dc_distance(p)
    assert got["dc"] == pytest.approx(1.0)
    assert got["relation_ok"]


def test_dc_distance_w_dependent_toy_matches_enumeration():
    """Two adversary inputs maximizing different e-terms; independent
    brute-force evaluation of the definition."""
    rng = np.random.default_rng(3)
    p = rng.uniform(0.05, 1.0, size=(2, 2, 2, 2))
    p /= p.sum(axis=(0, 1, 2), keepdims=True)
    got = dc_distance(p)
    ns = 2
    dc = 0.0
    for s in range(2):
        for e in range(2):
            best = -1.0
            for w in range(2):
                tot = 0.0
                for z in range(2):
                    marg = sum(p[sp, z, e, w] for sp in range(2))
                    tot += abs(p[s, z, e, w] - marg / ns)
                best = max(best, tot)
            dc += best
    assert got["dc"] == pytest.approx(dc, rel=1e-12)
    d = 0.0
    for e in range(2):
        best = -1.0
        for w in range(2):
            tot = 0.0
            for z in range(2):
                marg = sum(p[sp, z, e, w] for sp in range(2))
                for s in range(2):
                    tot += abs(p[s, z, e, w] - marg / ns)
            best = max(best, tot)
        d += best
    assert got["d"] == pytest.approx(d, rel=1e-12)
    assert got["dc"] <= ns * got["d"] + 1e-12


def test_dc_distance_with_acceptance_weights():
    p = np.full((2, 2, 1, 1), 1 / 8)
    acc = np.ones((2, 2, 1, 1))
    acc[1] = 0.0                 # acceptance kills s = 1 entirely
    got = dc_distance(p, acc)
    assert got["dc"] == pytest.approx(1.0)


def test_dc_distance_validation():
    with pytest.raises(ValueError):
        dc_distance(np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        dc_distance(np.full((2, 1, 1, 1), 0.4))   # not normalized


def test_monte_carlo_single_trial_reproduces_run(ideal):
    params = ProtocolParams(n=4000, mu1=1e-9, kappa=4e-10,
                            enforce_bounds=False)
    factory_d = lambda seed: make_iid_device(ideal, seed)
    factory_s = lambda seed: SVSource(0, "unbiased", seed)
    stats = monte_carlo(factory_d, factory_s, params, trials=1, master_seed=55)
    run = run_protocol(make_iid_device(ideal, derive_seed(55, 0, 1)),
                       SVSource(0, "unbiased", derive_seed(55, 0, 2)),
                       params, keep_transcript=False)
    row = stats.rows[0]
    assert (row["Ln"], row["Sn"], row["verdict"]) == \
        (run.bell_average, run.target_frequency, run.verdict)
    first = stats.first_run
    assert (first.bell_average, first.target_frequency, first.verdict) == \
        (row["Ln"], row["Sn"], row["verdict"])
    assert first.output_bits is not None
    full = run_protocol(make_iid_device(ideal, derive_seed(55, 0, 1)),
                        SVSource(0, "unbiased", derive_seed(55, 0, 2)), params)
    assert np.array_equal(first.cells, full.cells)
    assert (first.output_bits, first.extraction) == \
        (full.output_bits, full.extraction)
    assert stats.to_csv().splitlines()[0] == "trial,Ln,Sn,verdict"


def test_monte_carlo_deterministic(ideal):
    params = ProtocolParams(n=2000, mu1=1e-9, kappa=4e-10,
                            enforce_bounds=False)
    f_d = lambda seed: make_iid_device(ideal, seed)
    f_s = lambda seed: SVSource(0, "unbiased", seed)
    a = monte_carlo(f_d, f_s, params, trials=5, master_seed=9)
    b = monte_carlo(f_d, f_s, params, trials=5, master_seed=9)
    assert a.rows == b.rows


def test_completeness_trend(ideal):
    """Accept rate grows with n: CI separation between n=1e3 and n=1e5."""
    params_by_n = {n: ProtocolParams(n=n) for n in (1000, 100_000)}
    f_d = lambda seed: make_iid_device(ideal, seed)
    f_s = lambda seed: SVSource(0, "unbiased", seed)
    small = monte_carlo(f_d, f_s, params_by_n[1000], trials=40, master_seed=17)
    large = monte_carlo(f_d, f_s, params_by_n[100_000], trials=40, master_seed=18)
    assert large.ci_low > small.ci_high
    assert large.accept_rate >= 0.95


def test_noise_tolerance_study(ideal, functional):
    """Exploratory mode: delta far above the certified range demonstrates
    the Bell test's noise discrimination around eta_max = delta / rate."""
    measure = np.zeros((9, 9))
    for v1 in range(16):
        for v2 in range(16):
            u = DEFAULT_MAP.map_block(v1 * 16 + v2)
            measure[u[0] - 1, u[1] - 1] += 1 / 256
    rate = bell_value(uniform_box(), functional, measure)
    assert rate == pytest.approx(0.389, abs=0.02)
    delta = 1e-3
    eta_max = delta / rate
    params = ProtocolParams(n=10_000, delta=delta, mu1=1e-9, kappa=4e-10,
                            enforce_bounds=False)
    f_s = lambda seed: SVSource(0, "unbiased", seed)
    quiet = monte_carlo(lambda s: make_iid_device(depolarize(ideal, eta_max / 2), s),
                        f_s, params, trials=40, master_seed=21)
    noisy = monte_carlo(lambda s: make_iid_device(depolarize(ideal, 10 * eta_max), s),
                        f_s, params, trials=40, master_seed=22)
    assert quiet.accept_rate >= 0.8
    assert noisy.accept_rate == 0.0


def test_wilson_interval_sane():
    lo, hi = wilson_interval(200, 200)
    assert lo > 0.97 and hi == 1.0
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi < 0.1


def test_default_functional_cached():
    assert default_functional() is default_functional()


def test_mu4_positive_whenever_params_admissible():
    """Algebraic sweep: any delta below the admissible ceiling gives a
    strictly positive surviving fraction mu4."""
    for eps in (0.0, 0.1, 0.3):
        for mu1 in (1e-4, 5e-4, 0.01, 0.2):
            for frac in (0.05, 0.25, 0.45):
                kappa = frac * mu1 / 2
                dmax = select_params(eps, mu1, kappa)
                for delta in (dmax * 0.9, dmax * 0.5, dmax * 1e-3):
                    params = ProtocolParams(n=1000, eps=eps, delta=delta,
                                            mu1=mu1, kappa=kappa)
                    params.validate()
                    assert security_report(params).mu4 > 0
