"""Fast self-check of the benchmark harness at small n.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run        # noqa: E402
import tracer     # noqa: E402
import workloads  # noqa: E402

SMALL_N = 40_000


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks_at_small_n(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", "0"], n=SMALL_N) == 0
    res = _result(capsys)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] >= 3
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_counts_protocol_runs_and_bits(capsys):
    assert run.main(["--workload", "accepted_run", "--seed", "1", "--seconds", "1",
                     "--trace", "1"], n=SMALL_N) == 0
    res = _result(capsys)
    assert res["correct"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    # simulate --trials 1 runs trial 0 twice; extract draws 8n + n bits
    assert m["protocol.run_protocol.calls"] == 2
    assert m["sv_source.next_bits.bits"] == 10 * SMALL_N
    assert m["trace.unmeasured"] == 0
    assert m["trace.overhead_ratio"] > 0


def test_host_speed_counts_a_slow_stretch_at_its_speed():
    ref = hostspeed.REFERENCE_S
    host = hostspeed.HostSpeed()
    # one sample at half speed inside [0, 1]; the rest far away at full speed
    host.samples = [(0.5, 2 * ref)] + [(10.0 + i, ref) for i in range(40)]
    assert host.busy(0.0, 1.0) == pytest.approx(1.0 - 2 * ref)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hostspeed, "MIN_SAMPLES", 1)
        assert host.normalise(0.0, 1.0) == pytest.approx((1.0 - 2 * ref) / 2)
    # too few samples inside: the nearest ones outside are used as well
    assert host.speed(0.0, 1.0) == pytest.approx(
        (0.5 + (hostspeed.MIN_SAMPLES - 1)) / hostspeed.MIN_SAMPLES)


def test_host_speed_samples_only_while_installed():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as host:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    taken = len(host.samples)
    time.sleep(0.1)
    assert taken >= 4 and len(host.samples) == taken
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_reports_missing_targets_as_unmeasured(monkeypatch):
    import randamp.protocol
    from randamp.sv_source import SVSource

    original = SVSource.next_block
    monkeypatch.delattr(randamp.protocol, "replay_transcript")
    with tracer.Tracer() as tr:
        assert SVSource.next_block is not original
        SVSource(0, "unbiased", 1).next_block(8)
    assert SVSource.next_block is original
    assert tr.unmeasured == ["protocol.replay_transcript"]
    m = tr.metrics()
    assert m["protocol.replay_transcript.calls"] == 0
    assert m["sv_source.next_block.calls"] == 1
    assert m["trace.unmeasured"] == 1


def test_no_result_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "campaign", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
