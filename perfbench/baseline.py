"""Repeat the benchmark over several seeds and summarize each end-to-end
metric per workload: median, quartiles and spread (interquartile distance
as a share of the median), next to the metric's bound in BENCHMARK.json.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each run is a separate `perfbench/run.py --trace 0` process with seed
first_seed + i.  Exits 1 if a run fails, is incorrect, or a spread other
than setup_s's reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    """Return (environment, result, process seconds) of one benchmark run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900, check=True)
    lines = out.stdout.splitlines()
    env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return env, json.loads(lines[-1]), time.perf_counter() - start


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    report = {"env": None, "runs": args.runs, "first_seed": args.first_seed}
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(w, args.first_seed + i, spec["run_seconds"])
                for i in range(args.runs)]
        report["env"] = {k: v for k, v in runs[0][0].items() if k != "seed"}
        results = [r for _, r, _ in runs]
        ok &= all(r["correct"] for r in results)
        run_s = [t for _, _, t in runs]
        report[w] = {"run_s_max": max(run_s), "run_s_total": sum(run_s)}
        print(f"{w:13s} process time: max {max(run_s):.1f} s, "
              f"total {sum(run_s):.1f} s", flush=True)
        for name in bounds:
            s = summarize([r["metrics"][name]["value"] for r in results])
            report[w][name] = s
            steady = name == "setup_s" or s["spread"] < bounds[name] / 3
            ok &= steady
            print(f"{w:13s} {name:13s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]}{'' if steady else '  NOT STEADY'}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
