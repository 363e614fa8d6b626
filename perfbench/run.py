"""randamp benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The workload's fixed job list is repeated until the next
repetition would overrun --seconds, and at least twice.  Times are in
reference seconds (see hostspeed.py): each job's time is scaled by the
host's speed sampled while it ran, and wall_s sums each job's median over
the repetitions.  With --trace 0 the end-to-end metrics are printed; with
--trace 1 untraced and traced repetitions alternate and the per-layer
counters of the traced ones are printed (the sampler runs there too and
adds about 1% to the busy time of the layer it interrupts).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Run
records (environment, per-job times, problems, spans) are written under
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracer
import workloads

# One thread per workload process, set before numpy or scipy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 2             # extra cold processes timing set-up
MIN_REPETITIONS = 2          # untraced

END_TO_END = {"setup_s": "s", "wall_s": "s", "rounds_per_s": "rounds/s",
              "peak_rss_mb": "MB"}
PER_LAYER = dict(tracer.layer_metric_units(),
                 **{"protocol.run_useful_ratio": "ratio",
                    "trace.overhead_ratio": "ratio"})


def setup(workload: str, seed: int, work: Path, n: int):
    """Import the package and write the workload's fixtures; timed."""
    with hostspeed.HostSpeed() as host:
        start = time.perf_counter()
        import randamp
        if Path(randamp.__file__).resolve().parent != SRC / "randamp":
            raise RuntimeError(f"imported randamp from {randamp.__file__}, "
                               f"not from {SRC}")
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        jobs = workloads.build(workload, seed, work, n)
        end = time.perf_counter()
    return host.normalise(start, end), jobs


def probe_setup(args) -> float:
    """Set-up time of a fresh process running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.split()[-1])


def run_list(jobs, label: str, record: list, times: dict,
             trace: tracer.Tracer | None = None) -> int:
    """Run every job once, adding its (start, end) to times[job]; return
    failures."""
    failed = 0
    for job in jobs:
        job.prepare()
        if trace is not None:
            trace.job = f"{label}:{job.name}"
        start = time.perf_counter()
        try:
            result = job.call()
            problems = None
        except Exception as e:           # a crashing job is a failed job
            problems = [f"{job.name}: {type(e).__name__}: {e}"]
        end = time.perf_counter()
        if problems is None:
            try:
                problems = job.check(result)
            except Exception as e:       # unreadable output fails the check
                problems = [f"{job.name}: check raised {type(e).__name__}: {e}"]
        failed += bool(problems)
        times.setdefault(job.name, []).append((start, end))
        record.append({"list": label, "job": job.name, "seconds": end - start,
                       "problems": problems})
    return failed


def list_time(host: hostspeed.HostSpeed, times: dict) -> float:
    """The job list's time in reference seconds: each job at its median
    repetition."""
    return sum(statistics.median(host.normalise(*t) for t in ts)
               for ts in times.values())


def measure(jobs, seconds: float, trace: bool) -> dict:
    """Repeat the job list until the next repetition would overrun."""
    plain, traced, layers, spans, record = {}, {}, [], [], []
    host = hostspeed.HostSpeed()
    peak_rss_mb = None
    failed = reps = 0
    start = time.perf_counter()
    while True:
        with host:
            failed += run_list(jobs, f"plain{reps}", record, plain)
        if trace:
            with host, tracer.Tracer() as tr:
                failed += run_list(jobs, f"traced{reps}", record, traced, tr)
            layers.append(tr.metrics())
            spans.extend(tr.spans)
        reps += 1
        if peak_rss_mb is None:
            # the peak of one pass; later passes only add fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if reps >= (1 if trace else MIN_REPETITIONS) and \
                elapsed + elapsed / reps > seconds:
            break
    out = {"wall_s": list_time(host, plain),
           # the fastest repetition of each job, in seconds as measured
           "raw_wall_s": sum(min(host.busy(*t) for t in ts)
                             for ts in plain.values()),
           "peak_rss_mb": peak_rss_mb,
           "repetitions": reps,
           "attempted": len(record), "failed": failed, "record": record}
    if trace:
        out["traced_s"] = list_time(host, traced)
        out["layers"] = {k: statistics.median_low(m[k] for m in layers)
                         for k in layers[0]}
        out["unmeasured"] = tr.unmeasured
        out["spans"] = spans
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy
    from importlib.metadata import version
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "click": version("click")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, n: int = workloads.N) -> int:
    args = parse_args(argv)
    if not (SRC / "randamp" / "__init__.py").is_file():
        print(f"error: no randamp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_probe:
        work = WORK / f"{name}-probe{os.getpid()}"
        seconds, _ = setup(args.workload, args.seed, work, n)
        shutil.rmtree(work, ignore_errors=True)
        print(seconds)
        return 0

    work = WORK / name
    setup_s, jobs = setup(args.workload, args.seed, work, n)
    try:
        res = measure(jobs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = res["wall_s"]
    if args.trace:
        trials = sum(j.trials for j in jobs)
        runs = res["layers"]["protocol.run_protocol.calls"]
        metrics = dict(res["layers"])
        metrics["protocol.run_useful_ratio"] = trials / runs if runs else 0.0
        metrics["trace.overhead_ratio"] = res["traced_s"] / wall
        units = PER_LAYER
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = {"setup_s": statistics.median(setups), "wall_s": wall,
                   "rounds_per_s": sum(j.rounds for j in jobs) / wall,
                   "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END
    env = environment(args.seed)
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(
        {"env": env, "workload": args.workload, "repetitions": res["repetitions"],
         "raw_wall_s": res["raw_wall_s"],
         "unmeasured": res.get("unmeasured", []),
         "jobs": res["record"], **result}, indent=1) + "\n")
    if args.trace:
        with open(results / f"{name}-spans.jsonl", "w") as fh:
            for span in res["spans"]:
                fh.write(json.dumps(span) + "\n")

    print("env " + json.dumps(env))
    for job in res["record"]:
        for problem in job["problems"]:
            print(f"FAILED {job['list']} {problem}")
    for t in res.get("unmeasured", []):
        print(f"unmeasured {t}")
    print(f"error_rate {res['failed'] / res['attempted']} ratio "
          f"({res['failed']}/{res['attempted']} jobs)")
    print(f"raw_wall_s {res['raw_wall_s']} s (fastest repetitions, "
          f"not normalised)")
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
