"""The benchmark's workloads: fixed job lists made from a seed, and the
checks on their outputs.

Each job is one command a user would type, run in-process through
`randamp.cli.main`, or one library call where the toolkit has no command.
Only the command itself is timed; the checks read its output files
afterwards.  A job fails on a non-zero exit, an exception, or any failed
check.  The program sees only the generated configs, never the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

N = 100_000                  # rounds per run, the documented default config
MASTER = 20240801            # the documented default master seed
CAMPAIGN_TRIALS = 8
ADVERSARIAL_TRIALS = 2
ADVERSARIAL_EPS = 0.05       # largest eps keeping delta = 1e-8 certified
VB_TRIALS = 10_000
# verify-bounds draws VB_TRIALS traces for each (family, parameter, n) row:
# two families x three parameters x n in (100, 1000, 2000).
VB_ROWS = 18
VB_ROUNDS = VB_TRIALS * 2 * 3 * (100 + 1000 + 2000)
CERTIFY_GRID = [Fraction(k, 20) for k in range(11)]      # the default grid

# Acceptance criterion 12: body digest of the default-config trial 0.
FROZEN_BODY_SHA256 = \
    "b5094a92308be20a4bb95e74574e4a8b9a49003142ff8558da8637f56637df08"
REFERENCE_DIGESTS = Path(__file__).with_name("reference_digests.json")

WORKLOADS = {
    "campaign": "criterion-8 campaigns on the unbiased source: the per-round "
                "loop of next_block, map_block, iid respond and the tally",
    "adversarial": "campaigns at eps = 0.05 with biased sources and stateful "
                   "devices: the per-bit source path and branching devices",
    "accepted_run": "simulate -> replay -> extract of one accepted run: "
                    "transcript I/O and the extraction bit draw",
    "certify": "the LP grid, the exhaustive scans and the tail-bound table: "
               "no protocol rounds, the only path into ns_certify and bounds",
}


@dataclass
class Job:
    name: str
    call: Callable[[], object]              # the timed part
    check: Callable[[object], list[str]]    # problems found in the output
    outdir: Path | None = None
    trials: int = 0                         # protocol trials asked for
    rounds: int = 0                         # rounds counted by rounds_per_s

    def prepare(self) -> None:
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)


def invoke(cli, args: list[str]) -> tuple[int, str]:
    """Run one `randamp` command in-process; return (exit code, stdout)."""
    out = io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="randamp")
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else int(e.code is not None)
    return code, out.getvalue()


def body_digest(path: Path) -> str:
    """sha256 of every line after the first, joined by newlines, as in
    acceptance criterion 12.

    The file is read in blocks, so that the check adds next to nothing to
    the process's peak memory, which the benchmark reports."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        fh.readline()
        held = b""                      # a final newline ends no line
        while block := fh.read(1 << 16):
            digest.update(held + block[:-1])
            held = block[-1:]
        if held != b"\n":
            digest.update(held)
    return digest.hexdigest()


def simulate_digests(outdir: Path) -> dict[str, str]:
    return {"campaign_csv": body_digest(outdir / "campaign.csv"),
            "trial0": body_digest(outdir / "trial0.jsonl")}


def _last_line(path: Path) -> dict:
    with open(path, "rb") as fh:
        fh.seek(max(0, fh.seek(0, 2) - 4096))
        return json.loads(fh.read().splitlines()[-1])


def _exit_problems(result, name) -> list[str]:
    code, _ = result
    return [] if code == 0 else [f"{name}: exit code {code}"]


def _simulate_job(cli, work: Path, name: str, cfg: dict, n: int,
                  verdict_check: Callable[[dict, int], str | None],
                  reference: dict | None) -> Job:
    """One `simulate` command; `reference` maps output names to the digests
    they must have."""
    out = work / name
    cfg_path = work / f"{name}.json"
    cfg["protocol"]["n"] = n
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    trials = cfg["trials"]

    def check(result):
        problems = _exit_problems(result, name)
        if problems:
            return problems
        summary = json.loads((out / "simulate_summary.json").read_text())
        verdicts = summary["verdicts"]
        if summary["trials"] != trials or sum(verdicts.values()) != trials:
            problems.append(f"{name}: verdict counts {verdicts} != {trials} trials")
        bad = verdict_check(verdicts, trials)
        if bad:
            problems.append(f"{name}: {bad}: {verdicts}")
        # The stored transcript is trial 0 run again; it must agree with
        # the campaign's row for trial 0.
        row0 = (out / "campaign.csv").read_text().splitlines()[2].split(",")
        t0 = _last_line(out / "trial0.jsonl")
        if (float(row0[1]), float(row0[2]), row0[3]) != \
                (t0["Ln"], t0["Sn"], t0["verdict"]):
            problems.append(f"{name}: trial0.jsonl disagrees with campaign row 0")
        if reference:
            digests = simulate_digests(out)
            if any(digests[k] != v for k, v in reference.items()):
                problems.append(f"{name}: output digests differ from the seed commit")
        return problems

    return Job(name, lambda: invoke(cli, ["simulate", "--config", str(cfg_path),
                                          "--out", str(out)]),
               check, outdir=out, trials=trials, rounds=trials * n)


def _config(device: dict, strategy, eps: float, trials: int, master: int) -> dict:
    return {"protocol": {"eps": eps}, "device": device,
            "source": {"strategy": strategy}, "trials": trials,
            "master_seed": master}


def _all(verdict):
    return lambda v, t: None if v.get(verdict, 0) == t else f"expected all {verdict}"


def _accept_rate(v, t):
    # criterion 8: an honest campaign accepts at a rate of at least 0.999
    return None if v.get("Accept", 0) >= 0.999 * t else "ideal accept rate below 0.999"


def _tomography_aborts(v, t):
    return None if v.get("AbortTomography", 0) >= t - 1 \
        else "fewer than T-1 AbortTomography"


def _never_bell_abort(v, t):
    # the ideal box puts no weight on a Bell-indicator cell
    return None if "AbortBell" not in v else "ideal device aborted the Bell test"


def _campaign(cli, work, seed, n, refs):
    specs = [("ideal", {"kind": "ideal"}, _accept_rate),
             ("uniform", {"kind": "uniform"}, _all("AbortBell")),
             ("lp_attack_zero", {"kind": "lp_attack_zero"}, _tomography_aborts)]
    return [_simulate_job(cli, work, f"campaign-{label}",
                          _config(dev, "unbiased", 0.0, CAMPAIGN_TRIALS,
                                  MASTER + 1000 * seed + j),
                          n, vcheck, refs.get(f"campaign-{label}"))
            for j, (label, dev, vcheck) in enumerate(specs)]


def _adversarial(cli, work, seed, n, refs):
    specs = [("ideal-avoid_target", {"kind": "ideal"}, ["avoid_target"],
              _never_bell_abort),
             ("switch_after-toward_pattern", {"kind": "switch_after", "k": n // 2},
              ["toward_pattern", 0x01], _all("AbortBell")),
             ("history_trigger-constant_bias",
              {"kind": "history_trigger", "pattern": [[1, 2], [1, 2]]},
              ["constant_bias", [ADVERSARIAL_EPS, -ADVERSARIAL_EPS]],
              _all("AbortBell"))]
    return [_simulate_job(cli, work, f"adversarial-{label}",
                          _config(dev, strategy, ADVERSARIAL_EPS,
                                  ADVERSARIAL_TRIALS, MASTER + 1000 * seed + j),
                          n, vcheck, refs.get(f"adversarial-{label}"))
            for j, (label, dev, strategy, vcheck) in enumerate(specs)]


def _accepted_run(cli, work, seed, n, pinned: bool):
    sim = _simulate_job(cli, work, "accepted_run-simulate",
                        _config({"kind": "ideal"}, "unbiased", 0.0, 1,
                                MASTER + 1000 * seed),
                        n, _all("Accept"),
                        {"trial0": FROZEN_BODY_SHA256} if pinned else None)
    transcript = sim.outdir / "trial0.jsonl"

    def check_replay(result):
        problems = _exit_problems(result, "replay")
        if not problems and json.loads(result[1]).get("identical") is not True:
            problems.append("replay: not identical")
        return problems

    ext_out = work / "accepted_run-extract"

    def check_extract(result):
        problems = _exit_problems(result, "extract")
        stored = _last_line(transcript).get("output_hex")
        if not problems and result[1].strip() != stored:
            problems.append(f"extract: {result[1].strip()!r} != stored {stored!r}")
        return problems

    return [sim,
            Job("accepted_run-replay",
                lambda: invoke(cli, ["replay", str(transcript)]), check_replay),
            Job("accepted_run-extract",
                lambda: invoke(cli, ["extract", str(transcript),
                                     "--out", str(ext_out)]),
                check_extract, outdir=ext_out)]


def _certify(cli, work, seed):
    from randamp import ks_bell

    cert_out = work / "certify"
    vb_out = work / "verify-bounds"

    def check_certify(result):
        problems = _exit_problems(result, "certify")
        if problems:
            return problems
        rows = json.loads((cert_out / "certify_summary.json").read_text())["results"]
        if [Fraction(r["cap"]) for r in rows] != CERTIFY_GRID:
            problems.append("certify: grid differs from the default 11 caps")
        for r in rows:
            d = Fraction(r["cap"])
            if not r["certificate_verified"] or \
                    Fraction(r["optimum"]) != Fraction(3, 4) + d / 6:
                problems.append(f"certify: cap {d}: optimum {r['optimum']} "
                                f"verified={r['certificate_verified']}")
        return problems

    def check_vb(result):
        problems = _exit_problems(result, "verify-bounds")
        if problems:
            return problems
        rows = [line.split(",") for line in
                (vb_out / "bounds_table.csv").read_text().splitlines()[2:]]
        if len(rows) != VB_ROWS or any(r[-1] != "True" for r in rows):
            problems.append("verify-bounds: table rows missing or failing")
        return problems

    def expect(name, want):
        return lambda got: [] if got == want else [f"{name}: {got} != {want}"]

    return [
        Job("certify-grid", lambda: invoke(cli, ["certify", "--out", str(cert_out)]),
            check_certify, outdir=cert_out),
        Job("certify-classical_minimum",
            lambda: ks_bell.classical_minimum(
                ks_bell.build_bell_functional(ks_bell.build_ks_model()))[0],
            expect("classical_minimum", 4)),
        Job("certify-ks_coloring_count",
            lambda: ks_bell.ks_coloring_count(ks_bell.build_ks_model()),
            expect("ks_coloring_count", 0)),
        Job("certify-verify_bounds",
            lambda: invoke(cli, ["verify-bounds", "--trials", str(VB_TRIALS),
                                 "--seed", str(7 + seed), "--out", str(vb_out)]),
            check_vb, outdir=vb_out, rounds=VB_ROUNDS),
    ]


def build(workload: str, seed: int, work: Path, n: int = N) -> list[Job]:
    """Write the workload's configs under `work` and return its job list.

    Output digests are pinned only at seed 0 with the default n, where the
    accepted run is the documented default config.
    """
    from randamp import cli

    pinned = seed == 0 and n == N
    refs = json.loads(REFERENCE_DIGESTS.read_text()) if pinned else {}
    if workload == "campaign":
        return _campaign(cli, work, seed, n, refs)
    if workload == "adversarial":
        return _adversarial(cli, work, seed, n, refs)
    if workload == "accepted_run":
        return _accepted_run(cli, work, seed, n, pinned)
    if workload == "certify":
        return _certify(cli, work, seed)
    raise ValueError(f"unknown workload {workload!r}")
