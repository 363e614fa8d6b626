"""Batch front door.

Subcommands: certify, simulate, report, extract, verify-bounds, replay.
A single JSON config file carries all knobs; command-line flags override
config keys one to one.  Every output embeds the config hash and package
version so results are traceable to their inputs.

Exit codes: 0 success, 1 scientific failure (a bound was violated or a
protocol claim falsified), 2 usage or I/O error.  CI can therefore tell
falsification apart from breakage.  A config and a transcript header are
read by the same parsers (`protocol.parse_params`, `parse_source`,
`parse_header`), so any malformed field of either exits 2 with a message
naming its JSON path.  `replay`, `report --run-file` and `extract` load a
transcript only through `protocol.read_transcript`, which returns the run
rebuilt from the cells its records hold; a file in any other layout or
with an out-of-range summary exits 2, and so do an output directory that
cannot be created and an output file that cannot be written.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import __version__, bounds
from .boxes import (depolarize, ideal_quantum_box, make_adversarial_device,
                    make_iid_device, uniform_box)
from .extractor import output_hex
from .ks_bell import build_bell_functional, build_ks_model
from .ns_certify import (build_lp, load_highs, solve_lp, verify_certificate,
                         zero_target_box)
from .protocol import (CHUNK, ProtocolRun, extract_output, monte_carlo,
                       parse_int, parse_params, parse_real, parse_source,
                       read_transcript, security_report, write_transcript)
from .sv_source import BLOCK_PAIR, SVSource

EXIT_OK = 0
EXIT_SCIENTIFIC = 1
EXIT_USAGE = 2

DEFAULT_CONFIG = {
    "protocol": {"n": 100_000, "eps": 0.0, "delta": 1e-8,
                 "mu1": 5e-4, "kappa": 1e-4},
    "device": {"kind": "ideal"},
    "source": {"strategy": "unbiased"},
    "extractor": {"m": 32, "L": 256, "rule": "target_rounds"},
    "master_seed": 20240801,
    "trials": 1,
}


def _fail_usage(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(EXIT_USAGE)


def _outdir(outdir: str | None) -> Path:
    """The --out directory (default RANDAMP_OUT, else "."), created if
    missing; one that cannot be created exits 2."""
    path = Path(outdir or os.environ.get("RANDAMP_OUT", "."))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        _fail_usage(f"cannot create output directory {path}: {e}")
    return path


def _write(path: Path, content) -> None:
    """Write `content` to `path`: text, or a function that writes the file
    at the path it is given.  A file that cannot be written exits 2."""
    try:
        if callable(content):
            content(path)
        else:
            path.write_text(content)
    except OSError as e:
        _fail_usage(f"cannot write {path}: {e}")


def _load_run(path: str) -> tuple[dict, SVSource, ProtocolRun, dict]:
    """`read_transcript(path)`; a file it cannot read or rejects exits 2."""
    try:
        return read_transcript(path)
    except (OSError, ValueError) as e:
        _fail_usage(str(e))


def _check_run(path: str, source: SVSource, run: ProtocolRun,
               stored: str) -> None:
    """Exit 1 unless `run`'s recomputed verdict is the `stored` one and
    `source` draws every round's stored settings: 8 bits a round, mapped by
    `DEFAULT_MAP`, CHUNK rounds at a time."""
    if run.verdict != stored:
        click.echo(f"stored verdict {stored}, recomputed {run.verdict}", err=True)
        sys.exit(EXIT_SCIENTIFIC)
    for k in range(0, run.n, CHUNK):
        pairs = BLOCK_PAIR.take(source.next_blocks(min(CHUNK, run.n - k)))
        if (moved := np.flatnonzero(pairs != run.cells[k:k + len(pairs)] // 16)).size:
            click.echo(f"{path}: round {k + moved[0] + 1} settings are"
                       f" not the source's", err=True)
            sys.exit(EXIT_SCIENTIFIC)


def _strategy_option(value: str | None):
    """A --source-strategy value: the JSON spec it parses as, else the
    bare strategy name it is.  `null` stays a name, which no strategy has,
    since a None override would leave the config's strategy in place."""
    try:
        spec = json.loads(value) if value is not None else None
    except (ValueError, RecursionError):
        return value
    return value if spec is None else spec


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _no_constant(name: str):
    """`json.load`'s parse_constant: NaN and +-Infinity are not JSON."""
    raise ValueError(f"{name} is not valid JSON")


def _finite_float(text: str) -> float:
    """`json.load`'s parse_float: 1e400 is not read as infinity."""
    if math.isinf(v := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return v


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh, parse_constant=_no_constant,
                                 parse_float=_finite_float)
        except (OSError, ValueError, RecursionError) as e:
            _fail_usage(f"cannot read config {path}: {e}")
        if not isinstance(user, dict):
            _fail_usage(f"config {path} is not a JSON object")
        for key, val in user.items():
            if isinstance(val, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(val)
            else:
                cfg[key] = val
    for key, val in overrides.items():
        if val is None:
            continue
        section, _, leaf = key.partition(".")
        if not leaf:
            cfg[key] = val
        elif isinstance(cfg[section], dict):    # else the parser rejects it
            cfg[section][leaf] = val
    return cfg


# Each device kind and the one key besides `kind` that it reads.
_DEVICE_KEYS = {"ideal": (), "uniform": (), "depolarized": ("eta",),
               "lp_attack_zero": (), "switch_after": ("k",),
               "history_trigger": ("pattern",)}


def build_device_factory(spec):
    """Device factory for a config's device section, which is outside input:
    a section that is not an object, an unknown kind, a key its kind does
    not read, or a missing or out-of-range `eta`, `k` or `pattern` raises
    ValueError("device...: ..."); `make_adversarial_device` checks `k` and
    `pattern`, once before any run."""
    if not isinstance(spec, dict):
        raise ValueError(f"device: needs a JSON object, got {spec!r}")
    kind = spec.get("kind", "ideal")
    if not (isinstance(kind, str) and kind in _DEVICE_KEYS):
        raise ValueError(f"device.kind: unknown device kind {kind!r}")
    for key in spec:
        if key != "kind" and key not in _DEVICE_KEYS[kind]:
            raise ValueError(f"device.{key}: not read by kind '{kind}'")
    model = build_ks_model()
    if kind == "ideal":
        box = ideal_quantum_box(model)
    elif kind == "uniform":
        box = uniform_box()
    elif kind == "depolarized":
        box = depolarize(ideal_quantum_box(model), parse_real(
            spec, "eta", "device", lambda v: 0 <= v <= 1, "in [0, 1]"))
    elif kind == "lp_attack_zero":
        box = zero_target_box(build_bell_functional(model))
    else:                               # switch_after, history_trigger
        full = dict(spec, b1=ideal_quantum_box(model), b2=uniform_box())
        make_adversarial_device(full)   # checks k or pattern before any run
        return lambda seed: make_adversarial_device(full, seed)
    return lambda seed: make_iid_device(box, seed)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # not on every platform
        return os.cpu_count() or 1


def _certificate_name(cap: Fraction) -> str:
    return f"certificate_cap_{str(cap).replace('/', 'over')}.json"


@click.group()
def main():
    """Randomness-amplification certification and simulation toolkit."""


@main.command()
@click.option("--delta-grid", default="0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5",
              help="Comma-separated cap values (decimal strings, exact).")
@click.option("--out", "outdir", default=None, help="Output directory.")
def certify(delta_grid, outdir):
    """Solve the randomness LP on a cap grid and emit verified certificates."""
    outdir = _outdir(outdir)
    grid = []
    for tok in filter(str.strip, delta_grid.split(",")):
        try:
            grid.append(Fraction(tok))
            float(grid[-1])             # the solver reads the cap as a float
        except ZeroDivisionError:
            _fail_usage(f"bad grid: {tok.strip()} has a zero denominator")
        except ValueError as e:
            _fail_usage(f"bad grid: {e}")
        except OverflowError:
            _fail_usage(f"bad grid: {tok.strip()} is too large for a float")
        if len(_certificate_name(grid[-1])) > 255:  # most file systems' limit
            _fail_usage(f"bad grid: {tok.strip()} needs a file name over 255 bytes")
    if not grid:
        _fail_usage(f"bad grid: no cap in {delta_grid!r}")
    grid = list(dict.fromkeys(grid))    # each distinct cap once, in order
    if any(g < 0 for g in grid):
        _fail_usage("grid values must be >= 0")
    from concurrent.futures import ThreadPoolExecutor

    model = build_ks_model()
    func = build_bell_functional(model)
    problems = [build_lp(func, g) for g in grid]
    all_ok = True
    rows = []
    load_highs()                        # scipy is imported by this thread only
    # The caps are independent LPs and HiGHS solves outside the GIL: one
    # solve per CPU, while this thread checks and writes in grid order.
    pool = ThreadPoolExecutor(min(len(grid), _cpus()))
    try:
        solves = [pool.submit(solve_lp, problem) for problem in problems]
        for g, problem, solve in zip(grid, problems, solves):
            try:
                sol = solve.result()
            except Exception as e:
                click.echo(f"solver failure at cap {g}: {e}", err=True)
                sys.exit(EXIT_USAGE)
            verified = verify_certificate(problem, sol.certificate)
            reference_bound = Fraction(3, 4) + g / 2
            within = sol.exact_optimum <= min(Fraction(1), reference_bound)
            all_ok = all_ok and verified and within
            name = outdir / _certificate_name(g)
            cert_obj = json.loads(sol.certificate.to_json())
            cert_obj["version"] = __version__
            _write(name, json.dumps(cert_obj, sort_keys=True) + "\n")
            rows.append({"cap": str(g), "optimum": str(sol.exact_optimum),
                         "optimum_float": float(sol.exact_optimum),
                         "bound_reference": float(reference_bound),
                         "certificate_verified": verified,
                         "optimum_attained": sol.certified_equality,
                         "file": name.name})
            click.echo(f"cap={g}: optimum={sol.exact_optimum} "
                       f"verified={verified} within_reference={within}")
    finally:
        pool.shutdown(cancel_futures=True)     # on every exit: no solver outlives it
    summary = {"version": __version__, "grid": [str(g) for g in grid],
               "model_sha256": hashlib.sha256(model.to_json().encode()).hexdigest(),
               "functional_sha256": hashlib.sha256(func.to_json().encode()).hexdigest(),
               "results": rows}
    _write(outdir / "certify_summary.json", json.dumps(summary, indent=2) + "\n")
    sys.exit(EXIT_OK if all_ok else EXIT_SCIENTIFIC)


@main.command()
@click.option("--config", "config_path", default=None)
@click.option("--n", type=int, default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--mu1", type=float, default=None)
@click.option("--kappa", type=float, default=None)
@click.option("--device", default=None, help="Device kind override.")
@click.option("--source-strategy", default=None,
              help="Strategy name, or a JSON spec such as "
                   "'[\"constant_bias\", [0.05, -0.05]]'.")
@click.option("--eta", type=float, default=None, help="Depolarizing weight.")
@click.option("--seed", "master_seed", type=int, default=None)
@click.option("--trials", type=int, default=None)
@click.option("--out", "outdir", default=None)
def simulate(config_path, n, epsilon, delta, mu1, kappa, device,
             source_strategy, eta, master_seed, trials, outdir):
    """Run protocol trials; write transcripts and a campaign summary."""
    cfg = load_config(config_path, {
        "protocol.n": n, "protocol.eps": epsilon, "protocol.delta": delta,
        "protocol.mu1": mu1, "protocol.kappa": kappa,
        "device.kind": device, "device.eta": eta,
        "source.strategy": _strategy_option(source_strategy),
        "master_seed": master_seed, "trials": trials})
    outdir = _outdir(outdir)
    chash = config_hash(cfg)
    try:
        params = parse_params(cfg["protocol"], cfg["extractor"])
        params.validate()
        source_factory = parse_source(cfg["source"], params.eps)
        device_factory = build_device_factory(cfg["device"])
        seed = parse_int(cfg, "master_seed")
        ntrials = parse_int(cfg, "trials", least=1)
    except ValueError as e:
        _fail_usage(str(e))

    stats = monte_carlo(device_factory, source_factory, params, ntrials, seed)
    stamp = f"# randamp {__version__} config={chash}\n"
    _write(outdir / "campaign.csv", stamp + stats.to_csv())
    _write(outdir / "trial0.jsonl", lambda path: write_transcript(
        stats.first_run, path, config_hash=chash, package_version=__version__))
    summary = {"version": __version__, "config_hash": chash, "config": cfg,
               "accept_rate": stats.accept_rate,
               "accept_count": stats.accept_count, "trials": stats.trials,
               "ci95": [stats.ci_low, stats.ci_high],
               "verdicts": stats.verdict_counts}
    _write(outdir / "simulate_summary.json", json.dumps(summary, indent=2) + "\n")
    click.echo(f"accept {stats.accept_count}/{stats.trials} "
               f"(rate {stats.accept_rate:.4f}), outputs in {outdir}")
    sys.exit(EXIT_OK)


@main.command()
@click.option("--config", "config_path", default=None)
@click.option("--q-acc", type=float, default=1.0,
              help="Acceptance probability estimate for the guarantee.")
@click.option("--run-file", default=None,
              help="Transcript whose verdict, recomputed from its records, "
                   "gates the entropy claims.")
@click.option("--out", "outdir", default=None)
def report(config_path, q_acc, run_file, outdir):
    """Emit the derived security constants for a parameter set.

    A run file must have the config's n, eps, delta, mu1 and kappa (else
    exit 2), a stored verdict its records reproduce, and every round's
    settings drawn by its source, as `extract` checks (else exit 1)."""
    cfg = load_config(config_path, {})
    outdir = _outdir(outdir)
    try:
        params = parse_params(cfg["protocol"], cfg["extractor"])
        rep = security_report(params, q_acc=q_acc)
    except ValueError as e:
        _fail_usage(str(e))
    rep["version"] = __version__
    rep["config_hash"] = config_hash(cfg)
    if run_file:
        _, source, run, summary = _load_run(run_file)
        differ = [k for k in ("n", "eps", "delta", "mu1", "kappa")
                  if getattr(run.params, k) != getattr(params, k)]
        if differ:
            _fail_usage(f"{run_file}: run params {', '.join(differ)} differ from the config")
        _check_run(run_file, source, run, summary["verdict"])
        rep["run_verdict"] = run.verdict
        if run.verdict != "Accept":
            rep.pop("min_entropy_bound")
            rep["note"] = "run aborted; no entropy claims apply"
    _write(outdir / "security_report.json",
           json.dumps(rep, indent=2, sort_keys=True) + "\n")
    click.echo(json.dumps(rep, indent=2, sort_keys=True))
    sys.exit(EXIT_OK)


@main.command("extract")
@click.argument("run_file")
@click.option("--out", "outdir", default=None)
def extract_cmd(run_file, outdir):
    """Recompute the extractor output of an accepted stored run.

    The rebuilt source must reproduce every round's settings (else exit 1)
    before it draws the extractor's bits."""
    outdir = _outdir(outdir)
    header, source, run, summary = _load_run(run_file)
    if summary["verdict"] != "Accept":
        _fail_usage("run was not accepted; nothing to extract")
    _check_run(run_file, source, run, "Accept")
    extract_output(run, source)
    hexed = output_hex(run.output_bits)
    rates = run.extraction
    sidecar = {"m": rates["m"], "L": rates["L"], "rule": rates["rule"],
               "output_hex": hexed, "version": __version__,
               "rates": {"honest_rate_x": rates["honest_rate_x"],
                         "rate_t": rates["rate_t"],
                         "required_sum": rates["rate_required_sum"]},
               "validity_condition_met": rates["honest_condition_met"],
               "config_hash": header.get("config_hash", "")}
    _write(outdir / "extracted.json", json.dumps(sidecar, indent=2) + "\n")
    if "output_hex" in summary and summary["output_hex"] != hexed:
        click.echo("stored and recomputed outputs differ", err=True)
        sys.exit(EXIT_SCIENTIFIC)
    click.echo(hexed)
    sys.exit(EXIT_OK)


@main.command("verify-bounds")
@click.option("--trials", type=click.IntRange(min=1), default=10_000)
@click.option("--seed", type=click.IntRange(min=0), default=7)
@click.option("--out", "outdir", default=None)
def verify_bounds(trials, seed, outdir):
    """Empirical tail checks across a parameter grid; CSV pass/fail table."""
    outdir = _outdir(outdir)
    from concurrent.futures import ThreadPoolExecutor

    azuma, chernoff = [], []
    # One uniform stream per n, its rows split into one range per CPU: the
    # ranges draw and count their words outside the GIL.
    cpus = _cpus()
    with ThreadPoolExecutor(cpus) as pool:  # shut down on every exit
        for n in (100, 1000, 2000):
            a, c = bounds.tail_checks(n, (0.05, 0.1, 0.2),
                                      ((0.35, 0.25), (0.5, 0.25), (0.6, 0.5)),
                                      trials, seed, pool, cpus)
            azuma += [(f"azuma,{n},s={r['s']}", r) for r in a]
            chernoff += [(f"chernoff,{n},g={r['gamma']};z={r['zeta']}", r)
                         for r in c]
    rows = [f"# randamp {__version__}", "family,n,param,empirical,bound,pass"]
    ok_all = True
    for label, r in azuma + chernoff:
        ok_all &= r["passed"]
        rows.append(f"{label},{r['empirical']},{r['bound']},{r['passed']}")
    _write(outdir / "bounds_table.csv", "\n".join(rows) + "\n")
    click.echo("\n".join(rows))
    sys.exit(EXIT_OK if ok_all else EXIT_SCIENTIFIC)


@main.command()
@click.argument("transcript")
def replay(transcript):
    """Recompute a stored transcript's statistics; fail if they drift."""
    _, _, run, summary = _load_run(transcript)
    redo = {"Ln": run.bell_average, "Sn": run.target_frequency,
            "verdict": run.verdict}
    same = (redo["Ln"] == summary["Ln"] and redo["Sn"] == summary["Sn"]
            and redo["verdict"] == summary["verdict"])
    click.echo(json.dumps({"stored": {k: summary[k] for k in ("Ln", "Sn", "verdict")},
                           "recomputed": redo, "identical": same}, indent=2))
    sys.exit(EXIT_OK if same else EXIT_SCIENTIFIC)


if __name__ == "__main__":
    main()
