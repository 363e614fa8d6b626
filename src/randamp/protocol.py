"""End-to-end protocol execution, parameter selection, the derived security
constants, and Monte Carlo campaigns.

One run: each round draws 8 source bits, maps them to a setting pair,
queries the device for an outcome pair, and is the cell
(`ks_bell.var_index`) of that input-output pair.  `run_protocol` does this
for CHUNK rounds at a time with numpy: one bulk draw from the source's
generator and one from the device's, each exactly the draws of those
rounds in round order, so both generators end where a round-by-round loop
leaves them and the transcript is the same bit for bit.  A run is its
params, the histogram of its cells and, when kept, its cells in round
order (`ProtocolRun`).  Two tests are evaluated in order on sums over the
histogram: the Bell test (the empirical indicator average must not exceed
delta) and then, only if it passed, the tomographic test (the empirical
frequency of the target cell must reach mu1).  Both aborts are verdicts,
not errors.  `replay_transcript` is the one path from cells back to a run;
`read_transcript` reads in one pass the one layout `write_transcript`
writes, both by one table of record texts in fixed-width blocks.  On
acceptance of a run whose transcript is kept, the extractor's t side is the
next n bits of the same source (the stream positions of setting draws and
extraction draws are disjoint by construction); it reads only the first L
of them, so min(n, L) are drawn and fed to the two-source extractor
together with the selected transcript bits.

The parameter constraints mirror the derived security chain: for source
parameter eps and thresholds (mu1, kappa) with 0 < kappa < mu1/2 the Bell
threshold must satisfy

    delta < min( (1/2-eps)^16 / 8,  [(mu1-2kappa)/(2(1-kappa))]^2 / 2 )

which keeps both derived fractions mu2, mu3 large enough that mu4 > 0.  The
constraint check can be switched off explicitly (`enforce_bounds=False`) for
exploratory noise studies; the security report marks such parameter sets as
outside the certified regime.

Architectural notes.  The device is constructed, with its own
generator, before any source bits are drawn, and the two objects share no
state: the device cannot signal to the source and the box is fixed
independently of the source by construction.  A single run is sequential
(outcomes may depend on past settings only, and a batch of rounds is
answered in round order); a campaign runs its trials one after another,
each from its own derived seeds.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import extractor as extractor_mod
from .boxes import Behavior, Device
from .bounds import markov_split_epsilon
from .ks_bell import (N_CELLS, N_OUTCOMES, TARGET_SETTINGS, BellFunctional,
                      build_bell_functional, build_ks_model, cell_entry)
from .seeding import derive_seed
from .sv_source import BITS_PER_ROUND, BLOCK_PAIR, DEFAULT_MAP, SVSource

FORMAT_VERSION = 1


@lru_cache(maxsize=1)
def default_functional() -> BellFunctional:
    return build_bell_functional(build_ks_model())


def select_params(eps: float, mu1: float, kappa: float) -> float:
    """Largest admissible Bell threshold for the given source and
    tomography parameters (exclusive upper end of the valid range)."""
    if not 0 <= eps < 0.5:
        raise ValueError("source parameter must be in [0, 1/2)")
    if not 0 < kappa < mu1 / 2:
        raise ValueError("need 0 < kappa < mu1/2")
    a = (0.5 - eps) ** 16 / 8.0
    b = 0.5 * ((mu1 - 2.0 * kappa) / (2.0 * (1.0 - kappa))) ** 2
    return min(a, b)


@dataclass(frozen=True)
class ProtocolParams:
    n: int
    eps: float = 0.0
    delta: float = 1e-8
    mu1: float = 5e-4
    kappa: float = 1e-4
    extractor: extractor_mod.ExtractorConfig = field(
        default_factory=extractor_mod.ExtractorConfig)
    enforce_bounds: bool = True

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one round")
        if self.delta <= 0 or self.mu1 <= 0:
            raise ValueError("thresholds must be positive")
        if self.enforce_bounds:
            dmax = select_params(self.eps, self.mu1, self.kappa)
            if not self.delta < dmax:
                raise ValueError(
                    f"delta {self.delta} not below the admissible bound {dmax}")

    def in_certified_regime(self) -> bool:
        try:
            return self.delta < select_params(self.eps, self.mu1, self.kappa)
        except ValueError:
            return False

    def to_dict(self) -> dict:
        return {"n": self.n, "eps": self.eps, "delta": self.delta,
                "mu1": self.mu1, "kappa": self.kappa,
                "map": DEFAULT_MAP.name,
                "extractor": {"m": self.extractor.m, "L": self.extractor.L,
                              "rule": self.extractor.rule,
                              "xi": self.extractor.xi},
                "enforce_bounds": self.enforce_bounds}


# --- outside input --------------------------------------------------------
#
# A config and a transcript header are read by the same rules: a failure
# raises ValueError("<json path>: ..."), and unknown keys are ignored.


def _field(obj, key: str, path: str, ok: Callable, want: str, default=None):
    """obj[key], or `default` when absent, if ok(value); `path` names obj."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: needs a JSON object, got {obj!r}")
    if not ok(v := obj.get(key, default)):
        where = f"{path}.{key}" if path else key
        raise ValueError(f"{where}: needs {want}, got {v!r}")
    return v


def parse_int(obj, key: str, path: str = "", least: int | None = None,
              default=None) -> int:
    """obj[key] if it is an int (a bool is not) of at least `least`."""
    low = -math.inf if least is None else least
    return _field(obj, key, path, lambda v: type(v) is int and v >= low,
                  "an int" if least is None else f"an int >= {least}", default)


def parse_real(obj, key: str, path: str, within: Callable, want: str,
               default=None) -> float:
    """float(obj[key]) if it is a finite int or float (a bool is not) for
    which within(value) holds; `want` names that range."""
    return float(_field(obj, key, path, lambda v: type(v) in (int, float)
                        and abs(v) <= sys.float_info.max and within(v),
                        f"a finite number {want}", default))


def parse_params(protocol, extractor, path: str = "protocol",
                 extractor_path: str = "extractor") -> ProtocolParams:
    """ProtocolParams from a protocol object and an extractor object read
    from a config or a transcript header; the paths name them in errors.

    n: an int >= 1; eps: a number in [0, 1/2); delta, mu1: numbers in
    (0, 1]; kappa: a number in [0, 1); enforce_bounds: a bool, default true.
    The extractor's m, L (ints), rule (a string) and xi (a number > 0)
    default to ExtractorConfig's, which checks them further.  The derived
    chain is left to `ProtocolParams.validate`.
    """
    unit, d = (lambda v: 0 < v <= 1), extractor_mod.ExtractorConfig()
    kw = dict(
        n=parse_int(protocol, "n", path, least=1),
        eps=parse_real(protocol, "eps", path, lambda v: 0 <= v < 0.5,
                       "in [0, 1/2)"),
        delta=parse_real(protocol, "delta", path, unit, "in (0, 1]"),
        mu1=parse_real(protocol, "mu1", path, unit, "in (0, 1]"),
        kappa=parse_real(protocol, "kappa", path, lambda v: 0 <= v < 1,
                         "in [0, 1)"),
        enforce_bounds=_field(protocol, "enforce_bounds", path,
                              lambda v: type(v) is bool, "a bool", True))
    ext = dict(m=parse_int(extractor, "m", extractor_path, default=d.m),
               L=parse_int(extractor, "L", extractor_path, default=d.L),
               rule=_field(extractor, "rule", extractor_path,
                           lambda v: type(v) is str, "a string", d.rule),
               xi=parse_real(extractor, "xi", extractor_path, lambda v: v > 0,
                             "> 0", d.xi))
    try:
        return ProtocolParams(extractor=extractor_mod.ExtractorConfig(**ext),
                              **kw)
    except ValueError as e:         # ExtractorConfig's own checks
        raise ValueError(f"{extractor_path}: {e}") from e


def parse_source(source, eps: float, path: str = "source"
                 ) -> Callable[[int], SVSource]:
    """Source factory (seed -> SVSource) at eps for a source object whose
    `strategy` (default unbiased) is a `make_strategy` spec.  The strategy
    is built once here, so one that cannot be a source fails before a run."""
    strategy = _field(source, "strategy", path, lambda v: True, "", "unbiased")
    try:
        SVSource(eps, strategy)
    # TypeError, ArithmeticError: a spec of the wrong shape, an infinite bias
    except (TypeError, ValueError, ArithmeticError) as e:
        raise ValueError(f"{path}.strategy: {e}") from e
    return lambda seed: SVSource(eps, strategy, seed)


def parse_header(header: dict) -> tuple[ProtocolParams, SVSource]:
    """The params of a transcript header (`params`, its `extractor` inside)
    and its `source` rebuilt at stream position 0; the source needs the
    params' eps as `epsilon` and an int `seed`."""
    p = header.get("params")
    params = parse_params(p, p.get("extractor") if isinstance(p, dict) else
                          None, "params", "params.extractor")
    source = header.get("source")
    parse_real(source, "epsilon", "source", lambda v: v == params.eps,
               f"equal to params.eps {params.eps!r}")
    return params, parse_source(source, params.eps)(
        parse_int(source, "seed", "source"))


@dataclass
class ProtocolRun:
    """A run is its params, its histogram over the 1296 cells in
    `ks_bell.var_index` order and, when kept, `cells`, the integer array of
    its rounds' cells; n, the statistics and the verdict derive from hist."""

    params: ProtocolParams
    device_spec: dict
    source_spec: dict
    hist: list[int]
    cells: np.ndarray | None = None
    output_bits: list[int] | None = None
    extraction: dict | None = None

    @property
    def n(self) -> int:
        return sum(self.hist)

    @property
    def bell_count(self) -> int:
        return sum(self.hist[c] for c in default_functional().bell_cells)

    @property
    def target_count(self) -> int:
        return self.hist[default_functional().target_cell]

    @property
    def bell_average(self) -> float:        # the Bell-test statistic
        return self.bell_count / self.n

    @property
    def target_frequency(self) -> float:    # the tomography statistic
        return self.target_count / self.n

    @property
    def verdict(self) -> str:
        """Ordered tests: the Bell test is evaluated first; the tomography
        test only applies to runs that survived it."""
        if not self.bell_average <= self.params.delta:
            return "AbortBell"
        if not self.target_frequency >= self.params.mu1:
            return "AbortTomography"
        return "Accept"


# Rounds per batch, a constant: large enough that numpy's per-call cost is
# small against a batch's work, small enough that a batch's arrays (a few
# MB) add little to peak memory, which arrays over a whole run would raise.
CHUNK = 1 << 14


def setting_pairs(source: SVSource, n: int):
    """(k, `ks_bell.pair_index` of the settings of rounds k, k+1, ...) over
    the next n rounds drawn from `source`, CHUNK rounds at a time: 8 bits a
    round, mapped by `DEFAULT_MAP`."""
    for k in range(0, n, CHUNK):
        yield k, BLOCK_PAIR[source.next_blocks(min(CHUNK, n - k))]


def run_protocol(device: Device, source: SVSource, params: ProtocolParams,
                 keep_transcript: bool = True) -> ProtocolRun:
    """Execute one full run; aborts are verdicts.

    The transcript is fully reproducible from (device spec, source spec,
    seeds): round k takes the next 8 source bits and the device's next
    `random()` draw.  Rounds are drawn and tallied CHUNK at a time, each
    generator's batch being exactly its draws for those rounds, so every
    stream position is the one a round-by-round run reaches; the batches'
    cells, joined, are the kept `cells`.  An accepted run with kept cells
    goes on to `extract_output`, which draws min(n, L) further source bits.
    """
    params.validate()
    hist = np.zeros(N_CELLS, np.int64)
    kept = []
    for k, pairs in setting_pairs(source, params.n):
        cells = pairs * N_OUTCOMES ** 2 + device.respond_chunk(k, pairs)
        hist += np.bincount(cells, minlength=N_CELLS)
        if keep_transcript:
            kept.append(cells)

    run = ProtocolRun(params, device.spec(), source.spec(), hist.tolist(),
                      np.concatenate(kept) if keep_transcript else None)
    if run.verdict == "Accept" and keep_transcript:
        extract_output(run, source)
    return run


def extract_output(run: ProtocolRun, source: SVSource) -> None:
    """Extract from an accepted run with kept cells; set `output_bits`
    and the `extraction` rate report on the run.

    `source` must stand right after the run's setting draws.  The
    extractor's t side is the next n bits of it, of which `extract` reads
    only the first L, so min(n, L) are drawn; the x side is selected from
    the cells by the configured rule.
    """
    params = run.params
    cfg = params.extractor
    t_bits = source.next_bits(min(run.n, cfg.L))
    x_bits = extractor_mod.transcript_to_source(run, cfg.rule)
    run.output_bits = extractor_mod.extract(x_bits, t_bits, cfg)
    # Honest device-side rate: at most 1/4 on any outcome pair at the
    # target setting for the ideal box, so 2 bits per 4 encoded.  The
    # certified worst-case rate spreads the accepted-run min-entropy
    # floor over the selected bits; at desk scale it is vanishing and
    # the report says so rather than hiding it.
    rate_t = -math.log2(0.5 + params.eps) if params.eps < 0.5 else 0.0
    certified = security_report(params).min_entropy_bound / len(x_bits)
    run.extraction = extractor_mod.extraction_report(
        len(x_bits), run.n, cfg,
        honest_rate_x=0.5, rate_t=rate_t, certified_rate_x=certified)


def expected_tomography_rate(b: Behavior) -> float:
    """nu(target settings) * P(target outcomes | target settings), with nu
    the setting distribution that uniform bits induce through the map
    (the count of blocks that map to the target settings)."""
    nu = len(DEFAULT_MAP.blocks_of(TARGET_SETTINGS)) / 2.0 ** BITS_PER_ROUND
    return nu * float(b.table.flat[default_functional().target_cell])


@dataclass(frozen=True)
class SecurityReport:
    """Derived security constants for a parameter set.

    mu2 = 1 - sqrt(2 delta)          surviving fraction after the Bell side
    mu3 = (mu1-2k)/(2(1-k))          qualifying fraction from the tomography side
    mu4 = mu2 + mu3 - 1              rounds with both properties
    gamma = max(1-k, (3 + 2 sqrt(2 delta)/(1/2-eps)^8)/4)
                                     per-round max outcome probability
    eps_az1 = 2 exp(-n delta^2/4), eps_az2 = 2 exp(-n mu1^2/16)
    delta1 = 2(eps_az1+eps_az2) + min(1, gamma^(mu4 n))
    min_entropy_bound = max(0, mu4 n log2(1/gamma))

    The deviation parameter of the Bell-side tail is set equal to delta
    itself (no separate knob).  mu4 is computed as mu3 - sqrt(2 delta),
    algebraically identical to mu2 + mu3 - 1 but immune to cancellation.
    Outside the certified regime mu4 can be negative, and a negative count
    of min-entropy bits certifies nothing, so the bound is clamped at 0; so
    is the exponent of gamma^(mu4 n), a term above 1 that bounds nothing
    and can overflow.  `params_valid` says whether the chain applies at all.
    """

    n: int
    eps: float
    delta: float
    mu1: float
    kappa: float
    mu2: float
    mu3: float
    mu4: float
    gamma: float
    eps_az1: float
    eps_az2: float
    delta1: float
    min_entropy_bound: float
    zeta: float
    guaranteed_target_fraction: float
    target_fraction_failure_bound: float
    q_acc: float
    output_bias_bound: float
    guarantee_probability: float
    max_white_noise: float
    params_valid: bool
    map_name: str

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def security_report(params: ProtocolParams, q_acc: float = 1.0) -> SecurityReport:
    """All derived constants, recomputable from (n, eps, delta, mu1, kappa).

    The headline guarantee: with probability at least
    1 - sqrt(delta1/q_acc) over accepted transcripts, every outcome sequence
    has conditional probability at most sqrt(delta1/q_acc).  q_acc is the
    acceptance probability, so anything outside (0, 1] raises ValueError.
    At desk-scale n the numbers are typically vacuous (delta1 is near 8);
    they are reported faithfully rather than beautified.
    """
    if not 0 < q_acc <= 1:
        raise ValueError(f"q_acc: needs an acceptance probability in (0, 1],"
                         f" got {q_acc!r}")
    n, eps, delta, mu1, kappa = params.n, params.eps, params.delta, params.mu1, params.kappa
    sqrt2d = math.sqrt(2.0 * delta)
    mu2 = 1.0 - sqrt2d
    mu3 = (mu1 - 2.0 * kappa) / (2.0 * (1.0 - kappa))
    mu4 = mu3 - sqrt2d
    gamma = max(1.0 - kappa,
                (3.0 + 2.0 * sqrt2d / (0.5 - eps) ** 8) / 4.0)
    eps_az1 = markov_split_epsilon(n, delta)
    eps_az2 = markov_split_epsilon(n, mu1 / 2.0)
    tail = math.exp(min(0.0, mu4 * n * math.log(gamma))) if 0 < gamma < 1 else 1.0
    delta1 = 2.0 * (eps_az1 + eps_az2) + tail
    hmin = max(0.0, mu4 * n * (-math.log2(gamma))) if 0 < gamma < 1 else 0.0
    zeta = 1.0 - (0.5 - eps) ** 8
    mu5 = (0.5 - eps) ** 8 / 2.0
    chernoff_fail = math.exp(-2.0 * n * (1.0 - mu5 - zeta) ** 2)
    sqrt_term = math.sqrt(delta1 / q_acc)
    return SecurityReport(
        n=n, eps=eps, delta=delta, mu1=mu1, kappa=kappa,
        mu2=mu2, mu3=mu3, mu4=mu4, gamma=gamma,
        eps_az1=eps_az1, eps_az2=eps_az2, delta1=delta1,
        min_entropy_bound=hmin, zeta=zeta,
        guaranteed_target_fraction=mu5,
        target_fraction_failure_bound=chernoff_fail,
        q_acc=q_acc,
        output_bias_bound=min(1.0, sqrt_term),
        guarantee_probability=max(0.0, 1.0 - sqrt_term),
        # white-noise weight at which the expected Bell statistic under
        # equal setting weights reaches delta (504/1296 per unit weight)
        max_white_noise=delta / (504.0 / 1296.0),
        params_valid=params.in_certified_regime(),
        map_name=DEFAULT_MAP.name)


def dc_distance(p_szew: np.ndarray, acc_weights: np.ndarray | None = None,
                tol: float = 1e-9) -> dict:
    """Composable distance of a toy output box from the ideal box that is
    uniform on s and independent of (z, e), conditioned on acceptance.

    p_szew[s, z, e, w] = p(s, z, e | w), normalized over (s, z, e) per w;
    acc_weights, if given, carries per-cell acceptance probabilities and the
    table is conditioned on acceptance first.

    Returns dc = sum_{s,e} max_w sum_z |p(s,z,e|w,ACC) - p(z,e|w,ACC)/|S||,
    the per-adversary-input summary d (per-e maximized), and verifies
    dc <= |S| d.
    """
    p = np.asarray(p_szew, dtype=float)
    if p.ndim != 4:
        raise ValueError("expected a 4-axis table p[s, z, e, w]")
    if acc_weights is not None:
        a = np.asarray(acc_weights, dtype=float)
        if a.shape != p.shape or np.any((a < 0) | (a > 1)):
            raise ValueError("acceptance weights must match the table in [0,1]")
        p = p * a
    sums = p.sum(axis=(0, 1, 2))
    if np.any(sums <= 0):
        raise ValueError("a conditioning input has zero acceptance mass")
    if acc_weights is None and np.any(np.abs(sums - 1.0) > tol):
        raise ValueError("table not normalized per adversary input")
    p = p / sums                                  # condition on acceptance
    n_s = p.shape[0]
    marg_ze = p.sum(axis=0)                       # (z, e, w)
    diff = np.abs(p - marg_ze[None, :, :, :] / n_s)
    dc = float(diff.sum(axis=1).max(axis=2).sum())    # sum_s,e max_w sum_z
    inner = diff.sum(axis=0).sum(axis=0)          # (e, w): sum_{s,z}
    d = float(inner.max(axis=1).sum())            # per-e max over w
    return {"dc": dc, "d": d, "s_cardinality": n_s,
            "relation_ok": dc <= n_s * d + 1e-9}


@dataclass
class CampaignStats:
    trials: int
    accept_count: int
    accept_rate: float
    ci_low: float
    ci_high: float
    rows: list[dict]
    verdict_counts: dict[str, int]
    first_run: ProtocolRun          # trial 0, with its cells kept

    def to_csv(self) -> str:
        lines = ["trial,Ln,Sn,verdict"]
        for r in self.rows:
            lines.append(f"{r['trial']},{r['Ln']!r},{r['Sn']!r},{r['verdict']}")
        return "\n".join(lines) + "\n"


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def monte_carlo(device_factory: Callable[[int], Device],
                source_factory: Callable[[int], SVSource],
                params: ProtocolParams, trials: int,
                master_seed: int = 0) -> CampaignStats:
    """Independent runs with derived per-trial seeds.

    Trial t uses device seed derive_seed(master, t, 1) and source seed
    derive_seed(master, t, 2); aggregation is order-independent and the
    whole campaign is a pure function of (specs, params, master seed).
    Trial 0 keeps its transcript (and extracts, when accepted) and is
    returned as `first_run`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rows = []
    verdicts: dict[str, int] = {}
    accept = 0
    for t in range(trials):
        device = device_factory(derive_seed(master_seed, t, 1))
        source = source_factory(derive_seed(master_seed, t, 2))
        run = run_protocol(device, source, params, keep_transcript=t == 0)
        if t == 0:
            first_run = run
        rows.append({"trial": t, "Ln": run.bell_average,
                     "Sn": run.target_frequency, "verdict": run.verdict})
        verdicts[run.verdict] = verdicts.get(run.verdict, 0) + 1
        if run.verdict == "Accept":
            accept += 1
    lo, hi = wilson_interval(accept, trials)
    return CampaignStats(trials=trials, accept_count=accept,
                         accept_rate=accept / trials, ci_low=lo, ci_high=hi,
                         rows=rows, verdict_counts=verdicts,
                         first_run=first_run)


# --- transcript files -----------------------------------------------------


# The record of round i = 1, 2, ... in cell c is b'{"i": %d' % i and the
# tail _RECORD_TAIL[c] (settings 1..9, outcomes 1..4), 34 + d bytes when i
# has d digits.  So the records whose i have d digits are one fixed-width
# block, written and read CHUNK rows at a time as uint8 arrays (`_records`).
# Writer and reader use this table and nothing else.
_RECORD_TAIL = [b', "u": [%d, %d], "x": [%d, %d]}\n' % cell_entry(c)
                for c in range(N_CELLS)]
_RECORD_HEAD = np.frombuffer(b'{"i": ', np.uint8)
_TAILS = np.frombuffer(b"".join(_RECORD_TAIL), np.uint8).reshape(N_CELLS, -1)
# A tail's digits u1, u2, x1, x2 sit at these offsets; their weights give
# the cell ((u1-1) 9 + u2-1) 16 + (x1-1) 4 + x2-1, as `var_index` does.
_TAIL_DIGITS = np.array([8, 11, 21, 24])
_DIGIT_WEIGHTS = np.array([144, 16, 4, 1])
_VERDICTS = ("Accept", "AbortBell", "AbortTomography")


def _record_blocks(n=math.inf):
    """(first i, count, d) of the record blocks of rounds 1..n, in order:
    at most CHUNK records each, whose i all have d digits."""
    first, d = 1, 1
    while first <= n:
        end = min(10 ** d, n + 1)
        for i in range(first, end, CHUNK):
            yield i, min(CHUNK, end - i), d
        first, d = end, d + 1


def _records(first: int, cells: np.ndarray, d: int) -> np.ndarray:
    """The records of rounds first, first + 1, ... in `cells`, whose i all
    have d digits, as the rows of a (len(cells), 34 + d) uint8 array."""
    head = len(_RECORD_HEAD) + d
    rows = np.empty((len(cells), head + _TAILS.shape[1]), np.uint8)
    rows[:, :len(_RECORD_HEAD)] = _RECORD_HEAD
    i = np.arange(first, first + len(cells), dtype=np.int64)
    for j in range(d):      # one column at a time: a (count, d) one is slower
        rows[:, head - 1 - j] = i // 10 ** j % 10 + ord("0")
    rows[:, head:] = _TAILS[cells]
    return rows


def write_transcript(run: ProtocolRun, path, config_hash: str = "",
                     package_version: str = "") -> None:
    """JSON Lines: a header, a record per round (one write per block of
    `_record_blocks`), a summary."""
    if run.cells is None:
        raise ValueError("run has no kept transcript")
    with open(path, "wb") as fh:
        header = {"type": "header", "version": FORMAT_VERSION,
                  "package_version": package_version,
                  "config_hash": config_hash, "params": run.params.to_dict(),
                  "device": run.device_spec, "source": run.source_spec}
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for first, count, d in _record_blocks(len(run.cells)):
            fh.write(_records(first, run.cells[first - 1:first - 1 + count], d))
        summary = {"type": "summary", "Ln": run.bell_average,
                   "Sn": run.target_frequency, "verdict": run.verdict}
        if run.output_bits is not None:
            summary["output_hex"] = extractor_mod.output_hex(run.output_bits)
            summary["extraction"] = run.extraction
        fh.write(json.dumps(summary, sort_keys=True).encode() + b"\n")


def _tagged(path, line_no: int, line: bytes, kind: str, want: str) -> dict:
    """The JSON object on a transcript line if it is UTF-8 and its "type" is
    `kind`."""
    try:    # decoded here: json.loads would guess UTF-16 from b"\xff\xfe"
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as e:   # RecursionError: nesting too deep
        raise ValueError(f"{path}:{line_no}: malformed JSON: {e}") from e
    if not (isinstance(obj, dict) and obj.get("type") == kind):
        raise ValueError(f"{path}:{line_no}: needs {want}")
    return obj


def read_transcript(path) -> tuple[dict, SVSource, ProtocolRun, dict]:
    """Header, source at stream position 0, run recomputed from the cells
    by `replay_transcript`, and stored summary of a transcript file.

    The file is untrusted.  Read in one pass as bytes, with each JSON line
    decoded as UTF-8, it must have the layout `write_transcript` writes:
    the header, the k-th record as b'{"i": k' and a `_RECORD_TAIL` entry
    (its cell), one summary, the end of the file.  The records are read
    block by block (`_record_blocks`); a row is a record if it equals
    `_records` of the cell its tail digits name, and the line that starts
    at the first row that is not is the summary.  Then its format version,
    `parse_header` (the rules a config is read by), n against the record
    count and the summary's Ln, Sn (numbers in [0, 1]) and verdict are
    checked.  Any failure raises ValueError("<path>:<line>: ...").
    """
    kept = []
    with open(path, "rb") as fh:
        header = _tagged(path, 1, fh.readline(), "header", "the header")
        for first, count, d in _record_blocks():
            width = len(_RECORD_HEAD) + d + _TAILS.shape[1]
            at, block = fh.tell(), fh.read(count * width)
            rows = np.frombuffer(block, np.uint8)
            rows = rows[:len(rows) - len(rows) % width].reshape(-1, width)
            tail_digits = rows[:, len(_RECORD_HEAD) + d + _TAIL_DIGITS]
            cells = np.clip(tail_digits.astype(np.int64) @ _DIGIT_WEIGHTS
                            - ord("1") * _DIGIT_WEIGHTS.sum(), 0, N_CELLS - 1)
            good = (rows == _records(first, cells, d)).all(axis=1)
            ok = len(rows) if good.all() else int(good.argmin())
            kept.append(cells[:ok])
            if ok < count:
                break
        fh.seek(at + ok * width)
        line_no, line = first + ok + 1, fh.readline()
        if not line:
            raise ValueError(f"{path}: no summary line")
        summary = _tagged(path, line_no, line, "summary", f"record"
                          f" {line_no - 1} in the written form or the summary")
        if fh.read(1):
            raise ValueError(f"{path}:{line_no + 1}: text after the summary")
    cells = np.concatenate(kept)
    if type(version := header.get("version")) is not int \
            or version != FORMAT_VERSION:   # true and 1.0 are no version
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
    return header, source, replay_transcript(params, cells), summary


def replay_transcript(params: ProtocolParams, cells) -> ProtocolRun:
    """The run whose rounds are `cells` (`var_index` cells in round order,
    an integer array) under `params`, not a stored summary's.  Its device
    and source specs are left empty; a transcript header keeps them."""
    return ProtocolRun(params, {}, {},
                       np.bincount(cells, minlength=N_CELLS).tolist(), cells)
