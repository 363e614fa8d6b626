"""Two-source extraction and min-entropy accounting for accepted runs.

The extractor is the classical inner-product construction: output bit j is
the parity of x AND (t cyclically left-shifted by j).  It is deterministic,
bilinear in both arguments, and balanced over a uniform t for any fixed
nonzero x.  It packs each bit list into one integer, with one bit order:
position i of a bit list is bit i of its integer, so shifting the list left
by j is a right rotation of the integer.
Its guarantee needs two *independent* sources whose min-entropy
rates satisfy  rate(x) + rate(t) > 1 + (2 log2(1/xi) + m) / L  for output
error xi; the validity of that condition is recorded in every extraction
report rather than silently assumed.  In the honest demonstration the
device-side source restricted to target-setting rounds has rate about 1/2
(the ideal box puts at most 1/4 on any outcome pair at the target setting),
which meets the condition comfortably; under the worst-case adversarial
accounting the certified rate is far too small for any desk-scale run, and
the report says so.

The default restriction rule feeds only rounds whose setting pair equals the
tomography target, 4 bits per round (2 bits per party, outcome-1 encoded MSB
first), preserving round order.  This choice resolves the mismatch between
the device output length (4n bits) and the n fresh source bits; it is
flagged in every report.

Also here: the exact accounting rule for sequences.  If a set K of rounds
each carry conditional outcome probability at most gamma (no matter the
history), the probability of any full outcome sequence is at most
gamma^|K|.  Verifiers check this exactly on explicit product devices and on
history-chained devices by exhaustive tree evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import log2

import numpy as np
from scipy.stats import chi2 as _chi2

from .ks_bell import TARGET_SETTINGS


@dataclass(frozen=True)
class ExtractorConfig:
    """Inner-product extractor configuration.

    m: output bits; L: common block length both inputs are truncated or
    zero-padded to; rule: which transcript bits feed the x side; xi: target
    output error used in the validity condition.
    """

    m: int = 32
    L: int = 256
    rule: str = "target_rounds"          # or "all_rounds"
    xi: float = 2.0 ** -32

    def __post_init__(self):
        if self.m < 1 or self.L < 1 or self.m > self.L:
            raise ValueError("need 1 <= m <= L")
        if self.rule not in ("target_rounds", "all_rounds"):
            raise ValueError(f"unknown restriction rule {self.rule!r}")


def _pack(bits, L: int) -> int:
    """The first L bits of a bit sequence as an integer (zero-padded)."""
    return sum(int(b) << i for i, b in enumerate(islice(bits, L)))


def _inner_products(x: int, t: int, L: int, m: int) -> list[int]:
    """The m output bits of packed L-bit inputs: bit j is the parity of x
    AND t rotated right by j (the bit list t rotated left by j).  The
    wrapped part t << (L - j) meets x only when L - j < x.bit_length(), so
    it is built only then and the cost does not grow with L."""
    reach = x.bit_length()
    return [(x & (t >> j | (t << (L - j) if L - j < reach else 0))
             ).bit_count() & 1 for j in range(m)]


def extract(x_bits, t_bits, cfg: ExtractorConfig) -> list[int]:
    """Inner-product extraction: bit j = <x, rotl(t, j)> mod 2, j < m.

    Both inputs are truncated or zero-padded to cfg.L bits."""
    return _inner_products(_pack(x_bits, cfg.L), _pack(t_bits, cfg.L),
                           cfg.L, cfg.m)


def output_hex(bits) -> str:
    """Hex form of an output bit list, first bit most significant."""
    return f"{int(''.join(map(str, bits)), 2):0{(len(bits) + 3) // 4}x}"


def encode_outcome_bits(x1: int, x2: int) -> list[int]:
    """4-bit encoding of an outcome pair: (x1-1) then (x2-1), MSB first."""
    a, b = x1 - 1, x2 - 1
    return [(a >> 1) & 1, a & 1, (b >> 1) & 1, b & 1]


def transcript_to_source(run, rule: str = "target_rounds") -> list[int]:
    """Bit string for the extractor's device side, from an accepted run.

    target_rounds: concatenated 4-bit outcome encodings of rounds whose
    setting pair equals the tomography target, in round order.  An accepted
    run always has such rounds (the tomography count is positive), so an
    empty selection is an error.  all_rounds: every round, 4n bits.
    """
    if run.verdict != "Accept":
        raise ValueError("extraction requires an accepted run")
    bits: list[int] = []
    for (u1, u2, x1, x2) in run.records:
        if rule == "all_rounds" or (u1, u2) == TARGET_SETTINGS:
            bits.extend(encode_outcome_bits(x1, x2))
    if not bits:
        raise ValueError("no rounds selected for extraction")
    return bits


def extraction_report(x_len: int, t_len: int, cfg: ExtractorConfig,
                      honest_rate_x: float, rate_t: float,
                      certified_rate_x: float) -> dict:
    """Record the rate condition rate_x + rate_t > 1 + (2 log2(1/xi) + m)/L
    under honest accounting and under certified worst-case accounting.
    """
    need = 1.0 + (2.0 * log2(1.0 / cfg.xi) + cfg.m) / cfg.L
    return {
        "m": cfg.m, "L": cfg.L, "rule": cfg.rule, "xi": cfg.xi,
        "x_bits_available": x_len, "t_bits_available": t_len,
        "rate_required_sum": need,
        "honest_rate_x": honest_rate_x, "rate_t": rate_t,
        "honest_condition_met": honest_rate_x + rate_t > need,
        "certified_rate_x": certified_rate_x,
        "certified_condition_met": certified_rate_x + rate_t > need,
    }


def uniformity_test(outputs, m: int) -> dict:
    """Per-bit bias and a joint chi-square over all 2^m cells (m <= 8).

    outputs: iterable of m-bit outputs, each an int in [0, 2^m) or a bit
    sequence.  Requires at least 1000 samples.
    """
    if m > 8:
        raise ValueError("joint test limited to m <= 8")
    vals = []
    for o in outputs:
        if isinstance(o, (int, np.integer)):
            vals.append(int(o))
        else:
            v = 0
            for b in o:
                v = (v << 1) | int(b)
            vals.append(v)
    n = len(vals)
    if n < 1000:
        raise ValueError(f"need >= 1000 samples, got {n}")
    arr = np.asarray(vals, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= (1 << m):
        raise ValueError("output out of range for m bits")
    biases = []
    for j in range(m):
        bit = (arr >> (m - 1 - j)) & 1      # bit 0 of the report = first output bit
        biases.append(float(bit.mean() - 0.5))
    counts = np.bincount(arr, minlength=1 << m)
    expected = n / float(1 << m)
    stat = float(((counts - expected) ** 2 / expected).sum())
    pval = float(_chi2.sf(stat, df=(1 << m) - 1))
    return {"n": n, "m": m, "bias_per_bit": biases,
            "chi2_stat": stat, "chi2_pvalue": pval}


# --- exact sequence-probability accounting --------------------------------


def sequence_probability_bound(num_constrained: int, gamma) -> Fraction:
    """gamma^k: ceiling on any full-sequence probability when k rounds have
    conditional max at most gamma."""
    if not 0 < Fraction(gamma) < 1:
        if Fraction(gamma) == 1 or num_constrained == 0:
            return Fraction(1)
        raise ValueError("gamma must be in (0, 1]")
    return Fraction(gamma) ** num_constrained


def _round_distribution(gamma: Fraction, alphabet: int, top: int) -> list[Fraction]:
    """Distribution with max entry exactly gamma, the rest spread evenly."""
    rest = (1 - gamma) / (alphabet - 1)
    if rest > gamma:
        raise ValueError("gamma too small for this alphabet")
    return [gamma if a == top else rest for a in range(alphabet)]


def max_sequence_probability_product(n: int, positions, gamma,
                                     alphabet: int = 4) -> Fraction:
    """Exact max over outcome sequences for a product (memoryless) device
    with per-round max gamma at `positions` and a deterministic round
    elsewhere.  Equals gamma^|positions| exactly."""
    g = Fraction(gamma)
    pos = set(positions)
    result = Fraction(1)
    for i in range(n):
        dist = _round_distribution(g, alphabet, top=0) if i in pos \
            else [Fraction(1 if a == 0 else 0) for a in range(alphabet)]
        result *= max(dist)
    expected = sequence_probability_bound(len(pos), g)
    assert result == expected
    return result


def max_sequence_probability_chained(n: int, positions, gamma,
                                     alphabet: int = 4) -> Fraction:
    """Exact max over outcome sequences for a history-dependent device.

    At constrained rounds the heavy outcome rotates with the previous
    outcome (conditional max still exactly gamma); elsewhere the round is
    deterministic given history.  Evaluated by exhaustive tree walk over all
    alphabet^n sequences; the caller compares against gamma^|positions|.
    """
    if n > 8:
        raise ValueError("exhaustive walk limited to n <= 8")
    g = Fraction(gamma)
    pos = set(positions)

    def walk(i: int, prev: int, acc: Fraction) -> Fraction:
        if i == n:
            return acc
        if i in pos:
            dist = _round_distribution(g, alphabet, top=prev % alphabet)
        else:
            dist = [Fraction(1 if a == (prev + 1) % alphabet else 0)
                    for a in range(alphabet)]
        best = Fraction(0)
        for a in range(alphabet):
            if dist[a] == 0:
                continue
            best = max(best, walk(i + 1, a, acc * dist[a]))
        return best

    return walk(0, 0, Fraction(1))
