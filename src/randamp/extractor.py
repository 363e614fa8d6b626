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

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isfinite, log2

import numpy as np

from .ks_bell import TARGET_SETTINGS, pair_index


@dataclass(frozen=True)
class ExtractorConfig:
    """Inner-product extractor configuration.

    m: output bits; L: common block length both inputs are truncated or
    zero-padded to, at most sys.maxsize (the longest slice of a bit list);
    rule: which transcript bits feed the x side; xi: target output error
    used in the validity condition, finite and > 0.
    """

    m: int = 32
    L: int = 256
    rule: str = "target_rounds"          # or "all_rounds"
    xi: float = 2.0 ** -32

    def __post_init__(self):
        if self.m < 1 or self.L < 1 or self.m > self.L:
            raise ValueError("need 1 <= m <= L")
        if self.L > sys.maxsize:
            raise ValueError(f"L must be at most {sys.maxsize}, got {self.L}")
        if self.rule not in ("target_rounds", "all_rounds"):
            raise ValueError(f"unknown restriction rule {self.rule!r}")
        if not (isfinite(self.xi) and self.xi > 0):
            raise ValueError(f"xi must be finite and > 0, got {self.xi!r}")


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


def selected_rounds(run, rule: str = "target_rounds") -> int:
    """The count of rounds `transcript_to_source` selects under `rule`,
    read off the run's histogram: the rounds whose setting pair is the
    tomography target, or all n."""
    if rule == "all_rounds":
        return run.n
    first = 16 * pair_index(*TARGET_SETTINGS)
    return sum(run.hist[first:first + 16])


def transcript_to_source(run, rule: str = "target_rounds",
                         rounds: int | None = None) -> list[int]:
    """Bit string for the extractor's device side, from an accepted run:
    4 bits for each of the first `rounds` selected rounds (all of them
    when None), in round order.

    target_rounds: the 4 bits, MSB first, of the outcome code cell % 16 =
    4 (x1-1) + (x2-1) of each round whose setting pair cell // 16 is the
    tomography target.  An accepted run always has such rounds (the
    tomography count is positive), so an empty selection is an error.
    all_rounds: every round, 4n bits.  Only a prefix of the cells long
    enough to hold the rounds asked for is scanned.
    """
    if run.verdict != "Accept":
        raise ValueError("extraction requires an accepted run")
    if not selected_rounds(run, rule):
        raise ValueError("no rounds selected for extraction")
    picked = run.cells[:rounds]
    if rule != "all_rounds":
        pair = pair_index(*TARGET_SETTINGS)
        # under uniform settings one round in 64 has the target pair
        span = len(run.cells) if rounds is None else 128 * rounds
        while True:
            head = run.cells[:span]
            picked = head[head >> 4 == pair][:rounds]
            if len(picked) == rounds or span >= len(run.cells):
                break
            span *= 4
    return ((picked[:, None] % 16 >> np.arange(3, -1, -1)) & 1
            ).ravel().tolist()


def extraction_report(x_len: int, t_len: int, cfg: ExtractorConfig,
                      honest_rate_x: float, rate_t: float,
                      certified_rate_x: float) -> dict:
    """Record the rate condition rate_x + rate_t > 1 + (2 log2(1/xi) + m)/L
    under honest accounting and under certified worst-case accounting.
    """
    need = 1.0 + (-2.0 * log2(cfg.xi) + cfg.m) / cfg.L
    return {
        "m": cfg.m, "L": cfg.L, "rule": cfg.rule, "xi": cfg.xi,
        "x_bits_available": x_len, "t_bits_available": t_len,
        "rate_required_sum": need,
        "honest_rate_x": honest_rate_x, "rate_t": rate_t,
        "honest_condition_met": honest_rate_x + rate_t > need,
        "certified_rate_x": certified_rate_x,
        "certified_condition_met": certified_rate_x + rate_t > need,
    }


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
    elsewhere.  Equals gamma^|positions| exactly, which is checked
    (ArithmeticError if not)."""
    g = Fraction(gamma)
    pos = set(positions)
    result = Fraction(1)
    for i in range(n):
        dist = _round_distribution(g, alphabet, top=0) if i in pos \
            else [Fraction(1 if a == 0 else 0) for a in range(alphabet)]
        result *= max(dist)
    expected = sequence_probability_bound(len(pos), g)
    if result != expected:
        raise ArithmeticError(f"product maximum {result} is not gamma^k"
                              f" = {expected}")
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
