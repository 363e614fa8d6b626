"""Checks of the product objects that no command runs: the Bell sum of a
table, a behavior's normalization and signaling residuals, the local
deterministic boxes, and a source's exact conditional law.

Tables are (9, 9, 4, 4) arrays indexed [u1-1, u2-1, x1-1, x2-1], so flat
entry c is cell c (`ks_bell.var_index`); an object table of Fractions sums
exactly.
"""

import numpy as np

from randamp.boxes import Behavior
from randamp.sv_source import BITS_PER_ROUND


def bell_sum(values, f, weights=None):
    """The sum of `values` at the Bell cells of f, each weighted by
    weights[u1-1, u2-1] of its setting pair when given: on `Behavior.exact`
    the exact indicator mass, on a float table with weights nu the Bell
    value under setting measure nu."""
    cells = np.array(f.bell_cells)
    terms = np.asarray(values).ravel()[cells]
    if weights is not None:
        terms = terms * np.asarray(weights).ravel()[cells // 16]
    return terms.sum()


def residuals(table):
    """(normalization, signaling): the largest |sum_x P(x|u) - 1| over the
    setting pairs, and the largest spread of either party's marginal over
    the other party's setting."""
    alice, bob = table.sum(axis=3), table.sum(axis=2)   # (u1, u2, x)
    signaling = max((alice.max(axis=1) - alice.min(axis=1)).max(),
                    (bob.max(axis=0) - bob.min(axis=0)).max())
    return float(np.abs(table.sum(axis=(2, 3)) - 1).max()), float(signaling)


def deterministic_behavior(alice, bob):
    """Local deterministic box: outcome (alice[u1-1], bob[u2-1]) w.p. 1."""
    table = np.zeros((9, 9, 4, 4))
    u, x1, x2 = np.arange(9), np.subtract(alice, 1), np.subtract(bob, 1)
    table[u[:, None], u, x1[:, None], x2] = 1.0
    return Behavior(table=table, meta={"kind": "deterministic"})


def exact_p0(source, history):
    """The exact P(0) of `source`'s bit after the bit list `history`: the
    entry of `source.strategy.rows` at the history's block row and at the
    node its last, partial block has reached (node 1 the root, bit b moving
    to 2*node + b)."""
    depth = len(history) % BITS_PER_ROUND
    node = 1
    for b in history[len(history) - depth:]:
        node = 2 * node + b
    rows = source.strategy.rows
    return rows[len(history) // BITS_PER_ROUND % len(rows)][node]
