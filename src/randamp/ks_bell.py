"""The 18-vector contextuality set and the (2,9,4) Bell functional built on it.

Two parties each choose one of 9 projective measurements with 4 outcomes.
The measurements come from a fixed set of 18 rank-one projectors in dimension
4, arranged into 9 orthogonal bases so that every projector appears in
exactly two bases.  The set admits no {0,1} assignment with exactly one 1 per
basis (``ks_coloring_count`` returns 0), which is what makes the derived Bell
expression algebraically violable.

The Bell functional is an indicator sum: a term for every pair of outcomes
whose projectors are *distinct and orthogonal*.  Two readings of "connected
in the orthogonality hypergraph" exist: connecting outcomes whose vectors are
orthogonal gives 504 terms (63 orthogonal vector pairs, each vector sitting
in 2 bases, counted in both orders: 63 * 2 * 4 = 504); connecting only
outcomes that share a printed basis gives 432.  This package implements the
504-term reading, which is the one consistent with a classical minimum of 4;
the 432 count is exposed in the docs and tests for reference.

Indexing convention used across the whole package: settings are 1..9 in
printed basis order, outcomes 1..4 in printed slot order.  A cell is one
(setting pair, outcome pair); `var_index` numbers the 1296 cells, and
`cell_entry` inverts it.  Every cell set (the functional's Bell and target
cells, LP columns, a certificate's target, run histograms) holds these
numbers.  Orthogonality has one array form, the 18 x 18 integer matrix
`KSModel.gram` = V V^T: the coloring scan reads it, and `gram_table`
gathers it at every cell for the functional and the ideal box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

# The 18 vectors, unnormalized, exactly as printed (1-indexed externally).
KS_VECTORS = (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1),
    (1, -1, 0, 0), (1, 1, -1, -1), (1, 1, 1, 1), (1, -1, 1, -1),
    (1, 0, -1, 0), (0, 1, 0, -1), (1, 0, 1, 0), (1, 1, -1, 1),
    (-1, 1, 1, 1), (1, 1, 1, -1), (1, 0, 0, 1), (0, 1, -1, 0),
    (0, 1, 1, 0), (0, 0, 0, 1),
)

# The 9 bases as ordered 4-tuples of vector indices (1-indexed).
KS_BASES = (
    (1, 2, 3, 4), (4, 5, 6, 7), (7, 8, 9, 10),
    (10, 11, 12, 13), (13, 14, 15, 16), (16, 17, 18, 1),
    (2, 9, 11, 18), (3, 5, 12, 14), (6, 8, 15, 17),
)

# Tomography target: outcome pair (1,3) for setting pair (1,2).  The two
# projectors involved are not orthogonal, so the pair is outside the Bell
# indicator set and its ideal-box probability is 1/16 rather than 0.
TARGET_OUTCOMES = (1, 3)
TARGET_SETTINGS = (1, 2)

# The fixed shape: 9 settings with 4 outcomes each, per party.
N_SETTINGS = 9
N_OUTCOMES = 4
N_CELLS = N_SETTINGS ** 2 * N_OUTCOMES ** 2


def pair_index(u1: int, u2: int) -> int:
    """Canonical index 0..80 of setting pair (u1, u2): the cells of its 16
    outcome pairs are var_index(u1, u2, ...) = 16 pair_index(u1, u2) + 0..15."""
    return (u1 - 1) * 9 + (u2 - 1)


def is_setting_pair(u) -> bool:
    """Whether u is a tuple or list of two ints (bools excluded) in 1..9."""
    return (isinstance(u, (tuple, list)) and len(u) == 2
            and all(type(v) is int and 1 <= v <= N_SETTINGS for v in u))


def var_index(u1: int, u2: int, x1: int, x2: int) -> int:
    """Canonical cell of table entry (x1,x2|u1,u2), all arguments 1..n: its
    setting pair is cell // 16 = pair_index(u1, u2), its outcome cell % 16."""
    return 16 * pair_index(u1, u2) + 4 * (x1 - 1) + (x2 - 1)


def cell_entry(cell: int) -> tuple[int, int, int, int]:
    """(u1, u2, x1, x2) of a cell, all 1..n: the inverse of `var_index`."""
    pair, code = divmod(cell, 16)
    return (pair // 9 + 1, pair % 9 + 1, code // 4 + 1, code % 4 + 1)


@dataclass(frozen=True)
class KSModel:
    """A vector set with its basis structure.

    vectors: integer coordinate tuples, 1-indexed externally.
    bases: ordered tuples of vector indices, settings 1-indexed.

    `gram` (V V^T) is the one orthogonality relation: the cell Gram table
    and the coloring scan read it as an array, and the tests check the
    model's invariants on it and compare it with coordinate sums.
    """

    vectors: tuple[tuple[int, ...], ...]
    bases: tuple[tuple[int, ...], ...]

    @cached_property
    def gram(self) -> np.ndarray:
        """V V^T: entry [i-1, j-1] is <v_i|v_j>, read-only int64 (n, n)."""
        v = np.array(self.vectors, dtype=np.int64)
        g = v @ v.T
        g.flags.writeable = False
        return g

    def to_json(self) -> str:
        return json.dumps(
            {"vectors": [list(v) for v in self.vectors],
             "bases": [list(b) for b in self.bases]},
            sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class BellFunctional:
    """Indicator functional over the 1296 cells.

    bell_cells: the sorted cells carrying indicator value 1.
    target_cell: the single cell counted by the tomographic test; never a
        Bell cell.
    """

    bell_cells: tuple[int, ...]
    target_cell: int

    def indicator_array(self) -> np.ndarray:
        """Dense indicator, shape (9,9,4,4) indexed [u1-1,u2-1,x1-1,x2-1]."""
        arr = np.zeros(N_CELLS, dtype=np.int16)
        arr[list(self.bell_cells)] = 1
        return arr.reshape(N_SETTINGS, N_SETTINGS, N_OUTCOMES, N_OUTCOMES)

    def to_json(self) -> str:
        u1, u2, x1, x2 = cell_entry(self.target_cell)
        return json.dumps(
            {"sb": sorted([x1, x2, u1, u2] for u1, u2, x1, x2
                          in map(cell_entry, self.bell_cells)),
             "d_target": [x1, x2, u1, u2],
             "num_settings": N_SETTINGS ** 2,
             "num_outcomes_per_setting": N_OUTCOMES ** 2},
            sort_keys=True, separators=(",", ":"))


def build_ks_model(vectors: Iterable[tuple[int, ...]] = KS_VECTORS,
                   bases: Iterable[tuple[int, ...]] = KS_BASES) -> KSModel:
    """Construct a model from vectors and basis index tuples.

    Deterministic and pure; the default arguments give the fixed 18-vector,
    9-basis set.  Toy models for tests pass smaller sets.
    """
    return KSModel(vectors=tuple(tuple(v) for v in vectors),
                   bases=tuple(tuple(b) for b in bases))


def gram_table(model: KSModel) -> np.ndarray:
    """<v_a|v_b> at every cell, shape (9,9,4,4) indexed [u1-1,u2-1,x1-1,x2-1]
    (so flat entry c is cell c), where v_a is the vector at slot x1 of basis
    u1 and v_b the one at slot x2 of basis u2: `model.gram` gathered at the
    cells' vector ids."""
    ids = np.array(model.bases) - 1
    return model.gram[ids[:, None, :, None], ids[None, :, None, :]]


def build_bell_functional(model: KSModel) -> BellFunctional:
    """Indicator set over all setting pairs: distinct orthogonal vector pairs.

    A cell is a Bell cell exactly when the vector at slot x1 of basis u1
    differs from the vector at slot x2 of basis u2 and the two are
    orthogonal.  For the fixed model this yields 504 cells.
    """
    ids = np.array(model.bases)
    same = ids[:, None, :, None] == ids[None, :, None, :]
    cells = np.flatnonzero((gram_table(model) == 0) & ~same)
    return BellFunctional(bell_cells=tuple(cells.tolist()),
                          target_cell=var_index(*TARGET_SETTINGS,
                                                *TARGET_OUTCOMES))


# Alice's settings 1..4 are the high digits of her assignment, 5..9 the low.
_HI_SETTINGS = 4
# High assignments scored per numpy step of `classical_minimum`.
_HI_BLOCK = 16


def _partial_costs(CT: np.ndarray, settings: range) -> np.ndarray:
    """The cost at each (u2, x2) of Alice's outcomes at `settings`, for
    each of her assignments to them in lexicographic order: shape
    (s, o, o^len(settings)), indexed [u2-1, x2-1, assignment]."""
    o = CT.shape[1]
    digits = np.indices((o,) * len(settings)).reshape(len(settings), -1)
    return np.ascontiguousarray(CT[:, :, np.array(settings)[:, None] * o
                                   + digits].sum(axis=2, dtype=np.int16))


def classical_minimum(f: BellFunctional
                      ) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact minimum over local deterministic strategies, with a witness.

    Enumerates all outcome assignments for the first party (4^9 of them, in
    lexicographic order with setting 1 most significant) and computes the
    second party's best response setting by setting; this is exhaustive
    because the functional splits across the second party's settings once
    the first party's assignment is fixed.  The scan splits the first
    party's settings 4 + 5: the cost at each (u2, x2) of each of the 256
    assignments to settings 1-4 (`hi`) and of each of the 1024 to settings
    5-9 (`lo`) is tabulated once, and assignment hi * 1024 + lo costs the
    sum over u2 of the minimum over x2 of the two.  Ties are broken to the
    lexicographically smallest witness.
    """
    s, o = N_SETTINGS, N_OUTCOMES
    C = f.indicator_array()                      # (s, s, o, o) as [u1,u2,x1,x2]
    # Rearranged so that gathering on Alice's outcome is a flat index:
    # CT[u2, x2, u1*o + x1]
    CT = np.transpose(C, (1, 3, 0, 2)).reshape(s, o, s * o)
    hi = _partial_costs(CT, range(_HI_SETTINGS))          # (s, o, 256)
    lo = _partial_costs(CT, range(_HI_SETTINGS, s))       # (s, o, 1024)
    best_val = None
    best_alice_idx = None
    for start in range(0, hi.shape[2], _HI_BLOCK):
        block = hi[:, :, start:start + _HI_BLOCK, None]
        cost = sum((block[u2] + lo[u2, :, None]).min(axis=0)    # (rows, 1024)
                   for u2 in range(s))
        loc = int(cost.argmin())                 # row-major: lexicographic
        if best_val is None or cost.flat[loc] < best_val:
            best_val = int(cost.flat[loc])
            best_alice_idx = start * lo.shape[2] + loc
    alice = tuple(int(best_alice_idx // (o ** (s - 1 - i))) % o + 1 for i in range(s))
    # Bob best response for the winning assignment, smallest outcome on ties.
    per_u2 = CT[:, :, np.arange(s) * o + np.subtract(alice, 1)].sum(axis=2)
    bob = tuple((per_u2.argmin(axis=1) + 1).tolist())
    return best_val, (alice, bob)


# Subsets of the vector set scanned per numpy step of `ks_coloring_count`.
_MASK_BLOCK = 1 << 18


def ks_coloring_count(model: KSModel) -> int:
    """Count {0,1} assignments with exactly one 1 per basis and no two
    orthogonal vectors both set.

    Exhaustive scan over all 2^n subsets of the vector set (n <= 24
    guarded), as bit masks _MASK_BLOCK at a time: each basis keeps the
    masks that hold exactly one of its vectors, then each vector drops the
    masks that hold it together with a vector orthogonal to it (itself
    excluded).  For the fixed 18-vector model the count is 0.
    """
    n = len(model.vectors)
    if n > 24:
        raise ValueError(f"exhaustive scan limited to 24 vectors, got {n}")
    bit = np.uint32(1) << np.arange(n, dtype=np.uint32)
    basis_masks = [bit[np.array(b) - 1].sum(dtype=np.uint32) for b in model.bases]
    orth = (model.gram == 0) & ~np.eye(n, dtype=bool)
    orth_masks = (orth * bit).sum(axis=1, dtype=np.uint32)
    count = 0
    for start in range(0, 1 << n, _MASK_BLOCK):
        masks = np.arange(start, min(start + _MASK_BLOCK, 1 << n), dtype=np.uint32)
        for bm in basis_masks:
            masks = masks[np.bitwise_count(masks & bm) == 1]
        for b, om in zip(bit, orth_masks):
            masks = masks[((masks & b) == 0) | ((masks & om) == 0)]
        count += masks.size
    return count
