import numpy as np
import pytest

from randamp import ks_bell
from randamp.ks_bell import (N_CELLS, N_OUTCOMES, N_SETTINGS, BellFunctional,
                             build_bell_functional,
                             build_ks_model, cell_entry, check_model,
                             classical_minimum, evaluate_deterministic,
                             gram_table, is_setting_pair, ks_coloring_count,
                             var_index)


@pytest.fixture(scope="module")
def model():
    return build_ks_model()


@pytest.fixture(scope="module")
def functional(model):
    return build_bell_functional(model)


def test_model_invariants(model):
    check_model(model)
    assert len(model.vectors) == 18
    assert len(model.bases) == 9


def test_is_setting_pair():
    """A tuple or list of two ints in 1..9; a bool, a float or a numpy int
    is not an int here."""
    for u in ((1, 1), [9, 9], (1, 2), [5, 3]):
        assert is_setting_pair(u)
    for u in ((0, 12), (10, 10), (1, 0), (True, 1), (1.0, 2), (np.int64(1), 2),
              (1,), (1, 2, 3), [], 5, "12", None):
        assert not is_setting_pair(u)


def test_first_basis_and_incidence(model):
    assert model.bases[0] == (1, 2, 3, 4)
    # vector 4 sits in bases 1 and 2
    assert tuple(b for b, _ in model.incidence[4]) == (1, 2)
    total_memberships = sum(len(v) for v in model.incidence.values())
    assert total_memberships == 36


def test_orthogonality_graph(model):
    edges = model.orthogonality_edges()
    assert len(edges) == 63
    deg = {i: 0 for i in range(1, 19)}
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    assert set(deg.values()) == {7}


def test_functional_counts(model, functional):
    assert len(functional.bell_cells) == 504
    assert functional.bell_cells == tuple(sorted(set(functional.bell_cells)))
    assert cell_entry(functional.target_cell) == (1, 2, 1, 3)
    assert functional.target_cell not in functional.bell_cells
    # co-basis-only reading would give 432; kept as a documented reference
    cobasis = sum(1 for u1, u2, x1, x2 in map(cell_entry, functional.bell_cells)
                  if any(model.vector_at(u1, x1) in b and model.vector_at(u2, x2) in b
                         for b in model.bases))
    assert cobasis == 432


def test_sb_members_are_orthogonal_distinct(model, functional):
    members = set(functional.bell_cells)
    for c in range(N_CELLS):
        u1, u2, x1, x2 = cell_entry(c)
        a, b = model.vector_at(u1, x1), model.vector_at(u2, x2)
        assert (c in members) == (a != b and model.orthogonal(a, b))


def test_sb_examples(functional):
    assert var_index(1, 1, 1, 2) in functional.bell_cells  # v1 orth v2, same basis
    assert var_index(1, 1, 1, 1) not in functional.bell_cells  # identical vector


def test_cell_entry_inverts_var_index():
    assert [var_index(*cell_entry(c)) for c in range(N_CELLS)] == \
        list(range(N_CELLS))
    assert cell_entry(var_index(9, 1, 2, 4)) == (9, 1, 2, 4)


def test_gram_table_is_every_inner_product(model):
    g = gram_table(model)
    assert g.shape == (9, 9, 4, 4)
    for c in range(N_CELLS):
        u1, u2, x1, x2 = cell_entry(c)
        assert g.flat[c] == model.inner(model.vector_at(u1, x1),
                                        model.vector_at(u2, x2))


def test_indicator_array_matches_set(functional):
    arr = functional.indicator_array()
    assert arr.sum() == 504
    assert arr[0, 1, 0, 2] == 0                     # the tomography target


def test_classical_minimum_is_four(functional):
    value, (alice, bob) = classical_minimum(functional)
    assert value == 4
    assert evaluate_deterministic(functional, alice, bob) == 4
    cells = set(functional.bell_cells)
    assert sum(var_index(u1, u2, alice[u1 - 1], bob[u2 - 1]) in cells
               for u1 in range(1, 10) for u2 in range(1, 10)) == 4


def test_classical_minimum_empty_and_full(functional):
    empty = BellFunctional(bell_cells=(), target_cell=functional.target_cell)
    assert classical_minimum(empty)[0] == 0
    full = BellFunctional(bell_cells=tuple(range(N_CELLS)),
                          target_cell=functional.target_cell)
    assert classical_minimum(full)[0] == 81
    assert evaluate_deterministic(full, (1,) * 9, (4,) * 9) == 81


def test_classical_minimum_witness_is_lex_smallest(functional):
    _, (alice, bob) = classical_minimum(functional)
    # determinism: a second run returns the identical witness
    assert classical_minimum(functional)[1] == (alice, bob)


def test_coloring_count_zero(model):
    assert ks_coloring_count(model) == 0


def test_coloring_toy_single_basis():
    toy = build_ks_model(
        vectors=[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        bases=[(1, 2, 3, 4)])
    assert ks_coloring_count(toy) == 4


def test_coloring_toy_two_disjoint_bases():
    # second basis not orthogonal to the first across bases
    toy = build_ks_model(
        vectors=[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                 (1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)],
        bases=[(1, 2, 3, 4), (5, 6, 7, 8)])
    assert ks_coloring_count(toy) == 16


def test_build_is_deterministic(model, functional):
    m2 = build_ks_model()
    f2 = build_bell_functional(m2)
    assert m2.to_json() == model.to_json()
    assert f2.to_json() == functional.to_json()


def test_canonical_serialization_frozen(model, functional):
    import hashlib
    assert hashlib.sha256(model.to_json().encode()).hexdigest() == \
        "ffde353887bf057e7bb74e8799d88864b31e158a82257806909bb2ded1909938"
    assert hashlib.sha256(functional.to_json().encode()).hexdigest() == \
        "7336817faf8df4258ee6c8b919754058a034b8f554d5e41199c9e318fd6459ca"


# Alice assignments scored per numpy step of the reference scan.
_SCAN_BLOCK = 1 << 13


def _reference_minimum(f):
    """The full scan: every Alice assignment's cost from all 9 settings at
    once, 2^13 assignments a step.  Returns (value, witness, the number of
    assignments that attain the value)."""
    s, o = N_SETTINGS, N_OUTCOMES
    C = f.indicator_array()
    CC = np.transpose(C, (0, 2, 1, 3)).reshape(s * o, s, o).astype(np.int32)
    n_assign = o ** s
    pow_ms = o ** np.arange(s - 1, -1, -1)       # alice[0] most significant
    best_val = best_alice_idx = None
    ties = 0
    for start in range(0, n_assign, _SCAN_BLOCK):
        idx = np.arange(start, min(start + _SCAN_BLOCK, n_assign))
        A = (idx[:, None] // pow_ms[None, :]) % o
        flat = np.arange(s)[None, :] * o + A
        cost = CC[flat].sum(axis=1).min(axis=2).sum(axis=1)
        loc = int(cost.argmin())
        if best_val is None or cost[loc] < best_val:
            best_val, best_alice_idx, ties = int(cost[loc]), start + loc, 0
        ties += int((cost == best_val).sum())
    alice = tuple(int(best_alice_idx // (o ** (s - 1 - i))) % o + 1
                  for i in range(s))
    per_u2 = CC[np.arange(s) * o + np.subtract(alice, 1)].sum(axis=0)
    bob = tuple((per_u2.argmin(axis=1) + 1).tolist())
    return best_val, (alice, bob), ties


def _random_functional(seed):
    rng = np.random.default_rng(seed)
    density = rng.choice([0.01, 0.05, 0.2, 0.5, 0.9])
    cells = np.flatnonzero(rng.random(N_CELLS) < density)
    return BellFunctional(bell_cells=tuple(cells.tolist()), target_cell=0)


def test_split_scan_matches_the_full_scan(functional):
    value, witness, _ = _reference_minimum(functional)
    assert classical_minimum(functional) == (value, witness)
    tied = 0
    for seed in range(20):
        f = _random_functional(seed)
        value, witness, ties = _reference_minimum(f)
        assert classical_minimum(f) == (value, witness), seed
        tied += ties > 1
    assert tied >= 15         # the lexicographic tie-break decides most


def test_split_scan_takes_the_first_of_tied_blocks():
    # cells at Alice's settings 5-9 only: every hi row ties with the first
    cells = [c for c in range(N_CELLS) if cell_entry(c)[0] >= 5
             and cell_entry(c)[2] != 3]
    f = BellFunctional(bell_cells=tuple(cells), target_cell=0)
    value, witness, ties = _reference_minimum(f)
    assert ties >= 256
    assert classical_minimum(f) == (value, witness)
    assert witness[0][:4] == (1, 1, 1, 1)


def test_classical_minimum_chunk_independent(functional, monkeypatch):
    base = classical_minimum(functional)
    for rows in (1, 16, 256):
        monkeypatch.setattr(ks_bell, "_HI_BLOCK", rows)
        assert classical_minimum(functional) == base
