import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import equalities, exact_table, highs_min_vertex
from randamp.boxes import ideal_quantum_box, uniform_box
from randamp.ks_bell import cell_entry
from randamp import ns_certify
from randamp.ns_certify import (CertificationError, DualCertificate, _bound,
                                _nonzeros, _verify_primal, build_lp,
                                load_highs, solve_lp, var_index,
                                verify_certificate, zero_target_box)

TARGET = var_index(1, 2, 1, 3)


@pytest.fixture(scope="module")
def lp_zero(functional):
    return build_lp(functional, 0)


@pytest.fixture(scope="module")
def sol_zero(lp_zero):
    return solve_lp(lp_zero)


def test_problem_shape(lp_zero):
    eq = equalities()
    assert eq.shape == (81 + 288 + 288, 1296)
    assert set(np.unique(eq).tolist()) == {-1, 0, 1}
    assert len(lp_zero.cap_cols) == 504
    assert lp_zero.target_col == TARGET
    assert [f.name for f in dataclasses.fields(lp_zero)] == \
        ["cap_cols", "delta_tilde", "target_col"]


def test_equality_table_pinned(lp_zero):
    """The reference table's bytes, and its rhs as the bound reads it: 1
    on exactly the 81 normalization rows that lead it."""
    eq = equalities()
    assert eq.dtype == np.int8 and eq.flags.c_contiguous
    assert not eq.flags.writeable       # one table, shared by every caller
    assert hashlib.sha256(eq.tobytes()).hexdigest() == \
        "51a057601db05cb823ddae801b8d8386328d599e6ba9b0daac8fc5bcdf311fff"
    rhs = [_bound(lp_zero, unit, 0)
           for unit in np.eye(len(eq), dtype=int).tolist()]
    assert rhs == [1] * 81 + [0] * 576


def test_nonzeros_are_the_reference_table_nonzeros():
    """`_nonzeros`, built from index arithmetic over the cells, is
    `np.nonzero` of the dense reference: the same rows, cells and
    coefficients in the same (row-major) order, the coefficients Python
    ints in an object array."""
    ref = equalities()
    rows, cells = np.nonzero(ref)
    got_rows, got_cells, got_coef = _nonzeros()
    assert len(got_rows) == 5904
    assert got_rows.dtype == got_cells.dtype == np.int64
    assert np.array_equal(got_rows, rows) and np.array_equal(got_cells, cells)
    assert got_coef.dtype == object
    assert all(type(v) is int for v in got_coef)
    assert got_coef.tolist() == ref[rows, cells].tolist()


def test_nonzeros_build_in_a_small_working_set():
    """The first build of `_nonzeros` in a process traces a peak under
    0.6 MB: no dense (657, 1296) table (0.85 MB as int8, 1.67 MB traced
    with its broadcast intermediates) is made on the way.  A subprocess,
    so that no table another test cached can hide one."""
    code = ("import tracemalloc\n"
            "from randamp.ns_certify import _nonzeros\n"
            "_nonzeros.cache_clear()\n"
            "tracemalloc.start()\n"
            "_nonzeros()\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
    src = str(Path(ns_certify.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 0.6e6, proc.stdout


def test_highs_matrix_is_the_equality_table(lp_zero):
    """HiGHS reads the table as one float CSR matrix, built once and left
    as built by a solve."""
    eq = load_highs()[2]
    assert eq.dtype == np.float64 and eq.has_canonical_format
    assert not any(a.flags.writeable for a in (eq.data, eq.indices, eq.indptr))
    assert np.array_equal(eq.toarray(), equalities())
    solve_lp(lp_zero)
    assert load_highs()[2] is eq
    assert np.array_equal(eq.toarray(), equalities())


def _row_residuals(exact: np.ndarray) -> np.ndarray:
    """E.P - rhs for an exact table whose entries are multiples of 1/64."""
    scaled = [v * 64 for v in exact.ravel()]
    assert all(v.denominator == 1 for v in scaled)
    eq = equalities().astype(np.int64)
    return eq @ np.array([int(v) for v in scaled]) - 64 * (np.arange(len(eq)) < 81)


def test_equality_rows_hold_exactly_on_no_signaling_boxes(model):
    for box in (ideal_quantum_box(model), uniform_box()):
        assert not _row_residuals(exact_table(box.table)).any()
    # Alice answers 1 at u2 = 1 and 2 otherwise: normalized, Bob's side
    # fine, and only Alice's rows see the signal
    exact = np.full((9, 9, 4, 4), Fraction(0), dtype=object)
    exact[:, 0, 0, 0] = Fraction(1)
    exact[:, 1:, 1, 0] = Fraction(1)
    res = _row_residuals(exact)
    assert not res[:81].any() and not res[369:].any()
    assert res[81:369].any()


def test_build_lp_rejects_bad_inputs(functional):
    with pytest.raises(ValueError):
        build_lp(functional, -1)


def test_optimum_at_zero_cap_is_three_quarters(sol_zero, lp_zero):
    assert sol_zero.exact_optimum == Fraction(3, 4)
    assert sol_zero.certified_equality        # bound attained, not just <=
    assert verify_certificate(lp_zero, sol_zero.certificate)
    assert sol_zero.certificate.bound == Fraction(3, 4)


def test_primal_at_zero_cap_is_attack_box(sol_zero, lp_zero, functional):
    pf = sol_zero.primal
    assert _verify_primal(lp_zero, list(pf))
    assert pf[TARGET] == Fraction(3, 4)
    # cap = 0 plus nonnegativity force every indicator cell to exact zero
    for c in functional.bell_cells:
        assert pf[c] == 0


def test_zero_target_attack_box(functional, lp_zero):
    exact = exact_table(zero_target_box(functional).table)
    assert _verify_primal(lp_zero, list(exact.ravel()))
    assert exact.flat[TARGET] == 0


def _permutation_words(exact) -> str:
    """The rows of `_ZERO_TARGET_WORDS` for a permutation box: row u1, word
    u2 lists x2 for x1 = 1..4."""
    x2 = np.argmax(exact != 0, axis=3) + 1
    return "\n".join(" ".join("".join(map(str, word)) for word in row) for row in x2)


def test_stored_zero_target_box_is_the_highs_vertex(functional):
    """The stored vertex is the one HiGHS returns for the cap-0 min LP; on
    a mismatch the message holds the rows to paste into
    `_ZERO_TARGET_WORDS`."""
    box = zero_target_box(functional)
    ref = np.array(highs_min_vertex(build_lp(functional, 0)),
                   dtype=object).reshape(9, 9, 4, 4)
    assert set(ref.ravel()) == {0, Fraction(1, 4)}
    assert ((ref != 0).sum(axis=3) == 1).all()
    words = _permutation_words(ref)
    exact = exact_table(box.table)
    assert exact.shape == ref.shape, words
    assert (exact == ref).all(), words
    assert np.array_equal(box.table, ref.astype(float)), words
    assert box.meta == {"kind": "lp_vertex", "delta_tilde": 0.0,
                        "sense": "min", "certified": True}
    assert exact.flat[TARGET] == ref.flat[TARGET] == 0


def test_tampered_zero_target_box_fails_its_exact_check(functional, monkeypatch):
    """Each build checks the stored table: a word that breaks no-signaling,
    one that only puts weight on an indicator cell, and one that only puts
    weight on the target each raise; so do malformed tables."""
    bell = set(functional.bell_cells)

    def hits(word):         # (indicator cells hit, target hit) at (1, 2)
        cells = {var_index(1, 2, x1, int(x2)) for x1, x2 in enumerate(word, 1)}
        return len(cells & bell), TARGET in cells

    # (1, 2) holds "2341"; any permutation word keeps the box normalized
    # and no-signaling, so only the cap or the target check sees these two
    assert ns_certify._ZERO_TARGET_WORDS.split()[1] == "2341"
    assert hits("2341") == (0, False)
    assert hits("1234") == (2, False) and hits("3241") == (0, True)
    words = ns_certify._ZERO_TARGET_WORDS.split()
    tampered = ["1123",         # not a permutation
                "1234",         # weight on indicator cells
                "3241",         # weight on the target
                "5234", "234", ""]
    for word in tampered:
        monkeypatch.setattr(ns_certify, "_ZERO_TARGET_WORDS",
                            " ".join(words[:1] + [word] + words[2:]))
        with pytest.raises(CertificationError):
            zero_target_box(functional)
    monkeypatch.undo()
    assert zero_target_box(functional).table.flat[TARGET] == 0


def _piecewise_optimum(d: Fraction) -> Fraction:
    """The cap curve on the scanned caps: min(3/4 + d/6, 7/9 + d/9, 1)."""
    return min(Fraction(3, 4) + d / 6, Fraction(7, 9) + d / 9, Fraction(1))


@pytest.mark.parametrize("cap", ["1009/1000000", "1499/1000000", "2099/100000",
                                 "0.123456789", "1/7", "3/7", "1/997", "5/7",
                                 "13/10", "0.233653", "0.239079", "2.190241",
                                 "56773/250000"])
def test_ordinary_caps_certify(functional, cap):
    """Caps whose optimum has a large denominator certify at the scale q,
    the cap's denominator: vertex entries times q have denominators that
    divide det B (48 at 1/7; 7, 14, 21 and 42 at 0.233653).  0.233653,
    0.239079 and 2.190241 failed every rung of the former ladder of
    roundings (denominators up to 10^6, 10^9, 10^13, then multiples of
    1/(144 q)); 56773/250000 passed only at 10^9."""
    d = Fraction(cap)
    p = build_lp(functional, d)
    sol = solve_lp(p)
    assert sol.exact_optimum == sol.certificate.bound == _piecewise_optimum(d)
    assert sol.certified_equality
    assert verify_certificate(p, sol.certificate)
    assert _verify_primal(p, list(sol.primal))


def test_grid_certified_values(functional):
    # Exact optima produced by the certified primal/dual sandwich; frozen
    # as regression values.  The reference bound (3+2d)/4 must dominate.
    frozen = {
        Fraction(0): Fraction(3, 4),
        Fraction(1, 10): Fraction(23, 30),
        Fraction(3, 10): Fraction(4, 5),
        Fraction(1, 2): Fraction(5, 6),
    }
    for cap, expect in frozen.items():
        p = build_lp(functional, cap)
        sol = solve_lp(p)
        assert sol.exact_optimum == expect
        assert sol.certified_equality
        assert verify_certificate(p, sol.certificate)
        assert sol.exact_optimum <= Fraction(3, 4) + cap / 2


def test_monotonicity_and_reference_bound(functional):
    prev = Fraction(-1)
    for k in range(0, 11, 2):
        cap = Fraction(k, 20)
        sol = solve_lp(build_lp(functional, cap))
        assert sol.exact_optimum >= prev
        assert sol.exact_optimum <= min(Fraction(1), Fraction(3, 4) + cap / 2)
        prev = sol.exact_optimum


def test_certificate_tamper_detection(functional, lp_zero, sol_zero):
    cert = sol_zero.certificate
    bad_y = list(cert.y)
    bad_y[0] += Fraction(1, 1000)
    assert not verify_certificate(lp_zero, DualCertificate(
        y=tuple(bad_y), beta=cert.beta, bound=cert.bound,
        delta_tilde=cert.delta_tilde, target=cert.target))
    zero = DualCertificate(y=tuple([Fraction(0)] * len(equalities())),
                           beta=Fraction(0), bound=Fraction(0),
                           delta_tilde=Fraction(0), target=cert.target)
    assert not verify_certificate(lp_zero, zero)
    # claiming a smaller bound than the multipliers deliver must fail
    assert not verify_certificate(lp_zero, dataclasses.replace(cert, bound=Fraction(1, 2)))
    # a valid certificate for another cap or another target entry proves
    # nothing about this problem, though its multipliers may fit it
    half = solve_lp(build_lp(functional, Fraction(1, 2))).certificate
    assert half.bound == Fraction(5, 6)
    assert not verify_certificate(lp_zero, half)
    assert cert.target == lp_zero.target_col
    u1, u2, x1, x2 = cell_entry(cert.target)
    assert not verify_certificate(lp_zero, DualCertificate(
        y=cert.y, beta=cert.beta, bound=cert.bound,
        delta_tilde=cert.delta_tilde, target=var_index(u1, u2, x2, x1)))


def test_certificate_json_roundtrip(lp_zero, sol_zero):
    text = sol_zero.certificate.to_json()
    back = DualCertificate.from_json(text)
    assert back == sol_zero.certificate
    assert json.loads(text)["target"] == [1, 3, 1, 2]    # [x1, x2, u1, u2]
    assert verify_certificate(lp_zero, back)


@settings(max_examples=60, deadline=None)
@given(ys=st.dictionaries(st.integers(0, 656), st.fractions(), max_size=12),
       beta=st.fractions(), bound=st.fractions(), cap=st.fractions(),
       target=st.integers(0, 1295))
def test_certificate_json_roundtrip_any_certificate(ys, beta, bound, cap,
                                                    target):
    y = [Fraction(0)] * 657
    for row, v in ys.items():
        y[row] = v
    cert = DualCertificate(y=tuple(y), beta=beta, bound=bound, delta_tilde=cap,
                           target=target)
    assert DualCertificate.from_json(cert.to_json()) == cert


def _with(text, **fields):
    obj = json.loads(text)
    obj.update(fields)
    return json.dumps(obj)


def test_certificate_json_rejects_malformed_fields(sol_zero):
    """A certificate file is untrusted: each malformed field raises a
    ValueError that names its JSON path, rather than land on another row,
    index past the table or be read as something it is not."""
    text = sol_zero.certificate.to_json()
    y = json.loads(text)["y"]
    cases = [
        (_with(text, y={**y, "-1": "1"}), "y"),            # was row 656
        (_with(text, y={**y, "0656": "1"}), "y"),          # was row 656 too
        (_with(text, y={**y, "657": "1"}), "y"),
        (_with(text, y={"5": "1"}, n_equalities=3), "n_equalities"),  # IndexError
        (_with(text, n_equalities=True), "n_equalities"),
        (_with(text, n_equalities=657.0), "n_equalities"),
        (_with(text, n_equalities=656), "n_equalities"),
        (_with(text, y={"5": 0.5}), "y.5"),                 # was 1/2
        (_with(text, y={"5": 1}), "y.5"),
        (_with(text, y={"5": "1/0"}), "y.5"),
        (_with(text, y={"5": "1e999999999"}), "y.5"),
        (_with(text, y={"5": "1" * 4301}), "y.5"),
        (_with(text, y=[]), "y"),
        (_with(text, beta=0.5), "beta"),
        (_with(text, bound=None), "bound"),
        (_with(text, delta_tilde="x"), "delta_tilde"),
        (_with(text, target=[1, 3, 1, 10]), "target"),
        (_with(text, target=[5, 3, 1, 2]), "target"),      # was [1, 3, 1, 3]
        (_with(text, target=[1, 3, True, 2]), "target"),
    ]
    for bad, field in cases:
        with pytest.raises(ValueError, match=f"^certificate\\.{field}: needs"):
            DualCertificate.from_json(bad)
    obj = json.loads(text)
    del obj["n_equalities"]
    with pytest.raises(ValueError, match="^certificate\\.n_equalities: needs"):
        DualCertificate.from_json(json.dumps(obj))
    with pytest.raises(ValueError, match="^certificate: needs a JSON object"):
        DualCertificate.from_json("[]")
    assert DualCertificate.from_json(text) == sol_zero.certificate


def test_certificate_json_too_deep_or_not_json_is_malformed(sol_zero):
    """Text nested past the parser's recursion limit, anywhere or in one
    field, raises the ValueError of malformed JSON, as text that is no
    JSON at all does; a RecursionError never escapes."""
    obj = json.loads(sol_zero.certificate.to_json())
    nested_y = json.dumps({**obj, "y": "Y"}).replace(
        '"Y"', '{"0":' * 50_000 + '"1"' + "}" * 50_000)
    for bad in ("[" * 100_000 + "]" * 100_000, nested_y, "", "{", "max"):
        with pytest.raises(ValueError, match="^certificate: malformed JSON: "):
            DualCertificate.from_json(bad)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=12)


@st.composite
def _mutated_certificates(draw, text):
    """The text with one character deleted, inserted or replaced, or one
    top-level field's value replaced by arbitrary JSON."""
    kind = draw(st.sampled_from(["delete", "insert", "replace", "field"]))
    if kind == "field":
        obj = json.loads(text)
        obj[draw(st.sampled_from(sorted(obj)))] = draw(_JSON)
        return json.dumps(obj)
    at = draw(st.integers(0, len(text) - (kind != "insert")))
    char = "" if kind == "delete" else draw(st.characters())
    return text[:at] + char + text[at + (kind != "insert"):]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_certificate_json_fuzz_raises_only_value_error(sol_zero, data):
    """A real certificate's text, mutated once, reads as a certificate or
    raises ValueError, and nothing else."""
    bad = data.draw(_mutated_certificates(sol_zero.certificate.to_json()))
    try:
        cert = DualCertificate.from_json(bad)
    except ValueError:
        return
    assert isinstance(cert, DualCertificate)


def test_weak_duality_on_feasible_points(functional, sol_zero):
    # any verified certificate bounds any feasible primal's target entry
    val = solve_lp(build_lp(functional, Fraction(1, 10))).exact_optimum
    assert val <= Fraction(3, 4) + Fraction(1, 20)
    assert sol_zero.certificate.bound >= Fraction(3, 4)


_TINY = Fraction(1, 2 ** 70)        # its scales overflow int64


def _through_json(cert):
    return DualCertificate.from_json(cert.to_json())


def test_integer_check_sees_a_tiny_move_of_y(lp_zero, sol_zero):
    cert = sol_zero.certificate
    for row in (0, 100, 500):
        for step in (_TINY, -_TINY):
            y = list(cert.y)
            y[row] += step
            moved = dataclasses.replace(cert, y=tuple(y))
            assert not verify_certificate(lp_zero, moved), (row, step)
            assert not verify_certificate(lp_zero, _through_json(moved))


def test_integer_check_sees_a_tiny_move_of_beta(functional, lp_zero, sol_zero):
    half = build_lp(functional, Fraction(1, 2))
    cert = solve_lp(half).certificate
    assert cert.beta > 0
    for step in (_TINY, -_TINY):
        moved = dataclasses.replace(cert, beta=cert.beta + step)
        assert not verify_certificate(half, moved), step
        assert not verify_certificate(half, _through_json(moved))
    # at cap 0 a larger beta costs nothing: still a valid certificate,
    # whose lcm is 2^70 times the original's
    zero = sol_zero.certificate
    for cert, ok in ((zero, True),
                     (dataclasses.replace(zero, beta=zero.beta + _TINY), True),
                     (dataclasses.replace(zero, beta=zero.beta - _TINY), False)):
        assert verify_certificate(lp_zero, cert) is ok
        assert verify_certificate(lp_zero, _through_json(cert)) is ok


def test_integer_primal_check_sees_a_tiny_move(lp_zero, sol_zero):
    pf = list(sol_zero.primal)
    assert _verify_primal(lp_zero, pf)
    for cell in (TARGET, 0, 1295):
        for step in (Fraction(1, 10 ** 15), -Fraction(1, 10 ** 15)):
            moved = list(pf)
            moved[cell] += step
            assert not _verify_primal(lp_zero, moved), (cell, step)
            back = [Fraction(v) for v in json.loads(json.dumps(list(map(str, moved))))]
            assert back == moved and not _verify_primal(lp_zero, back)


def test_primal_check_needs_one_entry_per_cell(lp_zero, sol_zero):
    """A vector one entry too long or too short fails the check, whatever
    the extra entry or the entries it keeps."""
    pf = list(sol_zero.primal)
    assert _verify_primal(lp_zero, pf)
    assert not _verify_primal(lp_zero, pf + [Fraction(5)])
    assert not _verify_primal(lp_zero, pf + [Fraction(0)])
    assert not _verify_primal(lp_zero, pf[:-1])
    assert not _verify_primal(lp_zero, [])


@functools.lru_cache(maxsize=None)
def _row_cells():
    """(+1 cells, -1 cells) of each row of `checks.equalities`."""
    return tuple((np.flatnonzero(row == 1).tolist(),
                  np.flatnonzero(row == -1).tolist()) for row in equalities())


def _scaled(values):
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _reference_dual_ok(p, d) -> bool:
    """`verify_certificate` as a loop over the rows of `checks.equalities`,
    one row and one cell at a time, on Python ints."""
    rows = _row_cells()
    if (len(d.y) != len(rows) or d.beta < 0
            or d.delta_tilde != p.delta_tilde or d.target != p.target_col):
        return False
    scale, ys = _scaled((*d.y, d.beta))
    beta = ys.pop()
    mu = [0] * 1296
    for yr, (plus, minus) in zip(ys, rows):
        for c in plus:
            mu[c] += yr
        for c in minus:
            mu[c] -= yr
    for c in p.cap_cols:
        mu[c] += beta
    mu[p.target_col] -= scale
    return (all(m >= 0 for m in mu)
            and sum(d.y[:81], Fraction(0)) + d.beta * p.delta_tilde <= d.bound)


def _reference_primal_ok(p, pf) -> bool:
    """`_verify_primal` as a loop over the rows of `checks.equalities`."""
    scale, ints = _scaled(pf)
    if any(v < 0 for v in ints):
        return False
    for r, (plus, minus) in enumerate(_row_cells()):
        rhs = scale if r < 81 else 0
        if sum(ints[c] for c in plus) - sum(ints[c] for c in minus) != rhs:
            return False
    return sum(ints[c] for c in p.cap_cols) <= p.delta_tilde * scale


_GRID = [Fraction(k, 20) for k in range(11)]     # `certify`'s default grid


@pytest.fixture(scope="module")
def grid_solutions(functional):
    return [(p, solve_lp(p)) for p in (build_lp(functional, d) for d in _GRID)]


def _dual(p, cert) -> bool:
    """verify_certificate's answer, once the reference gives the same."""
    got = verify_certificate(p, cert)
    assert got is _reference_dual_ok(p, cert), cert
    return got


def _primal(p, pf) -> bool:
    """_verify_primal's answer, once the reference gives the same."""
    got = _verify_primal(p, pf)
    assert got is _reference_primal_ok(p, pf)
    return got


def test_exact_checks_match_the_scalar_reference(
        functional, model, lp_zero, sol_zero, grid_solutions):
    for p, sol in grid_solutions:
        assert _dual(p, sol.certificate)
        assert _primal(p, list(sol.primal))
    # the tamper cases of the tests above
    cert, half = sol_zero.certificate, grid_solutions[10]
    bad_y = list(cert.y)
    bad_y[0] += Fraction(1, 1000)
    u1, u2, x1, x2 = cell_entry(cert.target)
    tampered = [
        dataclasses.replace(cert, y=tuple(bad_y)),
        DualCertificate(y=tuple([Fraction(0)] * len(equalities())),
                        beta=Fraction(0), bound=Fraction(0),
                        delta_tilde=Fraction(0), target=cert.target),
        dataclasses.replace(cert, bound=Fraction(1, 2)),
        half[1].certificate,
        dataclasses.replace(cert, target=var_index(u1, u2, x2, x1)),
        dataclasses.replace(cert, beta=cert.beta - _TINY)]
    for row in (0, 100, 500):
        for step in (_TINY, -_TINY):
            y = list(cert.y)
            y[row] += step
            tampered.append(dataclasses.replace(cert, y=tuple(y)))
    for cert_ in tampered:
        assert not _dual(lp_zero, cert_)
    for step in (_TINY, -_TINY):
        moved = dataclasses.replace(half[1].certificate,
                                    beta=half[1].certificate.beta + step)
        assert not _dual(half[0], moved)
    assert _dual(lp_zero, dataclasses.replace(cert, beta=cert.beta + _TINY))
    pf = list(sol_zero.primal)
    for cell in (TARGET, 0, 1295):
        for step in (Fraction(1, 10 ** 15), -Fraction(1, 10 ** 15)):
            moved = list(pf)
            moved[cell] += step
            assert not _primal(lp_zero, moved)
    # scales past 2^63, from a Mersenne prime denominator
    big = Fraction(1, 2 ** 89 - 1)
    wide = dataclasses.replace(cert, beta=cert.beta + big,
                               bound=_bound(lp_zero, cert.y, cert.beta + big))
    y = list(wide.y)
    y[100] += big
    assert _dual(lp_zero, wide)
    assert not _dual(lp_zero, dataclasses.replace(wide, y=tuple(y)))
    ideal = exact_table(ideal_quantum_box(model).table).ravel()
    mix = [(1 - big) * a + big * b for a, b in zip(pf, ideal)]
    assert _primal(lp_zero, mix)
    mix[1] -= big
    mix[0] += big
    assert not _primal(lp_zero, mix)


def test_certificate_of_unknown_sense_fails(lp_zero, sol_zero):
    """A certificate is read only with sense "max", the one objective it
    proves: any other sense, or none, raises a ValueError naming it."""
    cert = sol_zero.certificate
    obj = json.loads(cert.to_json())
    assert obj["sense"] == "max"
    assert verify_certificate(lp_zero, DualCertificate.from_json(cert.to_json()))
    texts = [_with(cert.to_json(), sense=sense)
             for sense in ("min", "MAX", "foo", "", None, 1, ["max"])]
    texts.append(json.dumps({k: v for k, v in obj.items() if k != "sense"}))
    for text in texts:
        with pytest.raises(ValueError, match='^certificate\\.sense: needs "max"'):
            DualCertificate.from_json(text)
