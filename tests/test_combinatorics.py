import ast
import itertools
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import csext
from csext import (
    ScopeError,
    ScopeReason,
    as_partition,
    chi,
    conjugate,
    degree,
    dominates,
    enum_dominant_weights,
    enum_dominant_weights_bounded,
    enum_partitions,
    has_rim_p_hook,
    hat,
    is_big_partition,
    is_big_weight,
    is_cs_partition,
    is_cs_weight,
    is_p_regular,
    is_p_restricted,
    normalize_pair,
    pad,
    psi,
    removable_rows,
    strictly_dominates,
    tilde,
    weight_leq,
    weight_lt,
)

import reference


@st.composite
def partitions(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def test_as_partition_normalizes_and_validates():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, -1))


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    # column counts of the shape whose transpose is the worked example weight
    assert conjugate((8, 5, 5, 4, 3)) == (5, 5, 5, 4, 3, 1, 1, 1)


@given(partitions())
def test_conjugate_involution_and_degree(lam):
    assert conjugate(conjugate(lam)) == lam
    assert degree(conjugate(lam)) == degree(lam)


def test_dominates_examples():
    assert dominates((4,), (2, 2)) is True
    assert dominates((2, 2), (2, 2)) is True
    assert dominates((2, 2), (3, 1)) is False


def test_dominance_antisymmetric_and_conjugation_antitone():
    for m in range(0, 8):
        parts = enum_partitions(m)
        for lam, mu in itertools.product(parts, parts):
            if dominates(lam, mu) and dominates(mu, lam):
                assert lam == mu
            assert dominates(lam, mu) == dominates(conjugate(mu), conjugate(lam))


def test_weight_leq_examples():
    assert weight_leq((1, 1, 1, 1), (2, 2, 0, 0)) is True
    assert weight_leq((3, 2, 1), (3, 2, 1)) is True
    assert weight_leq((2, 1, 1), (3, 1, 1)) is False
    with pytest.raises(ValueError):
        weight_leq((1, 0), (1,))


def test_weight_leq_matches_root_coefficient_search():
    # Exhaustive against enumerating nonnegative coefficients on the simple
    # roots; a root sum always has entry sum zero, so unequal-sum pairs are
    # settled without enumeration.
    for n in (2, 3, 4):
        doms = [w for w in enum_dominant_weights_bounded(n, 3)]
        by_sum: dict[int, list] = {}
        for w in doms:
            by_sum.setdefault(sum(w), []).append(w)
        for group in by_sum.values():
            for lam, mu in itertools.product(group, group):
                expected = reference.weight_le_bruteforce(mu, lam, 3 * n)
                assert weight_leq(mu, lam) == expected, (mu, lam)
        for lam, mu in itertools.product(doms, doms):
            if sum(lam) != sum(mu):
                assert weight_leq(mu, lam) is False


def test_regularity_examples():
    assert is_p_regular((1, 1, 1), 3) is False
    assert is_p_regular((2, 1), 2) is True
    assert is_p_regular((2, 2, 1, 1), 2) is False


def test_restrictedness_examples():
    assert is_p_restricted((2, 2, 0, 0), 3) is True
    assert is_p_restricted((5, 5, 5), 2) is True
    assert is_p_restricted((4, 1, 0, 0, 0), 3) is False
    with pytest.raises(ValueError):
        is_p_restricted((1, 2, 0), 3)


def test_chi_examples():
    assert chi(()) == 0
    assert chi((4,)) == 1
    assert chi((2, 2)) == 2


def test_removable_rows_examples():
    rr = removable_rows((5, 5, 5, 4, 3, 1, 1, 1))
    assert rr.rows == (3, 4, 5) and rr.i_min == 3 and rr.j_max == 5
    assert removable_rows((4, 4, 4)) == ((), None, None)
    rr = removable_rows((2, 2, 0, 0))
    assert rr.rows == (2,) and rr.i_min == rr.j_max == 2
    with pytest.raises(ValueError):
        removable_rows((0, 1))


def test_psi_examples():
    assert psi((3, 3, 3, 3)) == 0
    assert psi((2, 2, 0, 0)) == 2
    assert psi((5, 5, 5, 4, 3, 1, 1, 1)) == 6


def test_cs_partition_examples():
    assert is_cs_partition((2, 2), 3) is True
    assert is_cs_partition((3, 1), 3) is False
    for m in (1, 4, 9):
        assert is_cs_partition((m,), 2) is True


def test_cs_weight_examples():
    assert is_cs_weight((2, 2, 0, 0), 3) is True
    assert is_cs_weight((5, 5, 5, 4, 3, 1, 1, 1), 7) is True
    assert is_cs_weight((3, 2, 1, 0), 2) is False
    with pytest.raises(ScopeError) as exc:
        is_cs_weight((4, 1, 0), 3)
    assert exc.value.reason is ScopeReason.NOT_P_RESTRICTED


def test_rim_hook_examples():
    assert has_rim_p_hook((1,), 2) is False
    assert has_rim_p_hook((2, 2), 3) is True
    assert has_rim_p_hook((3, 3), 5) is False


def test_rim_hook_matches_border_strip_removal():
    for m in range(0, 11):
        for lam in enum_partitions(m):
            for p in (2, 3, 5, 7):
                assert has_rim_p_hook(lam, p) == reference.has_rim_hook_bruteforce(lam, p), (lam, p)


def test_big_partition_examples():
    assert is_big_partition((2, 2), 3) is True
    assert is_big_partition((4,), 3) is False
    assert is_big_partition((3, 3), 5) is False


def test_big_weight_examples():
    assert is_big_weight((5, 5, 5, 4, 3, 1, 1, 1), 7) is True
    assert is_big_weight((2, 2, 0, 0), 3) is True
    assert is_big_weight((4, 4, 4, 4), 5) is False
    with pytest.raises(ScopeError):
        is_big_weight((4, 1, 0, 0, 0), 3)


def test_hat_examples():
    assert hat((5, 5, 5, 4, 3, 1, 1, 1), 7) == (5, 4, 4, 4, 3, 2, 2, 1)
    assert hat((2, 2, 0, 0), 3) == (1, 1, 1, 1)
    assert hat((2, 2, 1, 0, 0), 3) == (2, 1, 1, 1, 0)
    with pytest.raises(ScopeError) as exc:
        hat((2, 1, 1, 1), 3)
    assert exc.value.reason is ScopeReason.NOT_BIG


def test_tilde_examples():
    assert tilde((2, 2), 3) == (4,)
    assert tilde((3, 3), 3) == (5, 1)
    assert tilde((3, 2), 3) == (4, 1)
    with pytest.raises(ScopeError):
        tilde((3, 3), 5)  # not big: no rim 5-hook
    # big but p-irregular: the conjugation route needs p-regularity
    assert is_big_partition((1, 1, 1), 3) is True
    with pytest.raises(ScopeError) as exc:
        tilde((1, 1, 1), 3)
    assert exc.value.reason is ScopeReason.NOT_P_REGULAR


def test_pad():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    assert pad((2, 1, 0, 0), 2) == (2, 1)
    assert pad((2, 1, 0), math.inf) == (2, 1)
    with pytest.raises(ValueError):
        pad((2, 1), 1)


def test_normalize_pair():
    assert normalize_pair((3, 2, 1), (2, 2, 2)) == ((2, 1, 0), (1, 1, 1))
    assert normalize_pair((2, 1, 0), (1, 1, 1)) == ((2, 1, 0), (1, 1, 1))
    assert normalize_pair((0, -1), (-1, 0)) == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        normalize_pair((1, 0), (1,))


def test_enum_partitions():
    assert enum_partitions(0) == [()]
    assert enum_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # classic partition counts
    assert [len(enum_partitions(m)) for m in range(1, 11)] == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_enum_dominant_weights():
    assert enum_dominant_weights(2, 2) == [(1, 1), (2, 0)]
    for n, m in [(3, 4), (4, 3), (2, 6)]:
        weights = enum_dominant_weights(n, m)
        assert len(set(weights)) == len(weights)
        for w in weights:
            assert len(w) == n and sum(w) == m and min(w) >= 0
            assert all(w[i] >= w[i + 1] for i in range(n - 1))
        # completeness against a raw product scan
        raw = [
            w
            for w in itertools.product(range(m + 1), repeat=n)
            if sum(w) == m and all(w[i] >= w[i + 1] for i in range(n - 1))
        ]
        assert sorted(weights) == sorted(raw)


def test_enum_dominant_weights_bounded():
    ws = list(enum_dominant_weights_bounded(3, 2))
    assert len(ws) == len(set(ws)) == 10  # multichoose(3 values.., entries 0..2)
    assert all(w[i] >= w[i + 1] for w in ws for i in range(2))


def test_restricted_iff_conjugate_regular():
    for m in range(0, 9):
        for lam in enum_partitions(m):
            n = len(lam) + 1
            for p in (2, 3, 5, 7):
                assert is_p_restricted(pad(lam, n), p) == is_p_regular(conjugate(lam), p)


def test_psi_equals_chi_of_conjugate():
    for n in range(1, 7):
        for lam in enum_dominant_weights_bounded(n, 4):
            if lam[-1] != 0 or sum(lam) == 0:
                continue
            assert psi(lam) == chi(conjugate(as_partition(lam)))


def exhaustive_weights(n_max=5, max_entry=4):
    for n in range(1, n_max + 1):
        yield from enum_dominant_weights_bounded(n, max_entry)


def test_hat_invariants_small_range():
    for p in (2, 3, 5):
        for lam in exhaustive_weights():
            if not is_p_restricted(lam, p):
                continue
            if is_big_weight(lam, p):
                assert is_cs_weight(lam, p)
                h = hat(lam, p)
                assert sum(h) == sum(lam)
                assert all(h[i] >= h[i + 1] for i in range(len(h) - 1))
                assert weight_lt(h, lam)


def test_translation_equivariance_small_range():
    for p in (2, 3, 5):
        for lam in exhaustive_weights(n_max=4, max_entry=3):
            if not is_p_restricted(lam, p):
                continue
            big = is_big_weight(lam, p)
            for c in (3, -5):
                shifted = tuple(x + c for x in lam)
                assert psi(shifted) == psi(lam)
                assert is_big_weight(shifted, p) == big
                if big:
                    assert hat(shifted, p) == tuple(x + c for x in hat(lam, p))


def test_tilde_output_contract():
    # same degree, p-regular, and above the input in dominance
    for m in range(2, 11):
        for lam in enum_partitions(m):
            for p in (3, 5, 7):
                if not (is_p_regular(lam, p) and is_big_partition(lam, p)):
                    continue
                t = tilde(lam, p)
                assert degree(t) == m
                assert is_p_regular(t, p)
                assert dominates(t, lam) and not strictly_dominates(lam, t)


def test_big_weight_iff_big_conjugate_partition():
    # Case-2 bridge, exhaustive for degree <= 10: pad each partition into the
    # minimal rank where the last entry vanishes.
    for m in range(1, 11):
        for lam in enum_partitions(m):
            if len(lam) >= m:
                continue  # the all-ones shape cannot have a vanishing last entry at rank m
            w = pad(lam, m)
            conj = conjugate(lam)
            for p in (2, 3, 5, 7):
                if not is_p_restricted(w, p):
                    continue
                big = is_big_weight(w, p)
                assert big == is_big_partition(conj, p), (w, p)
                if big:
                    assert conjugate(as_partition(hat(w, p))) == tilde(conj, p)


def test_scalar_modules_import_no_numpy():
    # The oracle path must stay light; follow every import inside the package.
    src = Path(csext.__file__).parent
    todo, seen, outside = ["combinatorics", "oracle"], set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                outside.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level:
                todo.extend([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom):
                outside.add(node.module.split(".")[0])
    assert seen == {"combinatorics", "oracle", "errors"}
    assert "numpy" not in outside


def test_package_exports_names_not_submodules():
    assert csext.__all__
    for name in csext.__all__:
        assert not isinstance(getattr(csext, name), type(csext)), name
