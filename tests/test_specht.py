import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csext import (
    enum_partitions,
    ffla,
    gen_action_on_tabloids,
    hom_rad_to_simple,
    hom_space,
    image_equals_rad,
    is_p_regular,
    polytabloid,
    rad_dim,
    rad_subrep,
    simple_head,
    specht_data,
    standard_tableaux,
    tabloid_basis,
    tilde,
)
from csext import harness, specht
from csext.errors import EngineLimitError
from csext.specht import DegreeCapError, satisfies_relations

import reference

PRIMES = (2, 3, 5, 7)


def test_standard_tableaux_examples():
    assert standard_tableaux((4,)) == [((1, 2, 3, 4),)]
    assert len(standard_tableaux((2, 2))) == 2
    assert standard_tableaux((2, 1)) == [((1, 2), (3,)), ((1, 3), (2,))]
    for t in standard_tableaux((3, 2, 1)):
        rows = [list(r) for r in t]
        assert all(r == sorted(r) for r in rows)
        for i in range(1, len(rows)):
            assert all(rows[i][j] > rows[i - 1][j] for j in range(len(rows[i])))


def test_standard_tableaux_counts_match_hook_lengths():
    for m in range(0, 8):
        for lam in enum_partitions(m):
            assert len(standard_tableaux(lam)) == reference.hook_length_count(lam), lam


def test_tabloid_counts():
    assert len(tabloid_basis((4,))) == 1
    assert len(tabloid_basis((1, 1, 1))) == 6
    assert len(tabloid_basis((2, 1))) == 3
    assert len(tabloid_basis((2, 2, 1))) == 30


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        specht_data((8,), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = specht_data((8,), 3, cap=8)
    assert data.rep.dim == 1
    # Tabloid codes are base-len(shape) integers and must fit in int64:
    # past that is an engine limit, refused before any tableau is listed.
    standard = specht._standard_tableaux.cache_info().misses
    with pytest.raises(EngineLimitError, match="beyond 64-bit integers"):
        specht_data((62, 1), 3, cap=63)
    assert specht._standard_tableaux.cache_info().misses == standard
    wide = specht_data((61, 1), 3, cap=62)
    assert wide.rep.dim == 61 and wide.tabloid_count == 62
    assert satisfies_relations(wide.rep)


def test_polytabloid_examples():
    v = polytabloid(((1, 2, 3),), 5)
    assert np.array_equal(v, [1])
    v = polytabloid(((1,), (2,)), 3)
    assert sorted(v.tolist()) == [1, 2]  # {t} - {t s_1}, reduced mod 3
    t = ((1, 2), (3,))  # first column 1,3
    v = polytabloid(t, 7)
    assert np.count_nonzero(v) == 2
    assert sorted(v[v != 0].tolist()) == [1, 6]


def _same_array(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _polytabloid_columns(lam, p):
    """The standard polytabloids of S^lam as the columns of a dense matrix."""
    std = standard_tableaux(lam, cap=8)
    return np.stack([polytabloid(t, p, cap=8) for t in std], axis=1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_specht_data_matches_reference_builder(data):
    p = data.draw(st.sampled_from(PRIMES))
    lam = data.draw(st.sampled_from(enum_partitions(data.draw(st.integers(0, 7)))))
    got = specht_data(lam, p)
    want = reference.specht_data_reference(lam, p)
    assert got.tabloid_count == len(want["tabloids"])
    assert tuple(tabloid_basis(lam)) == want["tabloids"]
    assert got.std_tableaux == want["std_tableaux"]
    assert not hasattr(got, "basis")
    assert _same_array(_polytabloid_columns(lam, p), want["basis"])
    assert _same_array(got.gram, want["gram"])
    assert len(got.rep.gens) == len(want["gens"])
    assert all(_same_array(g, w) for g, w in zip(got.rep.gens, want["gens"]))


def test_standard_rows_have_unit_diagonal_and_full_rank():
    # The rows at the tabloids {t} of the standard tableaux t: the
    # generators come from one square solve on them, which needs them
    # invertible (James's Standard Basis Theorem).
    for m in range(0, 8):
        for lam in enum_partitions(m):
            position = {tab: k for k, tab in enumerate(tabloid_basis(lam))}
            rows = [position[tuple(tuple(sorted(r)) for r in t)] for t in standard_tableaux(lam)]
            for p in PRIMES:
                basis = reference.basis_reference(lam, p)[2]
                assert _same_array(_polytabloid_columns(lam, p), basis), (lam, p)
                square = basis[rows]
                assert (np.diag(square) == 1).all(), (lam, p)
                assert ffla.rank(square, p) == len(square), (lam, p)


LAYER_CASES = [(lam, p) for m in range(8) for lam in enum_partitions(m) for p in PRIMES] + [
    ((2, 1, 1, 1, 1, 1, 1), 5), ((1,) * 8, 5)]


def test_layers_match_per_generator_reference():
    # The Gram matrix, radical action and head action of every case against
    # the int64 product and the one-solve-per-generator loops.
    for lam, p in LAYER_CASES:
        data = specht_data(lam, p, cap=8)
        basis = reference.basis_reference(lam, p)[2]
        assert _same_array(_polytabloid_columns(lam, p), basis), (lam, p)
        assert _same_array(data.gram, reference.gram_reference(basis, p)), (lam, p)
        cases = [(rad_subrep(lam, p, cap=8), reference.rad_subrep_reference)]
        if is_p_regular(lam, p):
            cases.append((simple_head(lam, p, cap=8), reference.simple_head_reference))
        for rep, ref in cases:
            dim, gens = ref(data.gram, data.rep.gens, p)
            assert rep.dim == dim and len(rep.gens) == len(gens), (lam, p)
            assert all(_same_array(g, w) for g, w in zip(rep.gens, gens)), (lam, p)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gram_is_exact_across_chunks(data):
    # The Gram matrix from the coded polytabloid terms, one chunk of tabloid
    # rows at a time, against the int64 product of the dense reference basis.
    p = data.draw(st.sampled_from(PRIMES))
    lam = data.draw(st.sampled_from(enum_partitions(data.draw(st.integers(0, 7)))))
    std = standard_tableaux(lam)
    terms, _ = specht._polytabloids(std, lam)
    count = math.factorial(sum(lam)) // math.prod(math.factorial(r) for r in lam)
    with pytest.MonkeyPatch.context() as mp:
        # GRAM_CHUNK // dim^2 rows a product: from one row to all of them
        mp.setattr(specht, "GRAM_CHUNK", data.draw(st.integers(1, 64)))
        got = specht._gram(terms, count, len(std), p)
    want = reference.gram_reference(reference.basis_reference(lam, p)[2], p)
    assert _same_array(got, want)


def _arrays(obj):
    """Every array reachable from a record through its fields, cached
    properties, tuples and the bases of views."""
    if isinstance(obj, np.ndarray):
        while obj is not None:
            yield obj
            obj = obj.base
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _arrays(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _arrays(x)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj))


def test_build_keeps_no_dense_tabloid_basis(monkeypatch):
    # From cold caches, building S^(2,2,1^4) at p = 5 must stay below the
    # 10,080 x 20 int64 dense basis (1.6 MB) it used to create, and leave no
    # array with a row or column per tabloid reachable from the record.
    lam, p = (2, 2, 1, 1, 1, 1), 5
    monkeypatch.setattr(specht, "_DATA_CACHE", {})
    specht._tabloids.cache_clear()
    specht._standard_tableaux.cache_clear()
    tracemalloc.start()
    try:
        data = specht_data(lam, p, cap=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.tabloid_count == 10_080 and data.rep.dim == 20
    assert peak < 10_080 * 20 * 8
    data.rad_rep, data.head_rep  # the cached layers join the record
    arrays = list(_arrays(data))
    assert any(a is data.gram for a in arrays)
    assert all(data.tabloid_count not in a.shape for a in arrays)


def test_record_arrays_are_read_only():
    # One record serves the whole process: a caller writing into its Gram
    # matrix before the radical is computed would change rad_dim for
    # everyone, so every array of the record refuses writes.
    data = specht_data((2, 2), 3)
    for a in (data.gram, *data.rep.gens, data.rad_kernel, *data.rad_rep.gens,
              *data.head_rep.gens):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert rad_dim((2, 2), 3) == 1


def test_gram_kernel_once_per_shape_and_p(monkeypatch):
    # From an empty record cache, every (shape, p) of the sweep is built
    # here, and its radical kernel is computed once however often the sweep
    # asks for its radical or head.
    monkeypatch.setattr(specht, "_DATA_CACHE", {})
    calls, nullspace = [], ffla.nullspace

    def counted(a, p):
        calls.append(a)
        return nullspace(a, p)

    monkeypatch.setattr(ffla, "nullspace", counted)
    report = harness.sweep_sym(5, 6)
    assert report.mismatches == 0
    records = list(specht._DATA_CACHE.values())
    grams = [sum(a is data.gram for a in calls) for data in records]
    assert len(records) > 0 and grams == [1] * len(records)


def test_eigenspaces_split_once_per_rep_and_side(monkeypatch):
    # A fresh record cache, so every rep of the sweep is built here.
    monkeypatch.setattr(specht, "_DATA_CACHE", {})
    calls, sides = [], {"left": {}, "right": {}}
    split, hom = specht._joint_eigenspaces, specht.hom_space

    def counted_split(gens, dim, p):
        calls.append(dim)
        return split(gens, dim, p)

    def recorded_hom(v, w):
        if v.dim and w.dim:
            sides["left"][id(v)], sides["right"][id(w)] = v, w
        return hom(v, w)

    monkeypatch.setattr(specht, "_joint_eigenspaces", counted_split)
    monkeypatch.setattr(specht, "hom_space", recorded_hom)
    report = harness.sweep_sym(5, 6)
    assert report.mismatches == 0
    assert len(calls) == len(sides["left"]) + len(sides["right"]) > 0


def test_gen_action_is_permutation():
    mat = gen_action_on_tabloids((2, 1), 1, 3)
    assert mat.shape == (3, 3)
    assert np.array_equal(mat @ mat % 3, np.eye(3, dtype=mat.dtype))
    assert (mat.sum(axis=0) == 1).all() and (mat.sum(axis=1) == 1).all()
    assert np.trace(mat) == 1  # exactly one fixed tabloid
    assert np.array_equal(gen_action_on_tabloids((3,), 2, 5), [[1]])
    assert np.array_equal(gen_action_on_tabloids((1, 1), 1, 5), [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        gen_action_on_tabloids((2, 1), 3, 3)


def test_specht_data_trivial_and_sign():
    for p in PRIMES:
        triv = specht_data((5,), p)
        assert triv.rep.dim == 1 and triv.tabloid_count == 1
        assert all(np.array_equal(g, [[1]]) for g in triv.rep.gens)
        assert np.array_equal(triv.gram, [[1]])
        sign = specht_data((1, 1, 1, 1), p)
        assert sign.rep.dim == 1
        assert all(np.array_equal(g, [[(p - 1) % p]]) for g in sign.rep.gens)


def test_specht_data_2_2_gram_over_gf3():
    data = specht_data((2, 2), 3)
    assert data.rep.dim == 2
    assert np.array_equal(data.gram, [[1, 2], [2, 1]])
    assert ffla.rank(data.gram, 3) == 1


def test_relations_and_form_invariance():
    for p in PRIMES:
        for m in range(1, 6):
            for lam in enum_partitions(m):
                data = specht_data(lam, p)
                assert satisfies_relations(data.rep), (lam, p)
                for a in data.rep.gens:
                    assert np.array_equal(a.T @ data.gram @ a % p, data.gram), (lam, p)


def test_rad_dim_examples():
    assert rad_dim((6,), 3) == 0
    assert rad_dim((2, 2), 3) == 1
    assert rad_dim((2, 2), 5) == 0
    assert rad_dim((3, 3), 3) == 4
    assert rad_dim((3, 3), 5) == 0
    assert rad_dim((2, 1), 3) == 1


def test_rank_plus_rad_dim():
    for p in (2, 3, 5):
        for m in range(1, 7):
            for lam in enum_partitions(m):
                data = specht_data(lam, p)
                assert ffla.rank(data.gram, p) + rad_dim(lam, p) == data.rep.dim


def test_rad_subrep_is_a_module():
    sub = rad_subrep((3, 3), 3)
    assert sub.dim == 4
    assert satisfies_relations(sub)
    assert rad_subrep((3, 3), 5).dim == 0


def test_simple_head_examples():
    assert simple_head((5,), 3).dim == 1
    assert simple_head((2, 2), 3).dim == 1
    assert simple_head((4, 1), 3).dim == 4
    with pytest.raises(ValueError):
        simple_head((1, 1, 1), 3)
    head = simple_head((3, 3), 3)
    assert head.dim == 1
    assert satisfies_relations(head)


def test_sum_of_squares_bound():
    for p in (2, 3, 5):
        for m in range(1, 7):
            total = 0
            for lam in enum_partitions(m):
                if is_p_regular(lam, p):
                    total += simple_head(lam, p).dim ** 2
            assert total <= math.factorial(m)


def test_hom_space_examples():
    s4 = specht_data((4,), 3)
    s22 = specht_data((2, 2), 3)
    assert hom_space(s4.rep, s22.rep).dim == 1
    assert hom_space(simple_head((3,), 5), simple_head((1, 1, 1), 5)).dim == 0
    for p in PRIMES:
        for m in range(1, 7):
            for lam in enum_partitions(m):
                if is_p_regular(lam, p):
                    head = simple_head(lam, p)
                    assert hom_space(head, head).dim == 1, (lam, p)


def test_hom_space_maps_intertwine():
    v = specht_data((4,), 3).rep
    w = specht_data((2, 2), 3).rep
    homs = hom_space(v, w)
    for f in homs.maps:
        for a, b in zip(v.gens, w.gens):
            assert np.array_equal(f @ a % 3, b @ f % 3)
    with pytest.raises(ValueError):
        hom_space(v, specht_data((2, 1), 3).rep)
    with pytest.raises(ValueError):
        hom_space(v, specht_data((4,), 5).rep)


def test_hom_rad_to_simple_examples():
    assert hom_rad_to_simple((2, 2), (4,), 3) == 1
    assert hom_rad_to_simple((2, 2), (2, 2), 3) == 0
    assert hom_rad_to_simple((3, 3), (5, 1), 5) == 0  # rad is zero over GF(5)


def test_image_equals_rad_examples():
    assert image_equals_rad((4,), (2, 2), 3) is True
    assert image_equals_rad((5, 1), (3, 3), 3) is True
    assert image_equals_rad((4,), (4,), 3) is False  # rad = 0, no nonzero image
    assert image_equals_rad((2, 2), (4,), 3) is False


def test_tilde_image_hits_radical():
    for lam, p in [((2, 1), 3), ((3, 2), 3), ((4, 3), 3), ((4, 1), 5)]:
        nu = tilde(lam, p)
        assert hom_space(specht_data(nu, p).rep, specht_data(lam, p).rep).dim >= 1
        assert image_equals_rad(nu, lam, p) is True


@st.composite
def small_reps(draw, m, p):
    """A Specht module, its radical, or (p-regular shapes) its simple head."""
    lam = draw(st.sampled_from(enum_partitions(m)))
    kinds = ["specht", "radical"] + (["head"] if is_p_regular(lam, p) else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "specht":
        return specht_data(lam, p).rep
    return rad_subrep(lam, p) if kind == "radical" else simple_head(lam, p)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hom_space_matches_stacked_reference(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    m = data.draw(st.integers(1, 5))
    v, w = data.draw(small_reps(m, p)), data.draw(small_reps(m, p))
    homs = hom_space(v, w)
    want = reference.hom_space_stacked(v.gens, w.gens, v.dim, w.dim, p)
    assert homs.dim == len(want) == len(homs.maps)
    for got, exp in zip(homs.maps, want):
        assert got.shape == exp.shape and got.dtype == exp.dtype
        assert got.tobytes() == exp.tobytes()
