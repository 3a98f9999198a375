import math

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
    with pytest.warns(UserWarning):
        data = specht_data((8,), 3, cap=8)
    assert data.rep.dim == 1


def test_polytabloid_examples():
    v = polytabloid(((1, 2, 3),), 5)
    assert np.array_equal(v, [1])
    v = polytabloid(((1,), (2,)), 3)
    assert sorted(v.tolist()) == [1, 2]  # {t} - {t s_1}, reduced mod 3
    t = ((1, 2), (3,))  # first column 1,3
    v = polytabloid(t, 7)
    assert np.count_nonzero(v) == 2
    assert sorted(v[v != 0].tolist()) == [1, 6]


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
