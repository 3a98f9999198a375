import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csext import ffla

import reference

PRIMES = (2, 3, 5, 7)


@st.composite
def matrices(draw, max_dim=8, primes=PRIMES):
    p = draw(st.sampled_from(primes))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return np.array(entries, dtype=np.int64).reshape(rows, cols), p


def test_rank_examples():
    assert ffla.rank(np.eye(4, dtype=np.int64), 5) == 4
    assert ffla.rank(np.zeros((3, 3), dtype=np.int64), 3) == 0
    assert ffla.rank([[1, 2], [2, 4]], 5) == 1


def test_nullspace_examples():
    assert ffla.nullspace(np.eye(3, dtype=np.int64), 3).shape == (3, 0)
    assert ffla.nullspace(np.zeros((4, 4), dtype=np.int64), 5).shape == (4, 4)
    basis = ffla.nullspace([[1, 2], [2, 4]], 5)
    assert basis.shape == (2, 1)
    assert np.array_equal(basis[:, 0], [3, 1])


def test_solve_in_span_examples():
    v = np.array([4, 1, 3], dtype=np.int64)
    assert np.array_equal(ffla.solve_in_span(np.eye(3, dtype=np.int64), v, 5), v)
    assert np.array_equal(
        ffla.solve_in_span(np.array([[1], [2]]), np.array([0, 0]), 3), [0]
    )
    c = ffla.solve_in_span(np.array([[1], [2]]), np.array([2, 1]), 3)
    assert np.array_equal(c, [2])


def test_solve_in_span_no_solution_and_dependent():
    b = np.array([[1], [0]])
    assert ffla.solve_in_span(b, np.array([0, 1]), 3) is None
    with pytest.raises(ValueError):
        ffla.solve_in_span(np.array([[1, 2], [2, 4]]), np.array([1, 2]), 5)


@given(matrices())
def test_rank_nullity_and_exact_kernel(mp):
    a, p = mp
    r = ffla.rank(a, p)
    basis = ffla.nullspace(a, p)
    assert r + basis.shape[1] == a.shape[1]
    assert not np.any(a @ basis % p)


@settings(max_examples=60)
@given(matrices(max_dim=4))
def test_rank_matches_minor_oracle(mp):
    a, p = mp
    assert ffla.rank(a, p) == reference.rank_by_minors(a.tolist(), p)


@given(matrices(max_dim=6), st.data())
def test_solve_recovers_coefficients(mp, data):
    b, p = mp
    rows, cols = b.shape
    if ffla.rank(b, p) < cols:
        return
    c = np.array(
        data.draw(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)),
        dtype=np.int64,
    )
    assert np.array_equal(ffla.solve_in_span(b, b @ c % p, p), c)


def test_rref_is_idempotent_and_deterministic():
    a = np.array([[2, 4, 1], [1, 2, 3], [0, 1, 1]], dtype=np.int64)
    r1, piv1 = ffla.rref(a, 5)
    r2, piv2 = ffla.rref(r1, 5)
    assert np.array_equal(r1, r2) and piv1 == piv2
    r3, piv3 = ffla.rref(a, 5)
    assert np.array_equal(r1, r3) and piv1 == piv3


@st.composite
def shaped_matrices(draw, kind):
    """Random, tall, or rank-deficient matrices mod a small prime."""
    p = draw(st.sampled_from(PRIMES))
    cols = draw(st.integers(1, 8))
    rows = draw(st.integers(cols, 4 * cols)) if kind == "tall" else draw(st.integers(1, 8))

    def block(r, c):
        flat = draw(st.lists(st.integers(0, p - 1), min_size=r * c, max_size=r * c))
        return np.array(flat, dtype=np.int64).reshape(r, c)

    if kind == "deficient":
        k = draw(st.integers(0, min(rows, cols) - 1))
        return block(rows, k) @ block(k, cols) % p, p
    return block(rows, cols), p


@pytest.mark.parametrize("kind", ["random", "tall", "deficient"])
@settings(max_examples=80)
@given(data=st.data())
def test_rref_and_nullspace_match_dense_reference(kind, data):
    a, p = data.draw(shaped_matrices(kind))
    r, pivots = ffla.rref(a, p)
    want_r, want_pivots = reference.rref_dense(a, p)
    assert pivots == want_pivots
    assert r.dtype == want_r.dtype and r.tobytes() == want_r.tobytes()
    basis, want_basis = ffla.nullspace(a, p), reference.nullspace_dense(a, p)
    assert basis.shape == want_basis.shape and basis.tobytes() == want_basis.tobytes()
