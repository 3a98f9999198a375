import itertools

import pytest
from hypothesis import given, settings, strategies as st

from csext import (
    ScopeError,
    ScopeReason,
    conjugate,
    enum_dominant_weights,
    enum_partitions,
    ext1_gl,
    ext1_sym,
    hat,
    pad,
    rad_specht_prediction,
    rad_weyl_prediction,
    weight_lt,
)

from reference import (
    ext1_gl_reference,
    ext1_sym_reference,
    rad_specht_prediction_reference,
    rad_weyl_prediction_reference,
)


def test_ext1_gl_examples():
    answer = ext1_gl((2, 2, 0, 0), (1, 1, 1, 1), 3)
    assert answer.dim == 1 and answer.witness == (1, 1, 1, 1)
    assert ext1_gl((2, 2, 0, 0), (2, 1, 1, 0), 3).dim == 0
    assert ext1_gl((2, 2, 0, 0), (2, 2, 0, 0), 3).dim == 0  # self-extension
    with pytest.raises(ScopeError) as exc:
        ext1_gl((4, 1, 0, 0, 0), (1, 1, 1, 1, 1), 3)
    assert exc.value.reason is ScopeReason.NOT_P_RESTRICTED


def test_ext1_gl_scope_errors():
    with pytest.raises(ScopeError) as exc:
        ext1_gl((1, 2, 0), (1, 1, 1), 3)
    assert exc.value.reason is ScopeReason.NON_DOMINANT
    with pytest.raises(ScopeError) as exc:
        ext1_gl((3, 2, 1, 0), (3, 2, 1, 0), 2)
    assert exc.value.reason is ScopeReason.NOT_COMPLETELY_SPLITTABLE
    with pytest.raises(ScopeError) as exc:
        ext1_gl((1, 1, 1, 1), (2, 2, 0, 0), 3)
    assert exc.value.reason is ScopeReason.ORDER_HYPOTHESIS_FAILS
    with pytest.raises(ValueError):
        ext1_gl((1, 0), (1, 0), 6)
    with pytest.raises(ValueError):
        ext1_gl((1, 0), (1, 0, 0), 3)


def test_ext1_gl_accepts_p2():
    # completely splittable at p=2 is never big, so in-scope answers are 0
    assert ext1_gl((1, 1, 0, 0), (1, 1, 0, 0), 2).dim == 0


def test_ext1_sym_examples():
    answer = ext1_sym((2, 2), (4,), 3)
    assert answer.dim == 1 and answer.witness == (4,)
    assert ext1_sym((2, 2), (3, 1), 3).dim == 0
    with pytest.raises(ScopeError) as exc:
        ext1_sym((2, 2), (4,), 2)
    assert exc.value.reason is ScopeReason.CHAR_TWO


def test_ext1_sym_scope_errors():
    with pytest.raises(ScopeError) as exc:
        ext1_sym((3, 1), (4,), 3)
    assert exc.value.reason is ScopeReason.NOT_COMPLETELY_SPLITTABLE
    with pytest.raises(ScopeError) as exc:
        ext1_sym((1, 1, 1), (3,), 3)
    assert exc.value.reason is ScopeReason.NOT_P_REGULAR
    with pytest.raises(ScopeError) as exc:
        ext1_sym((3,), (1, 1, 1), 3)
    assert exc.value.reason is ScopeReason.NOT_P_REGULAR
    with pytest.raises(ScopeError) as exc:
        ext1_sym((2, 2), (2, 1, 1), 3)
    assert exc.value.reason is ScopeReason.ORDER_HYPOTHESIS_FAILS
    with pytest.raises(ValueError):
        ext1_sym((2, 2), (3,), 3)


def test_rad_weyl_prediction_examples():
    pred = rad_weyl_prediction((2, 2, 0, 0), 3)
    assert not pred.zero and pred.source == (1, 1, 1, 1)
    assert rad_weyl_prediction((2, 1, 1, 1), 3).zero
    assert rad_weyl_prediction((4, 4, 4), 5).zero


def test_rad_specht_prediction_examples():
    pred = rad_specht_prediction((2, 2), 3)
    assert not pred.zero and pred.source == (4,)
    assert rad_specht_prediction((3, 3), 5).zero
    assert rad_specht_prediction((6,), 5).zero
    with pytest.raises(ScopeError) as exc:
        rad_specht_prediction((2, 2), 2)
    assert exc.value.reason is ScopeReason.CHAR_TWO


@given(st.integers(-6, 6))
def test_twist_invariance(c):
    lam = (2, 2, 0, 0)
    mu = (1, 1, 1, 1)
    base = ext1_gl(lam, mu, 3)
    shifted = ext1_gl(tuple(x + c for x in lam), tuple(x + c for x in mu), 3)
    assert shifted.dim == base.dim == 1


def test_dim_one_implies_strictly_below_with_equal_sum():
    for p in (2, 3, 5, 7):
        for n in range(1, 6):
            for m in range(0, 9):
                for lam in enum_dominant_weights(n, m):
                    try:
                        pred = rad_weyl_prediction(lam, p)
                    except ScopeError:
                        continue
                    if pred.zero:
                        continue
                    mu = pred.source
                    answer = ext1_gl(lam, mu, p)
                    assert answer.dim == 1
                    assert sum(mu) == sum(lam)
                    assert weight_lt(mu, lam)


def test_at_most_one_mu_with_dim_one():
    for p in (3, 5):
        for n in (3, 4):
            for m in range(0, 8):
                weights = enum_dominant_weights(n, m)
                for lam in weights:
                    hits = []
                    for mu in weights:
                        try:
                            if ext1_gl(lam, mu, p).dim == 1:
                                hits.append(mu)
                        except ScopeError:
                            pass
                    assert len(hits) <= 1
                    if hits:
                        assert hits[0] == hat(lam, p)


def test_gl_sym_conjugation_consistency():
    # both oracles in scope at n = m: the dimensions and witnesses agree
    # through conjugation, exhaustively for degree <= 9
    for p in (3, 5, 7):
        for m in range(1, 10):
            parts = [lam for lam in enum_partitions(m) if len(lam) < m]
            for lam, mu in itertools.product(parts, parts):
                wl, wm = pad(lam, m), pad(mu, m)
                try:
                    gl = ext1_gl(wl, wm, p)
                    sym = ext1_sym(conjugate(lam), conjugate(mu), p)
                except ScopeError:
                    continue
                assert gl.dim == sym.dim, (lam, mu, p)
                if gl.dim == 1:
                    assert conjugate(tuple(x for x in gl.witness if x)) == sym.witness


def _outcome(fn, *args):
    """A result with the types of its witness entries, or the refusal:
    exception type, then reason and message of a ScopeError or the text of
    any other exception."""
    try:
        result = fn(*args)
    except ScopeError as e:
        return ScopeError, e.reason, e.message, str(e)
    except ValueError as e:
        return type(e), str(e)
    label = getattr(result, "witness", getattr(result, "source", None))
    return result, None if label is None else [type(x) for x in label]


PRIMES = st.sampled_from([2, 3, 4, 5, 7])
# Mostly weakly decreasing entries, so the hypotheses past dominance get exercised.
WEIGHTS = st.one_of(
    st.lists(st.integers(-3, 8), max_size=7).map(lambda w: tuple(sorted(w, reverse=True))),
    st.lists(st.integers(-3, 8), max_size=7).map(tuple),
)
PARTITIONS_BY_DEGREE = {m: enum_partitions(m) for m in range(16)}


@st.composite
def partition_pairs(draw):
    """lam and mu, mostly partitions of one degree, some with trailing zeros,
    some of unequal degree or not partitions at all."""
    def zeros():
        return (0,) * draw(st.integers(0, 2))

    m = draw(st.integers(0, 15))
    lam = draw(st.sampled_from(PARTITIONS_BY_DEGREE[m])) + zeros()
    if draw(st.integers(0, 9)) == 0:
        return lam, draw(st.lists(st.integers(-1, 5), max_size=5).map(tuple))
    mu_degree = m if draw(st.integers(0, 9)) else draw(st.integers(0, 15))
    return lam, draw(st.sampled_from(PARTITIONS_BY_DEGREE[mu_degree])) + zeros()


@settings(max_examples=400)
@given(WEIGHTS, WEIGHTS, st.booleans(), PRIMES)
def test_gl_gate_matches_reference(lam, mu, same_rank, p):
    if same_rank:
        mu = (mu + lam)[: len(lam)]
    assert _outcome(ext1_gl, lam, mu, p) == _outcome(ext1_gl_reference, lam, mu, p)
    assert _outcome(rad_weyl_prediction, lam, p) == _outcome(rad_weyl_prediction_reference, lam, p)


@settings(max_examples=400)
@given(partition_pairs(), PRIMES)
def test_sym_gate_matches_reference(pair, p):
    lam, mu = pair
    assert _outcome(ext1_sym, lam, mu, p) == _outcome(ext1_sym_reference, lam, mu, p)
    assert _outcome(rad_specht_prediction, lam, p) == _outcome(rad_specht_prediction_reference, lam, p)
    assert _outcome(rad_specht_prediction, mu, p) == _outcome(rad_specht_prediction_reference, mu, p)


def test_gates_match_reference_on_every_small_input():
    for p in (2, 3, 4, 5, 7):
        for n in range(1, 5):
            weights = [w for m in range(7) for w in enum_dominant_weights(n, m)]
            for lam, mu in itertools.product(weights, repeat=2):
                assert _outcome(ext1_gl, lam, mu, p) == _outcome(ext1_gl_reference, lam, mu, p)
        for m in range(10):
            for lam, mu in itertools.product(PARTITIONS_BY_DEGREE[m], repeat=2):
                assert _outcome(ext1_sym, lam, mu, p) == _outcome(ext1_sym_reference, lam, mu, p)
