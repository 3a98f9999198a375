"""Partition and dominant-weight combinatorics.

Partitions are tuples of positive integers in weakly decreasing order, with
trailing zeros stripped; ``()`` is the zero partition.  Weights are integer
tuples of a fixed ambient rank n, and a dominant weight is weakly decreasing.
Row and generator indices in this module are 1-based, matching the usual
conventions for Young diagrams.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ScopeError, ScopeReason

Partition = tuple[int, ...]
Weight = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize to a partition, stripping trailing zeros and validating.

    Accepts any weakly decreasing sequence of nonnegative integers, so a
    dominant nonnegative weight can be reinterpreted as a partition directly.
    """
    t = tuple(int(x) for x in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    for i, x in enumerate(t):
        if x <= 0:
            raise ValueError(f"partition parts must be positive, got {t}")
        if i and t[i - 1] < x:
            raise ValueError(f"partition parts must be weakly decreasing, got {t}")
    return t


def degree(lam: Partition) -> int:
    """Number of cells of the Young diagram."""
    return sum(lam)


def height(lam: Partition) -> int:
    """Number of nonzero parts."""
    return len(as_partition(lam))


def is_dominant(w: Sequence[int]) -> bool:
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def check_dominant(w: Sequence[int]) -> Weight:
    t = tuple(map(int, w))
    if not is_dominant(t):
        raise ValueError(f"weight is not dominant (not weakly decreasing): {t}")
    return t


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram: column lengths become parts."""
    lam = as_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


def dominates(lam: Partition, mu: Partition) -> bool:
    """Prefix-sum dominance lam >= mu, with implicit trailing zeros.

    Applied literally, so partitions of unequal degree are comparable.
    """
    return _dominates(as_partition(lam), as_partition(mu))


def strictly_dominates(lam: Partition, mu: Partition) -> bool:
    lam, mu = as_partition(lam), as_partition(mu)
    return lam != mu and _dominates(lam, mu)


def weight_leq(mu: Weight, lam: Weight) -> bool:
    """True iff lam - mu is a nonnegative integer sum of roots e_i - e_j, i < j.

    Equivalent prefix-sum form: the entry sums agree and every prefix sum of
    lam - mu is nonnegative.
    """
    if len(mu) != len(lam):
        raise ValueError(f"weight lengths differ: {len(mu)} vs {len(lam)}")
    s = 0
    for x, y in zip(lam, mu):
        s += x - y
        if s < 0:
            return False
    return s == 0


def weight_lt(mu: Weight, lam: Weight) -> bool:
    """Strict weight order: mu <= lam and mu != lam."""
    return tuple(mu) != tuple(lam) and weight_leq(mu, lam)


def is_p_regular(lam: Partition, p: int) -> bool:
    """No nonzero part value occurs p or more times."""
    return _regular(as_partition(lam), p)


def is_p_restricted(w: Weight, p: int) -> bool:
    """All consecutive differences of a dominant weight are < p."""
    return _restricted(check_dominant(w), p)


# The private cores below trust their input: a dominant weight as a tuple or
# list of ints (for _hat a big one), or partitions as as_partition returns
# them.  The public predicates validate once and then call them; callers that
# validated already may call them directly.


def _chi(lam: Partition) -> int:
    return lam[0] - lam[-1] + len(lam) if lam else 0


def _rim_p_hook(lam: Partition, p: int) -> bool:
    betas = {x + len(lam) - 1 - i for i, x in enumerate(lam)}
    return any(b >= p and b - p not in betas for b in betas)


def _regular(lam: Partition, p: int) -> bool:
    # In a weakly decreasing sequence a value occurs p times iff it equals
    # the entry p - 1 places on.
    return all(a != b for a, b in zip(lam, lam[p - 1:]))


def _dominates(lam: Partition, mu: Partition) -> bool:
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def _restricted(w: Sequence[int], p: int) -> bool:
    return all(a - b < p for a, b in zip(w, w[1:]))


def _ends(w: Sequence[int]) -> tuple[int, int] | None:
    """First and last removable rows (1-based), or None if w is constant.

    In a dominant weight the entries equal to w_1 form a prefix and those
    equal to w_n a suffix, so both ends are counts.
    """
    if not w:
        return None
    i = w.count(w[0])
    if i == len(w):
        return None
    return i, len(w) - w.count(w[-1])


def _psi(w: Sequence[int]) -> int:
    ends = _ends(w)
    if ends is None:
        return 0
    i, j = ends
    return j - i + w[i - 1] - w[j]


def _big(w: Sequence[int], p: int) -> bool:
    ends = _ends(w)
    if ends is None:
        return False
    i, j = ends
    gap = w[i - 1] - w[j]
    return j - i + gap <= p and gap > 1 and j - 1 + gap >= p and i - gap + p + 1 <= len(w)


def _hat(w: Sequence[int], p: int) -> Weight:
    i, j = _ends(w)
    gap = w[i - 1] - w[j]
    count = i - j - gap + p + 1
    base = j + gap - p - 1
    out = list(w)
    # Rows base+1..i lose a node and rows j+1..j+count gain one; base + count = i.
    for k in range(base, i):
        out[k] -= 1
    for k in range(j, j + count):
        out[k] += 1
    return tuple(out)


def chi(lam: Partition) -> int:
    """lam_1 - lam_h + h for a nonzero partition of height h, else 0."""
    return _chi(as_partition(lam))


class RemovableRows(NamedTuple):
    """Rows r < n of a dominant weight with a strict drop to the next row."""

    rows: tuple[int, ...]
    i_min: int | None
    j_max: int | None


def removable_rows(w: Weight) -> RemovableRows:
    w = check_dominant(w)
    rows = tuple(r for r in range(1, len(w)) if w[r - 1] > w[r])
    if not rows:
        return RemovableRows((), None, None)
    return RemovableRows(rows, rows[0], rows[-1])


def psi(w: Weight) -> int:
    """j - i + w_i - w_{j+1} over the extreme removable rows i, j; 0 if none."""
    return _psi(check_dominant(w))


def is_cs_partition(lam: Partition, p: int) -> bool:
    """Complete splittability test for the irreducible head of S^lam: chi <= p.

    p-regularity of lam (existence of the head) is the caller's concern.
    """
    return chi(lam) <= p


def is_cs_weight(w: Weight, p: int) -> bool:
    """Complete splittability test for p-restricted dominant weights: psi <= p."""
    return _psi(_check_restricted(w, p, "the psi criterion applies to")) <= p


def has_rim_p_hook(lam: Partition, p: int) -> bool:
    """Whether some rim hook of p cells can be removed from the diagram.

    Beta-set test: with beta_i = lam_i + h - i, a removable rim p-hook exists
    iff some beta >= p has beta - p outside the beta-set.
    """
    return _rim_p_hook(as_partition(lam), p)


def is_big_partition(lam: Partition, p: int) -> bool:
    """Completely splittable, at least two parts, and a removable rim p-hook."""
    lam = as_partition(lam)
    return _chi(lam) <= p and len(lam) >= 2 and _rim_p_hook(lam, p)


def is_big_weight(w: Weight, p: int) -> bool:
    """Whether a p-restricted dominant weight admits the nontrivial node move.

    Requires a removable row, and with i, j the extreme removable rows:
      1. j - i + w_i - w_{j+1} <= p   (completely splittable), and
      2. w_i - w_{j+1} > 1,  j - 1 + w_i - w_{j+1} >= p,  and
         i - w_i + w_{j+1} + p + 1 <= n.
    """
    return _big(_check_restricted(w, p, "bigness is defined for"), p)


def _check_restricted(w: Weight, p: int, what: str) -> Weight:
    w = check_dominant(w)
    if not _restricted(w, p):
        raise ScopeError(ScopeReason.NOT_P_RESTRICTED,
                         f"{what} p-restricted weights only, got {w} at p={p}")
    return w


def hat(w: Weight, p: int) -> Weight:
    """Move p + 1 - psi nodes from the last column to column w_{j+1} + 1.

    Subtracts the roots e_{a+k} - e_{j+k}, k = 1..(i - j - w_i + w_{j+1} + p + 1)
    with a = j + w_i - w_{j+1} - p - 1.  Defined for big weights only; the
    result is dominant, has the same entry sum and sits strictly below w in
    the weight order.
    """
    w = _check_restricted(w, p, "bigness is defined for")
    if not _big(w, p):
        raise ScopeError(
            ScopeReason.NOT_BIG, f"the node move is defined for big weights only, got {w} at p={p}"
        )
    return _hat(w, p)


def tilde(lam: Partition, p: int) -> Partition:
    """Partition-side counterpart of the node move, via conjugation.

    Computed as conjugate(hat(pad(conjugate(lam), m))) with ambient rank
    m = degree(lam).  The conjugate-side weight is p-restricted exactly when
    lam is p-regular, so p-irregular input is refused.
    """
    lam = as_partition(lam)
    if not is_big_partition(lam, p):
        raise ScopeError(
            ScopeReason.NOT_BIG,
            f"the tilde move is defined for big partitions only, got {lam} at p={p}",
        )
    if not is_p_regular(lam, p):
        raise ScopeError(
            ScopeReason.NOT_P_REGULAR,
            f"the conjugation route needs a p-regular partition, got {lam} at p={p}",
        )
    w = pad(conjugate(lam), degree(lam))
    return conjugate(as_partition(hat(w, p)))


def pad(a: Sequence[int], m: int | float) -> tuple[int, ...]:
    """Truncate or zero-extend a sequence to length m.

    Truncation must not drop a nonzero entry.  m = math.inf returns the
    trailing-zero-stripped normal form of the infinitely padded sequence.
    """
    t = tuple(int(x) for x in a)
    if m == math.inf:
        while t and t[-1] == 0:
            t = t[:-1]
        return t
    m = int(m)
    if m < 0:
        raise ValueError(f"pad length must be nonnegative, got {m}")
    if m < len(t):
        if any(x != 0 for x in t[m:]):
            raise ValueError(f"cannot truncate {t} to length {m}: nonzero entry dropped")
        return t[:m]
    return t + (0,) * (m - len(t))


def normalize_pair(lam: Weight, mu: Weight) -> tuple[Weight, Weight]:
    """Subtract lam_n from every entry of both weights, making lam_n = 0.

    Twisting by a power of the determinant character; every predicate used by
    the oracles is invariant under this translation.
    """
    if len(lam) != len(mu):
        raise ValueError(f"weight lengths differ: {len(lam)} vs {len(mu)}")
    if not lam:
        return tuple(lam), tuple(mu)
    c = lam[-1]
    return tuple(x - c for x in lam), tuple(x - c for x in mu)


def enum_partitions(m: int) -> list[Partition]:
    """All partitions of m in reverse-lexicographic order, (m) first."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return [()]
    out: list[Partition] = []
    cur = [m]
    while True:
        out.append(tuple(cur))
        k = len(cur) - 1
        while k >= 0 and cur[k] == 1:
            k -= 1
        if k < 0:
            return out
        val = cur[k] - 1
        cur = cur[:k] + [val]
        rem = m - sum(cur)
        while rem > 0:
            nxt = min(val, rem)
            cur.append(nxt)
            rem -= nxt


def enum_dominant_weights(n: int, m: int) -> list[Weight]:
    """All dominant weights of rank n with nonnegative entries summing to m.

    Ascending lexicographic order.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")

    def rec(k: int, s: int, cap: int) -> Iterator[tuple[int, ...]]:
        if k == 0:
            if s == 0:
                yield ()
            return
        lo = -(-s // k)
        for first in range(max(lo, 0), min(cap, s) + 1):
            for rest in rec(k - 1, s - first, first):
                yield (first,) + rest

    return list(rec(n, m, m))


def enum_dominant_weights_bounded(n: int, max_entry: int) -> Iterator[Weight]:
    """All dominant weights of rank n with entries in [0, max_entry].

    Descending lexicographic order.
    """
    yield from itertools.combinations_with_replacement(range(max_entry, -1, -1), n)
