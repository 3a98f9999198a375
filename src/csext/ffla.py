"""Exact dense linear algebra over the prime field GF(p).

Matrices are numpy integer arrays with entries reduced mod p.  Pivoting is
deterministic (first nonzero entry in column order), so echelon forms, ranks
and nullspace bases are reproducible byte for byte.

Elimination touches only what can change: each pivot updates just the rows
with a nonzero entry in the pivot column, and only from the pivot column
rightward (the pivot row is zero to its left).  Most rows of the systems
this package solves reduce to zero, so this skips most of a full
outer-product update without changing the result.
"""

from __future__ import annotations

import numpy as np


def as_fp(a, p: int) -> np.ndarray:
    """Copy to an int64 array with entries reduced into [0, p)."""
    return np.array(a, dtype=np.int64) % p


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns (R, pivot_columns).  Pivots are the first rows with a nonzero
    entry in each column, scanned left to right.
    """
    r = as_fp(a, p)
    if r.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {r.shape}")
    rows, cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        nz = np.flatnonzero(r[row:, col])
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        pivot_row = r[row, col:] * pow(int(r[row, col]), -1, p) % p
        r[row, col:] = pivot_row
        hit = np.flatnonzero(r[:, col])
        hit = hit[hit != row]
        if hit.size:
            r[hit, col:] = (r[hit, col:] - np.outer(r[hit, col], pivot_row)) % p
        pivots.append(col)
        row += 1
    return r, pivots


def rank(a, p: int) -> int:
    """Row-echelon rank over GF(p)."""
    return len(rref(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Basis of the right kernel {x : a x = 0}, as matrix columns.

    The basis comes from the free columns of the reduced echelon form, in
    column order, so it has exactly cols - rank(a) columns and the identity
    pattern on the free coordinates.
    """
    r, pivots = rref(a, p)
    cols = r.shape[1]
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = (-r[: len(pivots)][:, free]) % p
    return basis


def solve_in_span(b, v, p: int) -> np.ndarray | None:
    """Solve b @ c = v over GF(p) for a matrix b with independent columns.

    Args:
        b: (rows x k) matrix whose columns must be linearly independent.
        v: right-hand side, a vector of length rows or a matrix of stacked
           right-hand-side columns.
        p: prime modulus.

    Returns:
        The unique coefficient vector (or matrix, one column per right-hand
        side), or None when some right-hand side lies outside the span.

    Raises:
        ValueError: if the columns of b are linearly dependent.
    """
    bm = as_fp(b, p)
    vm = as_fp(v, p)
    vec = vm.ndim == 1
    if vec:
        vm = vm[:, None]
    if bm.shape[0] != vm.shape[0]:
        raise ValueError(f"row counts differ: {bm.shape[0]} vs {vm.shape[0]}")
    k = bm.shape[1]
    r, pivots = rref(np.hstack([bm, vm]), p)
    if sum(1 for c in pivots if c < k) < k:
        raise ValueError("columns of b are linearly dependent")
    if len(pivots) > k:
        return None
    coeffs = r[:k, k:]
    return coeffs[:, 0] if vec else coeffs
