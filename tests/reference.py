"""Independent reference computations used as test oracles.

Everything here deliberately avoids the code paths under test: tableau
counts come from the hook product, rim hooks from explicit border-strip
removal, ranks from integer minors, the weight order from enumerating
root coefficients, echelon forms from a full dense elimination, and hom
spaces from one stacked Kronecker system.
"""

from __future__ import annotations

import itertools
from math import factorial

import numpy as np


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Number of standard tableaux by the hook length product."""
    if not shape:
        return 1
    conj = [sum(1 for x in shape if x > j) for j in range(shape[0])]
    prod = 1
    for i in range(len(shape)):
        for j in range(shape[i]):
            prod *= shape[i] - j + conj[j] - i - 1
    return factorial(sum(shape)) // prod


def cells(shape: tuple[int, ...]) -> set[tuple[int, int]]:
    return {(r, c) for r, width in enumerate(shape) for c in range(width)}


def subpartitions(shape: tuple[int, ...], target: int):
    """All partitions of target fitting inside shape, row by row."""

    def rec(i: int, remaining: int, prev: int, acc: tuple[int, ...]):
        if remaining == 0:
            yield acc
            return
        if i == len(shape):
            return
        for v in range(min(shape[i], prev, remaining), 0, -1):
            yield from rec(i + 1, remaining - v, v, acc + (v,))

    yield from rec(0, target, target + 1, ())


def is_border_strip(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """Whether outer/inner is edge-connected and contains no 2x2 block."""
    skew = cells(outer) - cells(inner)
    if not skew:
        return False
    for r, c in skew:
        if {(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= skew:
            return False
    seen = set()
    stack = [next(iter(sorted(skew)))]
    while stack:
        cell = stack.pop()
        if cell in seen:
            continue
        seen.add(cell)
        r, c = cell
        for nxt in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nxt in skew and nxt not in seen:
                stack.append(nxt)
    return seen == skew


def has_rim_hook_bruteforce(shape: tuple[int, ...], p: int) -> bool:
    """Rim p-hook existence by trying every border-strip removal."""
    m = sum(shape)
    if p > m:
        return False
    for inner in subpartitions(shape, m - p):
        if all(inner[i] <= shape[i] for i in range(len(inner))) and is_border_strip(shape, inner):
            return True
    return False


def det_int(mat: tuple[tuple[int, ...], ...]) -> int:
    """Integer determinant by Laplace expansion; fine for tiny matrices."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    rest = mat[1:]
    for j in range(n):
        minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in rest)
        total += (-1) ** j * mat[0][j] * det_int(minor)
    return total


def rank_by_minors(mat, p: int) -> int:
    """Rank over GF(p) as the largest size of a minor with nonzero det mod p."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = tuple(tuple(int(mat[r][c]) for c in ci) for r in ri)
                if det_int(sub) % p != 0:
                    return k
    return 0


def weight_le_bruteforce(mu: tuple[int, ...], lam: tuple[int, ...], bound: int) -> bool:
    """mu <= lam by enumerating nonnegative coefficients on the simple roots."""
    n = len(lam)
    target = tuple(a - b for a, b in zip(lam, mu))
    for coeffs in itertools.product(range(bound + 1), repeat=n - 1):
        vec = [0] * n
        for k, c in enumerate(coeffs):
            vec[k] += c
            vec[k + 1] -= c
        if tuple(vec) == target:
            return True
    return False


def rref_dense(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p), eliminating every row in full.

    Each pivot subtracts a full outer product from the whole matrix.  Pivots
    are the first rows with a nonzero entry in each column, left to right.
    """
    r = np.array(a, dtype=np.int64) % p
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
        r[row] = r[row] * pow(int(r[row, col]), -1, p) % p
        colvals = r[:, col].copy()
        colvals[row] = 0
        r -= np.outer(colvals, r[row])
        r %= p
        pivots.append(col)
        row += 1
    return r, pivots


def nullspace_dense(a, p: int) -> np.ndarray:
    """Right kernel basis from rref_dense: identity on the free columns."""
    r, pivots = rref_dense(a, p)
    cols = r.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(r[i, f])) % p
    return basis


def hom_space_stacked(v_gens, w_gens, v_dim: int, w_dim: int, p: int) -> tuple[np.ndarray, ...]:
    """Basis of the maps F with F A_i = B_i F, from one stacked system.

    Stacks the Kronecker blocks (A_i^T kron I) - (I kron B_i), which act on
    the column-major vec(F), and reads the maps off its kernel basis.
    """
    if v_dim == 0 or w_dim == 0:
        return ()
    if not v_gens:
        eye = np.eye(w_dim * v_dim, dtype=np.int64)
        return tuple(eye[:, k].reshape((w_dim, v_dim), order="F") for k in range(eye.shape[1]))
    iv = np.eye(v_dim, dtype=np.int64)
    iw = np.eye(w_dim, dtype=np.int64)
    blocks = [(np.kron(a.T, iw) - np.kron(iv, b)) % p for a, b in zip(v_gens, w_gens)]
    kernel = nullspace_dense(np.vstack(blocks), p)
    return tuple(
        kernel[:, k].reshape((w_dim, v_dim), order="F") for k in range(kernel.shape[1])
    )
