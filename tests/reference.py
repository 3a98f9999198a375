"""Independent reference computations used as test oracles.

Everything here deliberately avoids the code paths under test: tableau
counts come from the hook product, rim hooks from explicit border-strip
removal, ranks from integer minors, the weight order from enumerating
root coefficients, echelon forms from a full dense elimination, hom
spaces from one stacked Kronecker system, Specht modules from tabloids
as tuples of sorted rows, one column permutation at a time, with each
generator solved against the whole tall basis, the Gram matrix from one
int64 product, the radical and head actions one generator at a time (the
head's complement of the radical by greedy rank tests), the combinatorial sweep
from the public scalar predicates, one weight at a time, and the four
oracles as each hypothesis check through the public, self-validating
predicates.
"""

from __future__ import annotations

import itertools
from math import factorial

import time

import numpy as np

from csext import combinatorics as comb
from csext import ffla, harness
from csext.combinatorics import (
    as_partition,
    chi,
    conjugate,
    enum_dominant_weights_bounded,
    hat,
    is_big_partition,
    is_big_weight,
    is_cs_weight,
    is_dominant,
    is_p_regular,
    is_p_restricted,
    psi,
    tilde,
    weight_lt,
)
from csext.errors import ScopeError, ScopeReason
from csext.oracle import ExtAnswer, RadPrediction, is_prime


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


def standard_tableaux_bruteforce(shape: tuple[int, ...]) -> tuple:
    """Standard tableaux by filtering every filling, sorted by row words."""
    m = sum(shape)
    bounds = list(itertools.accumulate((0,) + tuple(shape)))
    out = []
    for word in itertools.permutations(range(1, m + 1)):
        t = tuple(word[a:b] for a, b in zip(bounds, bounds[1:]))
        rows_ok = all(list(row) == sorted(row) for row in t)
        cols_ok = all(t[i][j] > t[i - 1][j] for i in range(1, len(t)) for j in range(len(t[i])))
        if rows_ok and cols_ok:
            out.append(t)
    return tuple(sorted(out))


def tabloids_reference(shape: tuple[int, ...]) -> tuple:
    """Tabloids as tuples of sorted rows, in the canonical order: row by
    row, each row's entries taken by itertools.combinations of those left."""
    out: list = []
    acc: list = []

    def rec(i: int, remaining: tuple[int, ...]) -> None:
        if i == len(shape):
            out.append(tuple(acc))
            return
        for combo in itertools.combinations(remaining, shape[i]):
            acc.append(combo)
            rec(i + 1, tuple(x for x in remaining if x not in combo))
            acc.pop()

    rec(0, tuple(range(1, sum(shape) + 1)))
    return tuple(out)


def _perm_sign(positions: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if positions[a] > positions[b]:
                sign = -sign
    return sign


def polytabloid_reference(t, index: dict, p: int) -> np.ndarray:
    """Signed column-group sum of tabloids, one column permutation at a time."""
    v = np.zeros(len(index), dtype=np.int64)
    ncols = len(t[0]) if t else 0
    columns = [tuple(row[c] for row in t if len(row) > c) for c in range(ncols)]
    col_positions = [{x: k for k, x in enumerate(col)} for col in columns]
    for perms in itertools.product(*(itertools.permutations(col) for col in columns)):
        sign = 1
        mapping: dict[int, int] = {}
        for col, perm, pos in zip(columns, perms, col_positions):
            sign *= _perm_sign(tuple(pos[x] for x in perm))
            mapping.update(zip(col, perm))
        tabloid = tuple(tuple(sorted(mapping.get(x, x) for x in row)) for row in t)
        v[index[tabloid]] += sign
    return v % p


def specht_data_reference(shape: tuple[int, ...], p: int) -> dict:
    """S^shape over GF(p): tabloids, standard tableaux, basis, Gram matrix and
    generators, each generator solved against the full tabloid-coordinate
    basis."""
    m = sum(shape)
    std = standard_tableaux_bruteforce(shape)
    tabs = tabloids_reference(shape)
    index = {t: k for k, t in enumerate(tabs)}
    basis = np.zeros((len(tabs), len(std)), dtype=np.int64)
    for k, t in enumerate(std):
        basis[:, k] = polytabloid_reference(t, index, p)
    gens = []
    for i in range(1, m):
        swap = {i: i + 1, i + 1: i}
        perm = [index[tuple(tuple(sorted(swap.get(x, x) for x in row)) for row in tab)]
                for tab in tabs]
        gens.append(ffla.solve_in_span(basis, basis[perm], p))
    return {
        "tabloids": tabs,
        "std_tableaux": std,
        "basis": basis,
        "gram": basis.T @ basis % p,
        "gens": tuple(gens),
    }


def gram_reference(basis: np.ndarray, p: int) -> np.ndarray:
    """The Gram matrix of a basis as one int64 product, reduced mod p."""
    return basis.T @ basis % p


def rad_subrep_reference(gram: np.ndarray, gens, p: int) -> tuple[int, tuple]:
    """(dim, generators) of the radical of the form, one solve per generator."""
    kernel = ffla.nullspace(gram, p)
    r = kernel.shape[1]
    if r == 0:
        return 0, tuple(np.zeros((0, 0), dtype=np.int64) for _ in gens)
    return r, tuple(ffla.solve_in_span(kernel, a @ kernel % p, p) for a in gens)


def simple_head_reference(gram: np.ndarray, gens, p: int) -> tuple[int, tuple]:
    """(dim, generators) of the head, completing the radical by unit vectors
    in order and solving one generator at a time."""
    d = len(gram)
    kernel = ffla.nullspace(gram, p)
    if kernel.shape[1] == 0:
        return d, tuple(gens)
    full = kernel
    comp = []
    for j in range(d):
        candidate = np.hstack([full, np.eye(d, dtype=np.int64)[:, [j]]])
        if ffla.rank(candidate, p) == candidate.shape[1]:
            full, comp = candidate, comp + [j]
    q = len(comp)
    unit = np.eye(d, dtype=np.int64)[:, comp]
    basis = np.hstack([unit, kernel])
    return q, tuple(ffla.solve_in_span(basis, a @ unit % p, p)[:q] for a in gens)


def sweep_comb_reference(primes: list[int], n_max: int, max_entry: int) -> harness.Report:
    """harness.sweep_comb as one scalar pass per weight through the public
    predicates: the same rows, in the same order, and the same counters
    apart from scalar_agreements."""
    t0 = time.perf_counter()
    rows = []
    checks_run = weights_checked = big_count = hat_restricted_count = 0

    def fail(check, p, n, lam, observed):
        rows.append(harness.SweepRow(check, p, n, harness.fmt_tuple(lam), None,
                                     "invariant holds", observed, harness.MISMATCH))

    for p in primes:
        for n in range(1, n_max + 1):
            for lam in enum_dominant_weights_bounded(n, max_entry):
                weights_checked += 1
                m = sum(lam)
                last_zero = lam[-1] == 0
                restricted = is_p_restricted(lam, p)

                if last_zero:
                    conj = conjugate(as_partition(lam))
                    checks_run += 1
                    if restricted != is_p_regular(conj, p):
                        fail("restricted_iff_conjugate_regular", p, n, lam,
                             f"restricted={restricted}, conjugate regular={not restricted}")
                    if m > 0:
                        checks_run += 1
                        if psi(lam) != chi(conj):
                            fail("psi_chi_conjugate", p, n, lam, f"psi={psi(lam)}, chi={chi(conj)}")
                if not restricted:
                    continue

                big = is_big_weight(lam, p)
                if big:
                    checks_run += 1
                    if not is_cs_weight(lam, p):
                        fail("big_implies_cs", p, n, lam, f"big but psi={psi(lam)} > {p}")

                shifted_big = {}
                for c in (1, -2):
                    shifted = tuple(x + c for x in lam)
                    checks_run += 2
                    if psi(shifted) != psi(lam):
                        fail("psi_translation", p, n, lam, f"c={c}: {psi(shifted)} != {psi(lam)}")
                    shifted_big[c] = is_big_weight(shifted, p)
                    if shifted_big[c] != big:
                        fail("big_translation", p, n, lam, f"c={c}: bigness changed")

                if big:
                    big_count += 1
                    h = hat(lam, p)
                    if is_dominant(h):
                        hat_restricted_count += is_p_restricted(h, p)
                    checks_run += 3
                    if not is_dominant(h):
                        fail("hat_dominant", p, n, lam, f"hat={harness.fmt_tuple(h)} not dominant")
                    if sum(h) != m:
                        fail("hat_sum", p, n, lam, f"sum {sum(h)} != {m}")
                    if not weight_lt(h, lam):
                        fail("hat_strictly_below", p, n, lam,
                             f"hat={harness.fmt_tuple(h)} not strictly below")
                    for c in (1, -2):
                        if not shifted_big[c]:
                            continue
                        shifted = tuple(x + c for x in lam)
                        checks_run += 1
                        if hat(shifted, p) != tuple(x + c for x in h):
                            fail("hat_translation", p, n, lam, f"c={c}: node move not equivariant")

                if last_zero and n >= m:
                    big_part = is_big_partition(conj, p)
                    checks_run += 1
                    if big != big_part:
                        fail("big_weight_iff_big_partition", p, n, lam,
                             f"big weight={big}, big conjugate partition={big_part}")
                    if big and big_part and is_dominant(h):
                        checks_run += 1
                        lhs = conjugate(as_partition(h))
                        try:
                            rhs = tilde(conj, p)
                        except ScopeError as e:
                            fail("hat_conjugate_is_tilde", p, n, lam,
                                 f"conj(hat)={harness.fmt_tuple(lhs)}, tilde refused: {e.reason.value}")
                            continue
                        if lhs != rhs:
                            fail("hat_conjugate_is_tilde", p, n, lam,
                                 f"conj(hat)={harness.fmt_tuple(lhs)}, tilde(conj)={harness.fmt_tuple(rhs)}")

    extras = {
        "weights_checked": weights_checked,
        "checks_run": checks_run,
        "big_weights": big_count,
        "hat_p_restricted": hat_restricted_count,
    }
    config = {"primes": list(primes), "n_max": n_max, "max_entry": max_entry}
    return harness._finish("comb", config, rows, extras, t0)


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def ext1_gl_reference(lam, mu, p: int) -> ExtAnswer:
    """oracle.ext1_gl with every hypothesis checked through the public predicates."""
    _require_prime(p)
    lam, mu = tuple(lam), tuple(mu)
    if len(lam) != len(mu):
        raise ValueError(f"weight lengths differ: {len(lam)} vs {len(mu)}")
    for w in (lam, mu):
        if not comb.is_dominant(w):
            raise ScopeError(ScopeReason.NON_DOMINANT, f"weight {w} is not dominant")
    lam, mu = comb.normalize_pair(lam, mu)
    if not comb.is_p_restricted(lam, p):
        raise ScopeError(
            ScopeReason.NOT_P_RESTRICTED, f"lam={lam} is not {p}-restricted"
        )
    if comb.psi(lam) > p:
        raise ScopeError(
            ScopeReason.NOT_COMPLETELY_SPLITTABLE,
            f"psi(lam)={comb.psi(lam)} > p={p}, lam={lam} is not completely splittable",
        )
    if comb.weight_lt(lam, mu):
        raise ScopeError(
            ScopeReason.ORDER_HYPOTHESIS_FAILS,
            f"lam={lam} lies strictly below mu={mu} in the weight order",
        )
    if comb.is_big_weight(lam, p):
        witness = comb.hat(lam, p)
        if mu == witness:
            return ExtAnswer(dim=1, witness=witness)
    return ExtAnswer(dim=0)


def ext1_sym_reference(lam, mu, p: int) -> ExtAnswer:
    """oracle.ext1_sym with bigness from rim hooks and tilde from the public move."""
    _require_prime(p)
    lam, mu = comb.as_partition(lam), comb.as_partition(mu)
    if comb.degree(lam) != comb.degree(mu):
        raise ValueError(
            f"degrees differ: |{lam}| = {comb.degree(lam)}, |{mu}| = {comb.degree(mu)}"
        )
    if p == 2:
        raise ScopeError(ScopeReason.CHAR_TWO, "the criterion requires p > 2")
    if not comb.is_cs_partition(lam, p):
        raise ScopeError(
            ScopeReason.NOT_COMPLETELY_SPLITTABLE,
            f"chi(lam)={comb.chi(lam)} > p={p}, lam={lam} is not completely splittable",
        )
    if not comb.is_p_regular(lam, p):
        raise ScopeError(ScopeReason.NOT_P_REGULAR, f"lam={lam} is not {p}-regular")
    if not comb.is_p_regular(mu, p):
        raise ScopeError(ScopeReason.NOT_P_REGULAR, f"mu={mu} is not {p}-regular")
    if comb.strictly_dominates(lam, mu):
        raise ScopeError(
            ScopeReason.ORDER_HYPOTHESIS_FAILS,
            f"lam={lam} strictly dominates mu={mu}",
        )
    if comb.is_big_partition(lam, p):
        witness = comb.tilde(lam, p)
        if mu == witness:
            return ExtAnswer(dim=1, witness=witness)
    return ExtAnswer(dim=0)


def rad_weyl_prediction_reference(lam, p: int) -> RadPrediction:
    """oracle.rad_weyl_prediction through the public predicates."""
    _require_prime(p)
    lam = tuple(lam)
    if not comb.is_dominant(lam):
        raise ScopeError(ScopeReason.NON_DOMINANT, f"weight {lam} is not dominant")
    if not comb.is_p_restricted(lam, p):
        raise ScopeError(
            ScopeReason.NOT_P_RESTRICTED, f"lam={lam} is not {p}-restricted"
        )
    if comb.psi(lam) > p:
        raise ScopeError(
            ScopeReason.NOT_COMPLETELY_SPLITTABLE,
            f"psi(lam)={comb.psi(lam)} > p={p}, lam={lam} is not completely splittable",
        )
    if comb.is_big_weight(lam, p):
        return RadPrediction(zero=False, source=comb.hat(lam, p))
    return RadPrediction(zero=True)


def rad_specht_prediction_reference(lam, p: int) -> RadPrediction:
    """oracle.rad_specht_prediction with bigness from rim hooks."""
    _require_prime(p)
    lam = comb.as_partition(lam)
    if p == 2:
        raise ScopeError(ScopeReason.CHAR_TWO, "the criterion requires p > 2")
    if not comb.is_cs_partition(lam, p):
        raise ScopeError(
            ScopeReason.NOT_COMPLETELY_SPLITTABLE,
            f"chi(lam)={comb.chi(lam)} > p={p}, lam={lam} is not completely splittable",
        )
    if not comb.is_p_regular(lam, p):
        raise ScopeError(ScopeReason.NOT_P_REGULAR, f"lam={lam} is not {p}-regular")
    if comb.is_big_partition(lam, p):
        return RadPrediction(zero=False, source=comb.tilde(lam, p))
    return RadPrediction(zero=True)
