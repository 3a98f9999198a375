"""Specht modules over GF(p) by explicit linear algebra.

Builds the tabloid permutation module M^lam, the Specht module S^lam in its
standard polytabloid basis, the Gram matrix of the invariant bilinear form
(tabloids orthonormal), the radical of that form, the simple head D^lam, and
spaces of module homomorphisms.  The matrices of a module (Gram matrix,
generator actions, radical, head) are dense integer matrices mod p, dim x
dim; the tabloid space is never held densely.  Tabloids are integer codes,
and each polytabloid is kept as its coded terms: the tabloid positions of
its signed column-group sum, one +-1 entry per column-group element, sorted
by position.

Each layer eliminates once.  The generators come from one square solve,
with no straightening relations, on the rows of the polytabloids at the
tabloids {t} of the standard tableaux and at their images under each s_i;
only those rows are gathered from the coded terms.  The Gram matrix is a
float64 BLAS product of the signed (+-1) polytabloids, accumulated over
chunks of tabloid rows scattered from the sorted terms and then reduced mod
p; every partial sum is an integer no larger than the column-group order,
far below 2^53, so the product is exact.  The radical and head actions of
all generators come from one solve against their stacked right-hand sides.
Each (shape, p) has one SpechtData record, built once a process, which
computes its radical and head on first use and keeps them, all read-only.
Maps out of S^nu are solved from its Garnir presentation, one vector of the
target per map, not one matrix.

The symmetric group acts on the left on tableau entries; a representation is
stored as one matrix per adjacent transposition s_i = (i, i+1), i = 1..m-1,
acting on column vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import ffla
from .combinatorics import Partition, as_partition, conjugate, is_p_regular
from .errors import EngineLimitError

DEFAULT_DEGREE_CAP = 7

Tableau = tuple[tuple[int, ...], ...]
Tabloid = tuple[tuple[int, ...], ...]


class DegreeCapError(ValueError):
    """Degree exceeds the configured cap for dense construction."""


def _check_cap(m: int, cap: int | None) -> None:
    limit = DEFAULT_DEGREE_CAP if cap is None else cap
    if m > limit:
        raise DegreeCapError(
            f"degree {m} exceeds the cap {limit}; raise it explicitly (cap=8 "
            f"builds tabloid spaces up to 8! = 40320)"
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    """The array, made read-only: the records are shared by the process."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SymRep:
    """A module for the symmetric group on {1..m} over GF(p).

    gens[k] is the dim x dim action matrix of the adjacent transposition
    (k+1, k+2).  The generator arrays are made read-only.
    """

    degree: int
    dim: int
    p: int
    gens: tuple[np.ndarray, ...]

    def __post_init__(self):
        for a in self.gens:
            _frozen(a)


@dataclass(frozen=True, eq=False)
class SpechtData:
    """S^shape over GF(p): standard basis, invariant form and action.

    The basis is the standard polytabloids, one per standard tableau; no
    array of the record has a row per tabloid (`polytabloid` gives one in
    tabloid coordinates).  gram is the matrix of the invariant form on that
    basis, computed by `_gram` as an exact float64 product of the signed
    polytabloids; rep carries the generator action expressed in the same
    basis.  The radical kernel and the radical and head actions are
    computed on first use and kept on the record.  Every array is
    read-only, since the record is shared by the whole process.
    """

    shape: Partition
    p: int
    std_tableaux: tuple[Tableau, ...]
    tabloid_count: int
    gram: np.ndarray
    rep: SymRep

    @cached_property
    def rad_kernel(self) -> np.ndarray:
        """Basis of the form's radical (the Gram kernel), as columns."""
        return _frozen(ffla.nullspace(self.gram, self.p))

    @cached_property
    def rad_rep(self) -> SymRep:
        """The induced action on the radical."""
        kernel, p, rep = self.rad_kernel, self.p, self.rep
        r = kernel.shape[1]
        if r == 0:
            gens = tuple(np.zeros((0, 0), dtype=np.int64) for _ in rep.gens)
            return SymRep(degree=rep.degree, dim=0, p=p, gens=gens)
        # The radical is a submodule, so each image lies in its span.
        gens = _coordinates(kernel, [a @ kernel % p for a in rep.gens], p)
        return SymRep(degree=rep.degree, dim=r, p=p, gens=gens)

    @cached_property
    def head_rep(self) -> SymRep:
        """The action on the head S / rad S, in a complement of the radical
        spanned by unit vectors."""
        kernel, p, rep = self.rad_kernel, self.p, self.rep
        d, r = rep.dim, kernel.shape[1]
        q = d - r
        if r == 0:
            return rep
        # Greedy completion of the radical to a basis by unit vectors; the head
        # action is read off in the first block of the combined coordinates.
        # e_j is skipped iff it lies in span(radical, e_0..e_{j-1}), that is iff
        # some radical vector has its last nonzero entry at j: a pivot of the
        # radical's coordinates read right to left.
        _, last = ffla.rref(kernel.T[:, ::-1], p)
        skipped = np.zeros(d, dtype=bool)
        skipped[d - 1 - np.array(last, dtype=np.int64)] = True
        full = np.hstack([np.eye(d, dtype=np.int64)[:, ~skipped], kernel])
        # The images of the unit vectors e_j, j not skipped, are columns of A.
        coeffs = _coordinates(full, [a[:, ~skipped] for a in rep.gens], p)
        return SymRep(degree=rep.degree, dim=q, p=p, gens=tuple(c[:q] for c in coeffs))


@dataclass(frozen=True, eq=False)
class HomSpace:
    """A basis of equivariant maps V -> W, as dim_W x dim_V matrices."""

    dim: int
    maps: tuple[np.ndarray, ...]


def standard_tableaux(shape: Partition, cap: int | None = None) -> list[Tableau]:
    """All standard Young tableaux of the given shape, sorted by row words."""
    shape = as_partition(shape)
    _check_cap(sum(shape), cap)
    return list(_standard_tableaux(shape))


@lru_cache(maxsize=None)
def _standard_tableaux(shape: Partition) -> tuple[Tableau, ...]:
    m = sum(shape)
    rows: list[list[int]] = [[] for _ in shape]
    out: list[Tableau] = []

    def place(v: int) -> None:
        if v > m:
            out.append(tuple(tuple(r) for r in rows))
            return
        for r in range(len(shape)):
            c = len(rows[r])
            if c < shape[r] and (r == 0 or len(rows[r - 1]) > c):
                rows[r].append(v)
                place(v + 1)
                rows[r].pop()

    place(1)
    return tuple(sorted(out))


def tabloid_basis(shape: Partition, cap: int | None = None) -> list[Tabloid]:
    """All tabloids of the given shape in canonical form, deterministic order.

    A tabloid is the sequence of its rows as sorted tuples; there are
    m!/prod(shape_i!) of them.
    """
    shape = as_partition(shape)
    m, k = sum(shape), len(shape)
    _check_cap(m, cap)
    words = _tabloids(shape)[0][:, None] // k ** np.arange(m) % k
    entries = np.argsort(words, axis=1, kind="stable") + 1
    bounds = list(itertools.accumulate((0,) + shape))
    return [tuple(tuple(e[a:b]) for a, b in zip(bounds, bounds[1:])) for e in entries.tolist()]


@lru_cache(maxsize=None)
def _tabloids(shape: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Tabloid codes in canonical order, and the argsort that looks them up.

    A tabloid's code is its row-assignment word: the row of entry x is the
    digit of weight k**(x-1), k = len(shape).  The order is row by row, each
    row's entries taken by itertools.combinations of those left.
    """
    m, k = sum(shape), len(shape)
    if k**m >= 2**63:
        raise EngineLimitError(f"tabloid codes of {shape} reach {k}^{m}, beyond 64-bit integers")
    weights = k ** np.arange(m, dtype=np.int64)
    codes = np.zeros(1, dtype=np.int64)
    left = np.arange(m)[None, :]  # entries not yet placed, as digit positions
    for row, size in enumerate(shape):
        n = left.shape[1]
        combos = list(itertools.combinations(range(n), size))
        chosen = np.array(combos, dtype=np.int64)
        rest = np.array([[j for j in range(n) if j not in c] for c in combos], dtype=np.int64)
        codes = (codes[:, None] + row * weights[left[:, chosen]].sum(axis=2)).ravel()
        left = left[:, rest].reshape(len(codes), n - size)
    return codes, np.argsort(codes)


def _tabloid_index(shape: Partition, codes: np.ndarray) -> np.ndarray:
    """Positions in the canonical tabloid list of the given tabloid codes."""
    canon, order = _tabloids(shape)
    return order[np.searchsorted(canon, codes, sorter=order)]


def _column_group(shape: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The column group as row assignments of the cells, with signs.

    Cells are listed column by column, top to bottom.  Row g holds the row
    that group element g sends each cell's entry to; each column's rows are
    permuted among themselves, and the sign is the parity of the inversions.
    Row 0 is the identity.
    """
    heights = conjugate(shape)
    rows = np.zeros((1, 0), dtype=np.int8)
    for h in heights:
        perms = itertools.chain.from_iterable(itertools.permutations(range(h)))
        perms = np.fromiter(perms, dtype=np.int8).reshape(-1, h)
        rows = np.hstack([np.repeat(rows, len(perms), axis=0), np.tile(perms, (len(rows), 1))])
    column = np.repeat(np.arange(len(heights)), heights)
    odd = np.zeros(len(rows), dtype=bool)
    # One cell pair sharing a column at a time: (1^8) has 28 pairs of 8! rows.
    for a, b in zip(*np.nonzero(np.triu(column[:, None] == column, 1))):
        odd ^= rows[:, a] > rows[:, b]
    return rows, np.where(odd, np.int8(-1), np.int8(1))


def polytabloid(t: Tableau, p: int, cap: int | None = None) -> np.ndarray:
    """Signed column-group sum of tabloids, as a vector mod p.

    Coordinates follow the canonical tabloid order of the tableau's shape,
    whose entries must be 1..m, each once.
    """
    shape = as_partition(tuple(len(row) for row in t))
    _check_cap(sum(shape), cap)
    if sorted(itertools.chain(*t)) != list(range(1, sum(shape) + 1)):
        raise ValueError(f"tableau {t} must hold each of 1..{sum(shape)} exactly once")
    terms, _ = _polytabloids((t,), shape)
    return _basis_rows(terms, np.arange(len(_tabloids(shape)[0])), 1, p).ravel()


Terms = tuple[np.ndarray, np.ndarray, np.ndarray]


def _polytabloids(tableaux, shape: Partition) -> tuple[Terms, np.ndarray]:
    """The polytabloids of the tableaux as the terms of a tabloids x
    len(tableaux) matrix, and the rows of the tabloids {t}.

    The terms are (row, column, +-1 sign) triples sorted by row.  The
    tabloids of one column-group sum are distinct, so no two terms share a
    row and a column.
    """
    group, signs = _column_group(shape)
    index = _tabloid_index(shape, _group_codes(tableaux, shape, group))
    order = np.argsort(index, axis=None)
    rows, signs = index.ravel()[order], signs[order % len(group)]
    order //= len(group)  # in place, now the column of each term
    # Group element 0 is the identity; copied, so no view keeps index alive.
    return (rows, order, signs), index[:, 0].copy()


def _group_codes(tableaux, shape: Partition, group: np.ndarray) -> np.ndarray:
    """Tabloid codes of each column-group element applied to each tableau."""
    cells = [[t[r][c] for c, h in enumerate(conjugate(shape)) for r in range(h)] for t in tableaux]
    weights = len(shape) ** (np.array(cells, dtype=np.int64).reshape(len(tableaux), -1) - 1)
    # One cell at a time, so the int8 rows are never widened to int64 at once.
    codes = np.zeros((len(tableaux), len(group)), dtype=np.int64)
    for c in range(group.shape[1]):
        codes += np.multiply.outer(weights[:, c], group[:, c])
    return codes


def _basis_rows(terms: Terms, wanted: np.ndarray, dim: int, p: int) -> np.ndarray:
    """The rows of the polytabloid matrix at the tabloid positions wanted, mod p."""
    rows, cols, signs = terms
    lo, hi = np.searchsorted(rows, wanted), np.searchsorted(rows, wanted, side="right")
    n = hi - lo
    take = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
    out = np.zeros((len(wanted), dim), dtype=np.int64)
    out[np.repeat(np.arange(len(wanted)), n), cols[take]] = signs[take]
    return out % p


def _tabloid_perm(shape: Partition, i: int, codes: np.ndarray) -> np.ndarray:
    """Positions in the canonical tabloid list of s_i = (i, i+1) applied to
    the tabloids with the given codes."""
    k = len(shape)
    lo, hi = k ** (i - 1), k**i
    return _tabloid_index(shape, codes + (codes // hi % k - codes // lo % k) * (lo - hi))


def gen_action_on_tabloids(shape: Partition, i: int, p: int, cap: int | None = None) -> np.ndarray:
    """Permutation matrix of s_i = (i, i+1) on the tabloid basis."""
    shape = as_partition(shape)
    m = sum(shape)
    _check_cap(m, cap)
    if not 1 <= i < m:
        raise ValueError(f"generator index must satisfy 1 <= i < {m}, got {i}")
    perm = _tabloid_perm(shape, i, _tabloids(shape)[0])
    mat = np.zeros((len(perm), len(perm)), dtype=np.int8)
    mat[perm, np.arange(len(perm))] = 1
    return mat


def specht_data(shape: Partition, p: int, cap: int | None = None) -> SpechtData:
    """Construct S^shape over GF(p) in the standard polytabloid basis."""
    shape = as_partition(shape)
    _check_cap(sum(shape), cap)
    return _specht_data(shape, p)


# The one record of each (shape, p), which also holds its radical and head.
_DATA_CACHE: dict[tuple[Partition, int], SpechtData] = {}


def _specht_data(shape: Partition, p: int) -> SpechtData:
    key = (shape, p)
    hit = _DATA_CACHE.get(key)
    if hit is None:
        hit = _build_specht_data(shape, p)
        _DATA_CACHE[key] = hit
    return hit


# rows x dim^2 of one Gram product.  OpenBLAS runs a product of at most
# 4 * 65536 multiply-adds on the calling thread; on a shared 2-core host the
# first threaded products of a process took up to 40 ms each.
GRAM_CHUNK = 2**18


def _gram(terms: Terms, count: int, dim: int, p: int) -> np.ndarray:
    """S.T @ S mod p for the count x dim polytabloid matrix S with these
    terms, from float64 products over chunks of GRAM_CHUNK / dim^2 rows.

    Each chunk is scattered from the terms of its rows, the only rows ever
    held densely.  The entries are +-1, so every partial sum is an integer
    bounded by the column-group order and the float64 sums are exact.
    """
    rows, cols, signs = terms
    step = max(1, GRAM_CHUNK // max(dim, 1) ** 2)
    starts = np.arange(0, count, step)
    cuts = np.searchsorted(rows, np.append(starts, count))
    gram = np.zeros((dim, dim))
    for start, a, b in zip(starts.tolist(), cuts[:-1].tolist(), cuts[1:].tolist()):
        chunk = np.zeros((min(step, count - start), dim))
        chunk[rows[a:b] - start, cols[a:b]] = signs[a:b]
        gram += chunk.T @ chunk
    return _frozen(gram.astype(np.int64) % p)


def _coordinates(b: np.ndarray, images: list[np.ndarray], p: int) -> tuple[np.ndarray, ...]:
    """Coordinates in the independent columns of b of each matrix in images,
    from one solve against their stacked columns."""
    coeffs = ffla.solve_in_span(b, np.hstack(images), p)
    if coeffs is None:
        raise AssertionError  # pragma: no cover - every image lies in the span
    return tuple(np.hsplit(coeffs, len(images)))


def _build_specht_data(shape: Partition, p: int) -> SpechtData:
    m = sum(shape)
    count = len(_tabloids(shape)[0])  # first, as it refuses codes beyond int64
    std = _standard_tableaux(shape)
    d = len(std)
    terms, at = _polytabloids(std, shape)
    # Standard Basis Theorem: the rows at the tabloids {t} of the standard
    # tableaux t are invertible, so one square solve gives every generator,
    # and s_i need only map the tabloids of those rows.
    gens: tuple[np.ndarray, ...] = ()
    if m > 1:
        codes = _tabloids(shape)[0][at]
        wanted = np.concatenate([at] + [_tabloid_perm(shape, i, codes) for i in range(1, m)])
        block = _basis_rows(terms, wanted, d, p)
        gens = _coordinates(block[:d], np.vsplit(block[d:], m - 1), p)
    return SpechtData(
        shape=shape,
        p=p,
        std_tableaux=std,
        tabloid_count=count,
        gram=_gram(terms, count, d, p),
        rep=SymRep(degree=m, dim=d, p=p, gens=gens),
    )


def rad_dim(shape: Partition, p: int, cap: int | None = None) -> int:
    """Dimension of the form's radical in S^shape: dim - rank(gram)."""
    return specht_data(shape, p, cap).rad_kernel.shape[1]


def rad_subrep(shape: Partition, p: int, cap: int | None = None) -> SymRep:
    """The induced action on the radical of the invariant form."""
    return specht_data(shape, p, cap).rad_rep


def simple_head(shape: Partition, p: int, cap: int | None = None) -> SymRep:
    """The head S^shape / rad S^shape for a p-regular shape."""
    shape = as_partition(shape)
    if not is_p_regular(shape, p):
        raise ValueError(f"{shape} is not {p}-regular, the simple head is not defined")
    return specht_data(shape, p, cap).head_rep


def _check_pair(v: SymRep, w: SymRep) -> None:
    if v.degree != w.degree:
        raise ValueError(f"group degrees differ: {v.degree} vs {w.degree}")
    if v.p != w.p:
        raise ValueError(f"field characteristics differ: {v.p} vs {w.p}")


def hom_space(v: SymRep, w: SymRep) -> HomSpace:
    """All equivariant maps f: V -> W, one generator at a time.

    A matrix F intertwines iff F A_i = B_i F for every generator pair.  The
    solutions are kept as a basis K of column-major vec(F), starting from
    the identity; each generator cuts K to K . null(M_i K), where column j
    of M_i K is vec(F_j A_i - B_i F_j) for the map F_j of column j.  The
    basis returned is the canonical one, the identity on the free
    coordinates of the solution space.  Its dim V * dim W unknowns make it
    a reference: maps out of a Specht module come from `hom_from_specht`.
    """
    _check_pair(v, w)
    p = v.p
    if v.dim == 0 or w.dim == 0:
        return HomSpace(dim=0, maps=())
    basis = np.eye(w.dim * v.dim, dtype=np.int64)
    for a, b in zip(v.gens, w.gens):
        if basis.shape[1] == 0:
            break
        # f[c, r, j] = F_j[r, c], since vec(F) is column-major
        f = basis.reshape((v.dim, w.dim, -1))
        image = (a.T @ f.reshape((v.dim, -1))).reshape(f.shape) - b @ f
        basis = basis @ ffla.nullspace(image.reshape(basis.shape) % p, p) % p
    # The canonical basis vector of free coordinate c ends in a 1 at c and is
    # 0 on the other free coordinates: the rref of K^T read right to left.
    r, pivots = ffla.rref(basis.T[:, ::-1], p)
    kernel = np.ascontiguousarray(r[: len(pivots)][::-1, ::-1].T)
    maps = tuple(kernel[:, k].reshape((w.dim, v.dim), order="F") for k in range(kernel.shape[1]))
    return HomSpace(dim=len(maps), maps=maps)


def _word_tree(start, moves) -> tuple[dict, list[tuple[int, int]]]:
    """Breadth-first from start, where moves(state) yields (i, the state s_i
    leads to): the node of each state, and the words, node 0 being (-1, 0)
    and node k > 0 (parent, i), s_i times the word of an earlier node."""
    states, nodes, words = [start], {start: 0}, [(-1, 0)]
    for k, state in enumerate(states):
        for i, nxt in moves(state):
            if nxt not in nodes:
                nodes[nxt] = len(states)
                states.append(nxt)
                words.append((k, i))
    return nodes, words


@lru_cache(maxsize=None)
def _presentation(shape: Partition) -> tuple[list, list, list[int]]:
    """The relations of e_t, t the column-reading tableau (1..h_1 down column
    1, and so on), as word trees with a sign per word; the word tree of the
    pi_s with pi_s t = s; and the node of each standard tableau s.

    Column relations: 1 + s_i for i, i+1 in one column.  Garnir relations,
    for columns j, j+1 and row r <= h_{j+1}: with A = column j from row r
    down and B = column j+1 down to row r, a run of entries, the sum of
    sgn(pi) pi over the shuffles pi of A and B (coset representatives of
    S_A x S_B in S_{A u B}), each shuffle the set of run positions of A.
    """
    heights = conjugate(shape)
    starts = list(itertools.accumulate((0,) + heights))
    relations = [([(-1, 0), (0, i)], [1, 1])
                 for j, h in enumerate(heights) for i in range(starts[j] + 1, starts[j] + h)]
    for j in range(len(heights) - 1):
        for r in range(1, heights[j + 1] + 1):
            lo, a, n = starts[j] + r, heights[j] - r + 1, heights[j] + 1
            # s_{lo+q} moves the entry of A at run position q up past one of B.
            shuffles, words = _word_tree(tuple(range(a)), lambda s, lo=lo, n=n: (
                (lo + q, tuple(x + (x == q) for x in s)) for q in s if q + 1 not in s + (n,)))
            relations.append((words, [(-1) ** (sum(s) - a * (a - 1) // 2) for s in shuffles]))
    std = set(_standard_tableaux(shape))
    t = tuple(tuple(starts[c] + r + 1 for c in range(size)) for r, size in enumerate(shape))
    nodes, words = _word_tree(t, lambda s: (
        (i, nxt) for i in range(1, sum(shape))
        if (nxt := tuple(tuple(e + (e == i) - (e == i + 1) for e in row) for row in s)) in std))
    if len(nodes) != len(std):
        raise AssertionError  # pragma: no cover - the s_i moves connect them all
    return relations, words, [nodes[s] for s in _standard_tableaux(shape)]


def _images(words: list[tuple[int, int]], basis: np.ndarray, gens, p: int) -> list[np.ndarray]:
    """rho(w) basis for every word w of the tree, one product each."""
    out: list[np.ndarray] = []
    for parent, i in words:
        out.append(basis if parent < 0 else gens[i - 1] @ out[parent] % p)
    return out


def hom_from_specht(data: SpechtData, x: SymRep, kill: np.ndarray | None = None) -> HomSpace:
    """The maps f: S^nu -> X, nu = data.shape, as dim_X x dim_S matrices;
    with kill, only those that vanish on the span of its columns.

    S^nu is e_t subject to the column and Garnir relations of `_presentation`
    (James, LNM 682, 1978; Sagan, The Symmetric Group, 2nd ed., 2.6), so f is
    fixed by any v = f(e_t) they kill, in dim X unknowns: each relation R
    cuts a basis K of candidates, from the identity, to K . null(R K).
    Then f(e_s) = pi_s v.
    """
    _check_pair(data.rep, x)
    p = x.p
    relations, words, order = _presentation(data.shape)
    basis = np.eye(x.dim, dtype=np.int64)
    for tree, signs in relations:
        if basis.shape[1] == 0:
            break
        total = np.tensordot(signs, _images(tree, basis, x.gens, p), axes=1) % p
        basis = basis @ ffla.nullspace(total, p) % p
    # maps[j, :, s] = pi_s v_j for the candidate v_j in column j
    maps = np.stack(_images(words, basis, x.gens, p))[order].transpose(2, 1, 0)
    if kill is not None and len(maps):
        keep = ffla.nullspace((maps @ kill).reshape(len(maps), -1).T % p, p)
        maps = np.tensordot(keep.T, maps, axes=1) % p
    return HomSpace(dim=len(maps), maps=tuple(maps))


def hom_rad_to_simple(lam: Partition, mu: Partition, p: int, cap: int | None = None) -> int:
    """dim Hom(rad S^lam, D^mu) over GF(p), as dim Hom(D^mu, (rad S^lam)^*):
    D^mu is self-dual.  These are the maps S^mu -> (rad S^lam)^* that kill
    rad S^mu; the dual acts by the transposed generators.  A nonzero map to
    a simple module is onto, so it is 0 when dim D^mu > dim rad S^lam.
    """
    rad, data = rad_subrep(lam, p, cap), specht_data(mu, p, cap)
    if not is_p_regular(data.shape, p):
        raise ValueError(f"{data.shape} is not {p}-regular, the simple head is not defined")
    _check_pair(rad, data.rep)
    if data.rep.dim - data.rad_kernel.shape[1] > rad.dim:
        return 0
    dual = SymRep(degree=rad.degree, dim=rad.dim, p=p, gens=tuple(a.T for a in rad.gens))
    return hom_from_specht(data, dual, data.rad_kernel).dim


def image_equals_rad(nu: Partition, lam: Partition, p: int, cap: int | None = None) -> bool:
    """Whether some map S^nu -> S^lam has image exactly rad S^lam.

    False when the radical is zero (a zero image never counts).  All lines of
    the hom space are tested, so the answer does not depend on the choice of
    basis maps.
    """
    data = specht_data(lam, p, cap)
    kernel, r = data.rad_kernel, data.rad_kernel.shape[1]
    if r == 0:
        return False
    homs = hom_from_specht(specht_data(nu, p, cap), data.rep)
    if homs.dim == 0:
        return False
    lines = (p**homs.dim - 1) // (p - 1)
    if lines > 100_000:
        raise EngineLimitError(
            f"hom space of dimension {homs.dim} has {lines:,} lines, over the limit of 100,000")
    for coeffs in itertools.product(range(p), repeat=homs.dim):
        if next((c for c in coeffs if c), None) == 1:  # one vector per line
            f = sum(c * h for c, h in zip(coeffs, homs.maps)) % p
            if ffla.rank(f, p) == r and ffla.rank(np.hstack([f, kernel]), p) == r:
                return True
    return False


def satisfies_relations(rep: SymRep) -> bool:
    """Exact involution, braid and commutation checks on the generators."""
    p, gens, eye = rep.p, rep.gens, np.eye(rep.dim, dtype=np.int64)
    return (all(np.array_equal(a @ a % p, eye) for a in gens)
            and all(np.array_equal(a @ b @ a % p, b @ a @ b % p) for a, b in zip(gens, gens[1:]))
            and all(np.array_equal(a @ b % p, b @ a % p)
                    for i, a in enumerate(gens) for b in gens[i + 2:]))
