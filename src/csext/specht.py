"""Specht modules over GF(p) by explicit linear algebra.

Builds the tabloid permutation module M^lam, the Specht module S^lam in its
standard polytabloid basis, the Gram matrix of the invariant bilinear form
(tabloids orthonormal), the radical of that form, the simple head D^lam, and
spaces of module homomorphisms.  Everything is a dense integer matrix mod p;
straightening is done by linear solves against the standard basis rather
than relation rewriting.

The symmetric group acts on the left on tableau entries; a representation is
stored as one matrix per adjacent transposition s_i = (i, i+1), i = 1..m-1,
acting on column vectors.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ffla
from .combinatorics import Partition, as_partition, is_p_regular

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
    if m > DEFAULT_DEGREE_CAP:
        warnings.warn(
            f"degree {m} builds permutation modules of dimension up to {m}!; "
            f"expect high memory use",
            stacklevel=3,
        )


@dataclass(frozen=True, eq=False)
class SymRep:
    """A module for the symmetric group on {1..m} over GF(p).

    gens[k] is the dim x dim action matrix of the adjacent transposition
    (k+1, k+2).  Arrays are treated as immutable.
    """

    degree: int
    dim: int
    p: int
    gens: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class SpechtData:
    """S^shape over GF(p): standard basis, invariant form and action.

    basis holds the standard polytabloids as columns in tabloid coordinates;
    gram is the matrix of the invariant form on that basis; rep carries the
    generator action expressed in the same basis.
    """

    shape: Partition
    p: int
    std_tableaux: tuple[Tableau, ...]
    tabloid_count: int
    basis: np.ndarray
    gram: np.ndarray
    rep: SymRep


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
    _check_cap(sum(shape), cap)
    return list(_tabloids(shape)[0])


@lru_cache(maxsize=None)
def _tabloids(shape: Partition) -> tuple[tuple[Tabloid, ...], dict[Tabloid, int]]:
    m = sum(shape)
    out: list[Tabloid] = []
    acc: list[tuple[int, ...]] = []

    def rec(i: int, remaining: tuple[int, ...]) -> None:
        if i == len(shape):
            out.append(tuple(acc))
            return
        for combo in itertools.combinations(remaining, shape[i]):
            chosen = set(combo)
            acc.append(combo)
            rec(i + 1, tuple(x for x in remaining if x not in chosen))
            acc.pop()

    rec(0, tuple(range(1, m + 1)))
    if not shape:
        out = [()]
    tabs = tuple(out)
    return tabs, {t: k for k, t in enumerate(tabs)}


def _perm_sign(positions: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if positions[a] > positions[b]:
                sign = -sign
    return sign


def _tableau_columns(t: Tableau) -> list[tuple[int, ...]]:
    ncols = len(t[0]) if t else 0
    return [tuple(row[c] for row in t if len(row) > c) for c in range(ncols)]


def polytabloid(t: Tableau, p: int, cap: int | None = None) -> np.ndarray:
    """Signed column-group sum of tabloids, as a vector mod p.

    Coordinates follow the canonical tabloid order of the tableau's shape.
    """
    shape = as_partition(tuple(len(row) for row in t))
    _check_cap(sum(shape), cap)
    return _polytabloid_vector(t, shape, p)


def _polytabloid_vector(t: Tableau, shape: Partition, p: int) -> np.ndarray:
    tabs, index = _tabloids(shape)
    v = np.zeros(len(tabs), dtype=np.int64)
    columns = _tableau_columns(t)
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


@lru_cache(maxsize=None)
def _tabloid_perm(shape: Partition, i: int) -> np.ndarray:
    """Index permutation of the canonical tabloid list under s_i = (i, i+1)."""
    tabs, index = _tabloids(shape)
    swap = {i: i + 1, i + 1: i}
    out = np.empty(len(tabs), dtype=np.int64)
    for k, tab in enumerate(tabs):
        out[k] = index[tuple(tuple(sorted(swap.get(x, x) for x in row)) for row in tab)]
    return out


def gen_action_on_tabloids(shape: Partition, i: int, p: int, cap: int | None = None) -> np.ndarray:
    """Permutation matrix of s_i = (i, i+1) on the tabloid basis."""
    shape = as_partition(shape)
    m = sum(shape)
    _check_cap(m, cap)
    if not 1 <= i < m:
        raise ValueError(f"generator index must satisfy 1 <= i < {m}, got {i}")
    perm = _tabloid_perm(shape, i)
    mat = np.zeros((len(perm), len(perm)), dtype=np.int8)
    mat[perm, np.arange(len(perm))] = 1
    return mat


def specht_data(shape: Partition, p: int, cap: int | None = None) -> SpechtData:
    """Construct S^shape over GF(p) in the standard polytabloid basis."""
    shape = as_partition(shape)
    _check_cap(sum(shape), cap)
    return _specht_data(shape, p)


# Keyed (shape, p); behaves as a single-writer/multi-reader map.  The harness
# primes it with disk-cached entries via _install.
_DATA_CACHE: dict[tuple[Partition, int], SpechtData] = {}


def _specht_data(shape: Partition, p: int) -> SpechtData:
    key = (shape, p)
    hit = _DATA_CACHE.get(key)
    if hit is None:
        hit = _build_specht_data(shape, p)
        _DATA_CACHE[key] = hit
    return hit


def _install(data: SpechtData) -> None:
    _DATA_CACHE.setdefault((data.shape, data.p), data)


def _build_specht_data(shape: Partition, p: int) -> SpechtData:
    m = sum(shape)
    std = _standard_tableaux(shape)
    tabs, _ = _tabloids(shape)
    basis = np.zeros((len(tabs), len(std)), dtype=np.int64)
    for k, t in enumerate(std):
        basis[:, k] = _polytabloid_vector(t, shape, p)
    gram = basis.T @ basis % p
    gens = []
    for i in range(1, m):
        perm = _tabloid_perm(shape, i)
        moved = basis[perm]
        coeffs = ffla.solve_in_span(basis, moved, p)
        if coeffs is None:
            raise AssertionError  # pragma: no cover - submodule property
        gens.append(coeffs)
    rep = SymRep(degree=m, dim=len(std), p=p, gens=tuple(gens))
    return SpechtData(
        shape=shape,
        p=p,
        std_tableaux=std,
        tabloid_count=len(tabs),
        basis=basis,
        gram=gram,
        rep=rep,
    )


def rad_dim(shape: Partition, p: int, cap: int | None = None) -> int:
    """Dimension of the form's radical in S^shape: dim - rank(gram)."""
    specht_data(shape, p, cap)
    return _rad_kernel(as_partition(shape), p).shape[1]


@lru_cache(maxsize=None)
def _rad_kernel(shape: Partition, p: int) -> np.ndarray:
    """Basis of the form's radical (the Gram kernel), as columns."""
    return ffla.nullspace(_specht_data(shape, p).gram, p)


def rad_subrep(shape: Partition, p: int, cap: int | None = None) -> SymRep:
    """The induced action on the radical of the invariant form."""
    specht_data(shape, p, cap)
    return _rad_subrep(as_partition(shape), p)


@lru_cache(maxsize=None)
def _rad_subrep(shape: Partition, p: int) -> SymRep:
    data = _specht_data(shape, p)
    kernel = _rad_kernel(shape, p)
    r = kernel.shape[1]
    if r == 0:
        return SymRep(degree=data.rep.degree, dim=0, p=p, gens=tuple(
            np.zeros((0, 0), dtype=np.int64) for _ in data.rep.gens
        ))
    gens = []
    for a in data.rep.gens:
        coeffs = ffla.solve_in_span(kernel, a @ kernel % p, p)
        if coeffs is None:
            raise AssertionError  # pragma: no cover - the radical is a submodule
        gens.append(coeffs)
    return SymRep(degree=data.rep.degree, dim=r, p=p, gens=tuple(gens))


def simple_head(shape: Partition, p: int, cap: int | None = None) -> SymRep:
    """The head S^shape / rad S^shape for a p-regular shape."""
    shape = as_partition(shape)
    if not is_p_regular(shape, p):
        raise ValueError(f"{shape} is not {p}-regular, the simple head is not defined")
    specht_data(shape, p, cap)
    return _simple_head(shape, p)


@lru_cache(maxsize=None)
def _simple_head(shape: Partition, p: int) -> SymRep:
    data = _specht_data(shape, p)
    d = data.rep.dim
    kernel = _rad_kernel(shape, p)
    r = kernel.shape[1]
    q = d - r
    if r == 0:
        return data.rep
    # Greedy completion of the radical to a basis by unit vectors; the head
    # action is read off in the first block of the combined coordinates.
    # e_j is skipped iff it lies in span(radical, e_0..e_{j-1}), that is iff
    # some radical vector has its last nonzero entry at j: a pivot of the
    # radical's coordinates read right to left.
    _, last = ffla.rref(kernel.T[:, ::-1], p)
    skipped = np.zeros(d, dtype=bool)
    skipped[d - 1 - np.array(last, dtype=np.int64)] = True
    comp = np.eye(d, dtype=np.int64)[:, ~skipped]
    full = np.hstack([comp, kernel])
    gens = []
    for a in data.rep.gens:
        coeffs = ffla.solve_in_span(full, a @ comp % p, p)
        if coeffs is None:
            raise AssertionError  # pragma: no cover - full is a basis
        gens.append(coeffs[:q])
    return SymRep(degree=data.rep.degree, dim=q, p=p, gens=tuple(gens))


def hom_space(v: SymRep, w: SymRep) -> HomSpace:
    """All equivariant maps f: V -> W, a few generators at a time.

    A matrix F intertwines iff F A_i = B_i F for every generator pair.  The
    solutions are kept as a basis K of column-major vec(F).  The pairwise
    commuting generators s_1, s_3, s_5, ... are handled at once, from the
    joint eigenvectors of their actions; each remaining generator cuts K
    to K . null(M_i K), where column j of M_i K is vec(F_j A_i - B_i F_j)
    for the map F_j of column j.  The basis returned is the canonical one,
    the identity on the free coordinates of the solution space.
    """
    if v.degree != w.degree:
        raise ValueError(f"group degrees differ: {v.degree} vs {w.degree}")
    if v.p != w.p:
        raise ValueError(f"field characteristics differ: {v.p} vs {w.p}")
    p = v.p
    if v.dim == 0 or w.dim == 0:
        return HomSpace(dim=0, maps=())
    basis = _commuting_intertwiners(v, w)
    pairs = zip(v.gens[1::2], w.gens[1::2])
    if basis is None:  # not diagonalisable, as in characteristic 2
        basis = np.eye(w.dim * v.dim, dtype=np.int64)
        pairs = zip(v.gens, w.gens)
    for a, b in pairs:
        if basis.shape[1] == 0:
            break
        basis = _cut(basis, a, b, p)
    # The canonical basis vector of free coordinate c ends in a 1 at c and
    # is 0 on the other free coordinates: the reduced echelon form of K^T
    # read right to left.
    r, pivots = ffla.rref(basis.T[:, ::-1], p)
    kernel = np.ascontiguousarray(r[: len(pivots)][::-1, ::-1].T)
    maps = tuple(
        kernel[:, k].reshape((w.dim, v.dim), order="F") for k in range(kernel.shape[1])
    )
    return HomSpace(dim=len(maps), maps=maps)


def _commuting_intertwiners(v: SymRep, w: SymRep) -> np.ndarray | None:
    """vec basis of the F with F A_i = B_i F for s_1, s_3, s_5, ...

    These generators commute.  When each is diagonalisable with eigenvalues
    +-1, the solutions are spanned by the maps y u^T, where y is a joint
    eigenvector of the B_i and u one of the A_i^T with the same
    eigenvalues; column-major vec(y u^T) is u kron y.  Otherwise None.
    """
    left = _joint_eigenspaces([a.T for a in v.gens[::2]], v.dim, v.p)
    right = _joint_eigenspaces(w.gens[::2], w.dim, w.p)
    if left is None or right is None:
        return None
    blocks = [np.kron(u, right[signs]) % v.p for signs, u in left.items() if signs in right]
    return np.hstack(blocks) if blocks else np.zeros((v.dim * w.dim, 0), dtype=np.int64)


def _joint_eigenspaces(gens, dim: int, p: int) -> dict[tuple[int, ...], np.ndarray] | None:
    """Bases of the joint +-1 eigenspaces of commuting matrices, by signs.

    None when the eigenspaces do not add up to the whole space.
    """
    spaces = {(): np.eye(dim, dtype=np.int64)}
    for g in gens:
        split = {}
        for signs, u in spaces.items():
            for e in {1, p - 1}:
                part = u @ ffla.nullspace((g @ u - e * u) % p, p) % p
                if part.shape[1]:
                    split[signs + (e,)] = part
        spaces = split
    if sum(u.shape[1] for u in spaces.values()) < dim:
        return None
    return spaces


def _cut(basis: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The combinations of the basis columns whose maps F satisfy F A = B F."""
    dv, dw = len(a), len(b)
    # f[c, r, j] = F_j[r, c], since vec(F) is column-major
    f = basis.reshape((dv, dw, -1))
    image = (a.T @ f.reshape((dv, -1))).reshape(f.shape) - b @ f
    return basis @ ffla.nullspace(image.reshape(basis.shape) % p, p) % p


def hom_rad_to_simple(lam: Partition, mu: Partition, p: int, cap: int | None = None) -> int:
    """dim Hom(rad S^lam, D^mu) over GF(p)."""
    return hom_space(rad_subrep(lam, p, cap), simple_head(mu, p, cap)).dim


def image_equals_rad(nu: Partition, lam: Partition, p: int, cap: int | None = None) -> bool:
    """Whether some map S^nu -> S^lam has image exactly rad S^lam.

    False when the radical is zero (a zero image never counts).  All lines of
    the hom space are tested, so the answer does not depend on the choice of
    basis maps.
    """
    lam = as_partition(lam)
    data = specht_data(lam, p, cap)
    kernel = _rad_kernel(lam, p)
    r = kernel.shape[1]
    if r == 0:
        return False
    homs = hom_space(specht_data(nu, p, cap).rep, data.rep)
    if homs.dim == 0:
        return False
    lines = (p**homs.dim - 1) // (p - 1)
    if lines > 100_000:
        raise ValueError(f"hom space unexpectedly large ({homs.dim}); refusing to enumerate")
    for coeffs in itertools.product(range(p), repeat=homs.dim):
        first_nonzero = next((c for c in coeffs if c), None)
        if first_nonzero != 1:
            continue
        f = sum(c * h for c, h in zip(coeffs, homs.maps)) % p
        if ffla.rank(f, p) == r and ffla.rank(np.hstack([f, kernel]), p) == r:
            return True
    return False


def satisfies_relations(rep: SymRep) -> bool:
    """Exact involution, braid and commutation checks on the generators."""
    p = rep.p
    eye = np.eye(rep.dim, dtype=np.int64)
    gens = rep.gens
    for a in gens:
        if not np.array_equal(a @ a % p, eye):
            return False
    for i in range(len(gens) - 1):
        a, b = gens[i], gens[i + 1]
        if not np.array_equal(a @ b @ a % p, b @ a @ b % p):
            return False
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            a, b = gens[i], gens[j]
            if not np.array_equal(a @ b % p, b @ a % p):
                return False
    return True
