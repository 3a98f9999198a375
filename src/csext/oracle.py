"""Closed-form extension-space answers and radical predictions.

Two oracles with strict hypothesis gating:

* ext1_gl: the dimension of the extension space between irreducible rational
  GL(n)-modules with dominant highest weights, for a completely splittable
  p-restricted first weight and a second weight not strictly above it.  The
  dimension is 1 exactly when the first weight is big and the second is its
  node move, else 0.
* ext1_sym: the symmetric-group counterpart for completely splittable
  p-regular partitions over GF(p), p > 2, where the witness is the tilde
  partition.

Hypothesis failures raise a typed ScopeError, never a silent 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import combinatorics as comb
from .errors import ScopeError, ScopeReason


@dataclass(frozen=True)
class ExtAnswer:
    """dim is 0 or 1; witness carries the node-move weight/partition at dim 1."""

    dim: int
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class RadPrediction:
    """Radical structure of the standard module with the given highest weight.

    zero means the standard module is irreducible; otherwise the radical is a
    nonzero homomorphic image of the standard module labelled by source.
    """

    zero: bool
    source: tuple[int, ...] | None = None


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _gl_gate(lam: comb.Weight, p: int) -> comb.Weight | None:
    """Refuse a dominant weight outside the GL hypotheses: not p-restricted,
    then psi > p.  Returns the node move of lam if lam is big, else None."""
    if not comb._restricted(lam, p):
        raise ScopeError(ScopeReason.NOT_P_RESTRICTED, f"lam={lam} is not {p}-restricted")
    psi = comb._psi(lam)
    if psi > p:
        raise ScopeError(ScopeReason.NOT_COMPLETELY_SPLITTABLE,
                         f"psi(lam)={psi} > p={p}, lam={lam} is not completely splittable")
    return comb._hat(lam, p) if comb._big(lam, p) else None


def _sym_gate(lam: comb.Partition, p: int) -> comb.Partition | None:
    """Refuse a partition outside the symmetric-group hypotheses: p = 2, then
    chi > p, then not p-regular.  Returns tilde(lam) if lam is big, else None."""
    if p == 2:
        raise ScopeError(ScopeReason.CHAR_TWO, "the criterion requires p > 2")
    chi = comb._chi(lam)
    if chi > p:
        raise ScopeError(ScopeReason.NOT_COMPLETELY_SPLITTABLE,
                         f"chi(lam)={chi} > p={p}, lam={lam} is not completely splittable")
    if not comb._regular(lam, p):
        raise ScopeError(ScopeReason.NOT_P_REGULAR, f"lam={lam} is not {p}-regular")
    return comb.tilde(lam, p) if len(lam) >= 2 and comb._rim_p_hook(lam, p) else None


def ext1_gl(lam: comb.Weight, mu: comb.Weight, p: int) -> ExtAnswer:
    """Extension-space dimension for dominant weights lam, mu of equal rank.

    Hypotheses checked after twisting lam_n to 0: lam and mu dominant, lam
    p-restricted and completely splittable (psi <= p), and lam not strictly
    below mu in the weight order.  Raises ScopeError when any fails.
    """
    _require_prime(p)
    lam, mu = tuple(lam), tuple(mu)
    if len(lam) != len(mu):
        raise ValueError(f"weight lengths differ: {len(lam)} vs {len(mu)}")
    for w in (lam, mu):
        if not comb.is_dominant(w):
            raise ScopeError(ScopeReason.NON_DOMINANT, f"weight {w} is not dominant")
    lam, mu = comb.normalize_pair(lam, mu)
    move = _gl_gate(lam, p)
    if comb.weight_lt(lam, mu):
        raise ScopeError(ScopeReason.ORDER_HYPOTHESIS_FAILS,
                         f"lam={lam} lies strictly below mu={mu} in the weight order")
    return ExtAnswer(dim=1, witness=move) if mu == move else ExtAnswer(dim=0)


def ext1_sym(lam: comb.Partition, mu: comb.Partition, p: int) -> ExtAnswer:
    """Extension-space dimension between the heads D^lam, D^mu over GF(p).

    Hypotheses: p > 2, lam completely splittable (chi <= p) and p-regular,
    mu p-regular of the same degree, and lam does not strictly dominate mu.
    """
    _require_prime(p)
    lam, mu = comb.as_partition(lam), comb.as_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"degrees differ: |{lam}| = {sum(lam)}, |{mu}| = {sum(mu)}")
    move = _sym_gate(lam, p)
    if not comb._regular(mu, p):
        raise ScopeError(ScopeReason.NOT_P_REGULAR, f"mu={mu} is not {p}-regular")
    if lam != mu and comb._dominates(lam, mu):
        raise ScopeError(ScopeReason.ORDER_HYPOTHESIS_FAILS, f"lam={lam} strictly dominates mu={mu}")
    return ExtAnswer(dim=1, witness=move) if mu == move else ExtAnswer(dim=0)


def rad_weyl_prediction(lam: comb.Weight, p: int) -> RadPrediction:
    """Radical of the Weyl module: zero unless lam is big, then the image of
    the Weyl module labelled by the node move of lam."""
    _require_prime(p)
    lam = tuple(lam)
    if not comb.is_dominant(lam):
        raise ScopeError(ScopeReason.NON_DOMINANT, f"weight {lam} is not dominant")
    move = _gl_gate(lam, p)
    return RadPrediction(zero=move is None, source=move)


def rad_specht_prediction(lam: comb.Partition, p: int) -> RadPrediction:
    """Radical of the Specht module over GF(p): zero unless lam is big, then
    the image of the Specht module labelled by the tilde partition."""
    _require_prime(p)
    move = _sym_gate(comb.as_partition(lam), p)
    return RadPrediction(zero=move is None, source=move)
