"""Verification sweeps and report generation.

Sweeps compare closed-form predictions against brute-force observations and
record rows in a canonical order, so a report is byte-identical across runs
with the same configuration.  Wall time lives only in the summary; it never
enters row data or the CSV rendering.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import combinatorics as comb
from . import specht
from ._version import __version__
from .combinatorics import (
    Partition,
    Weight,
    as_partition,
    chi,
    conjugate,
    enum_dominant_weights_bounded,
    enum_partitions,
    is_big_partition,
    is_p_regular,
    is_p_restricted,
    strictly_dominates,
    tilde,
)
from .errors import EngineLimitError, ScopeError, ScopeReason
from .oracle import ext1_sym, is_prime, rad_specht_prediction

MATCH = "match"
MISMATCH = "mismatch"
SKIPPED = "skipped"

CSV_COLUMNS = ("check", "p", "size", "lam", "mu", "predicted", "observed", "status", "reason")


def fmt_tuple(t) -> str:
    return "(" + ",".join(str(x) for x in t) + ")"


@dataclass(frozen=True)
class SweepRow:
    check: str
    p: int
    size: int
    lam: str
    mu: str | None
    predicted: str
    observed: str
    status: str
    reason: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    version: str
    kind: str
    config: dict
    rows: list[SweepRow]
    summary: dict

    @property
    def mismatches(self) -> int:
        return sum(1 for r in self.rows if r.status == MISMATCH)

    def to_json(self) -> str:
        return json.dumps({"version": self.version, "kind": self.kind, "config": self.config,
                           "rows": [r.to_dict() for r in self.rows], "summary": self.summary},
                          indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        obj = json.loads(text)
        rows = [SweepRow(**r) for r in obj["rows"]]
        return cls(obj["version"], obj["kind"], obj["config"], rows, obj["summary"])

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            d = r.to_dict()
            writer.writerow(["" if d[c] is None else d[c] for c in CSV_COLUMNS])
        return out.getvalue()

    def to_text(self) -> str:
        lines = [f"{self.kind} sweep, config {self.config}"]
        for key, val in self.summary.items():
            lines.append(f"  {key}: {val}")
        bad = [r for r in self.rows if r.status == MISMATCH]
        for r in bad:
            mu = f" mu={r.mu}" if r.mu else ""
            lines.append(
                f"  MISMATCH {r.check} p={r.p} lam={r.lam}{mu}: "
                f"predicted {r.predicted}, observed {r.observed}"
            )
        if not bad:
            lines.append("  no mismatches")
        return "\n".join(lines)


def _finish(kind: str, config: dict, rows: list[SweepRow], extras: dict, t0: float) -> Report:
    summary = {
        "rows": len(rows),
        "matched": sum(1 for r in rows if r.status == MATCH),
        "mismatched": sum(1 for r in rows if r.status == MISMATCH),
        "skipped": sum(1 for r in rows if r.status == SKIPPED),
    }
    summary.update(extras)
    summary["wall_time_s"] = round(time.perf_counter() - t0, 3)
    return Report(__version__, kind, config, rows, summary)


COMB_CHUNK = 1024
DIAGRAM_CELLS = 2**20
MAX_WEIGHTS = 10**7
MAX_CELLS = 10**9


def count_weights(n: int, max_entry: int, what: str) -> int:
    """C(n + max_entry, n), the dominant weights of rank n with entries in
    [0, max_entry].

    C(a + b, a) >= 2^min(a, b), so a min(n, max_entry) past the bit length
    of MAX_WEIGHTS is refused at once, before math.comb, whose cost grows
    with it (35 s at a million).
    """
    if min(n, max_entry) > MAX_WEIGHTS.bit_length():
        raise EngineLimitError(
            f"{what} would enumerate more than {MAX_WEIGHTS:,} weights, the limit")
    return math.comb(n + max_entry, n)


def check_weight_count(count: int, what: str) -> None:
    """Refuse, before enumerating anything, a run over more than MAX_WEIGHTS weights."""
    if count > MAX_WEIGHTS:
        raise EngineLimitError(
            f"{what} would enumerate {count:,} weights, over the limit of {MAX_WEIGHTS:,}"
        )


def sweep_comb(primes: list[int], n_max: int, max_entry: int) -> Report:
    """Exhaustive combinatorial invariants over all dominant weights of rank
    <= n_max with entries in [0, max_entry].

    Identities that reread the weight as a partition (psi = chi of the
    conjugate, the conjugation bridge to big partitions) apply only to
    weights with last entry 0 and are gated accordingly; everything else is
    checked on the whole range.  Rows record counterexamples only, ordered by
    weight and then by check; a clean sweep has no rows, and no
    counterexample aborts the sweep.  Whether the node move of a big weight
    stays p-restricted is counted in the summary (over dominant node moves)
    as an empirical observation, never asserted.

    The weights of each (p, rank) stream through in chunks of at most
    COMB_CHUNK rows (fewer when their diagrams would pass DIAGRAM_CELLS
    cells), and array kernels evaluate restrictedness, psi, bigness and the
    node move on each chunk and on its translates by +1 and -2; the
    conjugate partition is counted from the diagram.  On every p-restricted
    weight the kernels are checked against the scalar cores of
    `combinatorics`, and on the few weights of the partition bridge the
    diagram chi against `chi` of the scalar conjugate.  `scalar_agreements`
    counts the weights where all of them agree; a disagreement is a
    `kernel_matches_scalar` row.  A run over more than MAX_WEIGHTS weights,
    or over more than MAX_CELLS diagram cells (rank x (max_entry + 1) a
    weight), is refused with EngineLimitError before it starts.
    """
    if n_max < 1 or max_entry < 0:
        raise ValueError(f"need n_max >= 1 and max_entry >= 0, got {n_max} and {max_entry}")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
    # Ranks 1..n_max hold sum_n C(n + max_entry, n) = C(n_max + max_entry + 1, n_max) - 1 weights.
    count = len(primes) * (count_weights(n_max, max_entry + 1, "verify comb") - 1)
    check_weight_count(count, "verify comb")
    # A weight costs up to rank x (max_entry + 1) diagram cells in _comb_chunk.
    cells = count * n_max * (max_entry + 1)
    if cells > MAX_CELLS:
        raise EngineLimitError(
            f"verify comb would fill {cells:,} diagram cells, over the limit of {MAX_CELLS:,}")
    t0 = time.perf_counter()
    rows: list[SweepRow] = []
    tally = dict.fromkeys(
        ("weights_checked", "checks_run", "big_weights", "hat_p_restricted", "scalar_agreements"), 0
    )
    dtype = np.int16 if max_entry < 2**14 else np.int64
    for p in primes:
        for n in range(1, n_max + 1):
            # A chunk's Young diagrams, rank x max_entry cells a weight, stay
            # within DIAGRAM_CELLS.
            size = max(1, min(COMB_CHUNK, DIAGRAM_CELLS // (n * max(max_entry, 1))))
            weights = enum_dominant_weights_bounded(n, max_entry)
            while True:
                chunk = np.fromiter(itertools.islice(weights, size), dtype=(dtype, n))
                if not len(chunk):
                    break
                tally["weights_checked"] += len(chunk)
                rows.extend(_comb_chunk(chunk, p, tally))
    config = {"primes": list(primes), "n_max": n_max, "max_entry": max_entry}
    return _finish("comb", config, rows, tally, t0)


class _Rules(NamedTuple):
    """The weight-level rules on the rows of a weight array; hat is the node
    move on big rows and the weight itself elsewhere."""

    restricted: np.ndarray
    psi: np.ndarray
    big: np.ndarray
    hat: np.ndarray


def _rules(w: np.ndarray, p: int) -> _Rules:
    """is_p_restricted, psi, is_big_weight and hat on every row of an array
    of dominant weights of one rank (entries of any sign)."""
    count, n = w.shape
    if n == 1:
        return _Rules(np.ones(count, bool), np.zeros(count, np.int64), np.zeros(count, bool), w)
    drops = w[:, :-1] - w[:, 1:]
    falls = drops > 0
    has = falls.any(axis=1)
    i = falls.argmax(axis=1) + 1
    j = n - 1 - falls[:, ::-1].argmax(axis=1)
    rows = np.arange(count)
    gap = w[rows, i - 1] - w[rows, j]
    psi = np.where(has, j - i + gap, 0)
    big = has & (psi <= p) & (gap > 1) & (j - 1 + gap >= p) & (i - gap + p + 1 <= n)
    # Rows base+1..i lose a node and rows j+1..j+(p+1-psi) gain one.
    base = j + gap - p - 1
    cols = np.arange(n)
    lose = big[:, None] & (cols >= base[:, None]) & (cols < i[:, None])
    gain = big[:, None] & (cols >= j[:, None]) & (cols < (j + p + 1 - psi)[:, None])
    return _Rules((drops < p).all(axis=1), psi, big, w - lose + gain)


def _comb_chunk(w: np.ndarray, p: int, tally: dict) -> list[SweepRow]:
    """Run every sweep_comb check on the weights w (one rank) at p, add to
    the counters in tally and return the mismatch rows."""
    n = w.shape[1]
    found: list[tuple[int, int, str, str]] = []  # (row of w, check slot, check, observed)
    slots = itertools.count()  # slots follow the order in which a weight's checks run

    def flag(check: str, at: np.ndarray, mask: np.ndarray, observed) -> None:
        slot = next(slots)
        for k in np.flatnonzero(mask).tolist():
            found.append((int(at[k]), slot, check, observed(k)))

    m = w.sum(axis=1)
    last_zero = w[:, -1] == 0
    rules = _rules(w, p)
    every = np.arange(len(w))

    # Identities that read the weight as a partition need the last entry to
    # vanish (equivalently, height < rank).  The conjugate comes from the
    # diagram: column c holds #{i : lam_i > c} cells.
    conj = (w[:, :, None] > np.arange(w[:, 0].max())).sum(axis=1, dtype=np.int32)
    width = conj.shape[1]
    if width >= p:
        repeats = (conj[:, : width - p + 1] == conj[:, p - 1 :]) & (conj[:, p - 1 :] > 0)
        conj_regular = ~repeats.any(axis=1)
    else:
        conj_regular = np.ones(len(w), bool)
    chi_conj = np.zeros(len(w), np.int64)
    if width:
        cols = w[:, 0].astype(np.int64)  # lam_1 is the height of the conjugate
        last = np.take_along_axis(conj, np.maximum(cols - 1, 0)[:, None], axis=1)[:, 0]
        chi_conj = np.where(m > 0, conj[:, 0] - last + cols, 0)
    nonzero = last_zero & (m > 0)
    tally["checks_run"] += int(last_zero.sum() + nonzero.sum())
    flag("restricted_iff_conjugate_regular", every, last_zero & (rules.restricted != conj_regular),
         lambda k: f"restricted={bool(rules.restricted[k])}, conjugate regular={not rules.restricted[k]}")
    flag("psi_chi_conjugate", every, nonzero & (rules.psi != chi_conj),
         lambda k: f"psi={rules.psi[k]}, chi={chi_conj[k]}")

    at = np.flatnonzero(rules.restricted)
    wr, mr, psi, big, h = w[at], m[at], rules.psi[at], rules.big[at], rules.hat[at]
    bigs = int(big.sum())
    tally["big_weights"] += bigs
    tally["checks_run"] += bigs + 4 * len(at)
    flag("big_implies_cs", at, big & (psi > p), lambda k: f"big but psi={psi[k]} > {p}")
    # The translates go through the kernels again: these checks exist to
    # catch rules that read absolute entries.
    shifted = {c: _rules(wr + c, p) for c in (1, -2)}
    for c, s in shifted.items():
        flag("psi_translation", at, s.psi != psi, lambda k: f"c={c}: {s.psi[k]} != {psi[k]}")
        flag("big_translation", at, s.big != big, lambda k: f"c={c}: bigness changed")

    hat_dominant = (h[:, :-1] >= h[:, 1:]).all(axis=1)
    below = np.cumsum(wr - h, axis=1)
    strictly_below = (below >= 0).all(axis=1) & (below[:, -1] == 0) & (h != wr).any(axis=1)
    tally["checks_run"] += 3 * bigs
    tally["hat_p_restricted"] += sum(is_p_restricted(x, p) for x in h[big & hat_dominant].tolist())
    flag("hat_dominant", at, big & ~hat_dominant,
         lambda k: f"hat={fmt_tuple(h[k].tolist())} not dominant")
    flag("hat_sum", at, big & (h.sum(axis=1) != mr), lambda k: f"sum {h[k].sum()} != {mr[k]}")
    flag("hat_strictly_below", at, big & ~strictly_below,
         lambda k: f"hat={fmt_tuple(h[k].tolist())} not strictly below")
    for c, s in shifted.items():
        both = big & s.big
        tally["checks_run"] += int(both.sum())
        flag("hat_translation", at, both & (s.hat != h + c).any(axis=1),
             lambda k: f"c={c}: node move not equivariant")

    # Scalar part: the kernels against the scalar cores on every restricted
    # weight, and the partition bridge on the few weights with n >= m.
    lams = wr.tolist()
    scalar_psi = np.array([comb._psi(x) for x in lams], np.int64)
    scalar_big = np.array([comb._big(x, p) for x in lams], bool)
    disagree = defaultdict(list)  # row of wr -> "field kernel/scalar" texts
    for k in np.flatnonzero(scalar_big != big).tolist():
        disagree[k].append(f"big {bool(big[k])}/{bool(scalar_big[k])}")
    for k in np.flatnonzero(scalar_psi != psi).tolist():
        disagree[k].append(f"psi {psi[k]}/{scalar_psi[k]}")
    for k in np.flatnonzero(big & scalar_big).tolist():
        kernel_hat, scalar_hat = tuple(h[k].tolist()), comb._hat(lams[k], p)
        if kernel_hat != scalar_hat:
            disagree[k].append(f"hat {fmt_tuple(kernel_hat)}/{fmt_tuple(scalar_hat)}")
    bridge_slot, tilde_slot, kernel_slot = next(slots), next(slots), next(slots)
    for k in np.flatnonzero(last_zero[at] & (mr <= n)).tolist():
        conj_k = conjugate(as_partition(lams[k]))
        if chi(conj_k) != chi_conj[at[k]]:
            disagree[k].append(f"chi of conjugate {chi_conj[at[k]]}/{chi(conj_k)}")
        big_part = is_big_partition(conj_k, p)
        tally["checks_run"] += 1
        if big[k] != big_part:
            found.append((int(at[k]), bridge_slot, "big_weight_iff_big_partition",
                          f"big weight={bool(big[k])}, big conjugate partition={big_part}"))
        if big[k] and big_part and hat_dominant[k]:
            tally["checks_run"] += 1
            observed = _hat_conjugate_vs_tilde(h[k].tolist(), conj_k, p)
            if observed is not None:
                found.append((int(at[k]), tilde_slot, "hat_conjugate_is_tilde", observed))
    for k, parts in disagree.items():
        found.append((int(at[k]), kernel_slot, "kernel_matches_scalar",
                      "kernel/scalar " + ", ".join(parts)))
    tally["scalar_agreements"] += len(at) - len(disagree)

    found.sort(key=lambda f: f[:2])
    return [
        SweepRow(check, p, n, fmt_tuple(w[k].tolist()), None, "invariant holds", observed, MISMATCH)
        for k, _, check, observed in found
    ]


def _hat_conjugate_vs_tilde(h: Weight, conj: Partition, p: int) -> str | None:
    """The observed text when conj(hat) and tilde(conj) differ, else None."""
    lhs = conjugate(as_partition(h))
    try:
        rhs = tilde(conj, p)
    except ScopeError as e:
        return f"conj(hat)={fmt_tuple(lhs)}, tilde refused: {e.reason.value}"
    if lhs == rhs:
        return None
    return f"conj(hat)={fmt_tuple(lhs)}, tilde(conj)={fmt_tuple(rhs)}"


def check_degree(m: int, cap: int | None) -> None:
    """Refuse a sweep_sym degree before any work: m >= 0, and m within the
    degree cap (DegreeCapError)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    specht._check_cap(m, cap)


def sweep_sym(p: int, m: int, cap: int | None = None) -> Report:
    """Brute-force verification of the radical and extension predictions.

    For every completely splittable p-regular partition lam of m: compares
    the radical prediction against the Gram rank, checks that some map from
    S^tilde(lam) hits the radical exactly when lam is big, and compares the
    predicted extension dimension against dim Hom(rad S^lam, D^mu) for every
    p-regular mu that lam does not strictly dominate.  Out-of-hypothesis
    inputs become skipped rows, never silent omissions.  A degree that
    check_degree refuses is refused before any work.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"sweep_sym requires an odd prime, got {p}")
    check_degree(m, cap)
    t0 = time.perf_counter()
    rows: list[SweepRow] = []
    parts = enum_partitions(m)
    regular = {nu: is_p_regular(nu, p) for nu in parts}

    for lam in parts:
        lam_s = fmt_tuple(lam)
        try:
            pred = rad_specht_prediction(lam, p)
        except ScopeError as e:
            rows.append(SweepRow("radical", p, m, lam_s, None, "", "", SKIPPED, e.reason.value))
            continue

        rd = specht.rad_dim(lam, p, cap)
        if pred.zero:
            pred_s = "rad=0"
        else:
            pred_s = f"rad nonzero, image of S^{fmt_tuple(pred.source)}"
        ok = (rd == 0) == pred.zero
        rows.append(
            SweepRow("radical", p, m, lam_s, None, pred_s, f"rad_dim={rd}",
                     MATCH if ok else MISMATCH)
        )

        if not pred.zero:
            img_ok = specht.image_equals_rad(pred.source, lam, p, cap)
            rows.append(
                SweepRow(
                    "radical_image", p, m, lam_s, fmt_tuple(pred.source),
                    "some map image equals radical",
                    "equal" if img_ok else "no such map",
                    MATCH if img_ok else MISMATCH,
                )
            )

        for mu in parts:
            mu_s = fmt_tuple(mu)
            if not regular[mu]:
                rows.append(SweepRow("ext1", p, m, lam_s, mu_s, "", "", SKIPPED,
                                     ScopeReason.NOT_P_REGULAR.value))
                continue
            if strictly_dominates(lam, mu):
                rows.append(SweepRow("ext1", p, m, lam_s, mu_s, "", "", SKIPPED,
                                     ScopeReason.ORDER_HYPOTHESIS_FAILS.value))
                continue
            predicted = ext1_sym(lam, mu, p).dim
            observed = specht.hom_rad_to_simple(lam, mu, p, cap)
            rows.append(
                SweepRow("ext1", p, m, lam_s, mu_s, str(predicted), str(observed),
                         MATCH if predicted == observed else MISMATCH)
            )

    config = {"p": p, "m": m, "cap": cap}
    return _finish("sym", config, rows, {}, t0)

