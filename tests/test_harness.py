import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from csext import combinatorics as comb
from csext import harness
from csext.errors import EngineLimitError
from csext.harness import MATCH, SKIPPED, Report
from csext.specht import DegreeCapError

import reference

COUNTERS = ("weights_checked", "checks_run", "big_weights", "hat_p_restricted")


def test_sweep_comb_clean_and_counts():
    report = harness.sweep_comb([2, 3], 4, 3)
    assert report.mismatches == 0
    assert report.rows == []
    assert report.summary["weights_checked"] > 0
    assert report.summary["checks_run"] > report.summary["weights_checked"]
    assert 0 <= report.summary["hat_p_restricted"] <= report.summary["big_weights"]


def test_sweep_comb_validates_inputs():
    with pytest.raises(ValueError):
        harness.sweep_comb([4], 3, 3)
    with pytest.raises(ValueError, match="n_max >= 1"):
        harness.sweep_comb([3], 0, 3)
    with pytest.raises(ValueError):
        harness.sweep_comb([3], 3, -1)
    # max_entry = 0 is the all-zero weight of each rank.
    assert harness.sweep_comb([3], 3, 0).summary["weights_checked"] == 3


def test_sweep_comb_refuses_over_the_weight_limit(monkeypatch):
    # 2 primes x (C(4 + 3 + 1, 4) - 1) = 138 weights
    monkeypatch.setattr(harness, "MAX_WEIGHTS", 137)
    with pytest.raises(EngineLimitError, match="138"):
        harness.sweep_comb([2, 3], 4, 3)
    monkeypatch.setattr(harness, "MAX_WEIGHTS", 138)
    assert harness.sweep_comb([2, 3], 4, 3).summary["weights_checked"] == 138


@pytest.mark.parametrize("chunk, cells", [(1024, 2**20), (7, 2**20), (1024, 100)])
def test_sweep_comb_matches_scalar_reference(monkeypatch, chunk, cells):
    # Small chunks, by row count or by diagram cells (100 // (6 * 5) = 3 rows
    # at rank 6), put chunk boundaries inside every rank.
    monkeypatch.setattr(harness, "COMB_CHUNK", chunk)
    monkeypatch.setattr(harness, "DIAGRAM_CELLS", cells)
    args = ([2, 3, 5, 7], 6, 5)
    report = harness.sweep_comb(*args)
    ref = reference.sweep_comb_reference(*args)
    assert report.to_csv() == ref.to_csv()
    assert {k: report.summary[k] for k in COUNTERS} == {k: ref.summary[k] for k in COUNTERS}
    restricted = sum(comb.is_p_restricted(w, p) for p in args[0] for n in range(1, 7)
                     for w in comb.enum_dominant_weights_bounded(n, 5))
    assert report.summary["scalar_agreements"] == restricted


def _hat_not_dominant(monkeypatch):
    """The node move of every big weight with a nonzero last entry is reversed."""
    scalar, kernel = comb._hat, harness._rules

    def rules(w, p):
        r = kernel(w, p)
        flip = r.big & (w[:, -1] != 0)
        h = r.hat.copy()
        h[flip] = h[flip][:, ::-1]
        return r._replace(hat=h)

    monkeypatch.setattr(comb, "_hat", lambda w, p: scalar(w, p)[::-1] if w[-1] else scalar(w, p))
    monkeypatch.setattr(harness, "_rules", rules)
    return {"hat_dominant", "hat_translation"}


def _bigness_reads_entries(monkeypatch):
    """Bigness also asks for an even first entry, so it changes under translation."""
    scalar, kernel = comb._big, harness._rules

    def rules(w, p):
        r = kernel(w, p)
        big = r.big & (w[:, 0] % 2 == 0)
        return r._replace(big=big, hat=np.where(big[:, None], r.hat, w))

    monkeypatch.setattr(comb, "_big", lambda w, p: scalar(w, p) and w[0] % 2 == 0)
    monkeypatch.setattr(harness, "_rules", rules)
    return {"big_translation"}


@pytest.mark.parametrize("fault", [_hat_not_dominant, _bigness_reads_entries])
def test_sweep_comb_counterexamples_become_rows(monkeypatch, fault):
    # The same fault goes into the kernels and the scalar cores, so both
    # paths must report it with the same rows and no exception.
    expected = fault(monkeypatch)
    args = ([2, 3, 5, 7], 6, 5)
    report = harness.sweep_comb(*args)
    ref = reference.sweep_comb_reference(*args)
    assert expected <= {r.check for r in report.rows}
    assert report.to_csv() == ref.to_csv()
    assert {k: report.summary[k] for k in COUNTERS} == {k: ref.summary[k] for k in COUNTERS}


def test_sweep_comb_reports_kernel_scalar_disagreement(monkeypatch):
    kernel = harness._rules

    def rules(w, p):
        r = kernel(w, p)
        return r._replace(psi=np.where(w.sum(axis=1) == 4, r.psi + 1, r.psi))

    monkeypatch.setattr(harness, "_rules", rules)
    report = harness.sweep_comb([3], 3, 2)
    bad = [r for r in report.rows if r.check == "kernel_matches_scalar"]
    assert [r.lam for r in bad] == ["(2,2)", "(2,2,0)", "(2,1,1)"]
    assert bad[0].observed == "kernel/scalar psi 1/0"
    # Rows stay in weight order, and within a weight in check order.
    assert [(r.lam, r.check) for r in report.rows][:3] == [
        ("(2,2)", "psi_translation"), ("(2,2)", "psi_translation"),
        ("(2,2)", "kernel_matches_scalar")]
    # Every weight here is 3-restricted, so all but the three agree.
    assert report.summary["scalar_agreements"] == report.summary["weights_checked"] - 3


@st.composite
def weight_arrays(draw):
    """An array of dominant weights of one rank: negative entries, constant
    weights and drops of p or more included."""
    n = draw(st.integers(1, 8))
    rows = [[3] * n]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(st.integers(-6, 12))]
        for _ in range(n - 1):
            row.append(row[-1] - draw(st.integers(0, 13)))
        rows.append(row)
    return np.array(rows, dtype=np.int16)


@given(weight_arrays(), st.sampled_from([2, 3, 5, 7, 11]))
def test_rules_kernel_matches_scalar_cores(w, p):
    rules = harness._rules(w, p)
    for k, row in enumerate(w.tolist()):
        assert rules.restricted[k] == comb.is_p_restricted(row, p)
        assert rules.psi[k] == comb.psi(row)
        assert rules.big[k] == comb._big(row, p)
        if rules.big[k]:
            assert tuple(rules.hat[k].tolist()) == comb._hat(row, p)
        else:
            assert rules.hat[k].tolist() == row
        if rules.restricted[k]:
            assert rules.big[k] == comb.is_big_weight(row, p)
            if rules.big[k]:
                assert tuple(rules.hat[k].tolist()) == comb.hat(row, p)


def test_sweep_sym_m4_p3():
    report = harness.sweep_sym(3, 4)
    assert report.mismatches == 0
    ext_rows = [r for r in report.rows if r.check == "ext1" and r.status == MATCH]
    hit = [r for r in ext_rows if r.lam == "(2,2)" and r.mu == "(4)"]
    assert len(hit) == 1
    assert hit[0].predicted == "1" and hit[0].observed == "1"
    rad = {r.lam: r for r in report.rows if r.check == "radical"}
    assert rad["(2,2)"].status == MATCH
    assert rad["(2,2)"].observed == "rad_dim=1"
    assert rad["(4)"].observed == "rad_dim=0"
    # non-splittable and irregular shapes appear as skipped, never silent
    skipped = {r.lam for r in report.rows if r.check == "radical" and r.status == SKIPPED}
    assert "(3,1)" in skipped and "(1,1,1,1)" in skipped
    # every skipped row names the violated hypothesis
    assert all(r.reason for r in report.rows if r.status == SKIPPED)
    assert all(r.reason is None for r in report.rows if r.status == MATCH)


def test_sweep_sym_radical_zero_row():
    report = harness.sweep_sym(5, 6)
    assert report.mismatches == 0
    rad = {r.lam: r for r in report.rows if r.check == "radical"}
    assert rad["(3,3)"].predicted == "rad=0"
    assert rad["(3,3)"].observed == "rad_dim=0"


def test_sweep_sym_image_row_over_gf3_m6():
    report = harness.sweep_sym(3, 6)
    assert report.mismatches == 0
    rows = [r for r in report.rows if r.check == "radical_image" and r.lam == "(3,3)"]
    assert len(rows) == 1
    assert rows[0].mu == "(5,1)" and rows[0].status == MATCH
    rad = {r.lam: r for r in report.rows if r.check == "radical"}
    assert rad["(3,3)"].observed == "rad_dim=4"


def test_sweep_sym_degree_8_over_gf3():
    report = harness.sweep_sym(3, 8, cap=8)
    assert report.mismatches == 0
    assert any(r.status == MATCH and r.check == "ext1" for r in report.rows)


@pytest.mark.parametrize("p,m,digest", [
    (3, 8, "3aef3797d13f2d418bf409c63e6b6f4db8c11fb9e6c08315e28189158006525d"),
    (5, 8, "bd99db22b272b4bfff947b9041ad02d751f426ef1d45bae8aa37a1115eb05b48"),
    (7, 8, "dc70f970e2bf60df7bb326ef6caf3c1088ef401bf39ec75001e0916a93a2387d"),
    (3, 9, "6f5c23e07fa7e03a37a4dac53a9ac1cdd717dff20f8825c4b4ffa718f2a313e6"),
])
def test_sweep_sym_csv_digests_hold(p, m, digest):
    # Digests of the CSVs made by the Kronecker hom engine that the Garnir
    # presentation replaced: the rows must not change with the engine.
    report = harness.sweep_sym(p, m, cap=m)
    assert report.mismatches == 0
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == digest


def test_sweep_sym_refuses_degrees_before_any_work(monkeypatch):
    monkeypatch.setattr(harness, "enum_partitions", lambda m: pytest.fail("the sweep started"))
    with pytest.raises(DegreeCapError, match="degree 8 exceeds the cap 7"):
        harness.sweep_sym(3, 8)
    with pytest.raises(DegreeCapError, match="degree 9 exceeds the cap 8"):
        harness.sweep_sym(5, 9, cap=8)
    with pytest.raises(ValueError, match="m must be nonnegative"):
        harness.sweep_sym(3, -1)


def test_sweep_sym_rejects_even_or_composite_p():
    with pytest.raises(ValueError):
        harness.sweep_sym(2, 4)
    with pytest.raises(ValueError):
        harness.sweep_sym(9, 4)


def test_reports_are_deterministic():
    a = harness.sweep_sym(3, 5)
    b = harness.sweep_sym(3, 5)
    assert a.to_csv() == b.to_csv()
    assert [r.to_dict() for r in a.rows] == [r.to_dict() for r in b.rows]
    sa = {k: v for k, v in a.summary.items() if k != "wall_time_s"}
    sb = {k: v for k, v in b.summary.items() if k != "wall_time_s"}
    assert sa == sb


def test_report_json_round_trip():
    report = harness.sweep_sym(3, 4)
    back = Report.from_json(report.to_json())
    assert back.version == report.version
    assert back.config == report.config
    assert back.rows == list(report.rows)
    assert back.summary == report.summary


def test_report_csv_layout():
    report = harness.sweep_sym(3, 3)
    lines = report.to_csv().splitlines()
    assert lines[0] == "check,p,size,lam,mu,predicted,observed,status,reason"
    assert len(lines) == len(report.rows) + 1

