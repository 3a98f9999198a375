import numpy as np
import pytest

from csext import harness, specht
from csext.harness import MATCH, SKIPPED, Report


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
    with pytest.raises(ValueError):
        harness.sweep_comb([3], 0, 3)


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


@pytest.mark.filterwarnings("ignore:degree 8 builds permutation modules:UserWarning")
def test_sweep_sym_degree_8_over_gf3():
    report = harness.sweep_sym(3, 8, cap=8)
    assert report.mismatches == 0
    assert any(r.status == MATCH and r.check == "ext1" for r in report.rows)


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


def test_cache_round_trip_bit_exact(tmp_path):
    data = harness.cached_specht_data((3, 2), 3, cache_dir=tmp_path)
    assert harness.cache_path(tmp_path, (3, 2), 3).exists()
    got = harness.cache_get((3, 2), 3, tmp_path)
    assert got is not None
    assert got.shape == data.shape and got.p == data.p
    assert got.std_tableaux == data.std_tableaux
    assert got.tabloid_count == data.tabloid_count
    for a, b in [(got.basis, data.basis), (got.gram, data.gram)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert len(got.rep.gens) == len(data.rep.gens)
    for a, b in zip(got.rep.gens, data.rep.gens):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_cache_miss_on_empty_and_version_gate(tmp_path):
    assert harness.cache_get((2, 1), 3, tmp_path) is None
    harness.cache_put(specht.specht_data((2, 1), 3), tmp_path)
    assert harness.cache_get((2, 1), 3, tmp_path) is not None
    old = harness.CACHE_FORMAT_VERSION
    try:
        harness.CACHE_FORMAT_VERSION = old + 1
        assert harness.cache_get((2, 1), 3, tmp_path) is None
    finally:
        harness.CACHE_FORMAT_VERSION = old


def test_cache_corruption_recovers(tmp_path):
    harness.cached_specht_data((2, 2), 5, cache_dir=tmp_path)
    path = harness.cache_path(tmp_path, (2, 2), 5)
    path.write_bytes(b"not an archive")
    with pytest.warns(UserWarning):
        data = harness.cached_specht_data((2, 2), 5, cache_dir=tmp_path)
    assert data.rep.dim == 2
    # overwritten with a good entry
    assert harness.cache_get((2, 2), 5, tmp_path) is not None


def test_sweep_sym_uses_cache_dir(tmp_path):
    report = harness.sweep_sym(3, 4, cache_dir=tmp_path)
    assert report.mismatches == 0
    assert harness.cache_path(tmp_path, (2, 2), 3).exists()
    again = harness.sweep_sym(3, 4, cache_dir=tmp_path)
    assert [r.to_dict() for r in again.rows] == [r.to_dict() for r in report.rows]
