import argparse
import contextlib
import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csext import cli
from csext.cli import EXIT_LIMIT, EXIT_MISMATCH, EXIT_OK, EXIT_SCOPE, EXIT_USAGE, main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ext_gl_dim_one(capsys):
    code, out, _ = run(capsys, "ext", "gl", "--p", "3", "--lambda", "2,2,0,0", "--mu", "1,1,1,1")
    assert code == EXIT_OK
    assert out.strip() == "dim=1 witness=(1,1,1,1)"


def test_ext_gl_self_extension(capsys):
    code, out, _ = run(capsys, "ext", "gl", "--p", "3", "--lambda", "2,2,0,0", "--mu", "2,2,0,0")
    assert code == EXIT_OK
    assert out.strip() == "dim=0"


def test_ext_sym_char_two_is_out_of_scope(capsys):
    code, _, err = run(capsys, "ext", "sym", "--p", "2", "--lambda", "2,2", "--mu", "4")
    assert code == EXIT_SCOPE
    assert "CharTwo" in err


def test_ext_gl_json(capsys):
    code, out, _ = run(
        capsys, "ext", "gl", "--p", "3", "--lambda", "2,2,0,0", "--mu", "1,1,1,1",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"dim": 1, "witness": [1, 1, 1, 1]}


def test_inspect_big_weight(capsys):
    code, out, _ = run(capsys, "inspect", "--p", "7", "--weight", "5,5,5,4,3,1,1,1")
    assert code == EXIT_OK
    assert "big=True" in out
    assert "hat=(5,4,4,4,3,2,2,1)" in out


def test_inspect_partition(capsys):
    code, out, _ = run(capsys, "inspect", "--p", "3", "--partition", "2,2")
    assert code == EXIT_OK
    assert "chi=2" in out and "big=True" in out and "tilde=(4)" in out
    code, out, _ = run(capsys, "inspect", "--p", "3", "--partition", "3,1")
    assert code == EXIT_OK
    assert "chi=4" in out and "cs=False" in out


def test_inspect_partition_with_rank(capsys):
    code, out, _ = run(
        capsys, "inspect", "--p", "3", "--partition", "2,2", "--n", "4", "--format", "json"
    )
    assert code == EXIT_OK
    info = json.loads(out)
    assert info["tilde"] == [4]
    assert info["as_weight"]["big"] is True
    assert info["as_weight"]["hat"] == [1, 1, 1, 1]


def test_inspect_non_dominant_weight(capsys):
    code, _, err = run(capsys, "inspect", "--p", "3", "--weight", "1,2,0")
    assert code == EXIT_SCOPE
    assert "NonDominant" in err


def test_verify_sym(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "sym", "--p", "3", "--m", "4", "--format", "json",
        "--out", str(out_file),
    )
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload["summary"]["mismatched"] == 0
    assert payload["config"] == {"p": 3, "m": 4, "cap": None}


def test_verify_sym_refuses_degrees_before_any_sweep(capsys, monkeypatch):
    # A bad degree anywhere in --m is refused before the first sweep runs.
    from csext import harness

    monkeypatch.setattr(harness, "sweep_sym", lambda *a, **k: pytest.fail("a sweep ran"))
    for degrees, message in (("8,9", "degree 9 exceeds the cap 8"), ("8,-1", "nonnegative")):
        code, out, err = run(capsys, "verify", "sym", "--p", "7", "--m", degrees, "--cap", "8")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and message in err


def test_verify_sym_has_no_cache_option(capsys):
    code, _, err = run(capsys, "verify", "sym", "--p", "3", "--m", "3", "--cache-dir", "d")
    assert code == EXIT_USAGE and "--cache-dir" in err
    # --ca was ambiguous between --cap and --cache-dir
    assert cli.parse_args(["verify", "sym", "--p", "3", "--m", "3", "--ca", "8"]).cap == 8


def test_verify_comb(capsys):
    code, out, _ = run(capsys, "verify", "comb", "--p", "2,3", "--n", "4", "--max-entry", "3")
    assert code == EXIT_OK
    assert "no mismatches" in out


def test_engine_limit_is_not_a_usage_error(capsys):
    # 2 x (C(30 + 9 + 1, 30) - 1) and C(30 + 9, 30) weights, refused before enumerating
    code, _, err = run(capsys, "verify", "comb", "--p", "2,3", "--n", "30", "--max-entry", "9")
    assert code == EXIT_LIMIT
    assert err.startswith("engine limit:") and "1,695,321,054 weights" in err
    code, _, err = run(capsys, "table", "--p", "3", "--n", "30", "--max-entry", "9")
    assert code == EXIT_LIMIT
    assert err.startswith("engine limit:") and "211,915,132 weights" in err


def test_engine_limit_counts_diagram_cells(capsys):
    # 10^6 + 1 and 10^6 weights, each 10^6 + 1 (resp. 10^6) diagram cells:
    # under MAX_WEIGHTS but about an hour of work, refused before enumerating
    for argv in (["--n", "1", "--max-entry", "1000000"], ["--n", "1000000", "--max-entry", "0"]):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "verify", "comb", "--p", "3", *argv)
        assert code == EXIT_LIMIT and time.perf_counter() - t0 < 5
        assert err.startswith("engine limit:") and "diagram cells" in err


def test_engine_limit_before_huge_binomials(capsys):
    # C(40,000, 20,000) has over 12,000 digits: refused from min(n, max_entry)
    # alone, before math.comb (35 s at a million) or printing the count.
    for size in ("20000", "1000000"):
        for argv in (["verify", "comb"], ["table"]):
            t0 = time.perf_counter()
            code, _, err = run(capsys, *argv, "--p", "3", "--n", size, "--max-entry", size)
            assert code == EXIT_LIMIT and time.perf_counter() - t0 < 5
            assert err.startswith("engine limit:") and "more than 10,000,000 weights" in err


def test_image_refusal_is_an_engine_limit(capsys, monkeypatch):
    from csext import specht

    # (3^12 - 1) / 2 = 265,720 lines, over the 100,000 that are enumerated.
    big = specht.HomSpace(dim=12, maps=tuple(np.zeros((1, 1), dtype=np.int64) for _ in range(12)))
    monkeypatch.setattr(specht, "hom_space", lambda v, w: big)
    code, _, err = run(capsys, "verify", "sym", "--p", "3", "--m", "3")
    assert code == EXIT_LIMIT
    assert err.startswith("engine limit:") and "265,720 lines, over the limit of 100,000" in err


def test_verify_sym_csv(capsys):
    code, out, _ = run(capsys, "verify", "sym", "--p", "3", "--m", "3", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "check,p,size,lam,mu,predicted,observed,status,reason"


def test_table_partitions(capsys):
    code, out, _ = run(capsys, "table", "--p", "3", "--m", "5")
    assert code == EXIT_OK
    lines = out.splitlines()
    cs = [ln for ln in lines if "cs=True" in ln]
    assert any(ln.startswith("(5)") for ln in cs)
    assert any(ln.startswith("(3,2)") and "moves_to=(4,1)" in ln for ln in cs)
    assert len(cs) == 2


def test_table_weights(capsys):
    code, out, _ = run(capsys, "table", "--p", "7", "--n", "8", "--max-entry", "5", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    hits = [r for r in rows if r["weight"] == [5, 5, 5, 4, 3, 1, 1, 1]]
    assert len(hits) == 1
    assert hits[0]["big"] is True and hits[0]["hat"] == [5, 4, 4, 4, 3, 2, 2, 1]


def test_usage_errors(capsys):
    assert run(capsys, "ext", "gl", "--p", "4", "--lambda", "1,0", "--mu", "1,0")[0] == EXIT_USAGE
    assert run(capsys, "ext", "gl", "--p", "3", "--lambda", "1,x", "--mu", "1,0")[0] == EXIT_USAGE
    assert run(capsys, "ext", "sym", "--p", "3", "--lambda", "1,2", "--mu", "3")[0] == EXIT_USAGE
    assert run(capsys, "ext", "gl", "--p", "3", "--lambda", "1,0", "--mu", "1")[0] == EXIT_USAGE
    assert run(capsys, "table", "--p", "3")[0] == EXIT_USAGE
    assert run(capsys, "nonsense")[0] == EXIT_USAGE


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    # force one mismatch row to confirm the exit path
    from csext import harness

    real = harness.sweep_sym

    def fake(p, m, cap=None):
        report = real(p, m, cap=cap)
        report.rows.append(
            harness.SweepRow("ext1", p, m, "(2,2)", "(4)", "1", "0", harness.MISMATCH)
        )
        return report

    monkeypatch.setattr("csext.cli.harness.sweep_sym", fake)
    code, _, _ = run(capsys, "verify", "sym", "--p", "3", "--m", "3")
    assert code == EXIT_MISMATCH


COMMAND_WORDS = ["ext", "gl", "sym", "inspect", "verify", "comb", "table"]
TOKENS = [
    # every option, and abbreviations of some (ambiguous ones included), and
    # --cache-dir, an option no command has
    "--p", "--lambda", "--mu", "--format", "--weight", "--partition", "--n", "--m",
    "--max-entry", "--cap", "--cache-dir", "--out", "--lam", "--l", "--ma", "--max",
    "--mu=1", "--we", "--pa", "--f", "--fo", "--c", "--ca", "--cac", "--o",
    "-h", "--help", "--he", "--version", "--v", "--",
    "--p=3", "--lambda=2,1,0", "--format=json", "--m=4", "--n=2", "--p=",
    # values, some that look like options
    "3", "5", "2,1,0", "1,1,1", "-1,0", "-1", "0", "json", "csv", "text",
    # junk
    "--bogus", "-x", "", "=", "x", "gl", "sym", "comb",
]
# The required options of each command, and runs of its optional ones.
REQUIRED = {
    ("ext", "gl"): ["--p", "3", "--lambda", "2,2,0,0", "--mu", "1,1,1,1"],
    ("ext", "sym"): ["--p", "3", "--lam", "2,2", "--mu", "4"],
    ("inspect",): ["--p", "3", "--weight", "2,1"],
    ("verify", "comb"): ["--p", "2,3", "--n", "2", "--max-entry", "2"],
    ("verify", "sym"): ["--p", "3", "--m", "4"],
    ("table",): ["--p", "7", "--n", "3", "--max", "2"],
}
OPTIONAL = {
    ("ext", "gl"): [["--format", "json"], ["--format=text"]],
    ("ext", "sym"): [["--fo", "json"], ["--mu", "3,1"]],
    ("inspect",): [["--format", "json"], ["--n", "4"]],
    ("verify", "comb"): [["--format", "csv"], ["--out", "report.txt"]],
    ("verify", "sym"): [["--cap", "8"], ["--format=json"]],
    ("table",): [["--format", "csv"], ["--m", "5"]],
}


@st.composite
def argvs(draw):
    """0-2 leading command words, then options, values and junk; about half
    the known commands get their required options, some optional ones and at
    most one junk token."""
    lead = draw(st.one_of(st.sampled_from([(), ("ext",), ("verify",), *cli.COMMANDS]),
                          st.lists(st.sampled_from(COMMAND_WORDS), max_size=2).map(tuple)))
    tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=5))
    if lead in REQUIRED and draw(st.booleans()):
        runs = [REQUIRED[lead], *draw(st.lists(st.sampled_from(OPTIONAL[lead]), max_size=2))]
        tokens = [t for run in draw(st.permutations(runs)) for t in run] + tokens[:draw(st.integers(0, 1))]
    return list(lead) + tokens


def _parsed(parse, argv):
    """What parse does with argv: the Namespace, the UsageError text or the
    SystemExit code, and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except cli.UsageError as e:
            result = ("usage error", str(e))
        except SystemExit as e:
            result = ("exit", e.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=800, deadline=None)
@given(argvs())
def test_dispatch_parses_as_the_tree(argv):
    assert _parsed(cli.parse_args, argv) == _parsed(cli.build_parser().parse_args, argv)


def test_every_command_is_a_leaf_of_the_tree():
    parser = cli.build_parser()

    def leaves(node, words=()):
        subs = [a for a in node._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return {words: node}
        return {key: leaf for word, child in subs[0].choices.items()
                for key, leaf in leaves(child, words + (word,)).items()}

    tree = leaves(parser)
    assert tree.keys() == cli.COMMANDS.keys()
    for words, leaf in tree.items():
        assert parser.by_words[words] is leaf
        assert leaf.get_default("run") is cli.COMMANDS[words][0]
