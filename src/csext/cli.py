"""Command-line front door: oracle queries, inspection, tables and sweeps.

Exit codes: 0 success or all rows matched, 1 usage error, 2 out-of-scope
query, 3 verification mismatch, 4 input refused at an engine limit.

Each command is one entry of COMMANDS, keyed by its words.  build_parser
makes argparse's nested tree from the table.  parse_args hands the argv after
a command's words straight to that command's leaf, which skips two argparse
passes over the whole argv; anything else (--help, --version, a group word
alone, an unknown word) goes to the tree.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import combinatorics as comb
from . import harness
from ._version import __version__
from .errors import EngineLimitError, ScopeError, ScopeReason
from .oracle import ext1_gl, ext1_sym, is_prime

CACHE_ENV = "CSEXT_CACHE_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCOPE = 2
EXIT_MISMATCH = 3
EXIT_LIMIT = 4


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via UsageError (exit 1)."""

    def error(self, message):
        raise UsageError(message)


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers, got {text!r}")


def parse_weight(text: str) -> comb.Weight:
    return parse_ints(text, "weight")


def parse_partition(text: str) -> comb.Partition:
    parts = parse_ints(text, "partition")
    try:
        return comb.as_partition(parts)
    except ValueError as e:
        raise UsageError(str(e))


def parse_prime(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        raise UsageError(f"p must be an integer, got {text!r}")
    if not is_prime(p):
        raise UsageError(f"p must be prime, got {p}")
    return p


def parse_primes(text: str) -> list[int]:
    return [parse_prime(tok) for tok in text.split(",")]


def cmd_ext(args) -> int:
    p = parse_prime(args.p)
    if args.side == "gl":
        lam, mu = parse_weight(args.lam), parse_weight(args.mu)
        answer = ext1_gl(lam, mu, p)
    else:
        lam, mu = parse_partition(args.lam), parse_partition(args.mu)
        answer = ext1_sym(lam, mu, p)
    if args.format == "json":
        print(json.dumps({"dim": answer.dim,
                          "witness": list(answer.witness) if answer.witness else None}))
    elif answer.dim == 1:
        print(f"dim=1 witness={harness.fmt_tuple(answer.witness)}")
    else:
        print("dim=0")
    return EXIT_OK


def _weight_attributes(w: comb.Weight, p: int) -> dict:
    rr = comb.removable_rows(w)
    info: dict = {
        "weight": list(w),
        "rank": len(w),
        "sum": sum(w),
        "p": p,
        "removable_rows": list(rr.rows),
        "psi": comb.psi(w),
        "p_restricted": comb.is_p_restricted(w, p),
    }
    if info["p_restricted"]:
        info["cs"] = comb.is_cs_weight(w, p)
        info["big"] = comb.is_big_weight(w, p)
        info["hat"] = list(comb.hat(w, p)) if info["big"] else None
    else:
        info["cs"] = info["big"] = info["hat"] = None
        info["scope"] = "NotPRestricted"
    return info


def _partition_attributes(lam: comb.Partition, p: int) -> dict:
    info: dict = {
        "partition": list(lam),
        "degree": comb.degree(lam),
        "height": comb.height(lam),
        "p": p,
        "chi": comb.chi(lam),
        "p_regular": comb.is_p_regular(lam, p),
        "cs": comb.is_cs_partition(lam, p),
        "has_rim_p_hook": comb.has_rim_p_hook(lam, p),
        "big": comb.is_big_partition(lam, p),
    }
    if info["big"] and info["p_regular"]:
        info["tilde"] = list(comb.tilde(lam, p))
    else:
        info["tilde"] = None
        if info["big"]:
            info["scope"] = "NotPRegular"
    return info


def _print_attributes(info: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(info))
        return
    for key, val in info.items():
        if isinstance(val, dict):
            for inner_key, inner_val in val.items():
                if isinstance(inner_val, list):
                    inner_val = harness.fmt_tuple(inner_val)
                print(f"{key}.{inner_key}={inner_val}")
        else:
            if isinstance(val, list):
                val = harness.fmt_tuple(val)
            print(f"{key}={val}")


def cmd_inspect(args) -> int:
    p = parse_prime(args.p)
    if args.weight is not None:
        w = parse_weight(args.weight)
        if not comb.is_dominant(w):
            raise ScopeError(ScopeReason.NON_DOMINANT, f"weight {w} is not dominant")
        info = _weight_attributes(w, p)
    else:
        lam = parse_partition(args.partition)
        info = _partition_attributes(lam, p)
        if args.n is not None:
            padded = comb.pad(lam, args.n)
            info["as_weight"] = _weight_attributes(padded, p)
    _print_attributes(info, args.format == "json")
    return EXIT_OK


def cmd_verify_comb(args) -> int:
    return _write_reports(args, [harness.sweep_comb(parse_primes(args.p), args.n, args.max_entry)])


def cmd_verify_sym(args) -> int:
    p = parse_prime(args.p)
    if p == 2:
        raise UsageError("verify sym requires an odd prime")
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV) or None
    degrees = parse_ints(args.m, "--m")
    return _write_reports(
        args, [harness.sweep_sym(p, m, cap=args.cap, cache_dir=cache_dir) for m in degrees])


def _write_reports(args, reports: list[harness.Report]) -> int:
    text = "\n".join(getattr(report, f"to_{args.format}")() for report in reports)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise UsageError(f"cannot write report to {args.out}: {e}")
    else:
        print(text)
    return EXIT_MISMATCH if any(r.mismatches for r in reports) else EXIT_OK


def cmd_table(args) -> int:
    p = parse_prime(args.p)
    if (args.m is None) == (args.n is None):
        raise UsageError("table needs exactly one of --m (partitions) or --n (weights)")
    rows: list[dict] = []
    if args.m is not None:
        for lam in comb.enum_partitions(args.m):
            rows.append(_partition_attributes(lam, p))
    else:
        if args.max_entry is None:
            raise UsageError("table --n requires --max-entry")
        if args.n < 0 or args.max_entry < 0:
            raise UsageError("table --n and --max-entry must be nonnegative")
        count = harness.count_weights(args.n, args.max_entry, "table --n")
        harness.check_weight_count(count, "table --n")
        for w in comb.enum_dominant_weights_bounded(args.n, args.max_entry):
            if comb.is_p_restricted(w, p):
                rows.append(_weight_attributes(w, p))
    if args.format == "json":
        print(json.dumps(rows))
        return EXIT_OK
    if args.format == "csv":
        columns: list[str] = []
        for info in rows:
            for key in info:
                if key not in columns:
                    columns.append(key)
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for info in rows:
            writer.writerow(
                [harness.fmt_tuple(v) if isinstance(v, list) else v for v in
                 (info.get(c) for c in columns)]
            )
        print(out.getvalue(), end="")
        return EXIT_OK
    for info in rows:
        shape = info.get("partition", info.get("weight"))
        flags = []
        for key in ("chi", "psi", "p_regular", "p_restricted", "cs", "big"):
            if key in info and info[key] is not None:
                flags.append(f"{key}={info[key]}")
        move = info.get("tilde") or info.get("hat")
        if move:
            flags.append(f"moves_to={harness.fmt_tuple(move)}")
        print(f"{harness.fmt_tuple(shape)}: {' '.join(flags)}")
    return EXIT_OK


_FORMAT = ("--format", dict(choices=("text", "json"), default="text"))
_REPORT = (("--format", dict(choices=("text", "json", "csv"), default="text")),
           ("--out", dict(default=None, help="write the report here instead of stdout")))


def _ext_options(label: str) -> tuple:
    return (("--p", dict(required=True)),
            ("--lambda", dict(dest="lam", required=True, help=f"first {label}, comma-separated")),
            ("--mu", dict(required=True, help=f"second {label}, comma-separated")), _FORMAT)


# Each command by its words: the function that runs it, and its options as
# (flag, keywords) in help order, where a list is a required group of
# mutually exclusive options.
COMMANDS = {
    ("ext", "gl"): (cmd_ext, _ext_options("weight")),
    ("ext", "sym"): (cmd_ext, _ext_options("partition")),
    ("inspect",): (cmd_inspect, (
        ("--p", dict(required=True)), [("--weight", {}), ("--partition", {})],
        ("--n", dict(type=int, default=None, help="ambient rank to pad a partition into a weight")),
        _FORMAT)),
    ("verify", "comb"): (cmd_verify_comb, (
        ("--p", dict(required=True, help="comma-separated primes")),
        ("--n", dict(type=int, required=True, help="maximum rank")),
        ("--max-entry", dict(type=int, required=True)), *_REPORT)),
    ("verify", "sym"): (cmd_verify_sym, (
        ("--p", dict(required=True, help="odd prime")),
        ("--m", dict(required=True, help="degree or comma-separated degrees")),
        ("--cap", dict(type=int, default=None, help="degree cap override (8 opt-in)")),
        ("--cache-dir", dict(default=None, help=f"Specht cache directory (default ${CACHE_ENV})")),
        *_REPORT)),
    ("table",): (cmd_table, (
        ("--p", dict(required=True)),
        ("--m", dict(type=int, default=None, help="partition degree")),
        ("--n", dict(type=int, default=None, help="weight rank")),
        ("--max-entry", dict(type=int, default=None)),
        ("--format", dict(choices=("text", "json", "csv"), default="text")))),
}
# The help line of each first word, and the attribute that takes the second word.
FIRST_WORDS = {
    "ext": ("extension-space dimension between two irreducibles", "side"),
    "inspect": ("combinatorial attributes of one weight/partition", None),
    "verify": ("run a verification sweep", "kind"),
    "table": ("splittability/bigness listing", None),
}


@functools.cache
def build_parser() -> Parser:
    """The nested parser tree of COMMANDS, described by the module docstring's
    first two paragraphs.  `by_words` maps () to it and each command's words to
    its leaf, whose defaults set `command`, `side` or `kind`, and `run`."""
    parser = Parser(prog="csext", description=__doc__ and "\n\n".join(__doc__.split("\n\n")[:2]))
    parser.add_argument("--version", action="version", version=f"csext {__version__}")
    subs = {(): parser.add_subparsers(dest="command", required=True)}
    parser.by_words = {(): parser}
    for words, (run, options) in COMMANDS.items():
        text, dest = FIRST_WORDS[words[0]]
        if dest is None:
            leaf = subs[()].add_parser(words[0], help=text)
        else:
            if words[:1] not in subs:
                group = subs[()].add_parser(words[0], help=text)
                subs[words[:1]] = group.add_subparsers(dest=dest, required=True)
            leaf = subs[words[:1]].add_parser(words[1])
            leaf.set_defaults(**{dest: words[1]})
        leaf.set_defaults(command=words[0], run=run)
        for option in options:
            if isinstance(option, list):
                exclusive = leaf.add_mutually_exclusive_group(required=True)
                for flag, keywords in option:
                    exclusive.add_argument(flag, **keywords)
            else:
                leaf.add_argument(option[0], **option[1])
        parser.by_words[words] = leaf
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), with the argv after a command's words
    handed straight to its leaf, as the tree would hand it."""
    parsers = build_parser().by_words
    words = next(w for w in (tuple(argv[:2]), tuple(argv[:1]), ()) if w in parsers)
    return parsers[words].parse_args(argv[len(words):])


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.run(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ScopeError as e:
        print(f"out-of-scope: {e}", file=sys.stderr)
        return EXIT_SCOPE
    except EngineLimitError as e:
        print(f"engine limit: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as e:
        # covers malformed library inputs and the degree cap
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
