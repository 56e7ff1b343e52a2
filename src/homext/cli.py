"""Command-line front end.

Subcommands: ``generate`` (emit a named family), ``classify`` (18-class
membership table), ``atlas`` (JSONL corpus classification), ``verify-poset``
(claims file), ``age`` (age report with cone/co-cone flags), ``check``
(single property or criterion).  Exit codes: 0 success, 1 claim or check
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .age import PROPERTY_NAMES, age_report, check_criterion, check_property, compute_age
from .atlas import atlas_records, existing_ids, write_atlas
from .claims import DEFAULT_CLAIMS, check_claim, parse_claims
from .engine import (
    DEFAULT_DEPTH,
    DEFAULT_HORIZON,
    DEFAULT_MAX_DOMAIN,
    Status,
    classify_finite,
    decide_xy_bounded,
)
from .formats import emit_text, from_graph6, parse_text, to_graph6
from .generators import GENERATOR_NAMES, generate
from .graphs import FiniteGraph, GraphError, OracleGraph
from .morphisms import X_KINDS, Y_KINDS


_BOUNDS = {
    "max-domain": (DEFAULT_MAX_DOMAIN, "K"),
    "horizon": (DEFAULT_HORIZON, "N"),
    "depth": (DEFAULT_DEPTH, "D"),
    "window": (None, "W"),
}


def _add_bounds(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        default, metavar = _BOUNDS[name]
        p.add_argument(f"--{name}", type=int, default=default, metavar=metavar)


def _add_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("file", nargs="?", type=Path, default=None)
    src.add_argument("--gen", nargs="+", metavar=("NAME", "PARAM"))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="homext", description=__doc__)
    top.add_argument("--version", action="version", version=f"homext {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a named graph family")
    p.add_argument("name", choices=GENERATOR_NAMES)
    p.add_argument("params", nargs="*", help="generator parameters")
    p.add_argument("--truncate", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "graph6"), default="text")
    p.add_argument("-o", "--output", type=Path, default=None)

    p = sub.add_parser("classify", help="membership table for a finite graph")
    _add_source(p)
    p.add_argument("--truncate", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bounded", action="store_true",
                   help="treat a generator as an oracle and run bounded sweeps")
    _add_bounds(p, "max-domain", "horizon", "depth", "window")

    p = sub.add_parser("atlas", help="classify every small graph up to isomorphism")
    p.add_argument("--max-n", type=int, required=True, metavar="K")
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument("--resume", action="store_true",
                   help="skip ids already present in the output file, "
                        "dropping a last line torn by an interrupted run")

    p = sub.add_parser("verify-poset", help="check a claims file (or the built-in one)")
    p.add_argument("claims", nargs="?", type=Path, default=None)

    p = sub.add_parser("age", help="age report with cone/co-cone flags")
    _add_source(p)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_bounds(p, "horizon")

    p = sub.add_parser("check", help="check one property or criterion")
    p.add_argument("what", choices=PROPERTY_NAMES + ("HH", "HE", "ME"))
    _add_source(p)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_bounds(p, "horizon", "window")
    return top


def _read_text(path: Path) -> str:
    """The text of ``path``; an unreadable file is an input error."""
    try:
        return path.read_text()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise GraphError(f"cannot read {path}: not UTF-8 text") from exc


def _open_output(path: Path, mode: str):
    """``path`` opened for writing; an unwritable path is an input error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise GraphError(f"cannot write {path}: {exc.strerror}") from exc


def _read_graph(path: Path) -> FiniteGraph:
    text = sys.stdin.read() if str(path) == "-" else _read_text(path)
    stripped = text.strip()
    if "\n" not in stripped and stripped and not stripped[0].isdigit():
        return from_graph6(stripped)
    return parse_text(text)


def _load_source(args):
    """Graph or oracle from --gen or a file argument."""
    if args.gen:
        return generate(
            args.gen[0],
            args.gen[1:],
            truncate=getattr(args, "truncate", None),
            seed=getattr(args, "seed", 0),
        )
    return _read_graph(args.file)


def _cmd_generate(args) -> int:
    g = generate(args.name, args.params, truncate=args.truncate, seed=args.seed)
    if isinstance(g, OracleGraph):
        raise GraphError(f"{args.name} is an oracle family; pass --truncate N")
    text = emit_text(g) if args.format == "text" else to_graph6(g) + "\n"
    if args.output:
        with _open_output(args.output, "w") as out:
            out.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    src = _load_source(args)
    if isinstance(src, OracleGraph):
        if not args.bounded:
            raise GraphError("oracle input: pass --bounded (or --truncate N)")
        for x in X_KINDS:
            for y in Y_KINDS:
                v = decide_xy_bounded(
                    src, x, y,
                    k=args.max_domain, horizon=args.horizon,
                    depth=args.depth, window=args.window,
                )
                print(v.report_line(x, y))
        return 0
    print(classify_finite(src).table())
    return 0


def _cmd_atlas(args) -> int:
    kept = ""  # the text a resumed run keeps and appends to
    if args.resume and args.output and args.output.is_file():
        text = _read_text(args.output)
        kept = text[:text.rfind("\n") + 1]  # an interrupted run may leave a torn last line
        if not kept.strip():
            kept = ""
    skip = existing_ids(kept.splitlines())
    records = atlas_records(args.max_n, skip_ids=skip)
    if args.output:
        # only a resumed regular file is kept, less its torn last line
        with _open_output(args.output, "a" if kept else "w") as out:
            if kept:
                out.truncate(len(kept.encode()))
            written = write_atlas(records, out, header=not kept)
        print(f"wrote {written} records to {args.output}", file=sys.stderr)
    else:
        write_atlas(records, sys.stdout)
    return 0


def _cmd_verify_poset(args) -> int:
    text = _read_text(args.claims) if args.claims else DEFAULT_CLAIMS
    claims = parse_claims(text)
    failures = 0
    for claim in claims:
        result = check_claim(claim)
        print(result.line())
        if not result.passed:
            failures += 1
    print(f"{len(claims) - failures}/{len(claims)} claims passed")
    return 1 if failures else 0


def _cmd_age(args) -> int:
    entries = compute_age(_load_source(args), args.k, horizon=args.horizon)
    print(age_report(entries))
    return 0


def _cmd_check(args) -> int:
    src = _load_source(args)
    if args.what in PROPERTY_NAMES:
        rep = check_property(src, args.what, args.k, horizon=args.horizon, window=args.window)
        v = rep.verdict
        extra = f" cases={rep.cases} unwitnessed={rep.unwitnessed}"
        print(f"property {args.what}: {v.status.value}{extra}")
        if v.witness is not None:
            print(f"  witness: {v.witness.serialize()}"
                  + (f" stuck={v.stuck}" if v.stuck is not None else "")
                  + (f" [{v.certificate}]" if v.certificate else ""))
        return 1 if v.status is Status.FAILS else 0
    rep = check_criterion(src, args.what, args.k, horizon=args.horizon)
    print(rep.report())
    return 1 if rep.verdict.status is Status.FAILS else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "classify": _cmd_classify,
        "atlas": _cmd_atlas,
        "verify-poset": _cmd_verify_poset,
        "age": _cmd_age,
        "check": _cmd_check,
    }[args.command]
    try:
        return handler(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
