"""Command-line entry points.

Subcommands: invariants, lattice, decompose, filtration, eval, report,
verify.  Exit status:

    0  every non-experimental check passed;
    1  some check failed;
    2  the invocation itself was bad (unknown level, level above
       --max-level, parse error, an output file that cannot be
       written, ...);
    3  an internal fault: an invariant of the engine broke, it was asked
       for a composition outside its rule table, or a product produced a
       d_a^2 term.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dsl import ParseError, UnknownAtomError, EvalError, evaluate
from .exact import DegreeError
from .levels import InvariantError, LevelTooSmallError, level_invariants
from .motives import chow_kunneth_table, filtration_table, realize_betti, surface_multiplicity, variety
from .report import CERTIFICATE_SECTIONS, render_json, render_text, report_passed, run_report
from .surface import UnsupportedCompositionError, neron_lattice


class OutputError(Exception):
    """The file named by -o cannot be written."""


def _check_output(args) -> None:
    """Refuse, before any work, an output path whose directory does not exist."""
    if args.output:
        folder = os.path.dirname(os.path.abspath(args.output))
        if not os.path.isdir(folder):
            raise OutputError(f"cannot write {args.output}: no directory {folder}")


def _write(args, text: str) -> None:
    """text to stdout, or to -o FILE whole or not at all: to a temporary file beside it that then replaces it.

    A write that fails removes the temporary file and raises OutputError.  A device or a pipe is written in place.
    """
    if not args.output:
        sys.stdout.write(text)
        return
    target = os.path.realpath(args.output)  # through a link, as open does
    temp = target if os.path.exists(target) and not os.path.isfile(target) else f"{target}.{os.getpid()}.tmp"
    try:
        with open(temp, "w") as fh:
            fh.write(text)
        if temp != target:
            os.replace(temp, target)
    except OSError as exc:
        if temp != target and os.path.exists(temp):
            os.remove(temp)
        raise OutputError(f"cannot write {args.output}: {exc.strerror or exc}") from exc


def _emit(args, payload: dict, text_renderer) -> None:
    _write(args, text_renderer(payload) if args.format == "text" else render_json(payload))


def _add_common(parser: argparse.ArgumentParser, formats: bool = False) -> None:
    """--level and -o; --format only for a subcommand that renders both forms."""
    parser.add_argument("--level", type=int, required=True, help="level N >= 3")
    if formats:
        parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("-o", "--output", default=None, help="write to FILE instead of stdout")


def _add_max_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-level", type=int, default=12, help="refuse levels above this (default 12)")


def _cmd_invariants(args) -> int:
    _write(args, render_json(level_invariants(args.level).to_json()))
    return 0


def _cmd_lattice(args) -> int:
    _check_max_level(args)
    payload = neron_lattice(args.level).to_json()

    def text(p: dict) -> str:
        lines = [f"level {p['level']}  rank {p['rank']}"]
        lines.append("intersection matrix:")
        lines += ["  " + "  ".join(f"{x:>4}" for x in row) for row in p["full_matrix"]]
        lines.append("reduced inverse:")
        lines += ["  " + "  ".join(f"{x:>6}" for x in row) for row in p["reduced_inverse"]]
        return "\n".join(lines) + "\n"

    _emit(args, payload, text)
    return 0


def _cmd_decompose(args) -> int:
    n = args.level
    which = "threefold" if args.threefold else "surface"
    motive = variety(which).decompose(n)
    pieces = chow_kunneth_table(n, which)
    payload = {
        "level": n,
        "which": which,
        "motive": motive.to_json(),
        "chow_kunneth": [m.to_json() for m in pieces],
        "betti": realize_betti(motive, n, which).to_json(),
    }
    if not args.threefold:
        payload["multiplicity"] = surface_multiplicity(n)

    def text(p: dict) -> str:
        lines = [f"{p['which']} at level {p['level']}", f"h = {motive.render()}"]
        for i, piece in enumerate(pieces):
            lines.append(f"  h^{i} = {piece.render()}")
        lines.append("betti: " + " ".join(p["betti"]["betti"]))
        if "multiplicity" in p:
            m = p["multiplicity"]
            lines.append(
                f"multiplicity routes: assembly={m['assembly']} euler={m['euler_route']} "
                f"picard-rank={m['ns_rank']} closed-form={m['closed_form']} "
                f"(difference {m['difference_assembly_minus_closed_form']}, flagged)"
            )
        return "\n".join(lines) + "\n"

    _emit(args, payload, text)
    return 0


def _cmd_filtration(args) -> int:
    n = args.level
    payload = {
        "level": n,
        "surface": filtration_table(n, "surface").to_json(),
        "threefold": filtration_table(n, "threefold").to_json(),
    }

    def text(p: dict) -> str:
        lines = []
        for which in ("surface", "threefold"):
            lines.append(f"{which} at level {n}")
            for chow in p[which]["chow_groups"]:
                j = chow["codimension"]
                lines.append(f"  CH^{j}:")
                for step in chow["steps"]:
                    lines.append(
                        f"    F^{step['nu']} = {step['label']:<34} gr = {step['graded_piece']}"
                    )
        return "\n".join(lines) + "\n"

    _emit(args, payload, text)
    return 0


def _check_max_level(args) -> None:
    if args.level > args.max_level:
        raise LevelTooSmallError(
            f"level {args.level} exceeds the configured maximum {args.max_level}; raise it with --max-level"
        )


def _cmd_eval(args) -> int:
    _check_max_level(args)
    mode = "threefold" if args.threefold else "surface"
    value = evaluate(args.expression, args.level, mode)
    _write(args, value.render() + "\n")
    return 0


def _run_full(args) -> tuple[dict, int]:
    _check_max_level(args)
    payload = run_report(args.level, include_threefold=not args.surface_only)
    return payload, 0 if report_passed(payload) else 1


def _cmd_report(args) -> int:
    payload, status = _run_full(args)
    _emit(args, payload, render_text)
    return status


def _cmd_verify(args) -> int:
    payload, status = _run_full(args)
    lines = []
    for key in CERTIFICATE_SECTIONS:
        for e in payload.get(key, ()):
            lines.append(f"{e['status']:<5} {key.split('_')[0]}:{e['name']}")
    for which, entries in payload.get("divisor_checklist", {}).items():
        for e in entries:
            lines.append(f"{e['status']:<5} checklist:{which}:{e['name']}")
    lines.append("PASS" if status == 0 else "FAIL")
    _write(args, "\n".join(lines) + "\n")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motive-calc",
        description="exact projector calculator for elliptic modular surfaces and threefolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="closed-form level invariants")
    _add_common(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("lattice", help="cusp-fiber intersection lattice")
    _add_common(p, formats=True)
    _add_max_level(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("decompose", help="motive decomposition and Betti table")
    _add_common(p, formats=True)
    p.add_argument("--threefold", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("filtration", help="Chow-group filtration tables")
    _add_common(p, formats=True)
    p.set_defaults(func=_cmd_filtration)

    p = sub.add_parser("eval", help="evaluate a correspondence expression")
    _add_common(p)
    _add_max_level(p)
    p.add_argument("--threefold", action="store_true")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_eval)

    for name, help_text in (
        ("report", "run all certificates and tables"),
        ("verify", "run all certificates, print one line per check"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, formats=name == "report")
        _add_max_level(p)
        p.add_argument(
            "--surface-only",
            action="store_true",
            help="skip the threefold certificate (faster at high level)",
        )
        p.set_defaults(func=_cmd_report if name == "report" else _cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output(args)
        return args.func(args)
    except (InvariantError, UnsupportedCompositionError, DegreeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (LevelTooSmallError, ParseError, UnknownAtomError, EvalError, ValueError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
