"""Command line interface: resolve / scan / render.

Exit codes: 0 success, 2 invalid user input, 3 violated invariant or
internal inconsistency. An exception outside the package's error taxonomy
is a fault of the program: it also exits 3, with an "internal error:" line
and the traceback on stderr. Argparse's own usage errors also exit 2.

The chop schedule comes from --eps (resolve only) or, when that is absent,
from the WPP_EPS_SCHEDULE environment variable ('start,ratio'). The variable
is read here, once per run, and passed down; the library never reads it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from fractions import Fraction

from .errors import LemmaViolated, UserInputError, WppError
from .render import FORMAT_CHOICES, WHAT_CHOICES, render
from .report import indented_parts, make_report, text_report
from .resolution import build_resolution, parse_schedule
from .rulings import ruling
from .scan import CHECK_CHOICES, run_scan, serialize_scan

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpp",
        description="Symplectic minimal resolutions of weighted projective planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser(
        "resolve", help="resolve one weight triple and print the full report"
    )
    p_res.add_argument("a", type=int)
    p_res.add_argument("b", type=int)
    p_res.add_argument("c", type=int)
    p_res.add_argument(
        "--presentation", type=int, default=1, help="corner presentation, 1..6"
    )
    p_res.add_argument(
        "--eps",
        default=None,
        help="chop size schedule 'start,ratio' as exact rationals, e.g. '1/4,1/3'; "
        "overrides WPP_EPS_SCHEDULE, which the CLI reads when --eps is absent "
        "(also for scan and render); a bad value exits 2",
    )
    fmt = p_res.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine readable (default)")
    fmt.add_argument("--text", action="store_true", help="terse terminal summary")

    p_scan = sub.add_parser(
        "scan", help="verify all pairwise coprime triples with 2 <= a < b < c <= MAX"
    )
    p_scan.add_argument("--max-c", type=int, required=True, metavar="MAX")
    p_scan.add_argument("--jobs", type=int, default=None, help="worker processes")
    p_scan.add_argument(
        "--check", choices=CHECK_CHOICES, default="all", help="which family of checks"
    )

    p_ren = sub.add_parser("render", help="emit an SVG or TikZ picture to stdout")
    p_ren.add_argument("a", type=int)
    p_ren.add_argument("b", type=int)
    p_ren.add_argument("c", type=int)
    p_ren.add_argument("--presentation", type=int, default=1)
    p_ren.add_argument("--what", choices=WHAT_CHOICES, default="polygon")
    p_ren.add_argument("--format", choices=FORMAT_CHOICES, default="svg")
    return parser


Schedule = tuple[Fraction, Fraction] | None


def _schedule(args: argparse.Namespace) -> Schedule:
    text = getattr(args, "eps", None) or os.environ.get("WPP_EPS_SCHEDULE")
    return parse_schedule(text) if text else None


def _cmd_resolve(args: argparse.Namespace, schedule: Schedule) -> int:
    start = time.perf_counter()
    rp = build_resolution(args.a, args.b, args.c, presentation=args.presentation,
                          schedule=schedule)
    report = make_report(rp)
    report["timing"] = {"seconds": round(time.perf_counter() - start, 6)}
    if args.text:
        print(text_report(report))
    else:
        # the whole text is made before its first byte is written, so a failure
        # prints nothing; its parts are written one by one, never joined
        parts = indented_parts(report)
        sys.stdout.writelines(parts)
        sys.stdout.write("\n")
    return 0


def _cmd_scan(args: argparse.Namespace, schedule: Schedule) -> int:
    result = run_scan(args.max_c, jobs=args.jobs, checks=(args.check,),
                      schedule=schedule)
    print(serialize_scan(result))
    if result["violations"]:
        first = result["violations"][0]
        a, b, c = first["triple"]
        eps = "" if schedule is None else f" --eps {schedule[0]},{schedule[1]}"
        print(
            f"{len(result['violations'])} violation(s); reproduce the first with: "
            f"wpp resolve {a} {b} {c} --presentation {first['presentation']}{eps}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_render(args: argparse.Namespace, schedule: Schedule) -> int:
    rp = build_resolution(args.a, args.b, args.c, presentation=args.presentation,
                          schedule=schedule)
    rd = ruling(rp, "c") if args.what == "ruling" else None
    sys.stdout.write(render(rp, args.what, args.format, rd=rd))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"resolve": _cmd_resolve, "scan": _cmd_scan, "render": _cmd_render}
    try:
        return handlers[args.command](args, _schedule(args))
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LemmaViolated as exc:
        print(f"violated invariant: {exc}", file=sys.stderr)
        return 3
    except WppError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
