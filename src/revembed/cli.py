"""Command-line front end.

Exit codes: 0 success, 1 usage or input errors, 2 an exhausted time,
pattern or row budget or an input too wide for the recursive BDD core, 3 a
requested verification failed.

The --timeout budget is a SIGALRM timer, so main() enforces it only when
called on the main thread; called from any other thread it runs unbounded.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

from .bdd import MAX_RECURSION
from .benchgen import redundancy, restricted_growth
from .dsop import dsop, post_compact
from .embedding import (
    complete_offset,
    embed_bennett,
    embed_exact,
    ordering_comparison,
    to_extended_pla,
    verify,
)
from .errors import ResourceLimitError
from .linecount import exact_mu_bdd, exact_mu_cube, heuristic_mu, upper_bound_total
from .oracle import brute_mu
from .pla import parse_pla, write_pla

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3


# `lines --method` names; each entry looks its function up when called, so
# rebinding a module-level name (a test's monkeypatch, a tracer) is seen
LINE_METHODS = {
    "heuristic": lambda pla: heuristic_mu(pla),
    "exact-cube": lambda pla: exact_mu_cube(pla),
    "exact-bdd": lambda pla: exact_mu_bdd(pla),
    "brute": lambda pla: brute_mu(pla),
}


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for budgets
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="revembed", description=__doc__)
    parser.add_argument(
        "--timeout",
        type=float,
        default=5000.0,
        help="wall-clock budget in seconds (default 5000)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized paths"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lines = sub.add_parser("lines", help="garbage-line counts for a PLA")
    p_lines.add_argument("file")
    p_lines.add_argument("--method", choices=list(LINE_METHODS), default="heuristic")

    p_dsop = sub.add_parser("dsop", help="rewrite a PLA into disjoint cubes")
    p_dsop.add_argument("file")
    p_dsop.add_argument("-o", "--output", help="write here instead of stdout")
    p_dsop.add_argument(
        "--compact", action="store_true", help="re-extract per-pattern cubes"
    )

    p_embed = sub.add_parser("embed", help="embed a PLA reversibly")
    mode = p_embed.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--bennett", action="store_true")
    p_embed.add_argument("file")
    p_embed.add_argument(
        "--with-offset",
        action="store_true",
        help="specify the OFF-set too (exact mode only)",
    )
    p_embed.add_argument("--verify", action="store_true")
    p_embed.add_argument("--format", choices=["pla", "dot", "json"], default="json")
    p_embed.add_argument("-o", "--output")

    p_gen = sub.add_parser("gen", help="benchmark generators")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_red = gen_sub.add_parser("redundancy")
    g_red.add_argument("p", type=int)
    g_red.add_argument("q", type=int)
    g_rgs = gen_sub.add_parser("rgs")
    g_rgs.add_argument("p", type=int)
    for g in (g_red, g_rgs):
        g.add_argument("--format", choices=["json", "dot"], default="json")
        g.add_argument(
            "--embed", action="store_true", help="also build the total embedding"
        )

    p_bench = sub.add_parser("bench", help="measure a directory of PLA files")
    p_bench.add_argument("directory")
    p_bench.add_argument(
        "--ordering-study",
        type=int,
        default=0,
        metavar="LINES",
        help="also compare orders on random reversible functions",
    )
    p_bench.add_argument("--samples", type=int, default=20)
    return parser


def _read_pla(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(str(exc)) from None
    pla = parse_pla(text)
    if pla.output_dc_seen:
        print(
            "warning: '-'/'~' in the output plane; treated as "
            "'not in the constructing set'",
            file=sys.stderr,
        )
    return pla


def _emit(text: str, output):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(build, output=None):
    """Write build()'s payload as JSON.

    Counts grow like 2**n, past the 4300 digits Python converts between int
    and str by default, so that cap is lifted while the payload is built
    and written, and restored afterwards.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(build(), indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    _emit(text, output)


def _cmd_lines(args) -> int:
    report = LINE_METHODS[args.method](_read_pla(args.file))
    _emit_json(report.to_dict)
    return EXIT_OK


def _cmd_dsop(args) -> int:
    pla = _read_pla(args.file)
    result = dsop(pla)
    if args.compact:
        result = post_compact(result)
    _emit(write_pla(result), args.output)
    return EXIT_OK


def _cmd_embed(args) -> int:
    pla = _read_pla(args.file)
    if args.with_offset and args.bennett:
        raise _UsageError("--with-offset only applies to --exact")
    if args.exact:
        prepared = complete_offset(pla) if args.with_offset else pla
        rcbdd = embed_exact(dsop(prepared))
        mode = "exact"
    else:
        rcbdd = embed_bennett(pla)
        mode = "bennett"
    report = verify(rcbdd, pla) if args.verify else None

    if args.format == "pla":
        _emit(to_extended_pla(rcbdd), args.output)
    elif args.format == "dot":
        _emit(rcbdd.manager.to_dot(rcbdd.chi, name="embedding"), args.output)
    else:
        payload = {"mode": mode, **rcbdd.summary()}
        payload["verify"] = report.to_dict() if report else None
        _emit_json(lambda: payload, args.output)

    if report is not None:
        needed = [report.injective, report.functional, report.projects]
        if args.bennett or args.with_offset:
            needed.append(report.total)
        if not all(needed):
            print("verification failed: %s" % (report.to_dict(),), file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "redundancy":
        func = redundancy(args.p, args.q)
        payload = {"family": "redundancy", "p": args.p, "q": args.q}
    else:
        func = restricted_growth(args.p)
        payload = {"family": "rgs", "p": args.p, "q": None}
    manager = func.manager
    n = manager.var_count()
    if args.format == "dot":
        sys.stdout.write(manager.to_dot(func, name=args.family))
        return EXIT_OK
    count = manager.sat_count(func, n)
    payload.update({"n": n, "node_count": func.dag_size()})
    embed = embed_bennett([func], n=n).summary() if args.embed else None
    _emit_json(lambda: {**payload, "sat_count": str(count), "embed": embed})
    return EXIT_OK


def _cmd_bench(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise _UsageError("%s is not a directory" % directory)
    measured = []
    for path in sorted(directory.glob("*.pla")):
        pla = parse_pla(path.read_text())
        reports, seconds = {}, {}
        for key, method in (("heuristic", "heuristic"), ("exact", "exact-bdd")):
            t0 = time.monotonic()
            reports[key] = LINE_METHODS[method](pla)
            seconds[key] = round(time.monotonic() - t0, 6)
        measured.append((path.name, pla, reports, seconds))
    if args.ordering_study:
        study = ordering_comparison(
            lines=args.ordering_study, samples=args.samples, seed=args.seed
        )
    else:
        study = None

    def payload():
        results = [
            {
                "file": name,
                "n": p.n,
                "m": p.m,
                "cubes": p.cube_count(),
                "upper_bound_total": upper_bound_total(p.n, p.m),
                **{key: report.to_dict() for key, report in by_key.items()},
                "seconds": secs,
            }
            for name, p, by_key, secs in measured
        ]
        return {"results": results, "ordering_study": study}

    _emit_json(payload)
    return EXIT_OK


def main(argv=None) -> int:
    # Manager.add_var raises the interpreter's recursion limit for wide
    # inputs; the caller gets back the limit it had
    recursion_limit = sys.getrecursionlimit()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    use_alarm = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
        and args.timeout > 0
    )
    if use_alarm:
        def _on_alarm(signum, frame):
            raise ResourceLimitError("timed out after %gs" % args.timeout)

        old_handler = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, args.timeout)
    try:
        handler = {
            "lines": _cmd_lines,
            "dsop": _cmd_dsop,
            "embed": _cmd_embed,
            "gen": _cmd_gen,
            "bench": _cmd_bench,
        }[args.command]
        return handler(args)
    except (ResourceLimitError, MemoryError) as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print(
            "resource limit: input too wide: BDD recursion passed its depth cap "
            "of %d levels (embed --bennett --verify reaches it near 20000 "
            "inputs)"
            % MAX_RECURSION,
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old_handler)
        sys.setrecursionlimit(recursion_limit)


if __name__ == "__main__":
    sys.exit(main())
