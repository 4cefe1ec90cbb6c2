"""Command-line front end.

Exit codes: 0 success, 1 usage or input errors (a PLA .i or .o past
sys.maxsize // 4 included) or an unwritable output file, 2 an exhausted
time or pattern budget, a --format pla dump past its row or cell budget,
a bench --ordering-study of more than embedding.MAX_STUDY_LINES = 16
lines, or an input too wide for the recursive BDD core, 3 a requested
verification failed. embed --verify exits 2 for width before it builds
the relation, once the relation's line count is known; embed --exact
--verify first checks the input count, a lower bound of that line count,
before it builds the cover.

The --timeout budget is a SIGALRM timer, so main() enforces it only when
called on the main thread; called from any other thread it runs unbounded.
It must be a finite number of seconds in (0, MAX_TIMEOUT]; any other value
is a usage error.

main() may be called repeatedly in one process: the argument parser is
built on the first call and shared by every later one, each of which
parses into a fresh namespace. A console-script run calls main() once, so
it builds the parser once, as before.

Counts are written in decimal by linecount.decimal_text, at any width and
under whatever int-to-str digit limit the interpreter is set to. The only
interpreter setting main() changes is the recursion limit, which it puts
back (_ProcessLimits).
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import signal
import sys
import threading
import time
from pathlib import Path

from . import bdd
from .benchgen import redundancy, restricted_growth
from .dsop import compact, dsop
from .embedding import (
    complete_offset,
    embed_bennett,
    embed_exact,
    ordering_comparison,
    to_extended_pla,
    verify,
)
from .errors import ResourceLimitError
from .linecount import (
    decimal_text,
    exact_mu_bdd,
    exact_mu_cube,
    heuristic_mu,
    upper_bound_total,
)
from .pla import parse_pla, write_pla

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3

# about 31 years; the interval timer overflows past 9.2e9 s
MAX_TIMEOUT = 1e9


def _brute_mu(pla):
    # the oracle imports numpy, which no other command needs
    try:
        from .oracle import brute_mu
    except ImportError as exc:
        raise _UsageError("--method brute needs numpy: %s" % exc) from None
    return brute_mu(pla)


# `lines --method` names; each entry looks its function up when called, so
# rebinding a module-level name (a test's monkeypatch, a tracer) is seen
LINE_METHODS = {
    "heuristic": lambda pla: heuristic_mu(pla),
    "exact-cube": lambda pla: exact_mu_cube(pla),
    "exact-bdd": lambda pla: exact_mu_bdd(pla),
    "brute": _brute_mu,
}


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for budgets
    def error(self, message):
        raise _UsageError(message)


def _checked(convert, ok, expected: str):
    """An argparse type: convert the text, then keep only values ok takes."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))

    return parse


_count = _checked(int, lambda c: c >= 0, "a non-negative integer")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="revembed", description=__doc__)
    parser.add_argument(
        "--timeout",
        # nan fails both comparisons
        type=_checked(float, lambda s: 0 < s <= MAX_TIMEOUT, "seconds in (0, 1e9]"),
        default=5000.0,
        help="wall-clock budget in seconds, in (0, 1e9] (default 5000)",
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
        type=_count,
        default=0,
        metavar="LINES",
        help="also compare orders on random reversible functions",
    )
    p_bench.add_argument("--samples", type=_count, default=20)
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
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise _UsageError(str(exc)) from None
    else:
        sys.stdout.write(text)


def _emit_json(payload, output=None):
    """Write payload as JSON, each int past 64 bits (a count, such as mu)
    in decimal_text's digits.

    json writes an int, even an int subclass, by int.__repr__: quadratic in
    the digits and held to the int-to-str digit limit. So a wide int goes
    in as a string, a NUL and its digits (_number), and that string's JSON
    text loses its quotes and its NUL. A file name, the only string a
    payload takes from outside, holds no NUL.
    """

    def place(value):
        if isinstance(value, dict):
            return {key: place(item) for key, item in value.items()}
        if isinstance(value, list):
            return [place(item) for item in value]
        if isinstance(value, int) and value.bit_length() > 64:
            return _number(decimal_text(value))
        return value

    text = json.dumps(place(payload), indent=2)
    text = re.sub(r'"\\u0000(\d+)"', lambda match: match[1], text)
    _emit(text + "\n", output)


def _number(digits: str) -> str:
    """The stand-in that _emit_json writes as the JSON number digits."""
    return "\0" + digits


def _report_dict(report) -> dict:
    """report.to_dict(), a wide mu written from its pattern's count text:
    mu is one pattern's count, which to_dict has already turned into
    decimal, so the count is converted once."""
    payload = report.to_dict()
    if report.mu.bit_length() > 64:
        # decimal texts with no leading zeros order by length, then digits
        texts = [pattern["count"] for pattern in payload["patterns"]]
        payload["mu"] = _number(max(texts, key=lambda text: (len(text), text)))
    return payload


def _cmd_lines(args) -> int:
    report = LINE_METHODS[args.method](_read_pla(args.file))
    _emit_json(_report_dict(report))
    return EXIT_OK


def _cmd_dsop(args) -> int:
    pla = _read_pla(args.file)
    result = compact(pla) if args.compact else dsop(pla)
    _emit(write_pla(result), args.output)
    return EXIT_OK


def _cmd_embed(args) -> int:
    pla = _read_pla(args.file)
    if args.with_offset and args.bennett:
        raise _UsageError("--with-offset only applies to --exact")
    if args.exact:
        if args.verify:
            # r = n + p >= n, and the check is monotone in r: refuse what
            # n alone rules out before the cover is built
            _check_depth(pla.n)
        prepared = complete_offset(pla) if args.with_offset else pla
        cover = dsop(prepared)
        if args.verify:
            # embed_exact's r: the cover is certified, so this ell is exact
            _check_depth(pla.m + heuristic_mu(cover).ell)
        rcbdd = embed_exact(cover)
        mode = "exact"
    else:
        if args.verify:
            _check_depth(pla.n + pla.m)
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
        _emit_json(payload, args.output)

    if report is not None:
        needed = [report.injective, report.functional, report.projects]
        if args.bennett or args.with_offset:
            needed.append(report.total)
        if not all(needed):
            print("verification failed: %s" % (report.to_dict(),), file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


# frames by which _check_depth's bounds must clear the exact boundary
# before it trusts them without a descent
_DEPTH_MARGIN = 8


def _check_depth(r: int) -> None:
    """ResourceLimitError, before any node is made, when embed --verify of
    a relation on r lines would pass bdd.MAX_RECURSION.

    verify's deepest walk takes one frame per level, 2r, and its deepest
    frame lies 2r + 4 below its caller's: it fits when the interpreter's
    depth here, plus the 2r + 3 frames of a descent from here, stays within
    the limit the build will raise to. The interpreter counts its own
    depth, with the calls that enter Python from C, so this thread's frames
    bound it from below and the limit in force from above. Outside the band
    between those bounds the answer is known; inside it, a descent to that
    depth tells.
    """
    floor, frame = 0, sys._getframe()
    while frame is not None:
        floor += 1
        frame = frame.f_back
    ceiling = sys.getrecursionlimit()
    bdd.raise_recursion_limit(2 * r)
    # the deepest this frame may be for the descent to fit
    room = sys.getrecursionlimit() - (2 * r + 3)
    if floor > room + _DEPTH_MARGIN:
        raise ResourceLimitError(_too_wide())
    if ceiling + _DEPTH_MARGIN < room:
        return
    try:
        _descend(2 * r + 2)
    except RecursionError:
        raise ResourceLimitError(_too_wide()) from None


def _descend(k: int) -> None:
    if k:
        _descend(k - 1)


def _too_wide() -> str:
    cap = bdd.MAX_RECURSION  # a two-cube PLA reaches it at half as many inputs
    return (
        "input too wide: BDD recursion passed its depth cap of %d levels "
        "(inputs past about %d reach it)" % (cap, cap // 2)
    )


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
    _emit_json({**payload, "sat_count": decimal_text(count), "embed": embed})
    return EXIT_OK


def _cmd_bench(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise _UsageError("%s is not a directory" % directory)
    if args.ordering_study:
        study = ordering_comparison(
            lines=args.ordering_study, samples=args.samples, seed=args.seed
        )
    else:
        study = None
    measured = []
    for path in sorted(directory.glob("*.pla")):
        pla = _read_pla(path)
        reports, seconds = {}, {}
        for key, method in (("heuristic", "heuristic"), ("exact", "exact-bdd")):
            t0 = time.monotonic()
            reports[key] = LINE_METHODS[method](pla)
            seconds[key] = round(time.monotonic() - t0, 6)
        measured.append((path.name, pla, reports, seconds))

    results = [
        {
            "file": name,
            "n": p.n,
            "m": p.m,
            "cubes": p.cube_count(),
            "upper_bound_total": upper_bound_total(p.n, p.m),
            **{key: _report_dict(report) for key, report in by_key.items()},
            "seconds": secs,
        }
        for name, p, by_key, secs in measured
    ]
    _emit_json({"results": results, "ordering_study": study})
    return EXIT_OK


class _ProcessLimits:
    """Restores the recursion limit once no main() call is running.

    The limit belongs to the whole interpreter, and the commands raise it
    for wide inputs (bdd.raise_recursion_limit). main() calls may overlap
    on several threads, so the first of them to enter saves the limit and
    the last to return puts it back: no call lowers it under another call
    still running.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if not self._active:
                self._saved = sys.getrecursionlimit()
            self._active += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._active -= 1
            if not self._active:
                sys.setrecursionlimit(self._saved)


_PROCESS_LIMITS = _ProcessLimits()


def main(argv=None) -> int:
    with _PROCESS_LIMITS:
        return _main(argv)


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    use_alarm = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    handler = {
        "lines": _cmd_lines,
        "dsop": _cmd_dsop,
        "embed": _cmd_embed,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
    }[args.command]
    # the alarm raises only while armed: a timer that fires once the
    # command has finished or failed cannot interrupt the reporting below
    armed = False

    def _on_alarm(signum, frame):
        if armed:
            raise ResourceLimitError("timed out after %gs" % args.timeout)

    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    # a handler keeps only the exit code and the line, printed once the try
    # statement has freed the failed command's frames: memory has room again
    try:
        try:
            if use_alarm:
                armed = True
                signal.setitimer(signal.ITIMER_REAL, args.timeout)
            return handler(args)
        finally:
            armed = False
    except (ResourceLimitError, MemoryError) as exc:
        # a bare MemoryError carries no text
        failed = EXIT_RESOURCE, "resource limit: %s" % (str(exc) or "out of memory")
    except RecursionError:
        failed = EXIT_RESOURCE, "resource limit: %s" % _too_wide()
    except ValueError as exc:
        failed = EXIT_USAGE, "error: %s" % exc
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old_handler)
    code, line = failed
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
