"""Multi-output PLA descriptions (espresso ``fd`` conventions).

A Pla is an ordered list of (input cube, output set) entries. The output
plane follows fd semantics: '1' puts the cube into that output's
constructing set; '0', '-', and '~' all mean "not in the constructing
set" — they are not truth-table zeros. Duplicate cube lines are kept as
written so rewriting algorithms stay trace-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .bdd import Func, Manager, and_all, or_all
from .cube import Cube
from .errors import PlaError


@dataclass
class Pla:
    n: int
    m: int
    entries: list[tuple[Cube, frozenset[int]]] = field(default_factory=list)
    input_names: Optional[list[str]] = None
    output_names: Optional[list[str]] = None
    dsop_certified: bool = False
    # parser note: a '~' or '-' appeared in the output plane
    output_dc_seen: bool = field(default=False, compare=False)

    def __post_init__(self):
        n, m = self.n, self.m
        if n < 0 or m < 0:
            raise ValueError("negative plane width")
        # rows share few output sets: each distinct one is checked once
        checked = set()
        for cube, outs in self.entries:
            if cube.n != n:
                raise ValueError("cube width %d != .i %d" % (cube.n, n))
            if outs not in checked:
                if outs and (min(outs) < 1 or max(outs) > m):
                    raise ValueError("output index out of range")
                checked.add(outs)

    def cube_count(self) -> int:
        return len(self.entries)


def parse_pla(text: str) -> Pla:
    """Parse PLA text. dsop_certified is never taken from the file."""
    n = m = None
    input_names = output_names = None
    entries: list[tuple[Cube, frozenset[int]]] = []
    # each distinct output plane is decoded once, at its first line
    planes: dict[str, frozenset[int]] = {}
    output_dc_seen = False
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ended:
            break
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            if key == ".i":
                if n is not None:
                    raise PlaError(".i given twice", lineno)
                if m is not None or entries:
                    raise PlaError(".i must come first", lineno)
                n = _directive_int(parts, lineno)
                if n < 1:
                    raise PlaError(".i must be positive", lineno)
            elif key == ".o":
                if m is not None:
                    raise PlaError(".o given twice", lineno)
                if n is None:
                    raise PlaError(".o must follow .i", lineno)
                if entries:
                    raise PlaError(".o must precede cube lines", lineno)
                m = _directive_int(parts, lineno)
                if m < 1:
                    raise PlaError(".o must be positive", lineno)
            elif key == ".ilb":
                input_names = parts[1:]
            elif key == ".ob":
                output_names = parts[1:]
            elif key == ".p":
                _directive_int(parts, lineno)  # count is advisory; ignored
            elif key == ".type":
                if parts[1:] != ["fd"]:
                    raise PlaError("only .type fd is supported", lineno)
            elif key == ".e":
                ended = True
            else:
                raise PlaError("unknown directive %r" % key, lineno)
            continue
        if n is None or m is None:
            raise PlaError("cube line before .i/.o", lineno)
        tokens = line.split()
        if len(tokens) != 2:
            raise PlaError("expected input and output planes", lineno)
        inp, outp = tokens
        if len(inp) != n:
            raise PlaError("input plane has %d columns, .i is %d" % (len(inp), n), lineno)
        if len(outp) != m:
            raise PlaError("output plane has %d columns, .o is %d" % (len(outp), m), lineno)
        try:
            cube = Cube.parse(inp)
        except ValueError as exc:
            raise PlaError(str(exc), lineno) from None
        outs = planes.get(outp)
        if outs is None:
            if outp.strip("01-~"):
                for ch in outp:
                    if ch not in "01-~":
                        raise PlaError("illegal output character %r" % ch, lineno)
            if "-" in outp or "~" in outp:
                output_dc_seen = True
            outs = planes[outp] = frozenset(
                [i for i, ch in enumerate(outp, start=1) if ch == "1"]
            )
        entries.append((cube, outs))
    if n is None or m is None:
        raise PlaError("missing .i/.o header")
    if input_names is not None and len(input_names) != n:
        raise PlaError(".ilb names %d variables, .i is %d" % (len(input_names), n))
    if output_names is not None and len(output_names) != m:
        raise PlaError(".ob names %d outputs, .o is %d" % (len(output_names), m))
    pla = Pla(n, m, entries, input_names, output_names, dsop_certified=False)
    pla.output_dc_seen = output_dc_seen
    return pla


def _directive_int(parts: list[str], lineno: int) -> int:
    if len(parts) != 2 or not parts[1].isdigit():
        raise PlaError("%s needs one integer argument" % parts[0], lineno)
    return int(parts[1])


def write_pla(pla: Pla) -> str:
    lines = []
    if pla.dsop_certified:
        lines.append("# dsop")
    lines.append(".i %d" % pla.n)
    lines.append(".o %d" % pla.m)
    if pla.input_names:
        lines.append(".ilb %s" % " ".join(pla.input_names))
    if pla.output_names:
        lines.append(".ob %s" % " ".join(pla.output_names))
    lines.append(".p %d" % len(pla.entries))
    # one plane string per output pattern: compact writes runs of rows that share one
    planes: dict[frozenset[int], str] = {}
    for cube, outs in pla.entries:
        if outs not in planes:
            planes[outs] = "".join("1" if i + 1 in outs else "0" for i in range(pla.m))
        lines.append("%s %s" % (cube, planes[outs]) if pla.m else str(cube))
    lines.append(".e")
    return "\n".join(lines) + "\n"


def to_functions(
    pla: Pla, manager: Manager, xs: Optional[list[int]] = None
) -> list[Func]:
    """ON-set BDDs f_1..f_m. xs gives the manager variables standing for
    input columns 1..n (defaults to the manager's first n variables)."""
    if xs is None:
        xs = manager.vars[: pla.n]
    if len(xs) != pla.n:
        raise ValueError("need %d input variables, got %d" % (pla.n, len(xs)))
    cube_funcs = [manager.from_cube(cube, xs) for cube, _ in pla.entries]
    out = []
    for i in range(1, pla.m + 1):
        terms = [cf for cf, (_, outs) in zip(cube_funcs, pla.entries) if i in outs]
        out.append(or_all(terms, manager))
    return out


def cover_union(n: int, cubes: list[Cube]) -> Func:
    """OR of the cubes on a fresh manager whose variables are the inputs
    x1..xn, in that order."""
    manager = Manager()
    manager.add_vars("x%d" % (i + 1) for i in range(n))
    return or_all([manager.from_cube(cube) for cube in cubes], manager)


def function_source(
    source: Union[Pla, list[Func]], n: Optional[int] = None
) -> tuple[int, int, Callable[[Manager, list[int]], list[Func]]]:
    """(n, m, place) for a Pla, or for Funcs over their manager's first n
    variables (n inferred from the support when not given). A Pla has its
    own width: an n other than pla.n raises ValueError.

    place(manager, xs) builds the m functions on manager with input column
    i on xs[i]: by to_functions for a Pla, by transfer for Funcs.
    """
    if isinstance(source, Pla):
        if n is not None and n != source.n:
            raise ValueError("n is %d but the Pla has %d inputs" % (n, source.n))
        return source.n, source.m, lambda manager, xs: to_functions(source, manager, xs)
    if n is None:
        n = max((v + 1 for f in source for v in f.support()), default=0)

    def place(manager: Manager, xs: list[int]) -> list[Func]:
        var_map = {i: xs[i] for i in range(n)}
        return [manager.transfer(f, var_map) for f in source]

    return n, len(source), place


def characteristic(
    functions: list[Func], manager: Manager, y_vars: list[int]
) -> Func:
    """chi(x, y) = AND_i (y_i <-> f_i(x)).

    The y variables' levels are wherever the caller registered them;
    verify passes the embedding's output variables.
    """
    if len(functions) != len(y_vars):
        raise ValueError("one y variable per function")
    terms = [manager.var(y).xnor(f) for y, f in zip(y_vars, functions)]
    return and_all(terms, manager)
