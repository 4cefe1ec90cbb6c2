"""Reduced ordered binary decision diagrams (ROBDDs).

Canonical node store per manager: one hash-consed unique table keyed by
(level, low, high), so two handles denote the same function iff they hold
the same node id (Bryant 1986). No complement edges. The variable order is
fixed at variable-creation time; algorithms that need a special order create
their variables in that order on a fresh manager.

Every Boolean combinator is one memoised if-then-else recursion, as in
Brace, Rudell & Bryant, "Efficient implementation of a BDD package" (DAC
1990): and is ite(f, g, 0), or is ite(f, 1, g), not is ite(f, 0, 1), xor is
ite(f, not g, g) and xnor is ite(f, g, not g). Before the computed table is
consulted, each call is put into a standard triple -- ite(f, f, h) becomes
ite(f, 1, h), ite(f, g, f) becomes ite(f, g, 0), and the operands of and/or
are ordered -- so equivalent calls share one entry.

Counting helpers use Python integers throughout, so satisfying-assignment
counts stay exact at thousands of variables. Counts and supports are read
per call from one pass over the reachable nodes and never cached. Managers
are not thread-safe; confine each manager to one thread.
"""
from __future__ import annotations

import sys
from typing import Iterable, Iterator, Optional

from .cube import Cube

TERMINAL_LEVEL = sys.maxsize
# add_var raises the interpreter's recursion limit with the variable count,
# up to this cap, which bounds the depth of the recursive walks
MAX_RECURSION = 40000


class Func:
    """Handle for a function node inside a manager. Cheap to copy and hash."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: "Manager", node: int):
        self.manager = manager
        self.node = node

    def __and__(self, other: "Func") -> "Func":
        return self.manager.apply("and", self, other)

    def __or__(self, other: "Func") -> "Func":
        return self.manager.apply("or", self, other)

    def __xor__(self, other: "Func") -> "Func":
        return self.manager.apply("xor", self, other)

    def __invert__(self) -> "Func":
        return self.manager.negate(self)

    def xnor(self, other: "Func") -> "Func":
        return self.manager.apply("xnor", self, other)

    def sat_count(self, support_size: int) -> int:
        return self.manager.sat_count(self, support_size)

    def support(self) -> list[int]:
        return self.manager.support(self)

    def support_size(self) -> int:
        return self.manager.support_size(self)

    def dag_size(self) -> int:
        return self.manager.dag_size(self)

    @property
    def is_true(self) -> bool:
        return self.node == 1

    @property
    def is_false(self) -> bool:
        return self.node == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Func)
            and other.manager is self.manager
            and other.node == self.node
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __bool__(self) -> bool:
        raise TypeError("ambiguous: use is_true / is_false or compare Funcs")

    def __repr__(self) -> str:
        return "<Func node=%d of %r>" % (self.node, self.manager)


class Manager:
    """Shared node store plus the computed table of the ITE core.

    A variable is its level, the position in the variable order, which this
    manager assigns in creation order: the first variable added is level 0.
    """

    def __init__(self):
        # id 0 is the 0-terminal, id 1 the 1-terminal
        self._nodes: list[tuple[int, int, int]] = [
            (TERMINAL_LEVEL, -1, -1),
            (TERMINAL_LEVEL, -1, -1),
        ]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._memo: dict[tuple[int, int, int], int] = {}
        self._names: list[str] = []
        self._by_name: dict[str, int] = {}

    # Handles are made on demand: a Func stored on the manager would point
    # back at it, and that cycle would outlive the last outside handle.
    @property
    def false(self) -> Func:
        return Func(self, 0)

    @property
    def true(self) -> Func:
        return Func(self, 1)

    # ---------------------------------------------------------------- vars

    def add_var(self, name: Optional[str] = None) -> int:
        level = len(self._names)
        if name is None:
            name = "v%d" % level
        if name in self._by_name:
            raise ValueError("duplicate variable name %r" % name)
        self._names.append(name)
        self._by_name[name] = level
        # the walks recurse about 2 frames per level: allow 3, plus 1000 for
        # the caller; the raised limit stays for the rest of the process
        # (cli.main restores the limit it found, library callers keep it)
        want = 1000 + 3 * len(self._names)
        if sys.getrecursionlimit() < want:
            sys.setrecursionlimit(min(want, MAX_RECURSION))
        return level

    def add_vars(self, names: Iterable[str]) -> list[int]:
        return [self.add_var(n) for n in names]

    @property
    def vars(self) -> list[int]:
        return list(range(len(self._names)))

    def var_count(self) -> int:
        return len(self._names)

    def name_of(self, var) -> str:
        return self._names[self._resolve(var)]

    def _resolve(self, var) -> int:
        """The level of a variable given by level or by name."""
        if isinstance(var, str):
            return self._by_name[var]
        if isinstance(var, int):
            if not 0 <= var < len(self._names):
                raise ValueError("no variable at level %d" % var)
            return var
        raise TypeError("expected a level or a name")

    def var(self, var) -> Func:
        return Func(self, self._mk(self._resolve(var), 0, 1))

    def nvar(self, var) -> Func:
        return Func(self, self._mk(self._resolve(var), 1, 0))

    # --------------------------------------------------------------- nodes

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        nid = self._unique.get(key)
        if nid is None:
            nid = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = nid
        return nid

    def node_count(self) -> int:
        """Total nodes ever created in this manager, terminals included."""
        return len(self._nodes)

    def node_level(self, f: Func) -> int:
        """Level of f's top variable; TERMINAL_LEVEL for constants."""
        return self._nodes[self._check(f)][0]

    def node_branches(self, f: Func) -> tuple[Func, Func]:
        """(low, high) children of a non-terminal node."""
        u = self._check(f)
        if u < 2:
            raise ValueError("terminals have no branches")
        _, lo, hi = self._nodes[u]
        return Func(self, lo), Func(self, hi)

    def _check(self, f: Func) -> int:
        if not isinstance(f, Func):
            raise TypeError("expected a Func, got %r" % (f,))
        if f.manager is not self:
            raise ValueError("mixed managers")
        return f.node

    # --------------------------------------------------------- combinators

    def apply(self, op: str, f: Func, g: Func) -> Func:
        """f op g for op in and, or, xor, xnor."""
        u, v = self._check(f), self._check(g)
        op = op.lower()
        if op == "and":
            out = self._ite(u, v, 0)
        elif op == "or":
            out = self._ite(u, 1, v)
        elif op == "xor":
            out = 0 if u == v else self._ite(u, self._ite(v, 0, 1), v)
        elif op == "xnor":
            out = 1 if u == v else self._ite(u, v, self._ite(v, 0, 1))
        else:
            raise ValueError("unknown operator %r" % op)
        return Func(self, out)

    def negate(self, f: Func) -> Func:
        return Func(self, self._ite(self._check(f), 0, 1))

    def ite(self, f: Func, g: Func, h: Func) -> Func:
        u = self._check(f)
        v = self._check(g)
        w = self._check(h)
        return Func(self, self._ite(u, v, w))

    def _ite(self, u: int, v: int, w: int) -> int:
        if u == 1:
            return v
        if u == 0:
            return w
        # standard triples: an operand equal to the condition is a constant
        if v == u:
            v = 1
        if w == u:
            w = 0
        if v == w:
            return v
        if v == 1:
            if w == 0:
                return u
            if w < u:  # or commutes
                u, w = w, u
        elif w == 0 and v < u:  # and commutes
            u, v = v, u
        key = (u, v, w)
        out = self._memo.get(key)
        if out is None:
            nodes = self._nodes
            lu, u0, u1 = nodes[u]
            lv, v0, v1 = nodes[v]
            lw, w0, w1 = nodes[w]
            top = lu if lu < lv else lv
            if lw < top:
                top = lw
            if lu != top:
                u0 = u1 = u
            if lv != top:
                v0 = v1 = v
            if lw != top:
                w0 = w1 = w
            out = self._mk(top, self._ite(u0, v0, w0), self._ite(u1, v1, w1))
            self._memo[key] = out
        return out

    # ------------------------------------------------------- restructuring

    def restrict(self, f: Func, assignment: dict) -> Func:
        """Fix the given variables to constants."""
        u = self._check(f)
        fixed = {self._resolve(k): int(v) for k, v in assignment.items()}
        for v in fixed.values():
            if v not in (0, 1):
                raise ValueError("restriction values must be 0 or 1")
        return Func(self, self._restrict(u, fixed, {}))

    def _restrict(self, x: int, fixed: dict[int, int], memo: dict[int, int]) -> int:
        if x < 2:
            return x
        got = memo.get(x)
        if got is not None:
            return got
        lvl, lo, hi = self._nodes[x]
        if lvl in fixed:
            out = self._restrict(hi if fixed[lvl] else lo, fixed, memo)
        else:
            out = self._mk(
                lvl, self._restrict(lo, fixed, memo), self._restrict(hi, fixed, memo)
            )
        memo[x] = out
        return out

    def exists(self, f: Func, variables) -> Func:
        """Existentially quantify the given variables out of f."""
        u = self._check(f)
        levels = frozenset(self._resolve(v) for v in variables)
        if not levels:
            return f
        return Func(self, self._exists(u, levels, max(levels), {}))

    def _exists(
        self, x: int, levels: frozenset[int], top_gone: int, memo: dict[int, int]
    ) -> int:
        if x < 2:
            return x
        lvl, lo, hi = self._nodes[x]
        if lvl > top_gone:
            return x
        got = memo.get(x)
        if got is not None:
            return got
        lo = self._exists(lo, levels, top_gone, memo)
        hi = self._exists(hi, levels, top_gone, memo)
        if lvl in levels:
            out = self._ite(lo, 1, hi)
        else:
            out = self._mk(lvl, lo, hi)
        memo[x] = out
        return out

    def from_cube(self, cube: Cube, xs: Optional[list[int]] = None) -> Func:
        """Conjunction of a cube's literals; the inverse of enumerate_paths.

        Position i stands for xs[i] (default: the manager's i-th variable).
        The chain is built bottom-up straight from the cube's masks, so xs
        must ascend in level.
        """
        n = len(cube)
        if xs is not None and len(xs) != n:
            raise ValueError("need %d variables, got %d" % (n, len(xs)))
        node, below = 1, len(self._names)
        care, value = cube.care, cube.value
        while care:
            pos = care.bit_length() - 1
            level = pos if xs is None else xs[pos]
            if level >= below:
                raise ValueError("cube variables must ascend within the manager")
            if (value >> pos) & 1:
                node = self._mk(level, 0, node)
            else:
                node = self._mk(level, node, 0)
            below = level
            care ^= 1 << pos
        return Func(self, node)

    def cube(self, literals: dict) -> Func:
        """Conjunction of single-variable literals, built without apply.

        literals maps levels or names to 0 (negative) or 1 (positive).
        """
        care = value = 0
        for k, v in literals.items():
            bit = 1 << self._resolve(k)
            if care & bit:
                raise ValueError("conflicting literals for one variable")
            care |= bit
            if int(v):
                value |= bit
        return self.from_cube(Cube.from_masks(len(self._names), care, value))

    def transfer(self, f: Func, var_map: dict) -> Func:
        """Rebuild a foreign Func inside this manager.

        var_map maps source levels to target variables of this manager and
        must preserve relative level order.
        """
        src = f.manager
        if src is self:
            raise ValueError("transfer expects a foreign Func")
        mapping = {k: self._resolve(v) for k, v in var_map.items()}
        items = sorted(mapping.items())
        targets = [t for _, t in items]
        if targets != sorted(targets):
            raise ValueError("transfer map must preserve relative order")
        return Func(self, self._transfer(src._nodes, src._check(f), mapping, {}))

    def _transfer(
        self, nodes: list, x: int, mapping: dict[int, int], memo: dict[int, int]
    ) -> int:
        if x < 2:
            return x
        got = memo.get(x)
        if got is not None:
            return got
        lvl, lo, hi = nodes[x]
        if lvl not in mapping:
            raise ValueError("support variable at level %d is unmapped" % lvl)
        out = self._mk(
            mapping[lvl],
            self._transfer(nodes, lo, mapping, memo),
            self._transfer(nodes, hi, mapping, memo),
        )
        memo[x] = out
        return out

    # ------------------------------------------------------------ analysis

    def _levels(self, u: int) -> set[int]:
        """The support of u: the levels of its reachable non-terminals."""
        return {self._nodes[x][0] for x in self._reachable(u) if x >= 2}

    def support(self, f: Func) -> list[int]:
        return sorted(self._levels(self._check(f)))

    def support_size(self, f: Func) -> int:
        return len(self._levels(self._check(f)))

    def sat_count(self, f: Func, support_size: int) -> int:
        """Number of satisfying assignments over support_size variables.

        Exact arbitrary-precision count over any variable window of the
        given size that contains f's support, from one bottom-up pass over
        f's reachable nodes per call (nothing is cached); errors when the
        window is smaller than the support.
        """
        u = self._check(f)
        seen = self._reachable(u)
        nodes, top = self._nodes, len(self._names)
        need = len({nodes[x][0] for x in seen if x >= 2})
        if support_size < need:
            raise ValueError(
                "support_size %d is smaller than the support (%d variables)"
                % (support_size, need)
            )
        # per node: (models over the levels level..top-1, level), terminals
        # at top; _mk links only to existing nodes, so children come first
        count = {0: (0, top), 1: (1, top)}
        for x in sorted(seen):
            if x >= 2:
                lvl, lo, hi = nodes[x]
                (clo, llo), (chi, lhi) = count[lo], count[hi]
                count[x] = ((clo << (llo - lvl - 1)) + (chi << (lhi - lvl - 1)), lvl)
        models, lvl = count[u]
        # rescale from the top - lvl levels counted to the window
        shift = support_size - (top - lvl)
        return models << shift if shift >= 0 else models >> -shift

    def eval(self, f: Func, assignment) -> int:
        """Pointwise evaluation. assignment is indexed by variable index
        (sequence) or keyed by variable (mapping); every support variable
        must be assigned."""
        u = self._check(f)
        if isinstance(assignment, dict):
            byidx = {self._resolve(k): int(v) for k, v in assignment.items()}
            lookup = byidx.get
        else:
            seq = list(assignment)

            def lookup(level):
                return seq[level] if level < len(seq) else None

        while u >= 2:
            lvl, lo, hi = self._nodes[u]
            bit = lookup(lvl)
            if bit is None:
                raise ValueError(
                    "no value for support variable %r" % (self._names[lvl],)
                )
            u = hi if bit else lo
        return u

    def enumerate_paths(self, f: Func, n: int) -> Iterator[Cube]:
        """Yield the root-to-1 paths of f as pairwise-disjoint cubes over
        the first n variables (low branch first). Requires f's support to
        lie within those variables."""
        u = self._check(f)
        if n < 0 or any(lvl >= n for lvl in self._levels(u)):
            raise ValueError("f has support beyond the first %d variables" % n)
        return self._paths(u, n)

    def _paths(self, u: int, n: int) -> Iterator[Cube]:
        # depth first, low branch first; each entry carries its path's masks
        stack = [(u, 0, 0)]
        while stack:
            x, care, value = stack.pop()
            if x == 1:
                yield Cube.from_masks(n, care, value)
            elif x:
                lvl, lo, hi = self._nodes[x]
                bit = 1 << lvl
                stack.append((hi, care | bit, value | bit))
                stack.append((lo, care | bit, value))

    def dag_size(self, f: Func) -> int:
        """Reachable node count, terminals included."""
        return len(self._reachable(self._check(f)))

    def _reachable(self, u: int) -> set[int]:
        seen = set()
        stack = [u]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            if x >= 2:
                _, lo, hi = self._nodes[x]
                stack.append(lo)
                stack.append(hi)
        return seen

    # ----------------------------------------------------------------- dot

    def to_dot(self, f: Func, name: str = "bdd") -> str:
        """GraphViz text: dashed low edges, solid high edges."""
        seen = self._reachable(self._check(f))
        lines = ["digraph %s {" % name, "  rankdir=TB;"]
        per_level: dict[int, list[int]] = {}
        for x in sorted(seen):
            if x < 2:
                lines.append('  n%d [label="%d", shape=box];' % (x, x))
            else:
                lvl = self._nodes[x][0]
                lines.append(
                    '  n%d [label="%s", shape=circle];' % (x, self._names[lvl])
                )
                per_level.setdefault(lvl, []).append(x)
        for lvl in sorted(per_level):
            members = "; ".join("n%d" % x for x in per_level[lvl])
            lines.append("  { rank=same; %s; }" % members)
        for x in sorted(seen):
            if x >= 2:
                _, lo, hi = self._nodes[x]
                lines.append("  n%d -> n%d [style=dashed];" % (x, lo))
                lines.append("  n%d -> n%d [style=solid];" % (x, hi))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return "<Manager vars=%d nodes=%d>" % (len(self._names), len(self._nodes))


def and_all(funcs: list[Func], manager: Optional[Manager] = None) -> Func:
    """Balanced conjunction; true for an empty list."""
    return _reduce("and", funcs, manager, empty=1)


def or_all(funcs: list[Func], manager: Optional[Manager] = None) -> Func:
    """Balanced disjunction; false for an empty list."""
    return _reduce("or", funcs, manager, empty=0)


def _reduce(op: str, funcs: list[Func], manager: Optional[Manager], empty: int) -> Func:
    if not funcs:
        if manager is None:
            raise ValueError("empty reduction needs an explicit manager")
        return Func(manager, empty)
    work = list(funcs)
    while len(work) > 1:
        nxt = []
        for i in range(0, len(work) - 1, 2):
            nxt.append(work[i].manager.apply(op, work[i], work[i + 1]))
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]
