"""Reduced ordered binary decision diagrams (ROBDDs).

Canonical node store per manager: one hash-consed unique table keyed by
(level, low, high), so two handles denote the same function iff they hold
the same node id (Bryant 1986). No complement edges. The variable order is
fixed at variable-creation time; algorithms that need a special order create
their variables in that order on a fresh manager.

The combinators share one computed table keyed by if-then-else triples, as
in Brace, Rudell & Bryant, "Efficient implementation of a BDD package" (DAC
1990): and is ite(f, g, 0), or is ite(f, 1, g), not is ite(f, 0, 1), xor is
ite(f, not g, g) and xnor is ite(f, g, not g). Before the table is
consulted, each call is put into a standard triple -- ite(f, f, h) becomes
ite(f, 1, h), ite(f, g, f) becomes ite(f, g, 0), and the operands of and/or
are ordered -- so equivalent calls share one entry. ite, not, xor and xnor
run the general recursion. Every triple that is an and or an or -- from
apply, and_all/or_all, ite or that recursion -- and the join of exists run
one two-operand kernel, as CUDD (Somenzi) does, keyed by the constant that
absorbs the other operand: 0 for and, 1 for or. It decides a constant or
equal pair of children without a call.

The computed table is a cache, not part of the node store: a caller may
empty it between two operations, and the next ones only recompute what
they would have found there. Emptying it never moves a node id, since
nodes are never freed and a recomputed result is found again in the
unique table. It is unbounded, and the package empties it at two points
where what it holds is dead: benchgen.redundancy after each column's AND,
whose operands are never used again, and embedding.verify once chi_f is
built, since the walks that follow hit few of the build's entries.

restrict, exists and transfer are one memoised walk, _rebuild, that copies
a node table's nodes down to the deepest level with a rule, low child first.
A rule moves its level to a target level (transfer), replaces it by its low
or high child (restrict), or by the or of its children on the computed
table (exists); a level without a rule stays as it is. The walk reads the
rules from a list indexed by level and looks each child up in its memo
before it calls, so a memo hit costs no call.

Counting helpers use Python integers throughout, so satisfying-assignment
counts stay exact at thousands of variables. Counts, sizes and supports are
read per call and never cached, each from one downward scan of the node
ids: _mk links a node only to older ones, so descending ids put parents
before children. The scan starts at the root and holds no set of the
reachable nodes and no sorted order. Its cost is linear in the span of ids
from the root down to the deepest node the root reaches, so a root made
long after the nodes it reaches pays for every id in between. sat_count
weighs each node by the assignments above it that lead there (Knuth, TAOCP
4A 7.1.4, counts the same models bottom-up): a node hands its weight on to
its children and drops it, so only the weights of the frontier are held,
not a count per node. dag_size and the support mark the reached ids in a
byte per id. Managers are not thread-safe; confine each manager to one
thread.
"""
from __future__ import annotations

import sys
from itertools import compress
from typing import Iterable, Iterator, Optional

from .cube import Cube

TERMINAL_LEVEL = sys.maxsize
# add_vars raises the interpreter's recursion limit with the manager's
# level count, up to this cap, which bounds the depth of the recursive
# walks. Since Python 3.11 a call from Python to Python takes no C stack
# frame, so the cap there is ten times the one that keeps 3.10's C stack
# safe; a recursive generator would still take one per level, and
# tests/test_bdd.py checks that the package has none. The narrowest
# two-cube PLA whose embed --verify reaches the cap has MAX_RECURSION // 2
# inputs, as measured: under 400,000, --bennett ran at 199,900 inputs and
# --exact at 199,990, and both exited 2 at 200,000; under 40,000 they ran
# at 19,800 and 19,990 and exited 2 at 20,000. The CLI refuses such a
# relation before building it (cli._check_depth).
MAX_RECURSION = 400000 if sys.version_info >= (3, 11) else 40000


def raise_recursion_limit(levels: int) -> None:
    """Let the recursive walks go levels deep.

    They recurse about 2 frames per level: allow 3, plus 1000 for the
    caller, up to MAX_RECURSION. The raised limit stays for the rest of the
    process: cli.main puts back the limit it found once no call of it is
    running, and library callers keep it.
    """
    want = 1000 + 3 * levels
    if sys.getrecursionlimit() < want:
        sys.setrecursionlimit(min(want, MAX_RECURSION))


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
    """Shared node store plus the computed table of the combinators, which
    keeps one entry per standard ite triple. restrict, exists and transfer
    rebuild a function by a rule per level in one walk with its own memo.

    The computed table (_memo) is a cache that a caller may empty with
    _memo.clear() between operations, never inside one; node ids do not
    move. benchgen.redundancy and embedding.verify empty it (see the
    module docstring).

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
        return self.add_vars([name])[0]

    def add_vars(self, names: Iterable[Optional[str]]) -> list[int]:
        """Add a batch of variables below the existing ones, in order, and
        return their levels; a None name becomes v<level>. All or nothing:
        a name that repeats in the batch or is taken raises ValueError
        before any variable is added."""
        start = len(self._names)
        batch = ["v%d" % (start + i) if n is None else n for i, n in enumerate(names)]
        fresh: set[str] = set()
        for name in batch:
            if name in self._by_name or name in fresh:
                raise ValueError("duplicate variable name %r" % name)
            fresh.add(name)
        self._names.extend(batch)
        levels = list(range(start, len(self._names)))
        self._by_name.update(zip(batch, levels))
        raise_recursion_limit(len(self._names))
        return levels

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
            level = self._by_name.get(var)
            if level is None:
                raise ValueError("no variable named %r" % var)
            return level
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
            out = _and_or_top(u, v, 0, self._nodes, self._unique, self._memo)
        elif op == "or":
            out = _and_or_top(u, v, 1, self._nodes, self._unique, self._memo)
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
        # standard triples: an operand equal to the condition is a constant,
        # and the kernel orders the operands of an or and of an and
        if v == u:
            v = 1
        if w == u:
            w = 0
        if v == w:
            return v
        if v == 1:
            return _and_or_top(u, w, 1, self._nodes, self._unique, self._memo)
        if w == 0:
            return _and_or_top(u, v, 0, self._nodes, self._unique, self._memo)
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
        fixed = {self._resolve(k): v for k, v in assignment.items()}
        for v in fixed.values():
            if v not in (0, 1):
                raise ValueError("restriction values must be 0 or 1")
        rules = {lvl: _HIGH if v else _LOW for lvl, v in fixed.items()}
        return self._rebuilt(self, u, rules)

    def exists(self, f: Func, variables) -> Func:
        """Existentially quantify the given variables out of f."""
        u = self._check(f)
        rules = {self._resolve(v): _JOIN for v in variables}
        return self._rebuilt(self, u, rules)

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
            if v not in (0, 1):
                raise ValueError("literal values must be 0 or 1")
            if v:
                value |= bit
        return self.from_cube(Cube(len(self._names), care, value))

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
        u = src._check(f)
        # the walk keeps a level without a rule, so every level needs one
        unmapped = src._levels(u) - mapping.keys()
        if unmapped:
            level = min(unmapped)
            raise ValueError("support variable at level %d is unmapped" % level)
        return self._rebuilt(src, u, mapping)

    def _rebuilt(self, src: "Manager", u: int, rules: dict) -> Func:
        """Node u of src rebuilt on this manager by rules, walked down to the
        deepest ruled level; u itself when that level is above u's (always
        for a terminal, whose level is TERMINAL_LEVEL)."""
        if rules and src._nodes[u][0] <= max(rules):
            deepest = max(rules)
            # the walk reads a rule per level: a level without one stays
            per_level = list(range(deepest + 1))
            for level, rule in rules.items():
                per_level[level] = rule
            nodes, unique, memo = self._nodes, self._unique, self._memo
            u = _rebuild(u, per_level, deepest, src._nodes, nodes, unique, memo, {})
        return Func(self, u)

    # ------------------------------------------------------------ analysis

    def _marks(self, u: int) -> bytearray:
        """A byte per id from 0 to u, 1 where u reaches the node.

        _mk links a node only to older ones, so descending ids put parents
        before children: one scan down from u marks each marked node's
        children, and an unmarked id makes bytearray.rfind jump to the next
        mark in C. The cost is linear in the span of ids from u down to the
        deepest node it reaches, with one Python step per reachable node."""
        nodes = self._nodes
        mark = bytearray(u + 1)
        mark[u] = 1
        rfind = mark.rfind
        x = u
        while x >= 2:
            _, lo, hi = nodes[x]
            mark[lo] = mark[hi] = 1
            x -= 1
            if not mark[x]:
                x = rfind(1, 2, x)
        return mark

    def _levels(self, u: int) -> set[int]:
        """The support of u: the levels of its reachable non-terminals."""
        inner = compress(range(2, u + 1), memoryview(self._marks(u))[2:])
        return {self._nodes[x][0] for x in inner}

    def support(self, f: Func) -> list[int]:
        return sorted(self._levels(self._check(f)))

    def support_size(self, f: Func) -> int:
        return len(self._levels(self._check(f)))

    def sat_count(self, f: Func, support_size: int) -> int:
        """Number of satisfying assignments over support_size variables.

        Exact arbitrary-precision count over any variable window of the
        given size that contains f's support (Knuth, TAOCP 4A 7.1.4), from
        one top-down pass over f's nodes per call (nothing is cached). Only
        a window narrower than the manager can miss the support, so only
        then is the support read (_levels), and ValueError raised if so.

        A node's weight is the number of assignments to the levels above it
        that lead to it: the root weighs 2^level, and a node hands its
        weight to each inner child shifted by the levels the edge skips, or
        adds it to the total over all levels when the edge reaches the
        1-terminal. The pass scans the ids down from the root, popping each
        out of the frontier's weights, and stops once none is left. Each
        weight is dropped once handed on, so only the frontier's weights
        are held, and no set of the reachable nodes is built. The cost is
        linear in the span of ids from the root down to the deepest node
        it reaches: a root made long after the nodes below it (a count of
        a quantified relation, say) pays for every id in between.
        """
        u = self._check(f)
        nodes, top = self._nodes, len(self._names)
        if support_size < top:
            size = len(self._levels(u))
            if support_size < size:
                raise ValueError(
                    "support_size %d is smaller than the support (%d variables)"
                    % (support_size, size)
                )
        weight = {u: 1 << nodes[u][0]} if u >= 2 else {}
        total = 1 << top if u == 1 else 0
        get, pop = weight.get, weight.pop
        # _mk links a node only to older ones, so descending ids put
        # parents first; an id no weight reached is skipped
        for x in range(u, 1, -1):
            w = pop(x, None)
            if w is None:
                continue
            lvl, lo, hi = nodes[x]
            if lo >= 2:
                add = w << (nodes[lo][0] - lvl - 1)
                got = get(lo)
                weight[lo] = add if got is None else got + add
            elif lo:
                total += w << (top - lvl - 1)
            if hi >= 2:
                add = w << (nodes[hi][0] - lvl - 1)
                got = get(hi)
                weight[hi] = add if got is None else got + add
            elif hi:
                total += w << (top - lvl - 1)
            if not weight:
                break
        # rescale from the top levels counted to the window
        shift = support_size - top
        return total << shift if shift >= 0 else total >> -shift

    def eval(self, f: Func, assignment) -> int:
        """Pointwise evaluation. assignment is indexed by variable index
        (sequence) or keyed by variable (mapping); every value must be 0 or
        1, and every support variable must be assigned."""
        u = self._check(f)
        if isinstance(assignment, dict):
            values = {self._resolve(k): v for k, v in assignment.items()}
        else:
            values = dict(enumerate(assignment))
        for v in values.values():
            if v not in (0, 1):
                raise ValueError("assignment values must be 0 or 1")
        while u >= 2:
            lvl, lo, hi = self._nodes[u]
            bit = values.get(lvl)
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
        # depth first, low branch first: follow the low edges down and
        # leave each nonzero high child on the stack with its path's masks
        nodes = self._nodes
        stack = [(u, 0, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            x, care, value = pop()
            while x > 1:
                lvl, x, hi = nodes[x]
                bit = 1 << lvl
                care |= bit
                if hi:
                    push((hi, care, value | bit))
            if x:
                yield Cube(n, care, value)

    def dag_size(self, f: Func) -> int:
        """Reachable node count, terminals included, from one downward scan
        of the node ids (_marks): it holds a byte per id, and its cost is
        linear in the span of ids from f's node down to the deepest node
        f reaches."""
        return self._marks(self._check(f)).count(1)

    # ----------------------------------------------------------------- dot

    def to_dot(self, f: Func, name: str = "bdd") -> str:
        """GraphViz text: dashed low edges, solid high edges."""
        u = self._check(f)
        seen = list(compress(range(u + 1), self._marks(u)))
        lines = ["digraph %s {" % name, "  rankdir=TB;"]
        per_level: dict[int, list[int]] = {}
        for x in seen:
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
        for x in seen:
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
    return _reduce(funcs, manager, 0)


def or_all(funcs: list[Func], manager: Optional[Manager] = None) -> Func:
    """Balanced disjunction; false for an empty list."""
    return _reduce(funcs, manager, 1)


def _reduce(funcs: list[Func], manager: Optional[Manager], z: int) -> Func:
    """and_all (z = 0) or or_all (z = 1), each operand checked once;
    manager is read only for an empty list."""
    work = list(funcs)
    if not work:
        if manager is None:
            raise ValueError("empty reduction needs an explicit manager")
        return Func(manager, 1 - z)
    owner = work[0].manager
    return Func(owner, _pairing([owner._check(f) for f in work], z, owner))


def _pairing(work: list[int], z: int, manager: Manager) -> int:
    """The balanced and (z = 0) or or (z = 1) of manager's node ids in
    work, 1 - z for none: each round joins adjacent ids on the kernel and
    carries an odd last one up as it is."""
    nodes, unique, memo = manager._nodes, manager._unique, manager._memo
    while len(work) > 1:
        pairs = zip(work[::2], work[1::2])
        nxt = [_and_or_top(u, v, z, nodes, unique, memo) for u, v in pairs]
        work = nxt + work[-1:] if len(work) % 2 else nxt
    return work[0] if work else 1 - z


# _and_or is both and and or of the ITE core, keyed by z, the constant that
# absorbs the other operand: 0 for and, 1 for or. The kernel keeps the
# standard-triple computed-table keys, (u, v, 0) for and and (u, 1, v) for
# or with u the smaller operand, recurses low first, and makes each node as
# _mk does. A child pair that is a constant or an equal pair is
# decided in the caller's frame, so it costs no call.


def _and_or_top(u: int, v: int, z: int, nodes: list, unique: dict, memo: dict) -> int:
    """Node of u and v (z = 0) or of u or v (z = 1) on the given node,
    unique and computed tables."""
    if u < 2:
        return z if u == z else v
    if v < 2:
        return z if v == z else u
    if u == v:
        return u
    if u < v:
        return _and_or(u, v, z, nodes, unique, memo)
    return _and_or(v, u, z, nodes, unique, memo)


def _and_or(u: int, v: int, z: int, nodes: list, unique: dict, memo: dict) -> int:
    """u and v (z = 0) or u or v (z = 1) for non-terminal u < v."""
    key = (u, 1, v) if z else (u, v, 0)
    out = memo.get(key)
    if out is not None:
        return out
    lu, u0, u1 = nodes[u]
    lv, v0, v1 = nodes[v]
    if lu < lv:
        top = lu
        v0 = v1 = v
    else:
        top = lv
        if lv < lu:
            u0 = u1 = u
    if u0 < 2:
        lo = z if u0 == z else v0
    elif v0 < 2:
        lo = z if v0 == z else u0
    elif u0 == v0:
        lo = u0
    elif u0 < v0:
        lo = _and_or(u0, v0, z, nodes, unique, memo)
    else:
        lo = _and_or(v0, u0, z, nodes, unique, memo)
    if u1 < 2:
        hi = z if u1 == z else v1
    elif v1 < 2:
        hi = z if v1 == z else u1
    elif u1 == v1:
        hi = u1
    elif u1 < v1:
        hi = _and_or(u1, v1, z, nodes, unique, memo)
    else:
        hi = _and_or(v1, u1, z, nodes, unique, memo)
    if lo == hi:
        out = lo
    else:
        node = (top, lo, hi)
        out = unique.get(node)
        if out is None:
            out = len(nodes)
            nodes.append(node)
            unique[node] = out
    memo[key] = out
    return out


# Rules of _rebuild: a level maps to a target level (>= 0) or to one of these
_JOIN = -1
_LOW = -2
_HIGH = -3


def _rebuild(
    x: int,
    rules: list[int],
    deepest: int,
    src: list,
    nodes: list,
    unique: dict,
    table: dict,
    memo: dict[int, int],
) -> int:
    """x, a non-terminal of the node list src at most deepest deep, rebuilt
    on the given node, unique and computed tables by rules[level]: a target
    level moves the node there (its own level keeps it), _LOW and _HIGH
    replace it by that child and _JOIN by the or of its children. Nodes
    below deepest are kept as they are, so src may belong to another
    manager only when the rules cover the support. memo holds this walk's
    results, and x is not in it: each caller looks a child up before it
    calls, so a memo hit costs no call. A _JOIN whose children are a
    terminal or equal is decided here; otherwise it is _and_or's, which
    makes the same nodes and table entries as _and_or_top would."""
    lvl, lo, hi = src[x]
    rule = rules[lvl]
    if rule < _JOIN:
        out = hi if rule == _HIGH else lo
        if out >= 2 and src[out][0] <= deepest:
            got = memo.get(out)
            if got is None:
                got = _rebuild(out, rules, deepest, src, nodes, unique, table, memo)
            out = got
        memo[x] = out
        return out
    if lo >= 2 and src[lo][0] <= deepest:
        got = memo.get(lo)
        if got is None:
            got = _rebuild(lo, rules, deepest, src, nodes, unique, table, memo)
        lo = got
    if hi >= 2 and src[hi][0] <= deepest:
        got = memo.get(hi)
        if got is None:
            got = _rebuild(hi, rules, deepest, src, nodes, unique, table, memo)
        hi = got
    if rule == _JOIN:
        if lo < 2:
            out = 1 if lo else hi
        elif hi < 2:
            out = 1 if hi else lo
        elif lo == hi:
            out = lo
        elif lo < hi:
            out = _and_or(lo, hi, 1, nodes, unique, table)
        else:
            out = _and_or(hi, lo, 1, nodes, unique, table)
    elif lo == hi:
        out = lo
    else:
        node = (rule, lo, hi)
        out = unique.get(node)
        if out is None:
            out = len(nodes)
            nodes.append(node)
            unique[node] = out
    memo[x] = out
    return out
