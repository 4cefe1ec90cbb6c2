import ast
import itertools
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import revembed
from revembed import (
    Cube,
    Func,
    Manager,
    ResourceLimitError,
    and_all,
    complete_offset,
    dsop,
    embed_bennett,
    embed_exact,
    or_all,
    parse_pla,
    redundancy,
    restricted_growth,
)

from revembed.bdd import MAX_RECURSION
from revembed.oracle import table_from_func

from helpers import (
    cube_points,
    mk_rebuild,
    reachable,
    reference_ite,
    reference_paths,
    reference_reduce,
    reference_sat_count,
    two_cube_pla,
)

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


def corpus_pla(name):
    return parse_pla((CORPUS / (name + ".pla")).read_text())


# relations and generated functions, each built in under a second; the
# Bennett relations have the interleaved order, the exact one skips levels
COUNTED = {
    "r14c8-exact-offset": lambda: embed_exact(
        dsop(complete_offset(corpus_pla("r14c8")))
    ).chi,
    "r12c20-bennett": lambda: embed_bennett(corpus_pla("r12c20")).chi,
    "two-cube-300-bennett": lambda: embed_bennett(parse_pla(two_cube_pla(300))).chi,
    "redundancy-10-10": lambda: redundancy(10, 10),
    "rgs-8": lambda: restricted_growth(8),
}


@pytest.fixture
def mgr():
    m = Manager()
    m.add_vars(["a", "b", "c", "d"])
    return m


NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def recursive_generators(source):
    """Names of the generator functions in source that call themselves, by
    name or as an attribute such as self.name."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # the function's own nodes: a nested def or lambda is scanned apart
        own, stack = [], list(fn.body)
        while stack:
            x = stack.pop()
            own.append(x)
            if not isinstance(x, NESTED):
                stack.extend(ast.iter_child_nodes(x))
        callees = {
            getattr(x.func, "id", None) or getattr(x.func, "attr", None)
            for x in own
            if isinstance(x, ast.Call)
        }
        yields = any(isinstance(x, (ast.Yield, ast.YieldFrom)) for x in own)
        if yields and fn.name in callees:
            found.append(fn.name)
    return found


def all_points(nvars):
    return itertools.product((0, 1), repeat=nvars)


def truth(manager, f, nvars):
    return tuple(manager.eval(f, bits) for bits in all_points(nvars))


class TestStructure:
    def test_terminals(self, mgr):
        assert mgr.true.is_true
        assert mgr.false.is_false
        assert mgr.true != mgr.false

    def test_duplicate_name_rejected(self, mgr):
        with pytest.raises(ValueError):
            mgr.add_var("a")

    def test_canonicity_shannon(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        rebuilt = (a & b) | (a & ~b)
        assert rebuilt == a
        assert rebuilt.node == a.node

    def test_canonicity_across_formulas(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        lhs = ~(a | (b & c))
        rhs = ~a & (~b | ~c)
        assert lhs == rhs

    def test_bool_raises(self, mgr):
        with pytest.raises(TypeError):
            bool(mgr.var("a"))

    def test_ite(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        assert mgr.ite(a, b, c) == (a & b) | (~a & c)

    def test_to_dot(self, mgr):
        f = mgr.var("a") ^ mgr.var("b")
        dot = mgr.to_dot(f)
        assert dot.startswith("digraph")
        assert "->" in dot

    def test_to_dot_rebuilds_the_function(self, mgr):
        a, b, c, d = (mgr.var(n) for n in "abcd")
        funcs = [a ^ b ^ c ^ d, (a & b) | (~c & d), mgr.ite(a, b.xnor(d), c), mgr.true]
        for f in funcs:
            assert from_dot(mgr, mgr.to_dot(f)) == f

    def test_commuted_operands_share_a_computed_entry(self, mgr):
        a, b, c, d = (mgr.var(n) for n in "abcd")
        f, g = a ^ c, b.xnor(d)
        for op in ("and", "or"):
            fg = mgr.apply(op, f, g)
            entries = len(mgr._memo)
            assert mgr.apply(op, g, f).node == fg.node
            assert len(mgr._memo) == entries

    def test_self_xor_creates_no_nodes(self):
        f = redundancy(8, 8)
        manager = f.manager
        before = manager.node_count()
        assert (f ^ f).is_false
        assert f.xnor(f).is_true
        assert manager.node_count() == before

    def test_interrupted_insert_keeps_canonicity(self, mgr):
        # an exception raised between _nodes.append and the _unique insert
        # (as a timeout alarm could) leaves one unreferenced node behind;
        # later builds must still agree on one node per function
        class FailOnce(dict):
            armed = 8  # the first node of the final disjunction

            def __setitem__(self, key, value):
                self.armed -= 1
                if self.armed == 0:
                    raise ResourceLimitError("interrupted")
                super().__setitem__(key, value)

        def build():
            a, b, c, d = (mgr.var(n) for n in "abcd")
            return (a & b) | (c ^ d)

        mgr._unique = FailOnce(mgr._unique)
        with pytest.raises(ResourceLimitError):
            build()
        first, second = build(), build()
        assert first == second
        # terminals and the orphan are the only nodes outside the table
        assert mgr.node_count() == len(mgr._unique) + 3
        want = tuple(int((a and b) or (c != d)) for a, b, c, d in all_points(4))
        assert truth(mgr, first, 4) == want


def from_dot(manager, text):
    """Rebuild a function from to_dot's text by ite over its nodes' labels."""
    nodes = re.findall(r'^  (n\d+) \[label="([^"]+)", shape=(\w+)\]', text, re.M)
    edges = re.findall(r"^  (n\d+) -> (n\d+) \[style=(\w+)\]", text, re.M)
    child = {(src, style): dst for src, dst, style in edges}
    # the root is the one node no edge points at
    (root,) = {name for name, _, _ in nodes} - {dst for _, dst, _ in edges}
    node_of = {name: (label, shape) for name, label, shape in nodes}

    def rebuild(name):
        label, shape = node_of[name]
        if shape == "box":
            return manager.true if label == "1" else manager.false
        hi = rebuild(child[name, "solid"])
        return manager.ite(manager.var(label), hi, rebuild(child[name, "dashed"]))

    return rebuild(root)


class TestSemantics:
    def test_eval_dict_and_sequence(self, mgr):
        f = mgr.var("a") & ~mgr.var("c")
        assert mgr.eval(f, {"a": 1, "c": 0}) == 1
        assert mgr.eval(f, {"a": 1, "c": 1}) == 0
        assert mgr.eval(f, [1, 0, 0, 0]) == 1

    def test_eval_missing_support_var(self, mgr):
        f = mgr.var("a") & mgr.var("b")
        with pytest.raises(ValueError):
            mgr.eval(f, {"a": 1})

    @pytest.mark.parametrize(
        "assignment",
        [{"a": 2, "b": 0}, [-1, 0, 0, 0], {"a": 1, "b": 0.5}, [1, 0, 0, "1"]],
    )
    def test_eval_rejects_a_value_other_than_0_or_1(self, mgr, assignment):
        # the last one is off f's path: every value is checked, not just
        # the ones read
        f = mgr.var("a") & ~mgr.var("b")
        with pytest.raises(ValueError, match="must be 0 or 1"):
            mgr.eval(f, assignment)

    @pytest.mark.parametrize("value", [1.5, 0.7, -1, "1"])
    def test_restrict_and_cube_check_the_value_before_int(self, mgr, value):
        f = mgr.var("a") & mgr.var("b")
        before = mgr.node_count()
        with pytest.raises(ValueError, match="must be 0 or 1"):
            mgr.restrict(f, {"a": value})
        with pytest.raises(ValueError, match="must be 0 or 1"):
            mgr.cube({"b": 1, "a": value})
        assert mgr.node_count() == before

    def test_bools_are_0_and_1(self, mgr):
        f = mgr.var("a") & ~mgr.var("b")
        assert mgr.eval(f, {"a": True, "b": False}) == 1
        assert mgr.eval(f, [True, True, False, False]) == 0
        assert mgr.restrict(f, {"a": True, "c": False}) == ~mgr.var("b")
        assert mgr.cube({"a": True, "b": False}) == f

    def test_operator_truth_tables(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        cases = {
            a & b: (0, 0, 0, 1),
            a | b: (0, 1, 1, 1),
            a ^ b: (0, 1, 1, 0),
            a.xnor(b): (1, 0, 0, 1),
            ~a: (1, 1, 0, 0),
        }
        for f, want in cases.items():
            got = tuple(
                mgr.eval(f, {"a": x, "b": y, "c": 0, "d": 0})
                for x in (0, 1)
                for y in (0, 1)
            )
            assert got == want

    def test_tautologies(self, mgr):
        a = mgr.var("a")
        assert (a | ~a).is_true
        assert (a & ~a).is_false
        assert a.xnor(a).is_true

    def test_cofactor_restrict(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = (a & b) | c
        assert mgr.restrict(f, {"a": 1}) == b | c
        assert mgr.restrict(f, {"a": 0}) == c
        assert mgr.restrict(f, {"a": 1, "b": 1}).is_true

    def test_exists(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a & b
        assert mgr.exists(f, ["a"]) == b
        assert mgr.exists(f, ["a", "b"]).is_true
        g = a & ~a
        assert mgr.exists(g, ["a"]).is_false

    def test_restrict_rejects_a_value_other_than_0_or_1(self, mgr):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            mgr.restrict(mgr.var("a"), {"a": 2})

    def test_nothing_to_rebuild_returns_f(self, mgr):
        f = mgr.var("b") & mgr.var("c")
        before = mgr.node_count()
        assert mgr.restrict(f, {}) == f
        assert mgr.exists(f, []) == f
        # every rule above f's top level
        assert mgr.restrict(f, {"a": 1}) == f
        assert mgr.exists(f, ["a"]) == f
        for t in (mgr.true, mgr.false):
            assert mgr.restrict(t, {"a": 0, "d": 1}) == t
            assert mgr.exists(t, ["a", "d"]) == t
        assert mgr.node_count() == before

    def test_cube(self, mgr):
        f = mgr.cube({"a": 1, "c": 0})
        assert mgr.eval(f, {"a": 1, "b": 0, "c": 0, "d": 1}) == 1
        assert mgr.eval(f, {"a": 1, "b": 0, "c": 1, "d": 1}) == 0
        assert mgr.sat_count(f, 4) == 4

    def test_cube_rejects_a_variable_named_twice(self, mgr):
        with pytest.raises(ValueError):
            mgr.cube({"a": 1, 0: 1})

    @pytest.mark.parametrize("literals", [{"a": -1}, {0: 2}, {"a": 1, "c": 2}])
    def test_cube_rejects_a_literal_value_other_than_0_or_1(self, mgr, literals):
        before = mgr.node_count()
        with pytest.raises(ValueError, match="must be 0 or 1"):
            mgr.cube(literals)
        assert mgr.node_count() == before

    def test_from_cube_matches_literal_cube(self, mgr):
        c = Cube.parse("1-0-")
        assert mgr.from_cube(c) == mgr.cube({"a": 1, "c": 0})
        assert mgr.from_cube(Cube.parse("----")).is_true
        b, d = mgr.vars[1], mgr.vars[3]
        assert mgr.from_cube(Cube.parse("01"), [b, d]) == mgr.cube({"b": 0, "d": 1})

    def test_from_cube_inverts_enumerate_paths(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = (a & b) | (~a & c)
        paths = list(mgr.enumerate_paths(f, 4))
        assert or_all([mgr.from_cube(p) for p in paths], mgr) == f
        assert [str(p) for p in paths] == ["0-1-", "11--"]

    def test_from_cube_rejects_bad_variables(self, mgr):
        a, b = mgr.vars[:2]
        with pytest.raises(ValueError):
            mgr.from_cube(Cube.parse("11"), [b, a])  # descending levels
        with pytest.raises(ValueError):
            mgr.from_cube(Cube.parse("1"), [a, b])  # wrong count
        with pytest.raises(ValueError):
            mgr.from_cube(Cube.parse("----1"))  # more positions than variables

    def test_support(self, mgr):
        a, c = mgr.var("a"), mgr.var("c")
        f = a ^ c
        names = {mgr.name_of(v) for v in f.support()}
        assert names == {"a", "c"}
        assert f.support_size() == 2

    def test_and_or_all(self, mgr):
        vs = [mgr.var(n) for n in ("a", "b", "c", "d")]
        assert mgr.sat_count(and_all(vs, mgr), 4) == 1
        assert mgr.sat_count(or_all(vs, mgr), 4) == 15
        assert and_all([], mgr).is_true
        assert or_all([], mgr).is_false

    def test_and_or_all_edges(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert and_all([a]) == or_all([a]) == a
        with pytest.raises(ValueError, match="explicit manager"):
            or_all([])
        other = Manager()
        other.add_var("a")
        made = mgr.node_count()
        # every operand is checked before any pair is joined
        for reduce in (and_all, or_all):
            with pytest.raises(ValueError, match="mixed managers"):
                reduce([a, b, other.var("a")], mgr)
        assert mgr.node_count() == made


class TestCounting:
    def test_sat_count_examples(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.sat_count(a & b, 2) == 1
        assert mgr.sat_count(a | b, 2) == 3
        assert mgr.sat_count(a, 4) == 8
        assert mgr.sat_count(mgr.true, 5) == 32
        assert mgr.sat_count(mgr.false, 5) == 0

    def test_sat_count_window_too_small(self, mgr):
        # the window is narrower than the manager's four levels
        f = mgr.var("a") & mgr.var("b") & mgr.var("c")
        assert mgr.sat_count(f, 3) == 1
        with pytest.raises(ValueError) as info:
            mgr.sat_count(f, 2)
        assert str(info.value) == (
            "support_size 2 is smaller than the support (3 variables)"
        )

    def test_sat_count_skipped_levels(self, mgr):
        # d alone in a 4-var window: position in the order must not matter
        assert mgr.sat_count(mgr.var("d"), 4) == 8

    def test_count_and_support_ignore_variables_added_later(self, mgr):
        a, b, c, d = (mgr.var(v) for v in "abcd")
        funcs = [(a & c) | ~b, d, b & ~d, mgr.true, mgr.false]
        want = [[5, 10, 20], [4, 8, 16], [2, 4, 8], [8, 16, 32], [0, 0, 0]]
        supports = [[0, 1, 2], [3], [1, 3], [], []]
        for _ in range(3):
            mgr.add_var()
            for f, counts, support in zip(funcs, want, supports):
                assert [mgr.sat_count(f, w) for w in (3, 4, 5)] == counts
                assert f.support() == support

    def test_long_chain_needs_no_recursion(self):
        n = 50_000
        manager = Manager()
        limit = sys.getrecursionlimit()
        try:
            manager.add_vars("x%d" % i for i in range(n))
            cube = Cube(n, (1 << n) - 1, int("10" * (n // 2), 2))
            f = manager.from_cube(cube)
            assert manager.sat_count(f, n) == 1
            assert manager.sat_count(f, n + 3) == 8
            assert f.support() == list(range(n))
            assert f.support_size() == n
            assert list(manager.enumerate_paths(f, n)) == [cube]
        finally:
            sys.setrecursionlimit(limit)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 10),
        st.lists(
            st.tuples(
                st.sampled_from(["and", "or", "xor"]),
                st.text("01-", min_size=10, max_size=10),
            ),
            max_size=8,
        ),
    )
    def test_sat_count_matches_enumeration(self, n, steps):
        # f folds cubes over n variables with and, or and xor; every window
        # from the support up to past the manager's width is counted
        manager = Manager()
        manager.add_vars("x%d" % i for i in range(n))
        f = manager.false
        for op, text in steps:
            f = manager.apply(op, f, manager.from_cube(Cube.parse(text[:n])))
        models = int(table_from_func(f, n).sum())
        for window in range(f.support_size(), n + 3):
            got = manager.sat_count(f, window)
            if window <= n:
                assert got << (n - window) == models
            else:
                assert got == models << (window - n)
        if f.support_size():
            with pytest.raises(ValueError, match="smaller than the support"):
                manager.sat_count(f, f.support_size() - 1)

    @pytest.mark.parametrize("name", sorted(COUNTED))
    def test_sat_count_matches_the_bottom_up_count(self, name):
        f = COUNTED[name]()
        manager = f.manager
        top = manager.var_count()
        # the root, terminals and inner nodes drawn from f's reachable ones
        inner = sorted(reachable(manager, f.node) - {0, 1})
        rng = random.Random(0)
        picks = [f, manager.true, manager.false]
        picks += [Func(manager, u) for u in rng.sample(inner, min(20, len(inner)))]
        for g in picks:
            support = g.support_size()
            windows = {support, support + 1, top - 1, top, top + 7}
            for window in sorted(w for w in windows if w >= support):
                assert manager.sat_count(g, window) == reference_sat_count(g, window)
            if support:
                with pytest.raises(ValueError) as got:
                    manager.sat_count(g, support - 1)
                with pytest.raises(ValueError) as want:
                    reference_sat_count(g, support - 1)
                assert str(got.value) == str(want.value)

    def test_sat_count_holds_only_the_frontier(self):
        # the 6000-input Bennett relation has 36,011 nodes; keeping every
        # node's 12,000-bit count took a 17.6 MB tracemalloc peak, and
        # handing weights on top-down holds 2.6 MB
        n = 6000
        chi = embed_bennett(parse_pla(two_cube_pla(n))).chi
        tracemalloc.start()
        try:
            count = chi.sat_count(chi.manager.var_count())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one y per x, and kappa free
        assert count == 1 << (n + 2)
        assert peak < 6 * 2**20

    def test_scans_match_a_plain_search_on_late_roots(self):
        # roots made after the relation sit above chi's ids and reach few
        # of them, so the downward scans pass over many ids they skip
        pla = dsop(complete_offset(corpus_pla("r14c8")))
        rc = embed_exact(pla)
        manager, chi = rc.manager, rc.chi
        late = [
            chi,
            manager.exists(chi, rc.gammas),
            manager.exists(chi, rc.kappa + rc.xs),
            manager.restrict(chi, {rc.xs[0]: 1}),
            manager.cube({x: i % 2 for i, x in enumerate(rc.xs)}),
            manager.var(rc.gammas[-1]),
            manager.true,
            manager.false,
        ]
        assert min(g.node for g in late[1:5]) > chi.node
        top = manager.var_count()
        for g in late:
            seen = reachable(manager, g.node)
            levels = {manager._nodes[x][0] for x in seen if x >= 2}
            assert g.dag_size() == len(seen)
            assert g.support() == sorted(levels)
            assert g.support_size() == len(levels)
            for window in {len(levels), top, top + 3}:
                assert manager.sat_count(g, window) == reference_sat_count(g, window)

    def test_scans_hold_a_byte_per_id(self):
        # r14c8's exact relation with offset has 35,311 nodes: a set of
        # the reachable ids and its sorted list would take 2.5 MB of
        # tracemalloc in each of sat_count and dag_size
        rc = embed_exact(dsop(complete_offset(corpus_pla("r14c8"))))
        manager, chi = rc.manager, rc.chi
        peaks = []
        for scan in (lambda: chi.sat_count(2 * rc.r), chi.dag_size):
            tracemalloc.start()
            try:
                scan()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert chi.dag_size() == len(reachable(manager, chi.node))
        assert peaks[0] < 0.5 * 2**20
        assert peaks[1] < 0.1 * 2**20

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=7),
        rows=st.lists(st.text("01--", min_size=7, max_size=7), max_size=8),
    )
    def test_enumerate_paths_order_matches_the_reference(self, n, rows):
        manager = Manager()
        manager.add_vars("x%d" % i for i in range(n))
        f = or_all([manager.from_cube(Cube.parse(text[:n])) for text in rows], manager)
        # rows=[] gives the 0 root and an all-dash row the 1 root
        for g in (f, ~f, manager.false, manager.true):
            want = reference_paths(manager, g.node, n)
            assert list(manager.enumerate_paths(g, n)) == want
        assert list(manager.enumerate_paths(manager.false, n)) == []
        assert list(manager.enumerate_paths(manager.true, n)) == [Cube(n, 0, 0)]

    def test_enumerate_paths_partition(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = (a & b) | (~a & c)
        paths = list(mgr.enumerate_paths(f, 4))
        total = set()
        for cube in paths:
            pts = cube_points(cube)
            assert not (pts & total), "paths must be disjoint"
            total |= pts
        want = {
            p
            for p in range(16)
            if mgr.eval(f, [(p >> i) & 1 for i in range(4)])
        }
        assert total == want


class TestLevels:
    def test_add_var_returns_consecutive_levels(self):
        manager = Manager()
        assert [manager.add_var() for _ in range(3)] == [0, 1, 2]
        assert manager.add_vars(["p", "q"]) == [3, 4]
        assert manager.vars == [0, 1, 2, 3, 4]
        assert manager.name_of(3) == "p"

    def test_add_vars_adds_all_or_nothing(self):
        manager = Manager()
        with pytest.raises(ValueError, match="duplicate variable name 'a'"):
            manager.add_vars(["a", "b", "a"])
        assert manager.var_count() == 0
        manager.add_var("a")
        with pytest.raises(ValueError, match="duplicate variable name 'a'"):
            manager.add_vars(["b", "a"])
        # a default name clashes like any other: level 2 would be v2
        with pytest.raises(ValueError, match="duplicate variable name 'v2'"):
            manager.add_vars(["v2", None])
        assert manager.var_count() == 1
        assert manager.add_vars(["b", None]) == [1, 2]
        assert [manager.name_of(v) for v in manager.vars] == ["a", "b", "v2"]

    def test_add_vars_raises_the_recursion_limit_for_the_batch(self):
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            Manager().add_vars("x%d" % i for i in range(500))
            assert sys.getrecursionlimit() == 2500
            # 1000 + 3 levels each would pass the cap: it stops there
            Manager().add_vars("x%d" % i for i in range(MAX_RECURSION // 2))
            assert sys.getrecursionlimit() == MAX_RECURSION
        finally:
            sys.setrecursionlimit(limit)

    def test_no_generator_in_the_package_calls_itself(self):
        # since Python 3.11 a recursive call takes no C stack frame, which
        # is what lets MAX_RECURSION rise past 40000; a recursive generator
        # still takes one per level, and a yield from chain 40000 deep
        # crashes the interpreter
        assert recursive_generators("def f(x):\n    yield from f(x - 1)\n") == ["f"]
        method = "class C:\n    def g(self):\n        yield self.g()\n"
        assert recursive_generators(method) == ["g"]
        plain = "def h(x):\n    def k():\n        yield 1\n    return h(x - 1)\n"
        assert recursive_generators(plain) == []
        package = Path(revembed.__file__).parent
        found = {
            path.name: recursive_generators(path.read_text())
            for path in sorted(package.glob("*.py"))
        }
        assert len(found) > 5
        assert not any(found.values()), found

    def test_level_and_name_give_one_node(self, mgr):
        for level, name in enumerate("abcd"):
            assert mgr.var(level).node == mgr.var(name).node
            assert mgr.nvar(level) == mgr.nvar(name)
            assert mgr.node_level(mgr.var(name)) == level

    @pytest.mark.parametrize("bad", [4, -1])
    def test_level_outside_the_manager_is_rejected(self, mgr, bad):
        assert mgr.var_count() == 4
        with pytest.raises(ValueError):
            mgr.var(bad)
        with pytest.raises(ValueError):
            mgr.cube({bad: 1})

    def test_unknown_name_is_rejected(self, mgr):
        f = mgr.var("a")
        calls = [
            lambda: mgr.var("zz"),
            lambda: mgr.nvar("zz"),
            lambda: mgr.eval(f, {"a": 1, "zz": 1}),
            lambda: mgr.restrict(f, {"zz": 1}),
            lambda: mgr.exists(f, ["zz"]),
            lambda: mgr.cube({"zz": 1}),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="no variable named 'zz'"):
                call()

    def test_support_is_levels(self, mgr):
        f = mgr.var("b") & ~mgr.var("d")
        assert f.support() == [1, 3]
        assert mgr.true.support() == []


class TestTransfer:
    def test_transfer_monotone(self):
        src = Manager()
        xs = src.add_vars(["p", "q"])
        f = src.var("p") ^ src.var("q")
        dst = Manager()
        dst.add_vars(["u0", "u1", "u2", "u3"])
        moved = dst.transfer(f, {0: dst.vars[1], 1: dst.vars[3]})
        assert dst.sat_count(moved, 4) == 8
        assert dst.eval(moved, [0, 1, 0, 0]) == 1
        assert dst.eval(moved, [0, 1, 0, 1]) == 0

    def test_transfer_rejects_order_flip(self):
        src = Manager()
        src.add_vars(["p", "q"])
        f = src.var("p") & ~src.var("q")
        dst = Manager()
        dst.add_vars(["u0", "u1"])
        with pytest.raises(ValueError):
            dst.transfer(f, {0: dst.vars[1], 1: dst.vars[0]})

    def test_transfer_rejects_a_func_of_its_own_manager(self, mgr):
        with pytest.raises(ValueError, match="foreign"):
            mgr.transfer(mgr.var("a"), {0: 0})

    def test_transfer_of_a_terminal_is_that_terminal(self):
        src, dst = Manager(), Manager()
        src.add_vars(["p"])
        dst.add_vars(["u0"])
        assert dst.transfer(src.true, {}) == dst.true
        assert dst.transfer(src.false, {0: 0}) == dst.false
        assert dst.node_count() == 2

    def test_transfer_needs_full_support(self):
        src = Manager()
        src.add_vars(["p", "q"])
        f = src.var("p") & src.var("q")
        dst = Manager()
        dst.add_vars(["u0"])
        with pytest.raises(ValueError, match="level 1 is unmapped"):
            dst.transfer(f, {0: dst.vars[0]})
        assert dst.node_count() == 2


# random expression trees, checked pointwise against a python evaluator
NVARS = 5
BINARY = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "xnor": lambda a, b: 1 - (a ^ b),
}


def exprs(nvars):
    leaves = st.integers(min_value=0, max_value=nvars - 1).map(
        lambda i: ("var", i)
    )

    def ite_repeating(kids):
        # ite over two subformulas placed in all eight ways, so the standard
        # triples ite(f, f, h) and ite(f, g, f) and their mixes come up
        return st.builds(
            lambda f, g, pick: ("ite",) + tuple((f, g)[i] for i in pick),
            kids,
            kids,
            st.sampled_from(list(itertools.product((0, 1), repeat=3))),
        )

    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(st.just("not"), kids),
            st.tuples(st.sampled_from(sorted(BINARY)), kids, kids),
            st.tuples(st.just("ite"), kids, kids, kids),
            ite_repeating(kids),
        ),
        max_leaves=12,
    )


def build(manager, names, node, by_ite=False):
    """The formula's node; by_ite takes every combinator through the
    reference recursion (ite_node)."""
    if node[0] == "var":
        return manager.var(names[node[1]])
    kids = [build(manager, names, kid, by_ite) for kid in node[1:]]
    if by_ite:
        return Func(manager, ite_node(manager, node[0], [f.node for f in kids]))
    if node[0] == "not":
        return ~kids[0]
    if node[0] == "ite":
        return manager.ite(*kids)
    return manager.apply(node[0], *kids)


def ite_node(manager, op, args):
    """op's node by reference_ite, in the triples negate and apply use."""
    if op == "not":
        return reference_ite(manager, args[0], 0, 1)
    if op == "ite":
        return reference_ite(manager, *args)
    u, v = args
    if op == "and":
        return reference_ite(manager, u, v, 0)
    if op == "or":
        return reference_ite(manager, u, 1, v)
    if u == v:
        return 0 if op == "xor" else 1
    nv = reference_ite(manager, v, 0, 1)
    if op == "xor":
        return reference_ite(manager, u, nv, v)
    return reference_ite(manager, u, v, nv)


def py_eval(node, bits):
    if node[0] == "var":
        return bits[node[1]]
    if node[0] == "not":
        return 1 - py_eval(node[1], bits)
    vals = [py_eval(kid, bits) for kid in node[1:]]
    if node[0] == "ite":
        return vals[1] if vals[0] else vals[2]
    return BINARY[node[0]](*vals)


@settings(max_examples=150, deadline=None)
@given(exprs(NVARS))
def test_random_formulas_match_reference(node):
    manager = Manager()
    names = manager.add_vars(["x%d" % (i + 1) for i in range(NVARS)])
    f = build(manager, names, node)
    count = 0
    table = {}
    for bits in all_points(NVARS):
        want = py_eval(node, bits)
        assert manager.eval(f, list(bits)) == want
        count += want
        table[bits] = want
    # a variable is in the support when flipping it changes some value
    support = [
        names[i]
        for i in range(NVARS)
        if any(
            table[bits] != table[bits[:i] + (1 - bits[i],) + bits[i + 1 :]]
            for bits in table
        )
    ]
    assert f.support() == support
    assert f.support_size() == len(support)
    assert manager.sat_count(f, NVARS) == count
    assert manager.sat_count(~f, NVARS + 1) == 2 * ((1 << NVARS) - count)
    # double negation and self-xor sanity on the same structure
    assert ~~f == f
    assert (f ^ f).is_false


@settings(max_examples=150, deadline=None)
@given(exprs(NVARS), st.integers(0, 3), st.integers(0, 3))
def test_sat_count_matches_enumeration(node, above, below):
    # the formula's variables sit between unused ones, so the count is
    # rescaled both ways: a window narrower than the levels under the root
    # shifts right, a wider one left
    manager = Manager()
    manager.add_vars("u%d" % i for i in range(above))
    names = manager.add_vars(["x%d" % (i + 1) for i in range(NVARS)])
    manager.add_vars("w%d" % i for i in range(below))
    f = build(manager, names, node)
    count = sum(py_eval(node, bits) for bits in all_points(NVARS))
    size = f.support_size()
    for window in range(size, NVARS + 4):
        scale = window - NVARS
        want = count << scale if scale >= 0 else count >> -scale
        assert manager.sat_count(f, window) == want
    for window in range(size):
        with pytest.raises(ValueError) as info:
            manager.sat_count(f, window)
        assert str(info.value) == (
            "support_size %d is smaller than the support (%d variables)"
            % (window, size)
        )
    for window in range(NVARS + 4):
        assert manager.sat_count(manager.true, window) == 1 << window
        assert manager.sat_count(manager.false, window) == 0


@settings(max_examples=150, deadline=None)
@given(
    exprs(NVARS),
    st.dictionaries(st.integers(0, NVARS - 1), st.integers(0, 1), max_size=NVARS),
)
def test_restrict_matches_eval(node, assignment):
    manager = Manager()
    names = manager.add_vars(["x%d" % (i + 1) for i in range(NVARS)])
    f = build(manager, names, node)
    g = manager.restrict(f, {names[i]: v for i, v in assignment.items()})
    # g reads the fixed variables' values from the assignment, whatever
    # the point holds there
    for bits in all_points(NVARS):
        fixed = [assignment.get(i, b) for i, b in enumerate(bits)]
        assert manager.eval(g, list(bits)) == manager.eval(f, fixed)
    assert set(g.support()).isdisjoint(assignment)
    if not assignment:
        assert g == f


def ite_exists(manager, f, levels):
    """Quantification with each quantified level joined by
    reference_ite(lo, 1, hi)."""
    nodes, memo = manager._nodes, {}

    def walk(x):
        if x < 2 or nodes[x][0] > max(levels):
            return x
        if x not in memo:
            lvl, lo, hi = nodes[x]
            lo, hi = walk(lo), walk(hi)
            if lvl in levels:
                memo[x] = reference_ite(manager, lo, 1, hi)
            else:
                memo[x] = manager._mk(lvl, lo, hi)
        return memo[x]

    return Func(manager, walk(f.node)) if levels else f


@settings(max_examples=150, deadline=None)
@given(
    st.lists(exprs(NVARS), min_size=1, max_size=7),
    st.sets(st.integers(0, NVARS - 1)),
)
def test_and_or_kernels_make_the_nodes_of_the_ite_core(nodes, levels):
    # twin managers make the same calls in the same order: one through
    # apply, and_all/or_all and exists, one through the reference ite
    # recursion alone
    kernel, core = Manager(), Manager()
    names = ["x%d" % (i + 1) for i in range(NVARS)]
    kernel.add_vars(names)
    core.add_vars(names)
    fs = [build(kernel, names, node) for node in nodes]
    gs = [build(core, names, node, by_ite=True) for node in nodes]
    got = [and_all(fs), or_all(fs)] + [kernel.exists(f, levels) for f in fs]
    want = [Func(core, reference_reduce(core, [g.node for g in gs], z)) for z in (0, 1)]
    want += [ite_exists(core, g, levels) for g in gs]
    assert [f.node for f in got] == [g.node for g in want]
    assert kernel._nodes == core._nodes
    assert kernel._memo.keys() == core._memo.keys()
    for f in fs + got:
        assert f.dag_size() == len(reachable(kernel, f.node))
    assert kernel.true.dag_size() == kernel.false.dag_size() == 1


@settings(max_examples=150, deadline=None)
@given(exprs(NVARS), exprs(NVARS))
def test_and_or_shaped_ite_runs_the_kernel(left, right):
    # every and- or or-shaped ite triple, commuted or written with a
    # repeated operand, leaves the nodes and table keys of apply's and and
    # or on a twin manager, and of the reference recursion on a third
    names = ["x%d" % (i + 1) for i in range(NVARS)]
    by_ite, by_apply, core = Manager(), Manager(), Manager()
    for manager in (by_ite, by_apply, core):
        manager.add_vars(names)
    f, g = build(by_ite, names, left), build(by_ite, names, right)
    zero, one = by_ite.false, by_ite.true
    got = [by_ite.ite(*t) for t in [(f, g, zero), (g, f, zero), (f, g, f)]]
    got += [by_ite.ite(*t) for t in [(f, one, g), (g, one, f), (f, f, g)]]
    f, g = build(by_apply, names, left), build(by_apply, names, right)
    want = [f & g, g & f, f & g, f | g, g | f, f | g]
    u, v = (build(core, names, e, by_ite=True).node for e in (left, right))
    ands = [(u, v, 0), (v, u, 0), (u, v, u)]
    ors = [(u, 1, v), (v, 1, u), (u, u, v)]
    ref = [reference_ite(core, *t) for t in ands + ors]
    assert [h.node for h in got] == [h.node for h in want] == ref
    assert by_ite._nodes == by_apply._nodes == core._nodes
    assert by_ite._memo.keys() == by_apply._memo.keys() == core._memo.keys()


@settings(max_examples=150, deadline=None)
@given(
    exprs(NVARS),
    st.dictionaries(st.integers(0, NVARS - 1), st.integers(0, 1), max_size=NVARS),
    st.sets(st.integers(0, 2 * NVARS - 1), min_size=NVARS, max_size=NVARS),
)
def test_restrict_and_transfer_make_the_nodes_of_a_plain_recursion(
    node, assignment, targets
):
    # twin managers make the same calls: one through restrict and transfer,
    # one through the reference recursion, which also visits the nodes
    # below the deepest fixed level
    walk, plain = Manager(), Manager()
    names = ["x%d" % (i + 1) for i in range(NVARS)]
    walk.add_vars(names)
    plain.add_vars(names)
    f, g = build(walk, names, node), build(plain, names, node)
    got = [f, walk.restrict(f, assignment)]
    want = [g, mk_rebuild(plain, g, fixed=assignment)]
    assert [h.node for h in got] == [h.node for h in want]
    assert walk._nodes == plain._nodes
    assert walk._memo.keys() == plain._memo.keys()
    # both onto a wider manager, the second reusing the first's nodes
    walk_dst, plain_dst = Manager(), Manager()
    walk_dst.add_vars("u%d" % i for i in range(2 * NVARS))
    plain_dst.add_vars("u%d" % i for i in range(2 * NVARS))
    move = dict(enumerate(sorted(targets)))
    moved = [walk_dst.transfer(h, move) for h in got]
    ref = [mk_rebuild(plain_dst, h, move=move) for h in want]
    assert [h.node for h in moved] == [h.node for h in ref]
    assert walk_dst._nodes == plain_dst._nodes


@settings(max_examples=150, deadline=None)
@given(
    st.lists(exprs(NVARS), min_size=1, max_size=6),
    st.sets(st.integers(0, NVARS - 1)),
)
def test_scans_match_a_plain_search(nodes, levels):
    # formulas built one after another on one manager, and their
    # quantifications, so a later root spans ids it does not reach
    manager = Manager()
    names = ["x%d" % (i + 1) for i in range(NVARS)]
    manager.add_vars(names)
    fs = [build(manager, names, node) for node in nodes]
    fs += [manager.exists(f, levels) for f in fs]
    for g in fs + [manager.true, manager.false]:
        seen = reachable(manager, g.node)
        support = {manager._nodes[x][0] for x in seen if x >= 2}
        assert g.dag_size() == len(seen)
        assert g.support() == sorted(support)
        for window in range(len(support), NVARS + 3):
            assert manager.sat_count(g, window) == reference_sat_count(g, window)
        dot = manager.to_dot(g)
        assert {int(x) for x in re.findall(r"n(\d+) \[label", dot)} == seen
