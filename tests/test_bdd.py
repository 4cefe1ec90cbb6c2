import itertools
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from revembed import (
    Cube,
    Func,
    Manager,
    ResourceLimitError,
    and_all,
    or_all,
    redundancy,
)


@pytest.fixture
def mgr():
    m = Manager()
    m.add_vars(["a", "b", "c", "d"])
    return m


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

    def test_cube(self, mgr):
        f = mgr.cube({"a": 1, "c": 0})
        assert mgr.eval(f, {"a": 1, "b": 0, "c": 0, "d": 1}) == 1
        assert mgr.eval(f, {"a": 1, "b": 0, "c": 1, "d": 1}) == 0
        assert mgr.sat_count(f, 4) == 4

    def test_cube_rejects_a_variable_named_twice(self, mgr):
        with pytest.raises(ValueError):
            mgr.cube({"a": 1, 0: 1})

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


class TestCounting:
    def test_sat_count_examples(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.sat_count(a & b, 2) == 1
        assert mgr.sat_count(a | b, 2) == 3
        assert mgr.sat_count(a, 4) == 8
        assert mgr.sat_count(mgr.true, 5) == 32
        assert mgr.sat_count(mgr.false, 5) == 0

    def test_sat_count_window_too_small(self, mgr):
        f = mgr.var("a") & mgr.var("b") & mgr.var("c")
        with pytest.raises(ValueError):
            mgr.sat_count(f, 2)

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
            cube = Cube.from_masks(n, (1 << n) - 1, int("10" * (n // 2), 2))
            f = manager.from_cube(cube)
            assert manager.sat_count(f, n) == 1
            assert manager.sat_count(f, n + 3) == 8
            assert f.support() == list(range(n))
            assert f.support_size() == n
            assert list(manager.enumerate_paths(f, n)) == [cube]
        finally:
            sys.setrecursionlimit(limit)

    def test_enumerate_paths_partition(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = (a & b) | (~a & c)
        paths = list(mgr.enumerate_paths(f, 4))
        total = set()
        for cube in paths:
            pts = set()
            for point in range(16):
                if cube.covers(point):
                    pts.add(point)
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

    def test_transfer_needs_full_support(self):
        src = Manager()
        src.add_vars(["p", "q"])
        f = src.var("p") & src.var("q")
        dst = Manager()
        dst.add_vars(["u0"])
        with pytest.raises(ValueError):
            dst.transfer(f, {0: dst.vars[0]})


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


def build(manager, names, node):
    if node[0] == "var":
        return manager.var(names[node[1]])
    if node[0] == "not":
        return ~build(manager, names, node[1])
    kids = [build(manager, names, kid) for kid in node[1:]]
    if node[0] == "ite":
        return manager.ite(*kids)
    fl, fr = kids
    return {"and": fl & fr, "or": fl | fr, "xor": fl ^ fr, "xnor": fl.xnor(fr)}[node[0]]


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
