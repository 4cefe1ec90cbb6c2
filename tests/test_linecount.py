import importlib
import json
import random
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import revembed as rv
from revembed import (
    METHOD_BRUTE,
    METHOD_EXACT_BDD,
    METHOD_EXACT_CUBE,
    METHOD_HEURISTIC_CUBE,
    Cube,
    Manager,
    Pla,
    ResourceLimitError,
    brute_mu,
    ceil_log2,
    complete_offset,
    dsop,
    exact_mu_bdd,
    exact_mu_cube,
    heuristic_mu,
    parse_pla,
    upper_bound_total,
)

import revembed.cli as cli
from helpers import diagram_counts, random_pla

DSOP_MODULE = importlib.import_module("revembed.dsop")
LINECOUNT_MODULE = importlib.import_module("revembed.linecount")
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def pattern_map(report):
    return {tuple(sorted(k)): v for k, v in report.per_pattern.items()}


RUNNING_EXACT = {(): 4, (1,): 5, (1, 3): 9, (2,): 8, (3,): 6}
RUNNING_HEUR = {(): 4, (1,): 8, (1, 3): 6, (2,): 8, (3,): 12}


class TestArithmetic:
    def test_ceil_log2(self):
        assert [ceil_log2(k) for k in (1, 2, 3, 4, 5, 8, 9, 70)] == [
            0, 1, 2, 2, 3, 3, 4, 7,
        ]

    def test_ceil_log2_rejects_nonpositive(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                ceil_log2(bad)

    def test_upper_bound(self):
        assert upper_bound_total(5, 3) == 8
        assert upper_bound_total(1, 1) == 2


class TestWorkedExample:
    def test_heuristic(self, running):
        rep = heuristic_mu(running)
        assert rep.method == METHOD_HEURISTIC_CUBE
        assert not rep.exact
        assert pattern_map(rep) == RUNNING_HEUR
        assert (rep.mu, rep.ell, rep.total_lines) == (12, 4, 7)

    def test_exact_cube(self, running):
        rep = exact_mu_cube(running)
        assert rep.method == METHOD_EXACT_CUBE
        assert rep.exact
        assert pattern_map(rep) == RUNNING_EXACT
        assert (rep.mu, rep.ell, rep.total_lines) == (9, 4, 7)

    def test_exact_bdd(self, running):
        rep = exact_mu_bdd(running)
        assert rep.method == METHOD_EXACT_BDD
        assert rep.exact
        assert pattern_map(rep) == RUNNING_EXACT

    def test_heuristic_is_exact_on_certified_input(self, running):
        rep = heuristic_mu(dsop(running))
        assert rep.exact
        assert pattern_map(rep) == RUNNING_EXACT

    def test_underapprox_pair(self, underapprox):
        heur = heuristic_mu(underapprox)
        assert (heur.mu, heur.total_lines) == (16, 7)
        exact = exact_mu_bdd(underapprox)
        assert (exact.mu, exact.total_lines) == (20, 8)
        assert pattern_map(exact) == {(): 8, (2,): 4, (2, 3): 20}


class TestExactBddInputs:
    def test_accepts_function_list(self, running):
        manager = Manager()
        xs = [manager.add_var("x%d" % (i + 1)) for i in range(running.n)]
        funcs = rv.to_functions(running, manager, xs)
        rep = exact_mu_bdd(funcs, n=running.n)
        assert pattern_map(rep) == RUNNING_EXACT

    def test_pla_width_must_match_n(self, running):
        assert pattern_map(exact_mu_bdd(running, n=running.n)) == RUNNING_EXACT
        for n in (running.n - 1, running.n + 1):
            message = "n is %d but the Pla has %d inputs" % (n, running.n)
            with pytest.raises(ValueError, match=message):
                exact_mu_bdd(running, n=n)
            with pytest.raises(ValueError, match=message):
                rv.pla.function_source(running, n)

    def test_pla_count_makes_no_manager(self, running):
        with mock.patch.object(
            LINECOUNT_MODULE, "Manager", side_effect=AssertionError("Manager made")
        ):
            assert pattern_map(exact_mu_bdd(running)) == RUNNING_EXACT

    def test_pattern_cap(self, running, monkeypatch):
        monkeypatch.setattr(DSOP_MODULE, "DEFAULT_PATTERN_CAP", 2)
        with pytest.raises(ResourceLimitError):
            exact_mu_bdd(running)

    def test_pattern_cap_is_the_largest_allowed_count(self, running, monkeypatch):
        monkeypatch.setattr(DSOP_MODULE, "DEFAULT_PATTERN_CAP", 5)
        assert pattern_map(exact_mu_bdd(running)) == RUNNING_EXACT
        monkeypatch.setattr(DSOP_MODULE, "DEFAULT_PATTERN_CAP", 4)
        with pytest.raises(ResourceLimitError):
            exact_mu_bdd(running)

    def test_empty_function_list(self):
        assert exact_mu_bdd([], n=3).per_pattern == {frozenset(): 8}
        rep = exact_mu_bdd([])
        assert rep.per_pattern == {frozenset(): 1}
        assert (rep.mu, rep.ell, rep.total_lines) == (1, 0, 0)

    def test_constant_functions(self):
        manager = Manager()
        consts = [manager.true, manager.false, manager.true]
        assert exact_mu_bdd(consts).per_pattern == {frozenset({1, 3}): 1}
        manager.add_vars(["x1", "x2"])
        rep = exact_mu_bdd(consts, n=2)
        assert rep.per_pattern == {frozenset({1, 3}): 4}
        assert (rep.mu, rep.ell, rep.total_lines) == (4, 2, 5)

    def test_manager_with_variables_beyond_n(self, running):
        manager = Manager()
        xs = [manager.add_var("x%d" % (i + 1)) for i in range(running.n)]
        manager.add_vars(["spare1", "spare2"])
        funcs = rv.to_functions(running, manager, xs)
        assert pattern_map(exact_mu_bdd(funcs, n=running.n)) == RUNNING_EXACT
        # n defaults to the highest support level, not the variable count
        assert pattern_map(exact_mu_bdd(funcs)) == RUNNING_EXACT
        # spare levels below the inputs double every count per level
        wide = exact_mu_bdd(funcs, n=running.n + 2)
        assert pattern_map(wide) == {k: 4 * v for k, v in RUNNING_EXACT.items()}


    def test_count_needs_no_recursion(self):
        n = 50_000
        manager = Manager()
        limit = sys.getrecursionlimit()
        try:
            manager.add_vars("x%d" % i for i in range(n))
            cube = Cube(n, (1 << n) - 1, int("10" * (n // 2), 2))
            f = manager.from_cube(cube)
        finally:
            sys.setrecursionlimit(limit)
        got = DSOP_MODULE.pattern_counts((f.node,), manager._nodes, n)
        assert got == {frozenset(): (1 << n) - 1, frozenset({1}): 1}
        assert list(got) == [frozenset(), frozenset({1})]


class TestReportShape:
    def test_to_dict_schema(self, running):
        schema = json.loads(rv.schema_path("lines.schema.json").read_text())
        for rep in (
            heuristic_mu(running),
            exact_mu_cube(running),
            exact_mu_bdd(running),
            brute_mu(running),
        ):
            jsonschema.validate(rep.to_dict(), schema)

    def test_patterns_sorted_and_counts_stringed(self, running):
        d = exact_mu_cube(running).to_dict()
        outs = [tuple(p["outputs"]) for p in d["patterns"]]
        assert outs == sorted(outs)
        assert all(isinstance(p["count"], str) for p in d["patterns"])


class TestAgreement:
    def test_methods_agree_on_randoms(self):
        rng = random.Random(99)
        for _ in range(25):
            pla = random_pla(rng, rng.randint(1, 6), rng.randint(1, 4), 8)
            want = pattern_map(brute_mu(pla))
            assert pattern_map(exact_mu_cube(pla)) == want
            assert pattern_map(exact_mu_bdd(pla)) == want
            heur = heuristic_mu(pla)
            assert heur.mu >= 1
            # row-wise accumulation may count a point once per covering row,
            # so the heuristic map bounds the domain from above only
            assert sum(heur.per_pattern.values()) >= 1 << pla.n
            certified = heuristic_mu(dsop(pla))
            assert certified.exact
            assert pattern_map(certified) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_exact_bdd_matches_brute_force(self, n, m, seed):
        # the walk's states are m-tuples, so wide output planes matter
        pla = random_pla(random.Random(seed), n, m, 12)
        got = exact_mu_bdd(pla)
        want = brute_mu(pla)
        assert pattern_map(got) == pattern_map(want)
        assert (got.mu, got.ell, got.total_lines) == (
            want.mu, want.ell, want.total_lines,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 4),
        data=st.data(),
    )
    def test_row_diagram_matches_the_product_walk(self, n, m, data):
        # rows overlap, carry no outputs, repeat, or leave points uncovered
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.text("01--", min_size=n, max_size=n),
                    st.frozensets(st.integers(1, m), max_size=m),
                ),
                max_size=12,
            )
        )
        pla = Pla(n, m, [(Cube.parse(text), outs) for text, outs in rows])
        got = exact_mu_bdd(pla).per_pattern
        manager = Manager()
        manager.add_vars("x%d" % (i + 1) for i in range(n))
        funcs = rv.to_functions(pla, manager)
        want = exact_mu_bdd(funcs, n=n).per_pattern
        assert list(got.items()) == list(want.items())
        assert got == brute_mu(pla).per_pattern

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_heuristic_off_set_matches_brute_force(self, n, m, seed):
        # uncertified rows overlap, carry empty output sets, and leave
        # points uncovered; only the empty pattern's count is exact
        pla = random_pla(random.Random(seed), n, m, 12)
        got = heuristic_mu(pla).per_pattern.get(frozenset())
        assert got == brute_mu(pla).per_pattern.get(frozenset())

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), m=st.integers(1, 4), data=st.data())
    def test_heuristic_off_set_on_a_row_diagram(self, n, m, data):
        # empty Plas, rows with no outputs and all-don't-care rows; the
        # OFF-set is counted by the row walk, with no Manager
        texts = st.one_of(st.text("01--", min_size=n, max_size=n), st.just("-" * n))
        outs = st.frozensets(st.integers(1, m), max_size=m)
        rows = data.draw(st.lists(st.tuples(texts, outs), max_size=10))
        pla = Pla(n, m, [(Cube.parse(text), o) for text, o in rows])
        with mock.patch.object(
            rv.Manager, "__init__", side_effect=AssertionError("Manager made")
        ):
            got = heuristic_mu(pla).per_pattern
        assert got.get(frozenset()) == brute_mu(pla).per_pattern.get(frozenset())

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_certified_off_set_is_counted_without_a_bdd(self, n, m, seed, offset):
        # dsop keeps the rows with no outputs, and complete_offset adds more
        pla = random_pla(random.Random(seed), n, m, 12)
        cover = complete_offset(dsop(pla)) if offset else dsop(pla)
        rows = Pla(cover.n, cover.m, cover.entries)
        union = heuristic_mu(rows).per_pattern.get(frozenset())
        with mock.patch.object(
            LINECOUNT_MODULE, "row_counts", side_effect=AssertionError("rows walked")
        ):
            got = heuristic_mu(cover)
            exact = exact_mu_cube(pla)
        assert got.per_pattern.get(frozenset()) == union
        want = brute_mu(pla)
        assert pattern_map(got) == pattern_map(brute_mu(cover))
        assert pattern_map(exact) == pattern_map(want)
        assert union == want.per_pattern.get(frozenset())

    @pytest.mark.parametrize("name", ["r20c40", "r20c100"])
    def test_exact_bdd_matches_brute_force_at_width_limit(self, name):
        pla = parse_pla((CORPUS / (name + ".pla")).read_text())
        got = exact_mu_bdd(pla)
        want = brute_mu(pla)
        assert pattern_map(got) == pattern_map(want)
        assert (got.mu, got.ell, got.total_lines) == (
            want.mu, want.ell, want.total_lines,
        )

    def test_exact_bdd_patterns_come_in_mask_order(self, running):
        # ascending masks: output 1 is the most significant bit
        rng = random.Random(7)
        plas = [running] + [random_pla(rng, 6, 5, 10) for _ in range(40)]
        for pla in plas:
            got = list(exact_mu_bdd(pla).per_pattern)
            key = [[i in outs for i in range(1, pla.m + 1)] for outs in got]
            assert key == sorted(key)

    def test_exact_counts_partition_the_domain(self, running, underapprox):
        for pla in (running, underapprox):
            rep = exact_mu_bdd(pla)
            assert sum(rep.per_pattern.values()) == 1 << pla.n
            assert pla.n - pla.m <= rep.ell <= pla.n


@st.composite
def shared_suffix_plas(draw, n, m):
    """Plas over n inputs and m outputs whose rows end in one of a few
    shared literal suffixes, with duplicate rows, rows with no outputs,
    all-don't-care rows and no rows at all."""
    suffixes = draw(st.lists(st.text("01-", max_size=n), min_size=1, max_size=3))

    def ending_in(tail):
        head = st.text("01--", min_size=n - len(tail), max_size=n - len(tail))
        return head.map(lambda text: text + tail)

    texts = st.one_of(
        st.text("01--", min_size=n, max_size=n),
        st.just("-" * n),
        st.sampled_from(suffixes).flatmap(ending_in),
    )
    row = st.tuples(texts, st.frozensets(st.integers(1, m), max_size=m))
    rows = draw(st.lists(row, max_size=14))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    return Pla(n, m, [(Cube.parse(text), o) for text, o in rows])


def alike_rows(p: int) -> Pla:
    """The p rows x_i & z over p + 1 inputs, all driving output 1."""
    z = 1 << p
    rows = [(Cube(p + 1, z | 1 << i, z | 1 << i), frozenset({1})) for i in range(p)]
    return Pla(p + 1, 1, rows)


class TestRowWalk:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 9), m=st.integers(1, 3), data=st.data())
    def test_counts_and_order_match_enumeration(self, n, m, data):
        pla = data.draw(shared_suffix_plas(n, m))
        got = exact_mu_bdd(pla).per_pattern
        want = brute_mu(pla).per_pattern
        assert got == want
        # ascending masks: output 1 is the most significant bit
        key = [[i in outs for i in range(1, m + 1)] for outs in got]
        assert key == sorted(key)
        assert heuristic_mu(pla).per_pattern.get(frozenset()) == want.get(frozenset())

    @pytest.mark.parametrize(
        "path", sorted(CORPUS.glob("*.pla")), ids=lambda path: path.stem
    )
    def test_corpus_matches_the_row_diagram(self, path):
        pla = parse_pla(path.read_text())
        got = DSOP_MODULE.pla_counts(pla)
        assert list(got.items()) == list(diagram_counts(pla).items())

    def test_pattern_cap_on_a_corpus_cover(self, monkeypatch, capsys):
        path = CORPUS / "r20c40.pla"
        pla = parse_pla(path.read_text())
        count = len(exact_mu_bdd(pla).per_pattern)
        monkeypatch.setattr(DSOP_MODULE, "DEFAULT_PATTERN_CAP", count)
        assert len(exact_mu_bdd(pla).per_pattern) == count
        monkeypatch.setattr(DSOP_MODULE, "DEFAULT_PATTERN_CAP", count - 1)
        with pytest.raises(ResourceLimitError):
            exact_mu_bdd(pla)
        assert cli.main(["lines", str(path), "--method", "exact-bdd"]) == 2
        assert capsys.readouterr().err.startswith("resource limit")

    def test_alike_rows_are_merged(self):
        # without the merge the walk holds 2^14 states here
        pla = alike_rows(14)
        for count in (exact_mu_bdd, heuristic_mu):
            tracemalloc.start()
            try:
                report = count(pla)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, count.__name__
            assert report.per_pattern[frozenset()] == (1 << 14) + 1
        want = {(): (1 << 14) + 1, (1,): (1 << 14) - 1}
        assert pattern_map(exact_mu_bdd(pla)) == want
