import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from revembed import (
    Cube,
    Manager,
    Pla,
    PlaError,
    characteristic,
    parse_pla,
    to_functions,
    write_pla,
)

from helpers import pla_truth, random_pla, reference_write_pla


class TestParse:
    def test_running_example(self, running):
        assert (running.n, running.m) == (5, 3)
        assert running.cube_count() == 6
        cube, outs = running.entries[0]
        assert str(cube) == "1--0-"
        assert outs == frozenset({1})
        assert not running.dsop_certified
        assert not running.output_dc_seen

    def test_names(self):
        pla = parse_pla(
            ".i 2\n.o 1\n.ilb alpha beta\n.ob out\n11 1\n.e\n"
        )
        assert pla.input_names == ["alpha", "beta"]
        assert pla.output_names == ["out"]

    def test_comments_and_blank_lines(self):
        pla = parse_pla("# hi\n\n.i 1\n.o 1\n# mid\n1 1\n\n.e\n")
        assert pla.cube_count() == 1

    def test_output_dash_and_tilde_are_not_constructing(self):
        pla = parse_pla(".i 2\n.o 3\n11 1-~\n.e\n")
        assert pla.entries[0][1] == frozenset({1})
        assert pla.output_dc_seen

    def test_type_fd_accepted(self):
        pla = parse_pla(".i 1\n.o 1\n.type fd\n1 1\n.e\n")
        assert pla.cube_count() == 1

    def test_wrong_p_is_advisory_only(self):
        pla = parse_pla(".i 1\n.o 1\n.p 99\n1 1\n.e\n")
        assert pla.cube_count() == 1

    def test_p_past_the_digit_limit(self):
        pla = parse_pla(".i 1\n.o 1\n.p %s\n1 1\n.e\n" % ("9" * 5000))
        assert pla.cube_count() == 1

    def test_widest_header(self):
        widest = sys.maxsize // 4
        pla = parse_pla(".i %d\n.o %s%d\n.e\n" % (widest, "0" * 5000, widest))
        assert (pla.n, pla.m) == (widest, widest)

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("1 1\n.e\n", 1),  # cube before .i/.o
            (".o 1\n.i 1\n1 1\n.e\n", 1),  # .o first
            (".i 1\n1 1\n.e\n", 2),  # cube before .o
            (".i 1\n.o 1\n11 1\n.e\n", 3),  # wrong input width
            (".i 2\n.o 1\n1- 11\n.e\n", 3),  # wrong output width
            (".i 1\n.o 1\n2 1\n.e\n", 3),  # bad input char
            (".i 1\n.o 1\n1 2\n.e\n", 3),  # bad output char
            (".i 1\n.i 1\n.o 1\n1 1\n.e\n", 2),  # duplicate .i
            (".i 1\n.o 1\n.type fr\n1 1\n.e\n", 3),  # unsupported type
            (".i 0\n.o 1\n.e\n", 1),  # nonpositive width
            (".i 1\n.o 1\n.unknowndirective\n.e\n", 3),
            (".i x\n.o 1\n.e\n", 1),  # unparseable count
            (".i \u00b2\n.o 1\n.e\n", 1),  # a digit int() does not read
            (".i 1\n.o 1\n.p 1.5\n.e\n", 3),  # advisory, but still a count
            (".i %d\n.o 1\n.e\n" % (sys.maxsize // 4 + 1), 1),  # too wide
            (".i 1\n.o %s\n.e\n" % ("9" * 5000), 2),  # past the digit limit
            (".i 1\n.o 1\n.o 1\n.e\n", 3),  # duplicate .o
            (".i 1\n.o 1\n1 1\n.i 1\n.e\n", 4),  # .i after a cube line
            (".i 1\n.o 1\n1 1\n.o 1\n.e\n", 4),  # .o after a cube line
            (".i 1\n.o 0\n.e\n", 2),  # nonpositive output count
            (".i 1\n.o 1\n1\n.e\n", 3),  # one plane
            (".i 1\n.o 1\n1 1 1\n.e\n", 3),  # three planes
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(PlaError) as err:
            parse_pla(text)
        assert err.value.line == lineno
        assert "line %d:" % lineno in str(err.value)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "missing .i/.o header"),
            (".i 2\n.e\n", "missing .i/.o header"),
            (".i 2\n.o 1\n.ilb a\n.e\n", ".ilb names 1 variables, .i is 2"),
            (".i 1\n.o 2\n.ob f g h\n.e\n", ".ob names 3 outputs, .o is 2"),
        ],
    )
    def test_whole_file_errors_carry_no_line(self, text, message):
        with pytest.raises(PlaError) as err:
            parse_pla(text)
        assert err.value.line is None
        assert str(err.value) == message

    def test_lines_after_e_are_ignored(self):
        pla = parse_pla(".i 1\n.o 1\n1 1\n.e\n0 1\n.bogus\n.e\n")
        assert pla.entries == [(Cube.parse("1"), frozenset({1}))]

    @pytest.mark.parametrize(
        "planes,lineno,bad",
        [
            (["10", "10", "1x"], 5, "x"),
            (["10", "01", "10", "x0"], 6, "x"),
            (["1-", "1-", "~2"], 5, "2"),
            # a bad plane that repeats fails at its first line
            (["10", "0y", "0y"], 4, "y"),
        ],
    )
    def test_bad_plane_after_good_ones_keeps_its_line(self, planes, lineno, bad):
        text = ".i 1\n.o 2\n%s\n.e\n" % "\n".join("1 " + p for p in planes)
        with pytest.raises(PlaError) as err:
            parse_pla(text)
        assert err.value.line == lineno
        assert str(err.value) == "line %d: illegal output character %r" % (lineno, bad)

    @pytest.mark.parametrize(
        "planes,seen",
        [
            (["10", "10"], False),
            (["1-", "1-"], True),
            (["10", "0~", "10", "0~"], True),
            (["10", "01", "10", "-1"], True),
        ],
    )
    def test_output_dc_seen_on_repeated_planes(self, planes, seen):
        text = ".i 1\n.o 2\n%s\n.e\n" % "\n".join("1 " + p for p in planes)
        pla = parse_pla(text)
        assert pla.output_dc_seen is seen
        want = [frozenset(i + 1 for i, ch in enumerate(p) if ch == "1") for p in planes]
        assert [outs for _, outs in pla.entries] == want

    def test_missing_cubes_is_fine(self):
        pla = parse_pla(".i 2\n.o 1\n.e\n")
        assert pla.cube_count() == 0

    def test_never_certified_by_text(self):
        pla = parse_pla("# dsop\n.i 1\n.o 1\n1 1\n.e\n")
        assert not pla.dsop_certified


class TestWrite:
    def test_round_trip_running(self, running):
        again = parse_pla(write_pla(running))
        assert again.entries == running.entries
        assert (again.n, again.m) == (running.n, running.m)

    def test_certified_marker(self, running):
        from revembed import dsop

        text = write_pla(dsop(running))
        assert text.splitlines()[0] == "# dsop"
        assert ".p 12" in text

    def test_names_round_trip(self):
        pla = parse_pla(".i 2\n.o 1\n.ilb a b\n.ob f\n1- 1\n.e\n")
        again = parse_pla(write_pla(pla))
        assert again.input_names == ["a", "b"]
        assert again.output_names == ["f"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 30))
    def test_round_trip_random(self, seed):
        rng = random.Random(seed)
        pla = random_pla(rng, rng.randint(1, 6), rng.randint(1, 4), 8)
        again = parse_pla(write_pla(pla))
        assert again.entries == pla.entries


@st.composite
def plas_repeating_patterns(draw):
    """Plas whose output patterns recur apart from each other, the empty
    and the all-outputs pattern among them."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    pool = [frozenset(), frozenset(range(1, m + 1))]
    pool += draw(st.lists(st.frozensets(st.integers(1, m)), max_size=3))
    order = draw(st.permutations(pool + pool))
    order += draw(st.lists(st.sampled_from(pool), max_size=8))
    cubes = st.text("01-", min_size=n, max_size=n).map(Cube.parse)
    names = st.text("abxy_019", min_size=1, max_size=3)

    def labels(k):
        return st.none() | st.lists(names, min_size=k, max_size=k)

    return Pla(
        n,
        m,
        [(draw(cubes), outs) for outs in order],
        draw(labels(n)),
        draw(labels(m)),
        dsop_certified=draw(st.booleans()),
    )


class TestPlaneMemo:
    @settings(max_examples=150, deadline=None)
    @given(plas_repeating_patterns())
    def test_matches_a_join_per_row(self, pla):
        text = write_pla(pla)
        assert text == reference_write_pla(pla)
        assert parse_pla(text) == replace(pla, dsop_certified=False)


class TestValidation:
    @pytest.mark.parametrize("n,m", [(-1, 1), (1, -1)])
    def test_negative_width_checked(self, n, m):
        with pytest.raises(ValueError, match="negative plane width"):
            Pla(n, m, [])

    def test_entry_width_checked(self):
        with pytest.raises(ValueError):
            Pla(2, 1, [(Cube.parse("1"), frozenset({1}))])

    def test_output_range_checked(self):
        with pytest.raises(ValueError):
            Pla(1, 1, [(Cube.parse("1"), frozenset({2}))])

    @pytest.mark.parametrize("bad", [frozenset({0}), frozenset({1, 3}), frozenset({-1, 2})])
    def test_bad_output_set_after_good_ones(self, bad):
        good = [(Cube.parse("1-"), frozenset({1})), (Cube.parse("-1"), frozenset())]
        with pytest.raises(ValueError, match="output index out of range"):
            Pla(2, 2, good * 3 + [(Cube.parse("--"), bad)] + good)

    def test_width_checked_on_every_row(self):
        rows = [(Cube.parse("1-"), frozenset({1}))] * 3 + [(Cube.parse("1"), frozenset({1}))]
        with pytest.raises(ValueError, match="cube width 1 != .i 2"):
            Pla(2, 1, rows)

    def test_repeated_sets_and_no_outputs_are_fine(self):
        rows = [(Cube.parse("1-"), frozenset({1, 2})), (Cube.parse("01"), frozenset())] * 4
        assert Pla(2, 2, rows).cube_count() == 8
        assert Pla(1, 0, [(Cube.parse("1"), frozenset())]).cube_count() == 1


class TestFunctions:
    def test_to_functions_matches_cover(self, running):
        manager = Manager()
        xs = [manager.add_var("x%d" % (i + 1)) for i in range(running.n)]
        funcs = to_functions(running, manager, xs)
        truth = pla_truth(running)
        for point in range(1 << running.n):
            bits = [(point >> i) & 1 for i in range(running.n)]
            got = frozenset(
                j + 1 for j, f in enumerate(funcs) if manager.eval(f, bits)
            )
            assert got == truth[point]

    def test_default_vars(self, running):
        manager = Manager()
        manager.add_vars(["x%d" % (i + 1) for i in range(running.n)])
        funcs = to_functions(running, manager)
        assert len(funcs) == running.m

    def test_one_variable_per_input_and_per_function(self, running):
        manager = Manager()
        xs = manager.add_vars(["x%d" % (i + 1) for i in range(running.n + 1)])
        with pytest.raises(ValueError, match="need 5 input variables, got 6"):
            to_functions(running, manager, xs)
        funcs = to_functions(running, manager, xs[:-1])
        with pytest.raises(ValueError, match="one y variable per function"):
            characteristic(funcs, manager, xs[: running.m - 1])

    def test_characteristic_counts_inputs(self, running):
        manager = Manager()
        xs = [manager.add_var("x%d" % (i + 1)) for i in range(running.n)]
        ys = [manager.add_var("y%d" % (j + 1)) for j in range(running.m)]
        funcs = to_functions(running, manager, xs)
        chi = characteristic(funcs, manager, ys)
        assert manager.sat_count(chi, running.n + running.m) == 1 << running.n
