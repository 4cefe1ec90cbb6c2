import contextlib
import copy
import io
import pickle
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import revembed.cli as cli
from revembed import (
    Cube,
    complete_offset,
    cube_and,
    cube_sharp,
    data_path,
    dsop,
    parse_pla,
    post_compact,
    write_pla,
)

from helpers import cube_points, random_pla, reference_cube_parse, reference_cube_str


def cubes(n):
    return st.tuples(*([st.sampled_from("01-")] * n)).map(
        lambda chars: Cube.parse("".join(chars))
    )


class TestBasics:
    def test_parse_and_str_round_trip(self):
        for text in ["1-0", "---", "01", "1"]:
            assert str(Cube.parse(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Cube.parse("10x")

    def test_full_is_all_dc(self):
        c = Cube(4, 0, 0)
        assert str(c) == "----"
        assert c.on_size() == 16
        assert list(c.literals()) == []

    def test_from_assignment(self):
        c = Cube(3, 0b111, 5)  # x1 is bit 0, so 0b101 -> 1,0,1
        assert str(c) == "101"
        assert cube_points(c) == {5}

    def test_weight_on_size_dc_positions(self):
        c = Cube.parse("1--0-")
        assert c.care.bit_count() == 2
        assert c.on_size() == 8
        assert [i for i, ch in enumerate(str(c)) if ch == "-"] == [1, 2, 4]
        assert list(c.literals()) == [(0, 1), (3, 0)]

    def test_covers(self):
        c = Cube.parse("1-0")
        # x1=1 x3=0 with x2 free; 0b101 has x3=1
        assert cube_points(c) == {0b001, 0b011}
        assert (0b101 ^ c.value) & c.care

    def test_repr_reads_back(self):
        for text in ["", "1-0", "10-" * 23 + "1"]:
            c = Cube.parse(text)
            assert repr(c) == "Cube.parse(%r)" % text
            assert eval(repr(c)) == c

    def test_hashable_eq(self):
        assert Cube.parse("1-") == Cube.parse("1-")
        assert len({Cube.parse("1-"), Cube.parse("1-")}) == 1


class TestAlgebra:
    def test_and_examples(self):
        a, b = Cube.parse("1--"), Cube.parse("-0-")
        assert str(cube_and(a, b)) == "10-"
        assert cube_and(Cube.parse("1--"), Cube.parse("0--")) is None

    def test_sharp_disjoint_returns_whole(self):
        a, b = Cube.parse("1--"), Cube.parse("0--")
        assert cube_sharp(a, b) == [a]

    def test_sharp_contained_returns_empty(self):
        assert cube_sharp(Cube.parse("10-"), Cube.parse("1--")) == []

    def test_sharp_peels_ascending_positions(self):
        pieces = cube_sharp(Cube.parse("---"), Cube.parse("11-"))
        assert [str(p) for p in pieces] == ["0--", "10-"]

    @given(cubes(5), cubes(5))
    def test_and_is_set_intersection(self, a, b):
        got = cube_and(a, b)
        want = cube_points(a) & cube_points(b)
        if got is None:
            assert want == set()
        else:
            assert cube_points(got) == want

    @given(cubes(5), cubes(5))
    def test_sharp_is_set_difference(self, a, b):
        pieces = cube_sharp(a, b)
        covered = set()
        for piece in pieces:
            pts = cube_points(piece)
            assert not (pts & covered), "sharp pieces must be disjoint"
            assert pts <= cube_points(a)
            covered |= pts
        assert covered == cube_points(a) - cube_points(b)


class TestMasks:
    def test_masks_of_a_cube(self):
        c = Cube.parse("1-0-")
        assert (c.n, c.care, c.value) == (4, 0b0101, 0b0001)
        assert Cube(4, 0b0101, 0b0001) == c

    @pytest.mark.parametrize(
        "n,care,value", [(2, 0b100, 0), (3, 0b001, 0b010), (-1, 0, 0)]
    )
    def test_from_masks_rejects_non_cubes(self, n, care, value):
        with pytest.raises(ValueError):
            Cube(n, care, value)

    def test_wide_cube_round_trips(self):
        rng = random.Random(7)
        text = "".join(rng.choice("01-") for _ in range(12000))
        c = Cube.parse(text)
        assert len(c) == 12000
        assert str(c) == text
        assert Cube(c.n, c.care, c.value) == c
        assert Cube.parse(str(c)) == c
        assert c.care.bit_count() == 12000 - text.count("-")
        assert c.value.bit_count() == text.count("1")
        assert list(c.literals())[-1][0] == len(text.rstrip("-")) - 1

    def test_empty_cube(self):
        c = Cube.parse("")
        assert (len(c), str(c), c.on_size()) == (0, "", 1)
        assert c == Cube(0, 0, 0)

    @given(cubes(4), cubes(4))
    def test_eq_and_hash_agree_with_bits(self, a, b):
        assert (a == b) == (str(a) == str(b))
        again = Cube.parse(str(a))
        assert a == again and hash(a) == hash(again)
        if a == b:
            assert hash(a) == hash(b)

    def test_not_equal_across_lengths(self):
        assert Cube.parse("1") != Cube.parse("1-")
        assert Cube.parse("-") != Cube.parse("--")

    def test_immutable(self):
        c = Cube.parse("1-")
        with pytest.raises(AttributeError):
            c.care = 0

    def test_length_mismatch_raises(self):
        a, b = Cube.parse("1-"), Cube.parse("1--")
        for op in (cube_and, cube_sharp):
            with pytest.raises(ValueError):
                op(a, b)
            with pytest.raises(ValueError):
                op(b, a)

    @given(cubes(5), st.integers(min_value=0, max_value=31))
    def test_views_agree(self, c, point):
        text = str(c)
        assert len(c) == len(text)
        want = [(i, int(ch)) for i, ch in enumerate(text) if ch != "-"]
        assert list(c.literals()) == want
        assert ((point ^ c.value) & c.care == 0) == (point in cube_points(c))
        assert c.on_size() == len(cube_points(c))


@st.composite
def wide_cubes(draw, max_n=70):
    n = draw(st.integers(min_value=0, max_value=max_n))
    care = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    value = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) & care
    return Cube(n, care, value)


class TestTextForm:
    """str and Cube.parse against the per-position references."""

    @given(wide_cubes())
    def test_str_matches_the_reference(self, c):
        text = str(c)
        assert text == reference_cube_str(c)
        assert Cube.parse(text) == c == reference_cube_parse(text)

    @given(st.text("01-", max_size=70))
    def test_parse_matches_the_reference(self, text):
        c = Cube.parse(text)
        assert c == reference_cube_parse(text)
        assert str(c) == text

    def test_wide_cube_under_the_default_digit_limit(self):
        # outside main(), which lifts the limit for its own calls only
        rng = random.Random(11)
        text = "".join(rng.choice("01-") for _ in range(20000))
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            c = Cube.parse(text)
            assert str(c) == text
            assert Cube(c.n, c.care, c.value) == c
            with pytest.raises(ValueError):
                str(c.care)  # the limit is in force
        finally:
            sys.set_int_max_str_digits(before)
        assert c == reference_cube_parse(text)

    @pytest.mark.parametrize(
        "text,bad",
        [
            ("x", "x"),
            ("01x", "x"),
            ("x01", "x"),
            ("0y-x1", "y"),
            ("-- 0", " "),
            ("1\n", "\n"),
            ("01\u00e90", "\u00e9"),
            ("0_1", "_"),
        ],
    )
    def test_error_names_the_first_illegal_character(self, text, bad):
        with pytest.raises(ValueError) as err:
            Cube.parse(text)
        assert str(err.value) == "illegal cube character %r" % (bad,)
        with pytest.raises(ValueError) as ref:
            reference_cube_parse(text)
        assert str(ref.value) == str(err.value)


class TestValueSemantics:
    """Cube is an immutable value: equal masks mean equal and equal hash."""

    def test_fields_cannot_change(self):
        c = Cube.parse("1-0")
        for name in ("n", "care", "value", "other"):
            with pytest.raises(AttributeError):
                setattr(c, name, 1)
            with pytest.raises(AttributeError):
                delattr(c, name)
        assert (c.n, c.care, c.value) == (3, 0b101, 0b001)

    def test_copies_are_equal(self):
        c = Cube.parse("01--1")
        for other in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert other == c and hash(other) == hash(c)
            assert type(other) is Cube

    def test_not_equal_to_other_types(self):
        c = Cube.parse("1-")
        assert c != (2, 1, 1)
        assert c != "1-"
        assert (c == object()) is False


def _outputs(pla_path):
    """Pipeline and CLI outputs that involve cubes, as text."""
    pla = parse_pla(Path(pla_path).read_text())
    texts = [
        write_pla(dsop(pla)),
        write_pla(post_compact(dsop(pla))),
        write_pla(complete_offset(dsop(pla))),
    ]
    for argv in (
        ["lines", pla_path, "--method", "exact-cube"],
        ["embed", "--exact", pla_path, "--with-offset", "--format", "pla"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        texts.append(out.getvalue())
    return texts


def test_no_output_depends_on_cube_hash_order(monkeypatch, tmp_path):
    paths = [str(data_path("running_example.pla"))]
    for seed in range(3):
        path = tmp_path / ("r%d.pla" % seed)
        path.write_text(write_pla(random_pla(random.Random(seed), 6, 3, 8)))
        paths.append(str(path))
    want = [_outputs(p) for p in paths]
    # a scrambled hash reorders every set or dict keyed by cubes
    scrambled = lambda c: -7919 * hash((c.value, c.care, c.n))  # noqa: E731
    monkeypatch.setattr(Cube, "__hash__", scrambled)
    assert [_outputs(p) for p in paths] == want
