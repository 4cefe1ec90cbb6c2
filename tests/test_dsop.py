import importlib
import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from revembed import (
    Cube,
    Manager,
    Pla,
    ResourceLimitError,
    brute_dsop_check,
    compact,
    complete_offset,
    cube_and,
    data_path,
    dsop,
    parse_pla,
    and_all,
    post_compact,
    write_pla,
)

import revembed.cli as cli
from helpers import (
    random_pla,
    reference_compact,
    reference_dsop,
    reference_post_compact,
    reference_reduce,
    reference_region_walk,
)

DSOP_MODULE = importlib.import_module("revembed.dsop")
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def entry_set(pla):
    return {(str(c), tuple(sorted(o))) for c, o in pla.entries}


# the 6-cube worked example rewritten into 12 pairwise disjoint cubes
GOLDEN_DISJOINT = {
    ("10-0-", (1,)),
    ("11100", (1,)),
    ("00---", (2,)),
    ("010--", (3,)),
    ("11011", (3,)),
    ("11111", (3,)),
    ("10-1-", (1, 3)),
    ("11000", (1, 3)),
    ("11001", (1, 3)),
    ("11010", (1, 3)),
    ("11101", (1, 3)),
    ("11110", (1, 3)),
}

# after regrouping by output pattern and re-extracting cubes
GOLDEN_COMPACT = {
    ("10-0-", (1,)),
    ("11100", (1,)),
    ("10-1-", (1, 3)),
    ("1100-", (1, 3)),
    ("11010", (1, 3)),
    ("11101", (1, 3)),
    ("11110", (1, 3)),
    ("00---", (2,)),
    ("010--", (3,)),
    ("11-11", (3,)),
}


class TestWorkedExamples:
    def test_disjoint_rewrite_exact_cubes(self, running):
        d = dsop(running)
        assert d.dsop_certified
        assert d.cube_count() == 12
        assert entry_set(d) == GOLDEN_DISJOINT
        assert brute_dsop_check(d, reference=running)

    def test_compaction_exact_cubes(self, running):
        c = post_compact(dsop(running))
        assert c.dsop_certified
        assert c.cube_count() == 10
        assert entry_set(c) == GOLDEN_COMPACT
        assert brute_dsop_check(c, reference=running)

    def test_underapprox_compacts_to_three_cubes(self, underapprox):
        c = post_compact(dsop(underapprox))
        assert entry_set(c) == {
            ("01-1-", (2,)),
            ("00-1-", (2, 3)),
            ("1----", (2, 3)),
        }

    def test_groups_emerge_sorted_by_pattern(self, running):
        c = post_compact(dsop(running))
        patterns = [tuple(sorted(o)) for _, o in c.entries]
        assert patterns == sorted(patterns)


class TestProperties:
    def test_pairwise_disjoint(self, running):
        d = dsop(running)
        for (a, _), (b, _) in itertools.combinations(d.entries, 2):
            assert cube_and(a, b) is None

    def test_idempotent_on_disjoint_input(self, underapprox_dsop3):
        again = dsop(underapprox_dsop3)
        assert again.entries == underapprox_dsop3.entries

    @pytest.mark.parametrize(
        "rewrite, certified",
        [
            (dsop, True),
            (compact, True),
            (lambda pla: post_compact(dsop(pla)), True),
            (complete_offset, False),
            (lambda pla: complete_offset(dsop(pla)), True),
        ],
        ids=["dsop", "compact", "post_compact", "complete_offset", "dsop-offset"],
    )
    def test_preserves_names(self, rewrite, certified):
        pla = parse_pla(".i 2\n.o 1\n.ilb a b\n.ob f\n1- 1\n-1 1\n.e\n")
        d = rewrite(pla)
        assert d.input_names == ["a", "b"]
        assert d.output_names == ["f"]
        assert d.dsop_certified is certified

    def test_post_compact_requires_certificate(self, running):
        with pytest.raises(ValueError):
            post_compact(running)

    def test_empty_pla(self):
        pla = parse_pla(".i 2\n.o 1\n.e\n")
        d = dsop(pla)
        assert d.cube_count() == 0
        assert d.dsop_certified

    def test_random_semantics_preserved(self):
        rng = random.Random(1234)
        for _ in range(40):
            pla = random_pla(rng, rng.randint(1, 6), rng.randint(1, 4), 9)
            d = dsop(pla)
            assert d.dsop_certified
            assert brute_dsop_check(d, reference=pla)
            for (a, _), (b, _) in itertools.combinations(d.entries, 2):
                assert cube_and(a, b) is None
            c = post_compact(d)
            assert brute_dsop_check(c, reference=pla)

    def test_overlapping_same_pattern_merges_counts(self):
        # two overlapping cubes with one shared pattern: the union must be
        # covered exactly once afterwards
        pla = Pla(
            3,
            1,
            [
                (Cube.parse("1--"), frozenset({1})),
                (Cube.parse("-1-"), frozenset({1})),
            ],
        )
        d = dsop(pla)
        total = sum(c.on_size() for c, _ in d.entries)
        assert total == 6


class TestAgainstReference:
    """The indexed first-overlap search must reproduce the plain scan."""

    @staticmethod
    def assert_same(pla):
        want = reference_dsop(pla)
        got = dsop(pla)
        assert write_pla(got) == write_pla(want)
        assert write_pla(post_compact(got)) == write_pla(post_compact(want))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=1, max_value=10),
        m=st.integers(min_value=1, max_value=4),
        max_cubes=st.integers(min_value=1, max_value=14),
    )
    def test_random_small_covers(self, seed, n, m, max_cubes):
        self.assert_same(random_pla(random.Random(seed), n, m, max_cubes))

    @pytest.mark.parametrize("n,cubes,seed", [(12, 24, 1), (13, 22, 2), (14, 20, 3)])
    def test_seeded_wide_covers(self, n, cubes, seed):
        rng = random.Random(seed)
        entries = []
        for _ in range(cubes):
            text = "".join([rng.choice("01---") for _ in range(n)])
            outs = frozenset(j + 1 for j in range(6) if rng.random() < 0.4)
            entries.append((Cube.parse(text), outs))
        self.assert_same(Pla(n, 6, entries))


class TestCompact:
    """compact() reads each pattern's region from one walk, without dsop()."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=4),
        max_cubes=st.integers(min_value=1, max_value=12),
    )
    def test_matches_compaction_of_the_rewrite(self, seed, n, m, max_cubes):
        # random_pla draws rows with no outputs and leaves points uncovered
        pla = random_pla(random.Random(seed), n, m, max_cubes)
        got = compact(pla)
        want = write_pla(reference_post_compact(dsop(pla)))
        assert write_pla(got) == want
        assert write_pla(post_compact(dsop(pla))) == want
        assert brute_dsop_check(got, reference=pla)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.text("01--", min_size=6, max_size=6),
                st.frozensets(st.integers(1, 3), max_size=3),
            ),
            max_size=10,
        )
    )
    def test_matches_the_product_of_bdds(self, rows):
        # rows overlap, carry no outputs, repeat, or leave points uncovered
        pla = Pla(6, 3, [(Cube.parse(text), outs) for text, outs in rows])
        assert write_pla(compact(pla)) == write_pla(reference_compact(pla))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 6), m=st.integers(1, 3), data=st.data())
    def test_row_diagram_is_the_and_of_the_row_terms(self, n, m, data):
        # rows overlap, carry no outputs, repeat, or have no literals
        texts = st.one_of(st.text("01--", min_size=n, max_size=n), st.just("-" * n))
        outs = st.frozensets(st.integers(1, m), max_size=m)
        rows = data.draw(st.lists(st.tuples(texts, outs), max_size=10))
        pla = Pla(n, m, [(Cube.parse(text), o) for text, o in rows])
        made, calls = [], []

        class Recording(Manager):
            def __init__(self):
                super().__init__()
                made.append(self)

        def recording_pairing(work, z, manager):
            calls.append((list(work), z, len(manager._nodes)))
            return pairing(work, z, manager)

        pairing = DSOP_MODULE._pairing
        with mock.patch.multiple(
            DSOP_MODULE, Manager=Recording, _pairing=recording_pairing
        ):
            root, nodes = DSOP_MODULE.row_diagram(pla)
        (manager,) = made
        assert nodes is manager._nodes
        # after the row chains, and_all's pairing makes the nodes of the
        # balanced pairing through the reference recursion, in its order
        ((rows, z, chains),) = calls
        assert z == 0
        twin = Manager()
        twin.add_vars([None] * manager.var_count())
        twin._nodes = nodes[:chains]
        twin._unique = {node: x for x, node in enumerate(twin._nodes) if x >= 2}
        assert reference_reduce(twin, rows, 0) == root
        assert twin._nodes == nodes
        # the covered bit is level n and output i level n + i; equal
        # functions share a node, so the pairing got each row's term in row
        # order, and the root is the node of the AND
        terms = [
            ~manager.from_cube(cube)
            | and_all([manager.var(n + i) for i in sorted({0} | o)])
            for cube, o in pla.entries
        ]
        assert [t.node for t in terms] == rows
        assert and_all(terms, manager).node == root

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=4),
        max_cubes=st.integers(min_value=1, max_value=12),
    )
    def test_region_nodes_match_the_reference_walk(self, seed, n, m, max_cubes):
        self._check_region_nodes(random_pla(random.Random(seed), n, m, max_cubes))

    @pytest.mark.parametrize("name", ["r14c30", "r16c40"])
    def test_corpus_region_nodes_match_the_reference_walk(self, name):
        self._check_region_nodes(parse_pla((CORPUS / (name + ".pla")).read_text()))

    @staticmethod
    def _check_region_nodes(pla):
        """compact's region manager holds the nodes, in the order, that the
        walk through Manager._mk makes on a fresh manager."""
        made = []

        class Recording(Manager):
            def __init__(self):
                super().__init__()
                made.append(self)

        with mock.patch.object(DSOP_MODULE, "Manager", Recording):
            got = compact(pla)
        # the row diagram's manager, then the regions'
        _, regions = made
        root, nodes = DSOP_MODULE.row_diagram(pla)
        want = Manager()
        want.add_vars("x%d" % (i + 1) for i in range(pla.n))
        reference_region_walk(
            root, nodes, pla.n, want._mk, {1: {}}, DSOP_MODULE.DEFAULT_PATTERN_CAP
        )
        assert regions._nodes == want._nodes
        assert regions._unique == want._unique
        assert write_pla(got) == write_pla(reference_compact(pla))

    @pytest.mark.parametrize("name", ["r14c30", "r16c40"])
    def test_corpus_matches_the_product_of_bdds(self, name):
        pla = parse_pla((CORPUS / (name + ".pla")).read_text())
        assert write_pla(compact(pla)) == write_pla(reference_compact(pla))

    def test_zero_output_rows_and_uncovered_points(self):
        # x1 = 1 drives output 1; x1 = 0, x2 = 1 is covered by a row with
        # no outputs; x1 = x2 = 0 is covered by no row
        pla = parse_pla(".i 3\n.o 2\n1-- 10\n-1- 00\n.e\n")
        got = compact(pla)
        assert entry_set(got) == {("01-", ()), ("1--", (1,))}
        assert brute_dsop_check(got, reference=pla)

    def test_pattern_cap(self, running, monkeypatch, capsys):
        # the worked example's covered inputs carry four patterns
        monkeypatch.setattr(DSOP_MODULE, "DEFAULT_PATTERN_CAP", 4)
        assert entry_set(compact(running)) == GOLDEN_COMPACT
        monkeypatch.setattr(DSOP_MODULE, "DEFAULT_PATTERN_CAP", 3)
        with pytest.raises(ResourceLimitError):
            compact(running)
        running_path = str(data_path("running_example.pla"))
        assert cli.main(["dsop", running_path, "--compact"]) == 2
        assert capsys.readouterr().err.startswith("resource limit")
        # the exact-bdd count runs the same walk under the same cap
        assert cli.main(["lines", running_path, "--method", "exact-bdd"]) == 2
        assert capsys.readouterr().err.startswith("resource limit")
