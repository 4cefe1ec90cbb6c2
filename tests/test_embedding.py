import dataclasses
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import revembed.bdd
from revembed import (
    Cube,
    Func,
    Manager,
    Pla,
    ResourceLimitError,
    brute_verify,
    complete_offset,
    dsop,
    embed_bennett,
    embed_exact,
    exact_mu_cube,
    ordering_comparison,
    parse_pla,
    redundancy,
    restricted_growth,
    to_extended_pla,
    to_functions,
    verify,
)

from revembed.embedding import (
    MAX_STUDY_LINES,
    _embedding_manager,
    _entry_steps,
    _entry_walk,
    _step_plan,
    _walk_memos,
)

from helpers import (
    and_all_bennett_chi,
    cube_points,
    entry_builder,
    hand_built_chi,
    inc,
    or_built_exact,
    pla_truth,
    random_pla,
    reachable,
    reference_entry_steps,
    two_cube_pla,
)

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


class TestInc:
    def test_empty(self):
        assert inc([], 5) == []

    def test_negative_rejected(self):
        manager = Manager()
        g = manager.var(manager.add_var("g1"))
        with pytest.raises(ValueError):
            inc([g], -1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 40))
    def test_adds_constant_mod_2w(self, w, times):
        manager = Manager()
        vs = manager.add_vars(["g%d" % (i + 1) for i in range(w)])
        word = inc([manager.var(v) for v in vs], times)
        assert len(word) == w
        for value in range(1 << w):
            bits = [(value >> i) & 1 for i in range(w)]
            got = sum(
                manager.eval(word[i], bits) << i for i in range(w)
            )
            assert got == (value + times) % (1 << w)


class TestEmbedExact:
    def test_three_cube_shape(self, underapprox_dsop3):
        rc = embed_exact(underapprox_dsop3)
        assert (rc.n, rc.m, rc.p, rc.ell, rc.r) == (5, 3, 3, 5, 8)
        assert rc.partial
        assert [(tuple(sorted(o)), c) for o, c in rc.cnt_trace] == [
            ((2,), 4),
            ((2, 3), 4),
            ((2, 3), 20),
        ]
        assert rc.node_count() > 0

    def test_matches_hand_built_relation(self, underapprox_dsop3):
        rc = embed_exact(underapprox_dsop3)
        assert rc.chi == hand_built_chi(rc, underapprox_dsop3)

    def test_running_example_matches_hand_built(self, running):
        prepared = dsop(running)
        rc = embed_exact(prepared)
        assert (rc.p, rc.ell, rc.r) == (2, 4, 7)
        assert rc.chi == hand_built_chi(rc, prepared)

    def test_requires_certificate(self, running):
        with pytest.raises(ValueError):
            embed_exact(running)

    def test_pattern_counts_reach_mu(self, underapprox_dsop3):
        rc = embed_exact(underapprox_dsop3)
        mu_map = exact_mu_cube(underapprox_dsop3).per_pattern
        for outs, reached in rc.pattern_counts.items():
            assert reached == mu_map[outs]

    def test_identity_needs_nothing_extra(self, identity2):
        rc = embed_exact(dsop(identity2))
        assert (rc.p, rc.ell, rc.r) == (0, 0, 2)
        rep = verify(rc, identity2)
        assert rep.ok

    def test_and_gate(self, and2):
        rc = embed_exact(dsop(complete_offset(and2)))
        assert (rc.p, rc.ell, rc.r) == (1, 2, 3)
        rep = verify(rc, and2)
        assert rep.ok

    def test_wide_pair_creates_few_nodes(self):
        # x1 = 1 drives output 1, x400 = 1 output 2: three entries of 398
        # don't-cares each, ell = 398; a node count, not a timing
        n = 400
        pla = parse_pla(two_cube_pla(n))
        rc = embed_exact(dsop(pla))
        assert rc.ell == n - 2
        assert rc.manager.node_count() <= 2 * rc.node_count()
        rep = verify(rc, pla)
        assert rep.injective and rep.functional and rep.projects


    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 4), st.booleans()
    )
    def test_matches_the_or_of_entry_cubes(self, seed, n, m, offset):
        pla = random_pla(random.Random(seed), n, m, 8)
        prepared = dsop(complete_offset(pla) if offset else pla)
        rc = embed_exact(prepared)
        assert len(rc.manager._nodes) == rc.node_count()
        chi, trace, counts = or_built_exact(rc, prepared)
        assert rc.chi == chi
        assert rc.cnt_trace == trace
        assert rc.pattern_counts == counts
        assert rc.chi == hand_built_chi(rc, prepared)

    def test_overlapping_entries_of_one_pattern_are_united(self):
        # a certificate set by hand: both cubes hold x = 11, which gets one
        # garbage word from each entry
        pla = Pla(
            2,
            1,
            [(Cube.parse("1-"), frozenset({1})), (Cube.parse("-1"), frozenset({1}))],
            dsop_certified=True,
        )
        rc = embed_exact(pla)
        assert rc.chi == or_built_exact(rc, pla)[0]
        assert rc.chi.sat_count(2 * rc.r) == 4

    @pytest.mark.parametrize("source", ["r14c8", "wide2000"])
    def test_makes_only_the_nodes_of_chi(self, source, monkeypatch):
        if source == "r14c8":
            text = (CORPUS / "r14c8.pla").read_text()
            pla = dsop(complete_offset(parse_pla(text)))
        else:
            pla = dsop(parse_pla(two_cube_pla(2000)))

        def no_apply(*args):
            raise AssertionError("embed_exact combined BDDs")

        monkeypatch.setattr(Manager, "apply", no_apply)
        monkeypatch.setattr(Manager, "_ite", no_apply)
        rc = embed_exact(pla)
        assert len(rc.manager._nodes) == rc.manager.dag_size(rc.chi)

def _chained_entry(manager, kappa, xs, ys, gammas, cube, outs, offset):
    """Reference entry from Boolean operations: the literal cube, and
    gamma - offset through the inc adder, its low bits tied to the
    don't-care inputs by xnor and its high bits zero."""
    ell = len(gammas)
    word = inc([manager.var(g) for g in gammas], (-offset) % (1 << ell))
    literals = {xs[pos]: bit for pos, bit in cube.literals()}
    literals.update({k: 0 for k in kappa})
    literals.update({y: 1 if i + 1 in outs else 0 for i, y in enumerate(ys)})
    entry = manager.cube(literals)
    dcs = [pos for pos, ch in enumerate(str(cube)) if ch == "-"]
    for i, d in enumerate(dcs):
        entry = entry & manager.var(xs[d]).xnor(word[i])
    for i in range(len(dcs), ell):
        entry = entry & ~word[i]
    return entry


@st.composite
def _entry_draws(draw):
    """(cube text, p, m, outs, ell, offset) with offset + #on(cube) <= 2^ell."""
    n = draw(st.integers(1, 6))
    text = "".join(draw(st.lists(st.sampled_from("01-"), min_size=n, max_size=n)))
    dc_count = text.count("-")
    m = draw(st.integers(0, 2))
    outs = frozenset(draw(st.sets(st.integers(1, m))) if m else ())
    ell = draw(st.integers(dc_count, n + 2))
    offset = draw(st.integers(0, (1 << ell) - (1 << dc_count)))
    return text, draw(st.integers(0, 2)), m, outs, ell, offset


class TestEntryBuilder:
    @settings(max_examples=300, deadline=None)
    @given(_entry_draws())
    # n > ell leaves x-only levels at the bottom, ell > n g-only levels
    @example(("1-0-11", 0, 1, frozenset({1}), 3, 3))
    @example(("--", 1, 2, frozenset({2}), 5, 27))
    # every garbage bit read before the first rank bit
    @example(("1111----", 0, 1, frozenset({1}), 4, 0))
    # a block that fills the word exactly
    @example(("----", 1, 1, frozenset(), 4, 0))
    def test_matches_inc_chain(self, draw):
        text, p, m, outs, ell, offset = draw
        cube = Cube.parse(text)
        manager, kappa, xs, ys, gammas = _embedding_manager(p, m, cube.n, ell)
        direct = entry_builder(manager, kappa, xs, ys, gammas)(cube, outs, offset)
        chained = _chained_entry(manager, kappa, xs, ys, gammas, cube, outs, offset)
        assert direct == chained

    def test_drops_points_whose_word_would_wrap(self):
        # ranks 0..3 from offset 6 in 3 bits: 6 and 7 fit, 8 and 9 do not
        cube = Cube.parse("-1-")
        manager, kappa, xs, ys, gammas = _embedding_manager(1, 1, 3, 3)
        entry = entry_builder(manager, kappa, xs, ys, gammas)(cube, frozenset({1}), 6)
        want = manager.false
        for rank, word in ((0, 6), (1, 7)):
            lits = {xs[0]: rank & 1, xs[1]: 1, xs[2]: rank >> 1, kappa[0]: 0, ys[0]: 1}
            lits.update({g: (word >> i) & 1 for i, g in enumerate(gammas)})
            want = want | manager.cube(lits)
        assert entry == want

    @settings(max_examples=200, deadline=None)
    @given(_entry_draws(), st.integers(0, 3))
    def test_steps_match_the_sorted_text_construction(self, draw, extra):
        # offsets past the block's bound too: the steps read any offset
        text, p, m, _, ell, offset = draw
        cube = Cube.parse(text)
        _, _, xs, _, gammas = _embedding_manager(p, m, cube.n, ell)
        plan = _step_plan(xs, gammas)
        offset += extra << ell
        assert _entry_steps(plan, cube, offset) == reference_entry_steps(
            xs, gammas, cube, offset
        )

    @pytest.mark.parametrize("source", ["r14c8", "wide2000"])
    def test_walk_states_stay_near_block_size(self, source):
        # each state is (level, residual); the prune keeps dead ones rare
        if source == "r14c8":
            text = (CORPUS / "r14c8.pla").read_text()
            pla = dsop(complete_offset(parse_pla(text)))
        else:
            pla = dsop(parse_pla(two_cube_pla(2000)))
        rc = embed_exact(pla)
        offsets: dict = {}
        for cube, outs in pla.entries:
            offset = offsets.get(outs, 0)
            offsets[outs] = offset + cube.on_size()
            steps = _entry_steps(_step_plan(rc.xs, rc.gammas), cube, offset)
            memos = _walk_memos(steps)
            manager = rc.manager
            block = _entry_walk(0, 0, steps, memos, manager._nodes, manager._unique)
            states = sum(len(memo) for memo in memos)
            assert states <= 2 * manager.dag_size(Func(manager, block))


class TestVerify:
    def test_partial_embedding_flags(self, underapprox_dsop3, underapprox):
        rc = embed_exact(underapprox_dsop3)
        rep = verify(rc, underapprox)
        assert rep.injective
        assert rep.functional
        assert not rep.total
        assert rep.projects
        assert not rep.ok
        assert brute_verify(rc, underapprox).to_dict() == rep.to_dict()

    def test_offset_completion_makes_total(self, underapprox_dsop3, underapprox):
        rc = embed_exact(dsop(complete_offset(underapprox_dsop3)))
        rep = verify(rc, underapprox)
        assert rep.ok
        assert brute_verify(rc, underapprox).to_dict() == rep.to_dict()

    def test_verify_accepts_function_list(self, underapprox_dsop3, underapprox):
        rc = embed_exact(underapprox_dsop3)
        manager = Manager()
        xs = [manager.add_var("x%d" % (i + 1)) for i in range(underapprox.n)]
        funcs = to_functions(underapprox, manager, xs)
        rep = verify(rc, funcs)
        assert rep.functional and rep.injective

    @staticmethod
    def _restrict_kappa(monkeypatch, name):
        """verify's kappa = 0 restriction of name's exact embedding with
        offset: (rc, chi0, nodes the _rebuild frames walked, nodes created)."""
        pla = dsop(complete_offset(parse_pla((CORPUS / (name + ".pla")).read_text())))
        rc = embed_exact(pla)
        manager = rc.manager
        walked = []
        real_rebuild = revembed.bdd._rebuild
        # the walk calls itself through the module global, so every frame
        # goes through the wrapper
        monkeypatch.setattr(
            revembed.bdd,
            "_rebuild",
            lambda x, *rest: walked.append(x) or real_rebuild(x, *rest),
        )
        before = manager.node_count()
        chi0 = manager.restrict(rc.chi, {k: 0 for k in rc.kappa})
        created = manager.node_count() - before
        monkeypatch.undo()
        # every entry has kappa = 0, so the restriction drops kappa alone
        assert chi0 == manager.exists(rc.chi, rc.kappa)
        return rc, chi0, walked, created

    @pytest.mark.parametrize("name, bennett", [("r14c8", False), ("r12c20", True)])
    def test_walks_chi_twice(self, monkeypatch, name, bennett):
        # one walk quantifies the garbage out, one the inputs: the domain
        # and the kappa = 0 projection come from the first walk's result
        pla = parse_pla((CORPUS / (name + ".pla")).read_text())
        rc = embed_bennett(pla) if bennett else embed_exact(dsop(complete_offset(pla)))
        entered = []
        real_rebuild = revembed.bdd._rebuild
        monkeypatch.setattr(
            revembed.bdd,
            "_rebuild",
            lambda x, *rest: entered.append(x) or real_rebuild(x, *rest),
        )
        assert verify(rc, pla).ok
        assert entered.count(rc.chi.node) == 2

    def test_restricting_kappa_creates_no_node(self, monkeypatch):
        # z4 has one constant line, kappa = level 0, above every other
        rc, chi0, walked, created = self._restrict_kappa(monkeypatch, "z4")
        assert rc.kappa == [0]
        assert (walked, created) == ([rc.chi.node], 0)
        assert chi0 == rc.manager.node_branches(rc.chi)[0]

    def test_restrict_stops_below_the_deepest_fixed_level(self, monkeypatch):
        # r14c8's eight kappa levels interleave with the outputs: only
        # nodes at or above the last kappa level are walked
        rc, _, walked, created = self._restrict_kappa(monkeypatch, "r14c8")
        manager, deepest = rc.manager, max(rc.kappa)
        above = [
            u
            for u in reachable(manager, rc.chi.node)
            if manager._nodes[u][0] <= deepest
        ]
        assert created <= len(walked) <= len(above) < rc.node_count() // 100

    def test_verify_drops_the_build_entries(self):
        # r20c40's Bennett build leaves 56,449 computed-table entries; held
        # through verify, its traced memory grew 2.69 MB past the start
        pla = parse_pla((CORPUS / "r20c40.pla").read_text())
        tracemalloc.start()
        try:
            rc = embed_bennett(pla)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rep = verify(rc, pla)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok
        assert peak - start < 2**20

    @pytest.mark.parametrize("name, bennett", [("z4", False), ("r12c20", True)])
    def test_repeated_verify_keeps_its_verdicts(self, name, bennett):
        # each call empties the table the one before it filled; a relation
        # with an input cube cut out reads not total, before and after
        pla = parse_pla((CORPUS / (name + ".pla")).read_text())
        rc = embed_bennett(pla) if bennett else embed_exact(dsop(complete_offset(pla)))
        cut = rc.manager.cube({x: 0 for x in rc.xs[:2]})
        variant = dataclasses.replace(rc, chi=rc.chi & ~cut)
        first = [verify(rc, pla), verify(variant, pla)]
        assert first[0].ok and not first[1].total
        assert [verify(rc, pla), verify(rc, pla), verify(variant, pla)] == [
            first[0],
            first[0],
            first[1],
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3))
    def test_matches_brute_force(self, seed, n, m):
        pla = random_pla(random.Random(seed), n, m, 6)
        for rc in (
            embed_exact(dsop(complete_offset(pla))),
            embed_exact(dsop(pla)),
            embed_bennett(pla),
        ):
            assert verify(rc, pla).to_dict() == brute_verify(rc, pla).to_dict()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3))
    def test_false_verdicts_match_brute_force(self, seed, n, m):
        # chi as built, with one full cube OR-ed in and with one input cube
        # cut out, checked against its own PLA and against another one
        rng = random.Random(seed)
        pla = random_pla(rng, n, m, 6)
        other = random_pla(rng, n, m, 6)
        for rc in (embed_bennett(pla), embed_exact(dsop(pla))):
            manager = rc.manager
            full = manager.cube({v: rng.randint(0, 1) for v in range(2 * rc.r)})
            cut = manager.cube({v: rng.randint(0, 1) for v in rc.xs})
            for chi in (rc.chi, rc.chi | full, rc.chi & ~cut):
                variant = dataclasses.replace(rc, chi=chi)
                for source in (pla, other):
                    assert (
                        verify(variant, source).to_dict()
                        == brute_verify(variant, source).to_dict()
                    )


class TestBennett:
    def test_shape_and_flags(self, underapprox):
        rc = embed_bennett(underapprox)
        assert (rc.n, rc.m, rc.p, rc.ell, rc.r) == (5, 3, 3, 5, 8)
        assert not rc.partial
        rep = verify(rc, underapprox)
        assert rep.ok
        assert brute_verify(rc, underapprox).to_dict() == rep.to_dict()

    def test_relation_size_is_input_count(self, running):
        rc = embed_bennett(running)
        assert rc.manager.sat_count(rc.chi, 2 * rc.r) == 1 << rc.r

    def test_accepts_function_list(self):
        manager = Manager()
        vs = manager.add_vars(["u", "v", "w"])
        f = manager.var("u") ^ manager.var("v") ^ manager.var("w")
        rc = embed_bennett([f], n=3)
        assert (rc.n, rc.m, rc.r) == (3, 1, 4)
        rep = verify(rc, [f])
        assert rep.ok

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 4))
    def test_matches_and_all_reference(self, seed, n, m):
        # random_pla leaves points uncovered and rows with no outputs
        pla = random_pla(random.Random(seed), n, m, 8)
        rc = embed_bennett(pla)
        assert rc.chi == and_all_bennett_chi(rc, pla)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 3))
    def test_function_list_matches_and_all_reference(self, seed, n, extra):
        # n + extra inputs, the last extra of them outside every support
        pla = random_pla(random.Random(seed), n, 2, 6)
        manager = Manager()
        xs = manager.add_vars("x%d" % (i + 1) for i in range(n))
        funcs = to_functions(pla, manager, xs)
        rc = embed_bennett(funcs, n=n + extra)
        assert rc.n == n + extra
        assert rc.chi == and_all_bennett_chi(rc, funcs)

    @pytest.mark.parametrize(
        "make", [lambda: redundancy(4, 3), lambda: restricted_growth(6)]
    )
    def test_generated_families_match_and_all_reference(self, make):
        f = make()
        rc = embed_bennett([f], n=f.manager.var_count())
        assert rc.chi == and_all_bennett_chi(rc, [f])

    def test_wide_pair_creates_few_nodes(self):
        # a node count, not a timing: a balanced and_all over all m + n
        # terms creates 4.8 times dag_size(chi) here
        n = 400
        pla = parse_pla(two_cube_pla(n))
        rc = embed_bennett(pla)
        assert rc.manager.node_count() <= 1.1 * rc.node_count()

    def test_pointwise(self, and2):
        rc = embed_bennett(and2)
        truth = pla_truth(and2)
        # k y x1 g1 x2 g2 ordering: walk all inputs through eval
        for point in range(4):
            x = [(point >> i) & 1 for i in range(2)]
            env = {"k1": 0, "x1": x[0], "x2": x[1]}
            for y in (0, 1):
                for g1 in (0, 1):
                    for g2 in (0, 1):
                        env.update({"y1": y, "g1": g1, "g2": g2})
                        want = int(
                            y == (1 if truth[point] else 0)
                            and g1 == x[0]
                            and g2 == x[1]
                        )
                        assert rc.manager.eval(rc.chi, env) == want


class TestCompleteOffset:
    def test_appends_nothing_when_total(self, identity2):
        done = complete_offset(identity2)
        assert done.cube_count() == identity2.cube_count()

    def test_covers_domain(self, underapprox_dsop3):
        done = complete_offset(underapprox_dsop3)
        covered = set()
        for cube, _ in done.entries:
            covered |= cube_points(cube)
        assert covered == set(range(1 << done.n))
        assert done.dsop_certified

    def test_idempotent_and_keeps_certificate(self):
        base = parse_pla(".i 2\n.o 1\n11 1\n.e\n")
        once = complete_offset(dsop(base))
        assert once.dsop_certified
        assert once.cube_count() > 1
        twice = complete_offset(once)
        assert twice.entries == once.entries
        assert twice.dsop_certified


class TestExtendedPla:
    def test_rows_reproduce_relation(self, underapprox_dsop3):
        rc = embed_exact(underapprox_dsop3)
        text = to_extended_pla(rc)
        body = [
            line
            for line in text.splitlines()
            if line and not line.startswith((".", "#"))
        ]
        # expand rows to full relation points and compare with chi
        relation = set()
        for row in body:
            inp, outp = row.split()
            assert len(inp) == rc.p + rc.n
            assert len(outp) == rc.m + rc.ell
            spots = [
                (ch, pos)
                for ch, pos in zip(
                    inp + outp,
                    rc.kappa + rc.xs + rc.ys + rc.gammas,
                )
            ]
            fixed = [(pos, int(c)) for c, pos in spots if c != "-"]
            free = [pos for c, pos in spots if c == "-"]
            for combo in itertools.product((0, 1), repeat=len(free)):
                env = dict(fixed)
                env.update(zip(free, combo))
                relation.add(tuple(env[l] for l in sorted(env)))
        want = set()
        nlev = 2 * rc.r
        for point in range(1 << nlev):
            bits = [(point >> i) & 1 for i in range(nlev)]
            if rc.manager.eval(rc.chi, bits):
                want.add(tuple(bits))
        assert relation == want

    def test_row_cap(self, underapprox_dsop3, monkeypatch):
        rc = embed_exact(underapprox_dsop3)
        monkeypatch.setattr("revembed.embedding.MAX_DUMP_ROWS", 3)
        with pytest.raises(ResourceLimitError, match="exceeds 3 rows"):
            to_extended_pla(rc)

    def test_cell_cap(self, underapprox_dsop3, monkeypatch):
        # a dump may fill the cell budget exactly, but not pass it by one
        rc = embed_exact(underapprox_dsop3)
        text = to_extended_pla(rc)
        rows = [line for line in text.splitlines() if line.startswith(".p ")]
        cells = int(rows[0].split()[1]) * 2 * rc.r
        monkeypatch.setattr("revembed.embedding.MAX_DUMP_CELLS", cells)
        assert to_extended_pla(rc) == text
        monkeypatch.setattr("revembed.embedding.MAX_DUMP_CELLS", cells - 1)
        with pytest.raises(ResourceLimitError, match="exceeds %d cells" % (cells - 1)):
            to_extended_pla(rc)


class TestOrderingComparison:
    def test_shape_and_determinism(self):
        a = ordering_comparison(lines=4, samples=3, seed=7)
        b = ordering_comparison(lines=4, samples=3, seed=7)
        assert a == b
        assert len(a) == 3
        for i, rec in enumerate(a):
            assert rec["sample"] == i
            assert rec["lines"] == 4
            assert rec["interleaved_nodes"] >= 1
            assert rec["separated_nodes"] >= 1

    def test_seed_changes_functions(self):
        a = ordering_comparison(lines=4, samples=3, seed=7)
        c = ordering_comparison(lines=4, samples=3, seed=8)
        assert a != c

    def test_width_cap(self, monkeypatch):
        assert MAX_STUDY_LINES == 16
        with pytest.raises(ResourceLimitError, match="17 lines exceeds 16"):
            ordering_comparison(lines=17, samples=1)
        # the cap is read at call time and a study at the cap runs
        monkeypatch.setattr("revembed.embedding.MAX_STUDY_LINES", 3)
        assert len(ordering_comparison(lines=3, samples=1)) == 1
        with pytest.raises(ResourceLimitError):
            ordering_comparison(lines=4, samples=1)


class TestRoles:
    def test_role_partition(self, underapprox_dsop3):
        rc = embed_exact(underapprox_dsop3)
        # the four groups split the 2r levels between them
        assert sorted(rc.kappa + rc.xs + rc.ys + rc.gammas) == list(range(2 * rc.r))
        lengths = [len(rc.kappa), len(rc.xs), len(rc.ys), len(rc.gammas)]
        assert lengths == [rc.p, rc.n, rc.m, rc.ell]


class TestRandomized:
    def test_exact_embeddings_verify(self):
        rng = random.Random(777)
        for _ in range(15):
            pla = random_pla(rng, rng.randint(2, 5), rng.randint(1, 3), 6)
            prepared = dsop(complete_offset(dsop(pla)))
            rc = embed_exact(prepared)
            rep = verify(rc, pla)
            assert rep.ok, rep.to_dict()
            assert brute_verify(rc, pla).to_dict() == rep.to_dict()
