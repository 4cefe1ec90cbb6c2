import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from revembed import (
    DC,
    Cube,
    Manager,
    ResourceLimitError,
    brute_verify,
    complete_offset,
    cube_of,
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

from revembed.embedding import _embedding_manager, _entry_builder

from helpers import (
    and_all_bennett_chi,
    cube_points,
    hand_built_chi,
    inc,
    pla_truth,
    random_pla,
    two_cube_pla,
)


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


class TestCubeOf:
    def test_selects_pattern(self):
        manager = Manager()
        ys = manager.add_vars(["y1", "y2", "y3"])
        f = cube_of(frozenset({1, 3}), manager, ys)
        assert manager.eval(f, [1, 0, 1]) == 1
        assert manager.sat_count(f, 3) == 1


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
    dcs = cube.dc_positions()
    for i, d in enumerate(dcs):
        entry = entry & manager.var(xs[d]).xnor(word[i])
    for i in range(len(dcs), ell):
        entry = entry & ~word[i]
    return entry


@st.composite
def _entry_draws(draw):
    """(cube bits, p, m, outs, ell, offset) with offset + #on(cube) <= 2^ell."""
    n = draw(st.integers(1, 6))
    bits = tuple(draw(st.lists(st.sampled_from((0, 1, DC)), min_size=n, max_size=n)))
    dc_count = bits.count(DC)
    m = draw(st.integers(0, 2))
    outs = frozenset(draw(st.sets(st.integers(1, m))) if m else ())
    ell = draw(st.integers(dc_count, n + 2))
    offset = draw(st.integers(0, (1 << ell) - (1 << dc_count)))
    return bits, draw(st.integers(0, 2)), m, outs, ell, offset


class TestEntryBuilder:
    @settings(max_examples=300, deadline=None)
    @given(_entry_draws())
    # n > ell leaves x-only levels at the bottom, ell > n g-only levels
    @example(((1, DC, 0, DC, 1, 1), 0, 1, frozenset({1}), 3, 3))
    @example(((DC, DC), 1, 2, frozenset({2}), 5, 27))
    def test_matches_inc_chain(self, draw):
        bits, p, m, outs, ell, offset = draw
        cube = Cube(bits)
        manager, kappa, xs, ys, gammas = _embedding_manager(p, m, cube.n, ell)
        direct = _entry_builder(manager, kappa, xs, ys, gammas)(cube, outs, offset)
        chained = _chained_entry(manager, kappa, xs, ys, gammas, cube, outs, offset)
        assert direct == chained

    def test_drops_points_whose_word_would_wrap(self):
        # ranks 0..3 from offset 6 in 3 bits: 6 and 7 fit, 8 and 9 do not
        cube = Cube((DC, 1, DC))
        manager, kappa, xs, ys, gammas = _embedding_manager(1, 1, 3, 3)
        entry = _entry_builder(manager, kappa, xs, ys, gammas)(cube, frozenset({1}), 6)
        want = manager.false
        for rank, word in ((0, 6), (1, 7)):
            lits = {xs[0]: rank & 1, xs[1]: 1, xs[2]: rank >> 1, kappa[0]: 0, ys[0]: 1}
            lits.update({g: (word >> i) & 1 for i, g in enumerate(gammas)})
            want = want | manager.cube(lits)
        assert entry == want


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

    def test_row_cap(self, underapprox_dsop3):
        rc = embed_exact(underapprox_dsop3)
        with pytest.raises(ResourceLimitError):
            to_extended_pla(rc, max_rows=3)


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


class TestRoles:
    def test_role_partition(self, underapprox_dsop3):
        rc = embed_exact(underapprox_dsop3)
        roles = rc.roles()
        assert len(roles) == 2 * rc.r
        kinds = [kind for kind, _ in roles.values()]
        assert kinds.count("constant") == rc.p
        assert kinds.count("input") == rc.n
        assert kinds.count("output") == rc.m
        assert kinds.count("garbage") == rc.ell


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
