import tracemalloc

import pytest

from revembed import embed_bennett, redundancy, restricted_growth, verify

from helpers import reference_redundancy

BELL = [1, 2, 5, 15, 52, 203, 877]


class TestRedundancy:
    @pytest.mark.parametrize("p,q,support", [(5, 5, 30), (6, 6, 42), (2, 3, 8)])
    def test_support_size(self, p, q, support):
        f = redundancy(p, q)
        assert f.support_size() == support
        assert f.manager.var_count() == support

    def test_semantics_small(self):
        # p=2, q=1: f = (x1 & y11) | (x2 & y21)
        f = redundancy(2, 1)
        mgr = f.manager
        assert mgr.sat_count(f, 4) == 7  # 16 - 3*3 falsifying assignments

    def test_single_cell(self):
        # p=1, q=1 collapses to x1 & y11
        f = redundancy(1, 1)
        assert f.manager.sat_count(f, 2) == 1

    def test_not_constant(self):
        f = redundancy(3, 3)
        assert not f.is_true
        assert not f.is_false

    def test_builds_few_nodes_beyond_the_result(self):
        f = redundancy(8, 8)
        assert f.manager.node_count() <= 2 * f.dag_size()

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_bad_shape(self, p, q):
        with pytest.raises(ValueError):
            redundancy(p, q)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 4), (4, 1), (3, 5), (8, 8)])
    def test_emptied_table_makes_the_same_nodes(self, p, q):
        # emptying the computed table between columns recomputes, never
        # renumbers: every node, and so every id, is the reference's
        f = redundancy(p, q)
        want = reference_redundancy(p, q)
        assert f.manager._nodes == want.manager._nodes
        assert f.node == want.node
        assert f.manager._memo == {}

    def test_build_holds_no_dead_entries(self):
        # p = q = 10 makes 78,569 nodes; a table kept across the columns
        # held 78,457 entries at the end and a 17.3 MB tracemalloc peak
        tracemalloc.start()
        try:
            redundancy(10, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20


class TestRestrictedGrowth:
    @pytest.mark.parametrize("p,support", [(1, 1), (5, 15), (10, 55)])
    def test_support_size(self, p, support):
        f = restricted_growth(p)
        assert f.support_size() == support

    @pytest.mark.parametrize("p", range(1, 8))
    def test_counts_partitions(self, p):
        f = restricted_growth(p)
        n = f.manager.var_count()
        assert f.manager.sat_count(f, n) == BELL[p - 1]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            restricted_growth(0)

    def test_bennett_embedding_of_small_instance(self):
        f = restricted_growth(4)
        n = f.manager.var_count()
        rc = embed_bennett([f], n=n)
        assert rc.r == n + 1
        rep = verify(rc, [f])
        assert rep.ok
