import pytest

from revembed import embed_bennett, redundancy, restricted_growth, verify

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
