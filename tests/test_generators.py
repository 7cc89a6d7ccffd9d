import numpy as np
import pytest

import boxdim as bd


class TestSierpinski:
    def test_level0_is_4_clique(self):
        mod = bd.generate_sierpinski(0)
        g = mod.graph
        assert (g.node_count, g.edge_count) == (4, 6)
        assert bd.degrees(g).tolist() == [3, 3, 3, 3]

    def test_level1_counts(self):
        g = bd.generate_sierpinski(1).graph
        assert (g.node_count, g.edge_count) == (16, 36)

    def test_level2_counts(self):
        g = bd.generate_sierpinski(2).graph
        assert g.node_count == 64
        assert g.edge_count == 4 * 36 + 12

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_count_formulas(self, level):
        g = bd.generate_sierpinski(level).graph
        assert g.node_count == 4 ** (level + 1)
        m = 6
        for _ in range(level):
            m = 4 * m + 12
        assert g.edge_count == m

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_connected_and_simple(self, level):
        g = bd.generate_sierpinski(level).graph
        assert bd.largest_component(g) is g
        # from_edges already rejects self-loops/duplicates; re-check the pairs
        edges = g.edges
        assert (edges[:, 0] < edges[:, 1]).all()
        assert len(np.unique(edges, axis=0)) == g.edge_count

    def test_center_and_corners(self):
        mod = bd.generate_sierpinski(2)
        ids = {mod.center, *mod.corners}
        assert len(ids) == 4
        assert all(0 <= i < mod.graph.node_count for i in ids)

    def test_deterministic(self):
        a = bd.generate_sierpinski(3)
        b = bd.generate_sierpinski(3)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert (a.center, a.corners) == (b.center, b.corners)

    def test_level_above_cap(self):
        with pytest.raises(ValueError, match="level above cap"):
            bd.generate_sierpinski(bd.MAX_SIERPINSKI_LEVEL + 1)

    def test_negative_level(self):
        with pytest.raises(ValueError, match="non-negative"):
            bd.generate_sierpinski(-1)


class TestKarateClub:
    def test_counts(self, karate):
        assert (karate.node_count, karate.edge_count) == (34, 78)

    def test_connected(self, karate):
        assert bd.largest_component(karate) is karate

    def test_max_degree(self, karate):
        assert int(bd.degrees(karate).max()) == 17

    def test_handshake(self, karate):
        assert int(bd.degrees(karate).sum()) == 156

    def test_labels_are_member_numbers(self, karate):
        assert karate.node_labels[0] == "1"
        assert karate.node_labels[-1] == "34"
