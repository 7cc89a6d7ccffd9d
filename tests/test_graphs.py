import io
import logging
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxdim as bd
from boxdim.graphs import EdgeListError

from conftest import bfs_components


class TestLoadEdgeList:
    def test_triangle(self):
        g = bd.load_edge_list("1 2\n2 3\n3 1\n")
        assert g.node_count == 3
        assert g.edge_count == 3

    def test_duplicates_and_self_loops_dropped(self, caplog):
        with caplog.at_level(logging.WARNING, logger="boxdim.graphs"):
            g = bd.load_edge_list("a b\na b\nb b\n")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert "1 duplicate" in caplog.text
        assert "1 self-loop" in caplog.text

    def test_labels_first_appearance_order(self):
        g = bd.load_edge_list("c a\nb c\n")
        assert g.node_labels == ("c", "a", "b")

    def test_comments_and_blank_lines_skipped(self):
        g = bd.load_edge_list("# header\n\n1 2\n  \n# trailer\n2 3\n")
        assert g.edge_count == 2

    @pytest.mark.parametrize(
        "text, refusal",
        [
            ("1 2\r\n2 3\r\n", None),
            ("1\t2\n2\t3\n", None),
            ("1 2 \n2 3\t \n", None),
            ("  # note\n1 2\n\t#note\n2 3\n", None),
            ("1 2 # note\n2 3\n", "line 1: expected 2 node labels, got 4"),
            # saved, "#b c" would read back as a comment line
            ("1 2\nx #b\nc #b\nc x\n", "line 2: label '#b' starts with '#'"),
        ],
        ids=[
            "crlf", "tabs", "trailing-whitespace", "indented-comment", "inline-comment",
            "hash-label",
        ],
    )
    def test_one_whitespace_format(self, text, refusal):
        # a stream keeps each line's "\r\n" or "\n", so the loader's own split sees it
        if refusal is not None:
            with pytest.raises(EdgeListError, match=f"^{refusal}$"):
                bd.load_edge_list(io.StringIO(text))
            return
        g = bd.load_edge_list(io.StringIO(text))
        assert g.node_labels == ("1", "2", "3")
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            bd.load_edge_list("1 2\n1 2 3\n")

    def test_single_token_line_rejected(self):
        with pytest.raises(EdgeListError, match="expected 2"):
            bd.load_edge_list("1\n")

    def test_empty_input(self):
        with pytest.raises(EdgeListError, match="no edges"):
            bd.load_edge_list("")

    def test_comment_only_input(self):
        with pytest.raises(EdgeListError, match="no edges"):
            bd.load_edge_list("# nothing here\n")

    def test_accepts_stream(self):
        g = bd.load_edge_list(io.StringIO("x y\ny z\n"))
        assert g.node_count == 3

    def test_karate_file_round_trip(self, tmp_path, karate):
        path = tmp_path / "karate.txt"
        bd.save_edge_list(karate, path)
        g = bd.read_edge_list(path)
        assert (g.node_count, g.edge_count) == (34, 78)

    @pytest.mark.parametrize("first", ["1 2", "# header\n1 2"], ids=["edge", "comment"])
    def test_byte_order_mark_skipped(self, tmp_path, first):
        path = tmp_path / "bom.txt"
        path.write_text(f"\ufeff{first}\n2 3\n3 1\n", encoding="utf-8")
        g = bd.read_edge_list(path)
        assert g.node_labels == ("1", "2", "3")
        assert g.edge_count == 3

    def test_round_trip_is_isomorphic(self):
        g = bd.load_edge_list("5 9\n9 2\n2 5\n2 7\n")
        buf = io.StringIO()
        bd.save_edge_list(g, buf)
        g2 = bd.load_edge_list(buf.getvalue())
        assert g2.edge_count == g.edge_count
        assert sorted(bd.degrees(g2)) == sorted(bd.degrees(g))


def set_dedupe(pairs):
    """A Python-set dedupe of label pairs: the labels in order of first
    appearance on a kept line, the kept edges as id pairs (u < v), and the
    counts of repeated edges and of self-loops dropped."""
    ids: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    duplicates = self_loops = 0
    for a, b in pairs:
        if a == b:
            self_loops += 1
            continue
        for tok in (a, b):
            if tok not in ids:
                ids[tok] = len(ids)
        edge = (min(ids[a], ids[b]), max(ids[a], ids[b]))
        if edge in seen:
            duplicates += 1
            continue
        seen.add(edge)
    return list(ids), seen, duplicates, self_loops


@pytest.mark.parametrize("seed", range(25))
def test_loader_matches_set_dedupe(seed, caplog):
    # a few distinct pairs over up to 12 labels, each written several times
    # in either orientation, with self-loops among them
    rng = np.random.default_rng(seed)
    labels = [f"n{k}" for k in rng.permutation(12)[: rng.integers(2, 13)]]
    distinct = rng.choice(labels, size=(int(rng.integers(1, 25)), 2))
    pairs = [tuple(p[::-1]) if rng.random() < 0.5 else tuple(p)
             for p in distinct[rng.integers(0, len(distinct), size=60)].tolist()]
    names, edges, duplicates, self_loops = set_dedupe(pairs)
    with caplog.at_level(logging.WARNING, logger="boxdim.graphs"):
        g = bd.load_edge_list("\n".join(f"{a} {b}" for a, b in pairs))
    nbrs: list[list[int]] = [[] for _ in names]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    assert g.node_labels == tuple(names)
    assert g.indptr.tolist() == [0, *accumulate(len(ns) for ns in nbrs)]
    assert g.indices.tolist() == [v for ns in nbrs for v in sorted(ns)]
    dropped = f"dropped {duplicates} duplicate edge(s) and {self_loops} self-loop(s)"
    assert [r.getMessage().startswith(dropped) for r in caplog.records] == (
        [True] if duplicates or self_loops else []
    )


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            bd.Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            bd.Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            bd.Graph.from_edges(2, [(0, 5)])

    @pytest.mark.parametrize(
        "node_count, labels, message",
        [(-1, None, "node_count must be non-negative"), (2, ["a"], "node_labels length")],
        ids=["negative-count", "short-labels"],
    )
    def test_rejects_bad_node_count_or_labels(self, node_count, labels, message):
        with pytest.raises(ValueError, match=message):
            bd.Graph.from_edges(node_count, [], node_labels=labels)

    def test_adjacency_matches_edges(self):
        g = bd.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.indptr.tolist() == [0, 1, 3, 5, 6]
        assert g.indices.tolist() == [1, 0, 2, 1, 3, 2]


class TestDegrees:
    def test_triangle(self):
        g = bd.load_edge_list("1 2\n2 3\n3 1\n")
        assert list(bd.degrees(g)) == [2, 2, 2]

    def test_star(self):
        g = bd.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert list(bd.degrees(g)) == [3, 1, 1, 1]

    def test_worked_example(self, example6):
        assert list(bd.degrees(example6)) == [2, 2, 3, 2, 2, 1]


class TestLargestComponent:
    def test_triangle_plus_isolated_edge(self):
        g = bd.load_edge_list("1 2\n2 3\n3 1\nx y\n")
        comp = bd.largest_component(g)
        assert comp.node_count == 3
        assert comp.edge_count == 3
        assert comp.node_labels == ("1", "2", "3")

    def test_connected_graph_is_identity(self, karate):
        assert bd.largest_component(karate) is karate

    def test_tie_break_smallest_node_id(self):
        g = bd.Graph.from_edges(4, [(0, 1), (2, 3)], ["a", "b", "c", "d"])
        comp = bd.largest_component(g)
        assert comp.node_labels == ("a", "b")

    def test_empty_graph(self):
        with pytest.raises(ValueError, match="empty graph"):
            bd.largest_component(bd.Graph.from_edges(0, []))

    def test_output_is_connected(self):
        g = bd.load_edge_list("1 2\n2 3\n4 5\n")
        comp = bd.largest_component(g)
        assert bd.largest_component(comp) is comp

    def test_discard_count_logged(self, caplog):
        g = bd.load_edge_list("1 2\n2 3\n3 1\nx y\n")
        with caplog.at_level(logging.WARNING, logger="boxdim.graphs"):
            bd.largest_component(g)
        assert "discarding 2" in caplog.text


edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)),
    min_size=1,
    max_size=40,
)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_handshake_identity(pairs):
    text = "\n".join(f"{u} {v}" for u, v in pairs)
    try:
        g = bd.load_edge_list(text)
    except EdgeListError:
        return  # only self-loops in input
    assert int(bd.degrees(g).sum()) == 2 * g.edge_count


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_reload_preserves_structure(pairs):
    text = "\n".join(f"{u} {v}" for u, v in pairs)
    try:
        g = bd.load_edge_list(text)
    except EdgeListError:
        return
    buf = io.StringIO()
    bd.save_edge_list(g, buf)
    g2 = bd.load_edge_list(buf.getvalue())
    assert g2.node_count == g.node_count
    assert g2.edge_count == g.edge_count
    assert sorted(bd.degrees(g2)) == sorted(bd.degrees(g))


@st.composite
def simple_edge_lists(draw):
    """(node count, distinct non-loop pairs in random order and orientation).

    At most 20 pairs over 1-15 nodes, so most graphs have several
    components, isolated edges and isolated nodes.
    """
    n = draw(st.integers(1, 15))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    pairs = draw(st.permutations(sorted({(min(a, b), max(a, b)) for a, b in raw if a != b})))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]


@given(simple_edge_lists())
@settings(max_examples=100, deadline=None)
def test_csr_matches_neighbour_lists(spec):
    n, pairs = spec
    g = bd.Graph.from_edges(n, pairs)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    nbrs = [sorted(ns) for ns in nbrs]
    assert g.indptr.tolist() == [0, *accumulate(len(ns) for ns in nbrs)]
    assert g.indices.tolist() == [v for ns in nbrs for v in ns]
    assert g.edges.tolist() == sorted([min(u, v), max(u, v)] for u, v in pairs)
    assert bd.degrees(g).tolist() == [len(ns) for ns in nbrs]
    assert g.edge_count == len(pairs)
    assert not g.indptr.flags.writeable and not g.indices.flags.writeable


@given(simple_edge_lists())
@settings(max_examples=100, deadline=None)
def test_largest_component_matches_bfs_oracle(spec):
    n, pairs = spec
    labels = [f"v{i}" for i in range(n)]
    comp = bd.largest_component(bd.Graph.from_edges(n, pairs, labels))
    keep = max(bfs_components(n, pairs), key=len)  # first maximum: smallest id
    new = {old: k for k, old in enumerate(keep)}
    kept = sorted(sorted([new[u], new[v]]) for u, v in pairs if u in new)
    assert comp.node_labels == tuple(labels[old] for old in keep)
    assert comp.edge_count == len(kept)
    assert comp.edges.tolist() == kept
