"""Graph constructors: orders, edge counts, chain/twin behavior, edge lists."""

import hashlib
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromsym import graphs
from chromsym.cli import main
from chromsym.families import FAMILIES
from chromsym.graphs import (
    Graph,
    chain,
    complete,
    conjoin,
    cycle,
    disjoint_union,
    format_edge_list,
    graph_from_edges,
    infinity,
    k_chain,
    kayak,
    kkp,
    kpc,
    kpk,
    kpkp,
    lollipop,
    melting_lollipop,
    parse_edge_list,
    path,
    pkp,
    rooted_complete,
    rooted_cycle,
    rooted_path,
    tadpole,
    tw_cycle,
    tw_lollipop,
    tw_path,
    twin,
)
from chromsym.symfunc import Memo
from conftest import GENERAL_FORM_FAMILIES, count_hits


class TestElementary:
    def test_path(self):
        assert path(1).n_vertices == 1 and path(1).edge_count == 0
        assert path(4).edge_count == 3

    def test_cycle(self):
        g = cycle(3)
        assert g.n_vertices == 3 and g.edge_count == 3
        with pytest.raises(ValueError):
            cycle(2)

    def test_complete(self):
        assert complete(4).edge_count == 6
        assert complete(1).edge_count == 0

    def test_invariants(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            Graph(3, frozenset({(0, 3)}))
        with pytest.raises(ValueError):
            Graph(2, frozenset({(1, 0)}))  # unsorted pair

    def test_edges_must_be_a_frozenset(self):
        # a list would count a repeated pair twice, and neither a list nor a
        # set can be hashed, as the oracle's cache hashes graphs
        with pytest.raises(ValueError, match="edges must be a frozenset, got list"):
            Graph(3, [(0, 1), (0, 1)])
        with pytest.raises(ValueError, match="edges must be a frozenset, got set"):
            Graph(3, {(0, 1)})

    def test_every_public_graph_is_checked(self):
        # the rooted_* pieces the families glue skip the checks; every graph
        # a public name returns, pieces included, must pass every check of Graph
        def checked(g):
            return type(g.edges) is frozenset and g == Graph(g.n_vertices, frozenset(g.edges))
        for fam in FAMILIES.values():
            for params in fam.grid(10):
                assert checked(fam.build_graph(**params)), (fam.tag, params)
        for n in range(1, 10):
            graphs = [path(n), complete(n), rooted_path(n)[0], rooted_complete(n)[0]]
            if n >= 3:
                graphs += [cycle(n), rooted_cycle(n)[0]]
            assert all(checked(g) for g in graphs), n

    def test_rooted_pieces_refuse_what_their_graphs_refuse(self):
        for rooted, graph, n in ((rooted_path, path, 0), (rooted_complete, complete, 0),
                                 (rooted_cycle, cycle, 2)):
            with pytest.raises(ValueError) as want:
                graph(n)
            with pytest.raises(type(want.value), match=f"^{want.value}$"):
                rooted(n)


class TestChains:
    def test_chain_of_edges_is_path(self):
        assert chain(rooted_complete(2), rooted_complete(2)) == path(3)
        assert chain(rooted_complete(2), rooted_complete(2),
                     rooted_complete(2)) == path(4)

    def test_chain_order_formula(self):
        g = chain(rooted_complete(3), rooted_complete(3))
        assert g.n_vertices == 5 and g.edge_count == 6

    def test_k_chain(self):
        assert k_chain((2, 2, 2)) == path(4)
        assert k_chain((5,)) == complete(5)
        g = k_chain((3, 3))
        assert g.n_vertices == 5 and g.edge_count == 6
        with pytest.raises(ValueError):
            k_chain((3, 1))

    def test_conjoin_orders(self):
        # order is |G| + |H| + l - 1 in every case
        assert conjoin(rooted_cycle(3), rooted_cycle(3), 0).n_vertices == 5
        assert conjoin(rooted_complete(3), rooted_complete(3), 2).n_vertices == 7
        h = rooted_cycle(4)
        for l in range(4):
            assert conjoin(h, rooted_complete(1), l).n_vertices == 4 + l

    def test_lollipop(self):
        assert lollipop(4, 0) == complete(4)
        g = lollipop(3, 2)
        assert g.n_vertices == 5 and g.edge_count == 5
        with pytest.raises(ValueError):
            lollipop(1, 2)

    def test_melting_lollipop(self):
        # all center edges removed: clique remnant splits off
        g = melting_lollipop(3, 1, 2)
        assert g.n_vertices == 4 and g.edge_count == 2
        assert melting_lollipop(3, 1, 0) == lollipop(3, 1)
        with pytest.raises(ValueError):
            melting_lollipop(3, 1, 3)

    def test_family_orders(self):
        assert kpk(3, 4, 2).n_vertices == 3 + 4 + 2 - 1
        assert pkp(2, 3, 1).n_vertices == 2 + 3 + 1
        assert kkp(2, 3, 2).n_vertices == 2 + 3 + 2 - 1
        assert kpkp(3, 1, 4, 2).n_vertices == 3 + 1 + 4 + 2 - 1
        assert kpc(2, 1, 4).n_vertices == 2 + 1 + 4 - 1
        assert tadpole(5, 2).n_vertices == 7
        assert kayak(3, 4, 2).n_vertices == 3 + 4 + 2 - 1
        assert infinity(3, 4).n_vertices == 6

    def test_kpkp_reductions_as_graphs(self):
        assert kpkp(2, 0, 2, 0) == path(3)
        assert kpkp(3, 1, 2, 1) == lollipop(3, 3)
        assert kpkp(4, 2, 2, 0) == lollipop(4, 3)
        assert kpkp(3, 0, 4, 1) == kkp(3, 4, 1)
        assert kpkp(3, 2, 4, 0) == kpk(3, 4, 2)

    def test_kayak_zero_length_is_infinity(self):
        assert kayak(3, 3, 0) == infinity(3, 3)
        assert kayak(4, 5, 0) == infinity(4, 5)

    def test_disjoint_union(self):
        g = disjoint_union(complete(1), complete(1))
        assert g.n_vertices == 2 and g.edge_count == 0
        h = disjoint_union(complete(2), complete(3))
        assert h.n_vertices == 5 and h.edge_count == 4


def fresh(fam, params) -> Graph:
    """fam's graph at params built anew, with the memo of the general chains empty."""
    graphs._memo.clear()
    return fam.build_graph(**params)


@pytest.mark.usefixtures("fresh_memos")
class TestMemo:
    def test_stored_graphs_equal_fresh_ones(self):
        # the second pass is all hits, many on entries another family stored
        tuples = [(FAMILIES[tag], params) for tag in GENERAL_FORM_FAMILIES
                  for params in FAMILIES[tag].grid(9)]
        for fam, params in tuples:
            fam.build_graph(**params)
        stored = [fam.build_graph(**params) for fam, params in tuples]
        assert graphs._memo.held == sum(g.edge_count for g in graphs._memo.values()) > 0
        for (fam, params), got in zip(tuples, stored):
            want = fresh(fam, params)
            assert got == want and format_edge_list(got) == format_edge_list(want)
            assert got == Graph(got.n_vertices, frozenset(got.edges)), (fam.tag, params)

    def test_keyword_and_positional_calls_share_an_entry(self):
        g = kpkp(a=2, g=0, b=3, h=1)
        assert kkp(2, 3, 1) is g and kpkp(2, 0, 3, 1) is g
        assert list(graphs._memo) == [("kpkp", 2, 0, 3, 1)]

    def test_chains_do_not_collide(self):
        # K_3 + P_4 + K_3 is K_3 + P_4 + C_3, but K_3 + P_5 + K_3 is not K_3 + P_4 + C_4
        assert kpk(3, 3, 3) == kpc(3, 3, 3) and kpk(3, 3, 4) != kpc(3, 3, 4)
        assert set(graphs._memo) == {(form, 3, 3, c) for form in ("kpk", "kpc") for c in (3, 4)}

    def test_refused_calls_store_nothing(self, monkeypatch):
        for _ in range(2):
            with pytest.raises(ValueError, match="kayak needs a, b >= 3"):
                kayak(2, 3, 1)

        def broken(*pieces):
            raise ValueError("bad piece")
        monkeypatch.setattr(graphs, "chain", broken)
        for _ in range(2):
            with pytest.raises(ValueError, match="bad piece"):
                kayak(3, 3, 1)
        assert not graphs._memo and not graphs._memo.held

    def test_memo_clears_past_its_cap(self, monkeypatch):
        monkeypatch.setattr(graphs._memo, "cap", 100)
        fam = FAMILIES["kpkp"]
        sizes = []
        for params in [*fam.grid(9), *fam.grid(9)]:
            got = fam.build_graph(**params)
            sizes.append(len(graphs._memo))
            assert graphs._memo.held <= 100
            assert graphs._memo.held == sum(g.edge_count for g in graphs._memo.values())
        assert any(b < a for a, b in zip(sizes, sizes[1:]))
        for params in fam.grid(9):
            assert kpkp(**params) == fresh(fam, params)

    def test_verify_sweep_hits(self, capsys, monkeypatch):
        # 1088 of the sweep's 1349 graphs are built by a general chain, 474 stored
        hits = count_hits(graphs, monkeypatch)
        assert main(["verify", "--family", "all", "--max-n", "9"]) == 0
        assert (len(hits), sum(hits)) == (1088, 474)
        assert capsys.readouterr().out.endswith("1349 instances: 1303 passed, 0 failed, "
                                                "46 skipped\n")


def clique_on(lo: int, size: int) -> set:
    return {(lo + i, lo + j) for j in range(size) for i in range(j)}


def path_on(lo: int, length: int) -> set:
    """The path lo, lo + 1, ..., lo + length."""
    return {(lo + i, lo + i + 1) for i in range(length)}


def cycle_on(root: int, lo: int, size: int) -> set:
    """The cycle root, lo, lo + 1, ..., lo + size - 2, back to root."""
    ring = [root, *range(lo, lo + size - 1)]
    return {(min(u, v), max(u, v)) for u, v in zip(ring, ring[1:] + ring[:1])}


def twin_of(n: int, edges: set, v: int) -> tuple[int, set]:
    near = {b if a == v else a for a, b in edges if v in (a, b)}
    return n + 1, edges | {(u, n) for u in near | {v}}


def kpkp_edges(a, g, b, h):
    # K_a on 0..a-1, a path of g edges from a-1 to K_b, a path of h from K_b's end
    first = a - 1 + g
    last = first + b - 1
    return last + h + 1, clique_on(0, a) | path_on(a - 1, g) | clique_on(first, b) | path_on(last, h)


def kpc_edges(a, l, c):
    join = a - 1 + l
    return join + c, clique_on(0, a) | path_on(a - 1, l) | cycle_on(join, join + 1, c)


def kayak_edges(a, b, l):
    # C_a on 0..a-1, a path from 0 through a, ..., a+l-1, and C_b at its end
    trail = [0, *range(a, a + l)]
    return a + l + b - 1, (cycle_on(0, 1, a) | set(zip(trail, trail[1:]))
                           | cycle_on(trail[-1], a + l, b))


def kchain_edges(parts):
    lo, edges = 0, set()
    for p in parts:
        edges |= clique_on(lo, p)
        lo += p - 1
    return lo + 1, edges


def melting_edges(a, l, k):
    return a + l, clique_on(0, a) - {(j, a - 1) for j in range(k)} | path_on(a - 1, l)


# every family's graph as explicit vertex ranges, written apart from chain()
EDGE_LISTS = {
    "path": lambda n: (n, path_on(0, n - 1)),
    "cycle": lambda n: (n, cycle_on(0, 1, n)),
    "kchain": kchain_edges,
    "lollipop": lambda a, l: kpkp_edges(a, l, 1, 0),
    "melting-lollipop": melting_edges,
    "kpk": lambda a, b, l: kpkp_edges(a, l, b, 0),
    "kpk-b3": lambda a, l: kpkp_edges(a, l, 3, 0),
    "pkp": lambda g, a, h: kpkp_edges(1, g, a, h),
    "kkp": lambda a, b, h: kpkp_edges(a, 0, b, h),
    "kpc": kpc_edges,
    "tadpole": lambda c, l: kpc_edges(1, l, c),
    "kpkp": kpkp_edges,
    "kpkp-b3": lambda a, g, h: kpkp_edges(a, g, 3, h),
    "tw-path": lambda n, l: twin_of(n, path_on(0, n - 1), l - 1),
    "tw-cycle": lambda n: twin_of(n, cycle_on(0, 1, n), 0),
    "tw-lollipop": lambda a, l, h: twin_of(*kpkp_edges(a, l, 1, 0), a + l - 1 - h),
    "kayak": kayak_edges,
    "infinity": lambda a, b: kayak_edges(a, b, 0),
}


class TestPieces:
    """The rooted pieces are made once, shared by every chain, and bounded."""

    @pytest.fixture(autouse=True)
    def fresh_pieces(self, monkeypatch):
        monkeypatch.setattr(graphs, "_pieces", Memo(graphs._pieces.cap, graphs._pieces.size))

    def test_every_family_matches_an_edge_list(self):
        assert set(EDGE_LISTS) == set(FAMILIES)
        for tag, fam in FAMILIES.items():
            for params in fam.grid(9):
                n, edges = EDGE_LISTS[tag](**params)
                assert fam.build_graph(**params) == Graph(n, frozenset(edges)), (tag, params)

    @pytest.mark.usefixtures("fresh_memos")
    def test_pieces_are_shared_and_never_changed(self):
        made = [rooted_path(4), rooted_complete(4), rooted_cycle(4), rooted_path(1)]
        before = [(g.n_vertices, sorted(g.edges)) for g, _, _ in made]
        assert [path(4), complete(4), cycle(4), path(1)] == [g for g, _, _ in made]
        assert all(a is g for a, (g, _, _) in zip([path(4), complete(4), cycle(4)], made))
        chain(*made)
        kpkp(4, 3, 4, 3)
        kayak(4, 4, 3)
        k_chain((4, 4, 4))
        tw_path(4, 2)
        assert [(g.n_vertices, sorted(g.edges)) for g, _, _ in made] == before
        assert all(rooted(n)[0] is g for rooted, n, (g, _, _) in
                   zip((rooted_path, rooted_complete, rooted_cycle, rooted_path), (4, 4, 4, 1), made))
        assert graphs._pieces.held == sum(g.edge_count for g in graphs._pieces.values())
        assert graphs._pieces.held <= graphs._pieces.cap == graphs._memo.cap

    def test_chain_glues_at_left_root_zero_only(self):
        with pytest.raises(ValueError, match="left root 0, got left root 1"):
            chain(rooted_path(3), (path(3), 1, 2))

    def test_pieces_clear_past_their_cap(self, monkeypatch):
        monkeypatch.setattr(graphs._pieces, "cap", 10)
        sizes = []
        for n in [*range(1, 9), *range(1, 9)]:
            assert rooted_path(n)[0] == Graph(n, frozenset(path_on(0, n - 1)))
            assert graphs._pieces.held == sum(g.edge_count for g in graphs._pieces.values()) <= 10
            sizes.append(len(graphs._pieces))
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_piece_past_the_bound_is_not_held(self):
        # K_2000 has 1,999,000 edges, far past the bound: it is not kept
        small = rooted_path(5)[0]
        big = weakref.ref(rooted_complete(2000)[0])
        assert big() is None
        assert not graphs._pieces and not graphs._pieces.held
        assert rooted_path(5)[0] == small


class TestTwin:
    def test_small_twins(self):
        assert twin(complete(1), 0) == complete(2)
        assert twin(cycle(3), 0) == complete(4)

    def test_twin_middle_of_path_is_diamond(self):
        g = twin(path(3), 1)
        assert g.n_vertices == 4 and g.edge_count == 5
        missing = set()
        for u in range(4):
            for v in range(u + 1, 4):
                if (u, v) not in g.edges:
                    missing.add((u, v))
        assert missing == {(0, 2)}

    @given(st.integers(3, 7), st.data())
    def test_twin_edge_count(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        sub = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
        g = Graph(n, frozenset(sub))
        v = data.draw(st.integers(0, n - 1))
        assert twin(g, v).edge_count == g.edge_count + g.degree(v) + 1

    def test_tw_path(self):
        assert tw_path(3, 2) == twin(path(3), 1)
        with pytest.raises(ValueError):
            tw_path(3, 1)
        with pytest.raises(ValueError):
            tw_path(3, 3)

    def test_tw_cycle(self):
        assert tw_cycle(3) == complete(4)
        assert tw_cycle(5).n_vertices == 6

    def test_tw_lollipop(self):
        # trivial clique: twinning a path at distance h from its far end
        assert tw_lollipop(1, 4, 2) == tw_path(5, 3)
        g = tw_lollipop(3, 3, 1)
        assert g.n_vertices == 3 + 3 + 1
        with pytest.raises(ValueError):
            tw_lollipop(3, 3, 0)
        with pytest.raises(ValueError):
            tw_lollipop(3, 3, 3)


class TestEdgeList:
    def test_round_trip(self):
        for g in (path(1), cycle(5), kpkp(3, 1, 2, 2), tw_cycle(4)):
            assert parse_edge_list(format_edge_list(g)) == g

    def test_parse_triangle(self):
        g = parse_edge_list("3\n0 1\n1 2\n0 2\n")
        assert g == cycle(3)

    def test_parse_errors_name_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("x\n0 1\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("3\n0\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_edge_list("3\n0 1\n0 7\n")
        with pytest.raises(ValueError, match="empty"):
            parse_edge_list("\n\n")

    def test_rooted_helpers(self):
        # a piece is (graph, left root, right root); the roots may coincide
        assert rooted_path(1) == (path(1), 0, 0)
        assert rooted_path(4) == (path(4), 0, 3)
        assert rooted_complete(3) == (complete(3), 0, 2)
        assert rooted_cycle(5) == (cycle(5), 0, 0)
        assert chain(rooted_path(1), rooted_cycle(3), rooted_path(1)) == cycle(3)
        assert graph_from_edges(3, [(2, 1), (1, 2)]).edge_count == 1

    def test_family_labels_pinned(self):
        # the oracle breaks vertex-order ties by label and oracle --graph
        # files name vertices by label, so every family keeps its labels:
        # the first 16 hex digits of the sha256 of its grid(12) edge lists
        want = {
            "path": "94ac45cccf79ee67",
            "cycle": "b7e96106202f634b",
            "kchain": "f9c6295bcab12bba",
            "lollipop": "b60c6edb66b87f41",
            "melting-lollipop": "a4838fc8d937472f",
            "kpk": "23fc20f5ead7186f",
            "kpk-b3": "83b0ca2b1a5b2cc6",
            "pkp": "9eb0a20460aa62d7",
            "kkp": "f783cd55108fbaad",
            "kpc": "19a8bbe26ec5a8e2",
            "tadpole": "f058431f010c8ef0",
            "kpkp": "92b7d0c8c9d15df1",
            "kpkp-b3": "8988e4fc572d1768",
            "tw-path": "cf72a2d646f3dee2",
            "tw-cycle": "478ecd5cb06aecbc",
            "tw-lollipop": "686304b53be5aba3",
            "kayak": "a26ab020f47756c7",
            "infinity": "cd1e2bcf9b82c400",
        }
        for tag, fam in FAMILIES.items():
            h = hashlib.sha256()
            for params in fam.grid(12):
                h.update(format_edge_list(fam.build_graph(**params)).encode())
            assert h.hexdigest()[:16] == want[tag], tag
