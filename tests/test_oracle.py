"""Brute-force oracle: frozen values, structural invariants, assemblies."""

import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chromsym import oracle
from chromsym.families import FAMILIES, run_verification
from chromsym.formulas import x_cycle, x_infinity, x_kayak, x_path
from chromsym.graphs import (
    Graph,
    complete,
    conjoin,
    cycle,
    disjoint_union,
    graph_from_edges,
    infinity,
    kayak,
    kpc,
    kpk,
    kpkp,
    lollipop,
    melting_lollipop,
    path,
    rooted_complete,
    rooted_cycle,
    rooted_path,
    tadpole,
    tw_cycle,
    tw_path,
)
from chromsym.oracle import EdgeBudgetError, csf_bruteforce
from chromsym.symfunc import ESymFunc, e_term, one, p_to_e
from reference_oracle import (
    count_proper_colorings,
    p_subset_sum,
    triple_deletion_check,
    x_tw_cycle_rec,
    x_tw_path_rec,
    x_via_cpg,
    x_via_kpg,
)


def random_graph(rng: random.Random, max_n: int = 6) -> Graph:
    n = rng.randint(1, max_n)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.45}
    return Graph(n, frozenset(edges))


class TestBruteForce:
    def test_single_vertex(self):
        assert csf_bruteforce(complete(1)) == e_term((1,))

    def test_complete_graphs(self):
        assert csf_bruteforce(complete(4)) == e_term((4,), 24)

    def test_path3(self):
        assert csf_bruteforce(path(3)) == e_term((3,), 3) + e_term((2, 1))

    def test_budget_error_names_limit(self):
        with pytest.raises(EdgeBudgetError, match="28 edges.*24"):
            csf_bruteforce(complete(8))
        # explicit override admits the same graph
        assert csf_bruteforce(complete(8), 28) == e_term((8,), math.factorial(8))

    def test_degree_matches_order(self):
        rng = random.Random(1)
        for _ in range(25):
            g = random_graph(rng)
            assert csf_bruteforce(g).degree == g.n_vertices

    def test_integrality(self):
        rng = random.Random(2)
        for _ in range(25):
            assert csf_bruteforce(random_graph(rng)).is_integral()
        x = csf_bruteforce(kayak(3, 4, 2))
        assert all(type(c) is int for c in x.terms.values())

    def test_multiplicative_over_disjoint_union(self):
        rng = random.Random(3)
        for _ in range(20):
            g, h = random_graph(rng, 4), random_graph(rng, 4)
            assert (csf_bruteforce(disjoint_union(g, h))
                    == csf_bruteforce(g) * csf_bruteforce(h))

    def test_chromatic_polynomial_consistency(self):
        rng = random.Random(4)
        for _ in range(12):
            g = random_graph(rng, 5)
            x = csf_bruteforce(g)
            for m in range(1, 5):
                assert x.evaluate_at([1] * m) == count_proper_colorings(g, m)

    def test_cached_results_are_read_only(self):
        # csf_bruteforce and p_to_e hand one cached value to every caller
        want_path, want_p2 = csf_bruteforce(path(3)).to_text(), p_to_e(2).to_text()
        with pytest.raises(TypeError):
            csf_bruteforce(path(3)).terms[(3,)] = 999
        with pytest.raises(TypeError):
            del p_to_e(2).terms[(2,)]
        assert csf_bruteforce(path(3)).to_text() == want_path
        assert p_to_e(2).to_text() == want_p2
        assert csf_bruteforce(path(4)).is_e_positive()

    def test_cache_is_bounded(self):
        pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        graphs = [Graph(5, frozenset(e for i, e in enumerate(pairs) if mask >> i & 1))
                  for mask in range(1 << len(pairs))] + [Graph(6, frozenset())]
        assert len(set(graphs)) == 1025
        for g in graphs:
            csf_bruteforce(g)
        assert csf_bruteforce.cache_info().currsize <= 1024

    def test_imports_no_closed_form_machinery(self):
        # The oracle is trusted because it shares nothing with the closed
        # forms: any import of it, at module level or inside a function,
        # may reach only the graphs and symfunc modules of the package.
        found = set()
        for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[1] for alias in node.names
                          if alias.name.startswith("chromsym.")}
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                if not node.level:
                    if parts[0] != "chromsym":
                        continue
                    parts = parts[1:]
                found |= {parts[0]} if parts and parts[0] else {
                    alias.name for alias in node.names}
        assert found == {"graphs", "symfunc"}, found

    def test_one_newton_path(self):
        # the block sum carries its sums through symfunc.p_sum_to_e, the one
        # Newton implementation
        names = set()
        for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert "p_sum_to_e" in names

    def test_refuses_large_components_before_any_work(self, monkeypatch):
        # K_{1,300} is past the 8-bit digit of packed keys; the twin-class
        # walk alone would run for minutes before the sizes reached 256
        def no_block_sum(by_size):
            raise AssertionError("the block sum ran")

        monkeypatch.setattr(oracle, "p_sum_to_e", no_block_sum)
        clear_shared_memo()
        star = Graph(301, frozenset((0, v) for v in range(1, 301)))
        with pytest.raises(ValueError, match="order 301 .*up to 255"):
            csf_bruteforce(star, 400)
        assert not oracle._shared
        # only components count: 150 disjoint edges are admitted
        monkeypatch.undo()
        matching = Graph(300, frozenset((2 * v, 2 * v + 1) for v in range(150)))
        assert csf_bruteforce(matching, 150) == e_term((2,) * 150, 2 ** 150)

    def test_path_30_matches_closed_form(self):
        # p_s is never expanded, so a 30-vertex path costs a fraction of a
        # second where expanding p_30 alone built 5604 terms
        clear_shared_memo()
        assert graph_x(path(30)) == x_path(30)

    def test_matches_literal_subset_sum(self):
        # the connected-block sum against the edge-subset sum it groups
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 6)
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            check_literal(n, [e for e in pool if rng.random() < 0.6])
        # relabelled trees and rings, where the blocks are paths and arcs
        for n in (10, 11, 12):
            label = list(range(n))
            rng.shuffle(label)
            check_literal(n, [(label[rng.randrange(v)], label[v]) for v in range(1, n)])
            check_literal(n, [(label[v], label[(v + 1) % n]) for v in range(n)])
        # a dense core; and a core with removable independent sets of two
        # vertices
        check_literal(6, complete(6).edges)
        check_literal(10, [(v, (v + 1) % 10) for v in range(10)] + [(0, 5), (2, 7)])
        # relabelled, so that twin classes are scattered across the labels:
        # triangles joined by a path, whose blocks hold bridges; the
        # star K_{1,9}; K_{3,4}; K_{2,2,2}; K_6 with a pendant path of three
        # vertices; a clique class joined to an independent class; and a
        # twinned path
        for n, edges in ((7, kpk(3, 3, 2).edges),
                         (10, [(0, v) for v in range(1, 10)]),
                         (7, [(u, v) for u in range(3) for v in range(3, 7)]),
                         (6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                              if u // 2 != v // 2]),
                         (9, sorted(complete(6).edges) + [(5, 6), (6, 7), (7, 8)]),
                         (6, [(0, 1), (0, 2), (1, 2)]
                          + [(u, v) for u in range(3) for v in range(3, 6)]),
                         (7, tw_path(6, 2).edges)):
            label = list(range(n))
            rng.shuffle(label)
            check_literal(n, [(label[u], label[v]) for u, v in edges])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=4),
           st.integers(0, 63), st.randoms(use_true_random=False))
    def test_blowups_match_literal_subset_sum(self, classes, quotient, rng):
        # each vertex of a quotient graph on up to four vertices becomes a
        # clique or an independent set of up to three twins
        members, n = [], 0
        for size, _ in classes:
            members.append(range(n, n + size))
            n += size
        pairs = [(i, j) for i in range(len(classes)) for j in range(i + 1, len(classes))]
        edges = [(u, v) for bit, (i, j) in enumerate(pairs) if quotient >> bit & 1
                 for u in members[i] for v in members[j]]
        edges += [(u, v) for (_, clique), verts in zip(classes, members) if clique
                  for u in verts for v in verts if u < v]
        assume(n <= 8 and len(edges) <= 14)
        label = list(range(n))
        rng.shuffle(label)
        check_literal(n, [(label[u], label[v]) for u, v in edges])

    def test_isolated_vertices_fold_into_one_factor(self):
        # one e_1^m for all isolated vertices, not one product per vertex,
        # each of which sorted the ever longer keys anew
        assert csf_bruteforce(Graph(20000, frozenset())) == e_term((1,) * 20000)
        triangle = Graph(5003, frozenset({(0, 1), (0, 2), (1, 2)}))
        assert csf_bruteforce(triangle) == csf_bruteforce(complete(3)) * e_term((1,) * 5000)

    def test_star_chromatic_polynomial(self):
        # K_{1,19}: the centre takes one of k colours and each leaf another
        star = Graph(20, frozenset((0, v) for v in range(1, 20)))
        x = csf_bruteforce(star, 19)
        for k in (2, 3, 4):
            assert x.evaluate_at([1] * k) == k * (k - 1) ** 19


class TestSignedCount:
    """c(B) as a product over the pieces a block cuts from the biconnected
    components: closed forms for a bridge, an arc or the whole of a cycle, a
    clique, and a clique plus one vertex, the same split applied to a piece
    of any other component, and the independent-set sum for a 2-connected
    piece with no rule."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_cycles(self, n):
        clear_shared_memo()
        check_literal(n, cycle(n).edges)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cliques(self, n):
        clear_shared_memo()
        check_literal(n, complete(n).edges)

    @pytest.mark.parametrize("n, edges", [
        # two triangles sharing a vertex
        (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
        # two triangles joined through a vertex of degree 2
        (7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)]),
        (10, kayak(4, 5, 2).edges),
        # no cut vertex, neither cycle nor clique: K_3 plus a vertex joined to 2
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        # a theta graph, vertices 0 and 1 joined by paths of 2, 3 and 4
        # edges: no rule, so the independent-set sum
        (8, [(0, 2), (1, 2), (0, 3), (3, 4), (1, 4), (0, 5), (5, 6), (6, 7), (1, 7)]),
    ], ids=["bowtie", "triangles_via_degree_2", "kayak4_5_2", "k4_minus_edge", "theta"])
    def test_cut_vertices_and_two_connected_cores(self, n, edges):
        clear_shared_memo()
        check_literal(n, edges)

    @pytest.mark.parametrize("g", [
        # a cycle with a pendant path; a tree block takes its arcs
        tadpole(5, 3),
        # blocks holding the triangle meet the cycle in arcs and whole
        kpc(3, 1, 5),
        # K_5 less k edges at its attachment: a clique, then K_4 plus a vertex
        # joined to 3 and to 2 of it, then K_4 with a bridge
        *(melting_lollipop(5, 2, k) for k in range(4)),
        # K_4 less an edge: K_3 plus a vertex joined to 2
        tw_path(6, 3),
        # cliques joined by paths, with pendant paths at both ends
        kpkp(4, 2, 3, 2),
        # a twinned cycle's core has no rule: the independent-set sum
        tw_cycle(5),
    ], ids=["tadpole5_3", "kpc3_1_5", "melting5_2_0", "melting5_2_1", "melting5_2_2", "melting5_2_3",
            "tw_path6_3", "kpkp4_2_3_2", "tw_cycle5"])
    def test_piece_rules(self, g):
        clear_shared_memo()
        check_literal(g.n_vertices, g.edges)

    def test_every_connected_part_is_split(self):
        # the vertex order walks the isolated vertex 4 first, so the triangle
        # with a pendant edge is not the part of the lowest vertex
        clear_shared_memo()
        check_literal(5, [(0, 1), (0, 2), (0, 3), (2, 3)])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 6), st.randoms(use_true_random=False))
    def test_random_connected_graphs(self, n, extra, rng):
        # a random tree and up to 6 more edges: at most 14, for the literal sum
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        edges |= set(rng.sample(pairs, min(extra, len(pairs))))
        clear_shared_memo()
        check_literal(n, edges)

    @pytest.mark.parametrize("build, formula, args", [
        (cycle, x_cycle, (40,)),
        (infinity, x_infinity, (15, 15)),
        (kayak, x_kayak, (12, 12, 6)),
    ], ids=["cycle40", "infinity15_15", "kayak12_12_6"])
    def test_cycle_bearing_graphs_match_closed_form(self, build, formula, args):
        # past the edge budget; the independent-set sum over a 40-cycle has
        # over 10^8 leaves, where the closed form for a cycle is one step
        clear_shared_memo()
        assert graph_x(build(*args)) == formula(*args)


def literal_x(n: int, edges) -> ESymFunc:
    """X by the edge-subset sum, taken to the e-basis one p_lambda at a time."""
    want = ESymFunc({}, 0)
    for key, c in p_subset_sum(n, sorted(edges)).items():
        want = want + c * p_product(key)
    return want


def check_literal(n: int, edges) -> None:
    """The oracle's e-coefficients against the edge-subset sum."""
    edges = sorted({(min(e), max(e)) for e in edges})
    want = literal_x(n, edges)
    assert ESymFunc.from_packed(oracle._e_coefficients(n, edges), n) == want, (n, edges)


def clear_shared_memo() -> None:
    """Empty the memo of remainders that the oracle shares across calls."""
    oracle._shared.clear()


def graph_x(g: Graph) -> ESymFunc:
    """csf_bruteforce without its cache of whole graphs, so the block sum runs."""
    return csf_bruteforce.__wrapped__(g, g.edge_count)


def p_product(key: tuple[int, ...]) -> ESymFunc:
    """p_lambda as a product of ESymFunc expansions, one p_to_e per part."""
    out = one()
    for part in key:
        out = out * p_to_e(part)
    return out


class TestSharedMemo:
    """The memo of remainders keyed by induced subgraph, shared across calls."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_cold_and_warm_memo_match_literal_subset_sum(self, n, rng):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, min(len(pairs), rng.randint(0, 12)))
        clear_shared_memo()
        check_literal(n, edges)
        # warm the memo with graphs that share induced subgraphs with this
        # one and differ from it: one edge fewer, or one more, or others
        clear_shared_memo()
        for drop in edges:
            oracle._e_coefficients(n, [e for e in edges if e != drop])
        for add in pairs:
            if add not in edges:
                oracle._e_coefficients(n, sorted(edges + [add]))
        for _ in range(3):
            oracle._e_coefficients(n, rng.sample(pairs, min(len(pairs), 12)))
        check_literal(n, edges)

    @pytest.mark.parametrize("g, h", [
        (path(5), cycle(5)),
        (complete(4), cycle(4)),
        (Graph(4, frozenset({(0, 1), (2, 3)})), Graph(4, frozenset({(0, 1), (1, 2)}))),
        (kayak(3, 3, 1), lollipop(4, 2)),
    ])
    def test_same_order_graphs_keep_their_own_values(self, g, h):
        assert g.n_vertices == h.n_vertices and g.edges != h.edges
        want = {}
        for x in (g, h):
            clear_shared_memo()
            want[x] = graph_x(x)
        for first, second in ((g, h), (h, g)):
            clear_shared_memo()
            assert graph_x(first) == want[first]
            assert graph_x(second) == want[second]

    def test_stays_under_its_cap(self, monkeypatch):
        rng = random.Random(6)
        graphs = [random_graph(rng, 8) for _ in range(60)] + [cycle(9), kayak(3, 4, 2)]
        clear_shared_memo()
        want = [graph_x(g) for g in graphs]
        assert oracle._shared.held > 300
        monkeypatch.setattr(oracle._shared, "cap", 100)
        clear_shared_memo()
        for g, x in zip(graphs, want):
            assert graph_x(g) == x
            assert oracle._shared.held <= 100
            assert oracle._shared.held == sum(map(len, oracle._shared.values()))
        clear_shared_memo()

    def test_stores_packed_keys_and_no_zeros(self):
        clear_shared_memo()
        graph_x(cycle(12))
        values = list(oracle._shared.values())
        assert values
        for value in values:
            assert all(type(key) is int and c != 0 for key, c in value.items())
        assert oracle._shared.held == sum(map(len, values))

    def test_cycle_arcs_share_their_paths(self):
        # the arcs a cycle leaves are paths, so a cycle, which the vertex
        # order walks in its given labels, stores one shape per arc length,
        # where a memo per set of vertices holds 92 sets at order 15
        for n in (15, 40):
            clear_shared_memo()
            graph_x(cycle(n))
            assert len(oracle._shared) == n - 1

    def test_verify_sweep_shares_remainders(self):
        # a sweep at max-n 9 reaches 4232 sets of vertices left, but only
        # 380 distinct induced subgraphs
        clear_shared_memo()
        csf_bruteforce.cache_clear()
        for tag in FAMILIES:
            for rec in run_verification(tag, 9):
                assert rec.status != "fail", rec
        assert len(oracle._shared) < 600


class TestComponents:
    """A graph of at most 255 vertices is walked as it is, one component at a
    time; a larger one is split by union-find before any mask is built."""

    @pytest.mark.parametrize("n, edges", [
        # isolated vertices first and last
        (7, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]),
        # several components, labels out of order: a triangle, a path, an
        # edge and an isolated vertex, interleaved
        (10, [(0, 7), (4, 7), (0, 4), (5, 1), (1, 8), (8, 3), (2, 6)]),
        # a star, a 4-cycle and a twinned path, with shuffled labels
        (14, [(11, 0), (11, 5), (11, 9), (3, 12), (12, 1), (1, 8), (8, 3),
              (2, 10), (10, 13), (13, 6), (6, 4), (2, 7), (7, 10)]),
        # only isolated vertices, and no vertex at all
        (5, []),
        (0, []),
    ], ids=["isolated_ends", "interleaved", "shuffled", "edgeless", "empty"])
    def test_disconnected_graphs_match_literal_subset_sum(self, n, edges, monkeypatch):
        def no_union_find(*args):
            raise AssertionError("union-find ran on a graph of at most 255 vertices")
        monkeypatch.setattr(oracle, "_components", no_union_find)
        clear_shared_memo()
        g = graph_from_edges(n, edges)
        assert graph_x(g) == literal_x(n, g.edges)

    def test_empty_graph_takes_the_mask_walk(self):
        # the parametrized test above checks that no union-find runs for it
        assert oracle._vertex_order([]) == []
        assert oracle._e_coefficients(0, []) == {0: 1}
        assert csf_bruteforce(Graph(0, frozenset())) == one()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.randoms(use_true_random=False))
    def test_components_multiply(self, n, rng):
        # X of a disconnected graph is the product of X over its components,
        # each relabelled 0..m-1 and computed alone
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, frozenset(rng.sample(pairs, min(len(pairs), rng.randint(0, n)))))
        clear_shared_memo()
        got = graph_x(g)
        want, left = one(), set(range(n))
        while left:
            comp, todo = set(), [min(left)]
            while todo:
                u = todo.pop()
                if u not in comp:
                    comp.add(u)
                    todo += [b if a == u else a for a, b in g.edges if u in (a, b)]
            left -= comp
            index = {v: i for i, v in enumerate(sorted(comp))}
            part = graph_from_edges(len(comp), [(index[a], index[b]) for a, b in g.edges
                                                if a in comp])
            want = want * graph_x(part)
        assert got == want

    def test_each_component_is_walked_alone(self):
        # two interleaved copies of P_8 store the shapes of one P_8: no
        # remainder holds vertices of both
        clear_shared_memo()
        graph_x(path(8))
        alone = set(oracle._shared)
        clear_shared_memo()
        twice = graph_from_edges(16, [(2 * i + c, 2 * i + 2 + c) for i in range(7) for c in (0, 1)])
        assert graph_x(twice) == graph_x(path(8)) * graph_x(path(8))
        assert set(oracle._shared) == alone

    def test_connected_graph_goes_as_it_is(self, monkeypatch):
        # no relabelling and no copy of the edges: the graph's own frozenset
        seen = []
        walk = oracle._e_coefficients

        def spy(k, edges):
            seen.append((k, edges))
            return walk(k, edges)
        monkeypatch.setattr(oracle, "_e_coefficients", spy)
        g = kpkp(3, 2, 4, 1)
        assert graph_x(g) == graph_x(Graph(g.n_vertices, frozenset(sorted(g.edges))))
        assert seen[0][0] == g.n_vertices and seen[0][1] is g.edges

    def test_255_and_256_vertex_components(self, monkeypatch):
        # a connected star of 255 vertices is handed to the walk, which builds
        # the masks; one of 256 is refused before the walk is entered
        class Admitted(Exception):
            pass

        def admitted(k, edges):
            raise Admitted(k)
        monkeypatch.setattr(oracle, "_e_coefficients", admitted)
        with pytest.raises(Admitted, match="^255$"):
            graph_x(Graph(255, frozenset((0, v) for v in range(1, 255))))
        with pytest.raises(ValueError, match="order 256 .*up to 255"):
            graph_x(Graph(256, frozenset((0, v) for v in range(1, 256))))
        # past 255 vertices, components under the bound are split and multiplied
        monkeypatch.undo()
        clear_shared_memo()
        for n in (255, 256):
            assert graph_x(Graph(n, path(5).edges)) == graph_x(path(5)) * e_term((1,) * (n - 5))
        # only isolated vertices: one factor e_1^300
        assert graph_x(Graph(300, frozenset())) == e_term((1,) * 300)


class TestVertexOrder:
    """The order in which the block sum lays out its classes of twins."""

    @pytest.mark.parametrize("g, order", [
        # from the leaf, through the path into the clique
        (lollipop(4, 2), [5, 4, 3, 0, 1, 2]),
        # no leaf: from the end of the smaller clique, whose vertices 6 and
        # 7 are simplicial, of degree 2
        (kpk(4, 3, 2), [6, 7, 5, 4, 3, 0, 1, 2]),
        # no simplicial vertex: from the vertex of largest degree
        (Graph(7, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6), (3, 6)})),
         [3, 0, 1, 2, 4, 5, 6]),
        (cycle(5), [0, 1, 2, 3, 4]),
        # the leaf 4 before the triangle's vertices of degree 2
        (Graph(5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)})), [1, 0, 4, 2, 3]),
        # the isolated vertex, of degree 0, then each component from its
        # lowest vertex
        (Graph(7, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)})),
         [6, 0, 1, 2, 3, 4, 5]),
    ], ids=["lollipop4_2", "kpk4_3_2", "two_squares", "cycle5", "leaf_first", "disconnected"])
    def test_rule(self, g, order):
        assert oracle._vertex_order(neighbour_masks(g)) == order

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_relabelling_keeps_the_result(self, n, isolated, rng):
        # edges only among the first n - isolated vertices, at a density
        # that leaves many graphs disconnected
        density = rng.random()
        m = n - isolated
        g = Graph(n, frozenset((u, v) for u in range(m) for v in range(u + 1, m)
                               if rng.random() < density))
        label = list(range(n))
        rng.shuffle(label)
        h = graph_from_edges(n, [(label[u], label[v]) for u, v in g.edges])
        clear_shared_memo()
        want = graph_x(g)
        for x in (g, h):
            assert sorted(oracle._vertex_order(neighbour_masks(x))) == list(range(n))
            assert graph_x(x) == want
            clear_shared_memo()
            got = oracle._e_coefficients(n, sorted(x.edges))
            assert ESymFunc.from_packed(got, n) == want, (n, sorted(x.edges))

    @pytest.mark.parametrize("g, most", [
        # clique first, a cold call computed 344 and 728 shapes
        (lollipop(13, 27), 40),
        (melting_lollipop(20, 20, 5), 40),
        # from the end of K_3, not from the vertex of largest degree, which
        # leaves what a block takes of K_10 in every later set: 145 shapes
        (kpk(3, 10, 12), 43),
    ], ids=["lollipop13_27", "melting_lollipop20_20_5", "kpk3_10_12"])
    def test_clique_chains_walk_from_an_end(self, g, most):
        clear_shared_memo()
        graph_x(g)
        assert len(oracle._shared) <= most


def neighbour_masks(g: Graph) -> list[int]:
    nbrs = [0] * g.n_vertices
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return nbrs


class TestTripleDeletion:
    def test_empty_graph(self):
        assert triple_deletion_check(Graph(3, frozenset()), (0, 1, 2)) == (True, True)

    def test_path5_with_stable_triple(self):
        g = path(5)
        assert triple_deletion_check(g, (0, 2, 4)) == (True, True)

    def test_rejects_non_stable(self):
        with pytest.raises(ValueError):
            triple_deletion_check(path(3), (0, 1, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 7), st.randoms(use_true_random=False))
    def test_randomized(self, n, rng):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = {e for e in pairs if rng.random() < 0.4}
        t = tuple(sorted(rng.sample(range(n), 3)))
        forbidden = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
        g = Graph(n, frozenset(edges - forbidden))
        assert triple_deletion_check(g, t) == (True, True)


class TestAssemblies:
    def test_kpg_edge_case(self):
        assert x_via_kpg(0, 2, rooted_complete(1)) == e_term((2,), 2)

    def test_kpg_matches_lollipop(self):
        assert x_via_kpg(2, 3, rooted_complete(1)) == csf_bruteforce(lollipop(3, 2))

    def test_cpg_matches_kayak(self):
        assert x_via_cpg(1, 3, rooted_cycle(3)) == csf_bruteforce(kayak(3, 3, 1))

    def test_kpg_general_h(self):
        h = rooted_path(3)
        for a in (2, 3):
            for l in (0, 1, 2):
                want = csf_bruteforce(conjoin(rooted_complete(a), h, l))
                assert x_via_kpg(l, a, h) == want

    def test_cpg_general_h(self):
        h = rooted_complete(3)
        for a in (3, 4):
            for l in (0, 1):
                want = csf_bruteforce(conjoin(rooted_cycle(a), h, l))
                assert x_via_cpg(l, a, h) == want


class TestTwinRecurrences:
    def test_tw_cycle_rec_frozen(self):
        assert x_tw_cycle_rec(3) == e_term((4,), 24)
        want = e_term((5,), 50) + e_term((4, 1), 6) + e_term((3, 2), 4)
        assert x_tw_cycle_rec(4) == want

    def test_tw_path_rec_vs_bruteforce(self):
        assert x_tw_path_rec(3, 2) == csf_bruteforce(tw_path(3, 2))
        assert x_tw_path_rec(5, 3) == csf_bruteforce(tw_path(5, 3))
