"""Simple graphs and the rooted-chain constructors for every supported family.

Graphs are immutable: a vertex count and a frozenset of sorted edge pairs.
Composite families are built by gluing rooted pieces in a chain, identifying
the right root of each piece with the left root of the next.  Labeling is
deterministic: the first piece keeps its labels, each later piece maps its
left root onto the identified vertex and its remaining vertices, in
increasing order, onto fresh labels.  Equality of two constructed graphs is
therefore label equality, not isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import Composition


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n_vertices-1."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range or unsorted")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.n_vertices:
            raise ValueError(f"vertex {v} out of range")
        out = [b if a == v else a for a, b in self.edges if v in (a, b)]
        return sorted(out)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


def graph_from_edges(n_vertices: int, edges) -> Graph:
    """Build a Graph, normalizing each pair to (min, max) and deduplicating."""
    norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
    return Graph(n_vertices, norm)


@dataclass(frozen=True)
class RootedGraph:
    graph: Graph
    root: int

    def __post_init__(self):
        if not 0 <= self.root < self.graph.n_vertices:
            raise ValueError(f"root {self.root} out of range")


@dataclass(frozen=True)
class DoubleRootedGraph:
    graph: Graph
    root_u: int
    root_v: int

    def __post_init__(self):
        n = self.graph.n_vertices
        if not (0 <= self.root_u < n and 0 <= self.root_v < n):
            raise ValueError("root out of range")
        if self.root_u == self.root_v:
            raise ValueError("roots of a double-rooted graph must be distinct")


Piece = RootedGraph | DoubleRootedGraph


# ----------------------------------------------------------------------
# elementary graphs
# ----------------------------------------------------------------------

def path(n: int) -> Graph:
    """The path P_n on n vertices (n - 1 edges)."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return graph_from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """The cycle C_n; n >= 3 so the graph stays simple."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3 for a simple graph, got {n}")
    return graph_from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    if n < 1:
        raise ValueError(f"complete needs n >= 1, got {n}")
    return graph_from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def rooted_path(n: int) -> Piece:
    """P_n with its endpoints as roots (a single root when n == 1)."""
    g = path(n)
    return RootedGraph(g, 0) if n == 1 else DoubleRootedGraph(g, 0, n - 1)


def rooted_complete(n: int) -> Piece:
    """K_n rooted at 0 and n-1 (a single root when n == 1)."""
    g = complete(n)
    return RootedGraph(g, 0) if n == 1 else DoubleRootedGraph(g, 0, n - 1)


def rooted_cycle(n: int) -> RootedGraph:
    """C_n rooted at vertex 0."""
    return RootedGraph(cycle(n), 0)


# ----------------------------------------------------------------------
# gluing machinery
# ----------------------------------------------------------------------

def _ends(piece: Piece) -> tuple[Graph, int, int]:
    if isinstance(piece, DoubleRootedGraph):
        return piece.graph, piece.root_u, piece.root_v
    return piece.graph, piece.root, piece.root


def _glue(parts: list[tuple[Graph, int, int]]) -> Graph:
    g0, _, prev_v = parts[0]
    n = g0.n_vertices
    edges = set(g0.edges)
    prev_label = prev_v
    for g, u, v in parts[1:]:
        mapping: dict[int, int] = {}
        fresh = n
        for x in range(g.n_vertices):
            if x == u:
                mapping[x] = prev_label
            else:
                mapping[x] = fresh
                fresh += 1
        n = fresh
        for a, b in g.edges:
            ma, mb = mapping[a], mapping[b]
            edges.add((min(ma, mb), max(ma, mb)))
        prev_label = mapping[v]
    return Graph(n, frozenset(edges))


def chain(*pieces: Piece) -> Graph:
    """Glue rooted pieces left to right, identifying each right root with the next left root.

    The result has order sum(|G_i|) - (number of pieces - 1).
    """
    if not pieces:
        raise ValueError("chain needs at least one piece")
    return _glue([_ends(p) for p in pieces])


def conjoin(g: Piece, h: Piece, l: int) -> Graph:
    """Join the roots of g and h by a path of length l (l = 0 identifies them).

    For double-rooted pieces the right root of g and the left root of h are
    used.  The result has order |g| + |h| + l - 1.
    """
    if l < 0:
        raise ValueError(f"path length must be nonnegative, got {l}")
    if l == 0:
        return chain(g, h)
    return chain(g, rooted_path(l + 1), h)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    off = g.n_vertices
    edges = set(g.edges) | {(a + off, b + off) for a, b in h.edges}
    return Graph(g.n_vertices + h.n_vertices, frozenset(edges))


# ----------------------------------------------------------------------
# named families
# ----------------------------------------------------------------------

def k_chain(parts: Composition) -> Graph:
    """Chain of cliques K_{i_1} + ... + K_{i_l}; every part must be >= 2."""
    if not parts:
        raise ValueError("k_chain needs at least one part")
    if any(p < 2 for p in parts):
        raise ValueError(f"k_chain parts must all be >= 2, got {parts}")
    return chain(*(rooted_complete(p) for p in parts))


def _lollipop_base(a: int, l: int) -> Graph:
    # clique labels 0..a-1, center a-1, pendant path a-1, a, ..., a+l-1
    return chain(rooted_complete(a), rooted_path(l + 1)) if a >= 2 else path(l + 1)


def lollipop(a: int, l: int) -> Graph:
    """Clique K_a with a pendant path of length l at its center (vertex a-1)."""
    if a < 2:
        raise ValueError(f"lollipop needs a >= 2, got {a}")
    if l < 0:
        raise ValueError(f"lollipop needs l >= 0, got {l}")
    return _lollipop_base(a, l)


def melting_lollipop(a: int, l: int, k: int) -> Graph:
    """Lollipop with k clique edges at the center removed (lowest-index neighbors first)."""
    if a < 2:
        raise ValueError(f"melting lollipop needs a >= 2, got {a}")
    if l < 0:
        raise ValueError(f"melting lollipop needs l >= 0, got {l}")
    if not 0 <= k <= a - 1:
        raise ValueError(f"melting lollipop needs 0 <= k <= a-1, got k={k}")
    base = _lollipop_base(a, l)
    center = a - 1
    removed = {(j, center) for j in range(k)}
    return Graph(base.n_vertices, base.edges - removed)


def kpk(a: int, b: int, l: int) -> Graph:
    """Clique - path - clique chain K_a + P_{l+1} + K_b."""
    if a < 1 or b < 1 or l < 0:
        raise ValueError(f"kpk needs a, b >= 1 and l >= 0, got {(a, b, l)}")
    return chain(rooted_complete(a), rooted_path(l + 1), rooted_complete(b))


def pkp(g: int, a: int, h: int) -> Graph:
    """Path - clique - path chain P_{g+1} + K_a + P_{h+1}."""
    if g < 0 or h < 0 or a < 2:
        raise ValueError(f"pkp needs g, h >= 0 and a >= 2, got {(g, a, h)}")
    return chain(rooted_path(g + 1), rooted_complete(a), rooted_path(h + 1))


def kkp(a: int, b: int, h: int) -> Graph:
    """Clique - clique - path chain K_a + K_b + P_{h+1}."""
    if a < 1 or b < 2 or h < 0:
        raise ValueError(f"kkp needs a >= 1, b >= 2, h >= 0, got {(a, b, h)}")
    return chain(rooted_complete(a), rooted_complete(b), rooted_path(h + 1))


def kpkp(a: int, g: int, b: int, h: int) -> Graph:
    """Clique - path - clique - path chain K_a + P_{g+1} + K_b + P_{h+1}."""
    if a < 1 or b < 2 or g < 0 or h < 0:
        raise ValueError(
            f"kpkp needs a >= 1, b >= 2, g, h >= 0, got {(a, g, b, h)}")
    return chain(rooted_complete(a), rooted_path(g + 1),
                 rooted_complete(b), rooted_path(h + 1))


def kpc(a: int, l: int, c: int) -> Graph:
    """Clique joined to a cycle by a path: K_a + P_{l+1} + C_c."""
    if a < 1 or l < 0 or c < 3:
        raise ValueError(
            f"kpc needs a >= 1, l >= 0, c >= 3, got {(a, l, c)}")
    return chain(rooted_complete(a), rooted_path(l + 1), rooted_cycle(c))


def tadpole(c: int, l: int) -> Graph:
    """Cycle C_c with a pendant path of length l."""
    return kpc(1, l, c)


def kayak(a: int, b: int, l: int) -> Graph:
    """Kayak paddle: cycles C_a and C_b joined by a path of length l."""
    if a < 3 or b < 3 or l < 0:
        raise ValueError(
            f"kayak needs a, b >= 3 and l >= 0, got {(a, b, l)}")
    return chain(rooted_cycle(a), rooted_path(l + 1), rooted_cycle(b))


def infinity(a: int, b: int) -> Graph:
    """Two cycles sharing a vertex (the kayak paddle with path length 0)."""
    if a < 3 or b < 3:
        raise ValueError(f"infinity needs a, b >= 3, got {(a, b)}")
    return kayak(a, b, 0)


# ----------------------------------------------------------------------
# twin operation and twinned families
# ----------------------------------------------------------------------

def twin(g: Graph, v: int) -> Graph:
    """Add a vertex adjacent to v and to every neighbor of v."""
    if not 0 <= v < g.n_vertices:
        raise ValueError(f"vertex {v} out of range")
    new = g.n_vertices
    added = {(v, new)} | {(u, new) for u in g.neighbors(v)}
    out = Graph(new + 1, g.edges | added)
    if out.edge_count != g.edge_count + g.degree(v) + 1:
        raise AssertionError(
            f"twin of vertex {v} has {out.edge_count} edges, expected "
            f"{g.edge_count + g.degree(v) + 1}")
    return out


def tw_path(n: int, l: int) -> Graph:
    """Path P_n = v_1 ... v_n twinned at the interior vertex v_l (2 <= l <= n-1)."""
    if n < 3 or not 2 <= l <= n - 1:
        raise ValueError(f"tw_path needs n >= 3 and 2 <= l <= n-1, got {(n, l)}")
    return twin(path(n), l - 1)


def tw_cycle(n: int) -> Graph:
    """Cycle C_n twinned at a vertex."""
    if n < 3:
        raise ValueError(f"tw_cycle needs n >= 3, got {n}")
    return twin(cycle(n), 0)


def tw_lollipop(a: int, l: int, h: int) -> Graph:
    """Lollipop K_a^l twinned at the path vertex at distance h from the leaf.

    Requires 1 <= h <= l-1 so the twinned vertex is interior to the path.
    """
    if a < 1 or l < 2 or not 1 <= h <= l - 1:
        raise ValueError(
            f"tw_lollipop needs a >= 1, l >= 2, 1 <= h <= l-1, got {(a, l, h)}")
    base = _lollipop_base(a, l)
    leaf = a + l - 1
    return twin(base, leaf - h)


# ----------------------------------------------------------------------
# edge-list text format
# ----------------------------------------------------------------------

def format_edge_list(g: Graph) -> str:
    """First line the vertex count, then one '<u> <v>' line per edge, 0-indexed."""
    lines = [str(g.n_vertices)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Inverse of :func:`format_edge_list`; raises ValueError naming the bad line."""
    rows = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    rows = [(no, line) for no, line in rows if line]
    if not rows:
        raise ValueError("empty edge-list file")
    no, head = rows[0]
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"line {no}: expected vertex count, got {head!r}") from None
    edges = []
    for no, line in rows[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {no}: expected 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {no}: non-integer vertex in {line!r}") from None
        if u == v:
            raise ValueError(f"line {no}: loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {no}: vertex out of range in {line!r}")
        edges.append((u, v))
    return graph_from_edges(n, edges)
