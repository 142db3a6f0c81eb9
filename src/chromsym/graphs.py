"""Simple graphs and the rooted-chain constructors for every supported family.

Graphs are immutable: a vertex count and a frozenset of sorted edge pairs.
A piece is a triple (graph, left root, right root); the roots coincide for a
cycle or a one-vertex piece.  Composite families are built by gluing pieces
in a chain, identifying the right root of each piece with the left root of
the next, which is vertex 0.  Labeling is deterministic: the first piece
keeps its labels, each later piece maps 0 onto the identified vertex and each
other vertex x onto x plus the order so far, less one.  Equality of two
constructed graphs is therefore label equality, not isomorphism.

A one-vertex piece adds no vertex, so lollipops, KKP and PKP chains, the
b = 3 chains, tadpoles and infinity graphs check their own parameters and
are then built, with the same labels, as the KPK, KPKP, KPC and kayak chains
they are special cases of (a lollipop is kpk(a, 1, l)).

Each glued family graph is checked once.  A :class:`Graph` checks its vertex
count and pairs when it is made, but the ``rooted_*`` pieces are trusted:
their pairs are sorted and in range by construction, so they skip both the
normalizing of :func:`graph_from_edges` and the checks, and only the graph
:func:`chain` glues from them is checked.  :func:`path`, :func:`cycle` and
:func:`complete` return the pieces' graphs, and the twin of a graph adds only
sorted pairs with the new vertex, so neither is checked.

The four general chains keep the graphs they glue, keyed like the general
expansions of :mod:`chromsym.formulas`: of the 1349 graphs of a verify sweep
at n <= 9, 474 are hits, which skip the gluing.  They and the ``rooted_*``
pieces are kept in two :class:`~chromsym.symfunc.Memo`: a call that raises
stores nothing, and each is emptied once it holds more than 2**14 edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .compositions import Composition, ParameterError
from .symfunc import Memo


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n_vertices-1."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not isinstance(self.edges, frozenset):
            raise ValueError(f"edges must be a frozenset, got {type(self.edges).__name__}")
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


# A verify sweep stores 6549 edges at max-n 9, about 120 bytes each, and 42761
# at max-n 13, where holding 2**14 keeps 379 of its 1468 hits.
_memo = Memo(1 << 14, lambda g: g.edge_count)
_pieces = Memo(_memo.cap, lambda g: g.edge_count)


Piece = tuple[Graph, int, int]
"""A graph with a left and a right root, glued on by :func:`chain`; the roots may coincide."""


def _trusted(n_vertices: int, edges: frozenset[tuple[int, int]]) -> Graph:
    """A Graph of pairs sorted and in range by construction, made without the checks."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n_vertices", n_vertices)
    object.__setattr__(g, "edges", edges)
    return g


def _path_pairs(n: int) -> frozenset[tuple[int, int]]:
    return frozenset((i, i + 1) for i in range(n - 1))


def _cycle_pairs(n: int) -> frozenset[tuple[int, int]]:
    return _path_pairs(n) | {(0, n - 1)}


def _complete_pairs(n: int) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for j in range(n) for i in range(j))


# ----------------------------------------------------------------------
# elementary graphs, pieces and gluing
# ----------------------------------------------------------------------

def path(n: int) -> Graph:
    """The path P_n on n vertices (n - 1 edges)."""
    return rooted_path(n)[0]


def cycle(n: int) -> Graph:
    """The cycle C_n; n >= 3 so the graph stays simple."""
    return rooted_cycle(n)[0]


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    return rooted_complete(n)[0]


def _piece(pairs: Callable[[int], frozenset[tuple[int, int]]], n: int) -> Graph:
    """The trusted graph on pairs(n), made once and kept in the memo of pieces."""
    return _pieces.remember((pairs, n), lambda: _trusted(n, pairs(n)))


def rooted_path(n: int) -> Piece:
    """P_n with its endpoints as roots."""
    if n < 1:
        raise ParameterError(f"path needs n >= 1, got {n}")
    return _piece(_path_pairs, n), 0, n - 1


def rooted_complete(n: int) -> Piece:
    """K_n rooted at 0 and n-1."""
    if n < 1:
        raise ValueError(f"complete needs n >= 1, got {n}")
    return _piece(_complete_pairs, n), 0, n - 1


def rooted_cycle(n: int) -> Piece:
    """C_n with both roots at vertex 0."""
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3 for a simple graph, got {n}")
    return _piece(_cycle_pairs, n), 0, 0


def chain(*pieces: Piece) -> Graph:
    """Glue pieces left to right, identifying each right root with the next left root, 0.

    The result has order sum(|G_i|) - (number of pieces - 1), and is checked.
    """
    if not pieces:
        raise ValueError("chain needs at least one piece")
    first, _, joint = pieces[0]
    n, edges = first.n_vertices, set(first.edges)
    for g, u, v in pieces[1:]:
        if u:
            raise ValueError(f"chain glues pieces at left root 0, got left root {u}")
        # x > 0 takes x + off and 0 the joint, below them all, so pairs stay sorted
        off = n - 1
        edges.update((a + off, b + off) if a else (joint, b + off) for a, b in g.edges)
        joint = v + off if v else joint
        n = g.n_vertices + off
    return Graph(n, frozenset(edges))


def conjoin(g: Piece, h: Piece, l: int) -> Graph:
    """Join the right root of g to the left root of h by a path of length l >= 0.

    l = 0 identifies the two roots.  The result has order |g| + |h| + l - 1.
    """
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
        raise ParameterError("k_chain needs at least one part")
    if any(p < 2 for p in parts):
        raise ParameterError(f"k_chain parts must all be >= 2, got {parts}")
    return chain(*(rooted_complete(p) for p in parts))


def lollipop(a: int, l: int) -> Graph:
    """Clique K_a with a pendant path of length l at vertex a-1: kpk(a, 1, l)."""
    if a < 2:
        raise ParameterError(f"lollipop needs a >= 2, got {a}")
    if l < 0:
        raise ParameterError(f"lollipop needs l >= 0, got {l}")
    return kpk(a, 1, l)


def melting_lollipop(a: int, l: int, k: int) -> Graph:
    """Lollipop with k clique edges at the center removed (lowest-index neighbors first).

    The center is the clique's right root a - 1, so this is kpk(a, 1, l) glued
    from a clique piece that lacks those edges.
    """
    if a < 2:
        raise ParameterError(f"melting lollipop needs a >= 2, got {a}")
    if l < 0:
        raise ParameterError(f"melting lollipop needs l >= 0, got {l}")
    if not 0 <= k <= a - 1:
        raise ParameterError(f"melting lollipop needs 0 <= k <= a-1, got k={k}")
    melted = _complete_pairs(a) - {(j, a - 1) for j in range(k)}
    return chain((_trusted(a, melted), 0, a - 1), rooted_path(l + 1), rooted_complete(1))


def kpk(a: int, b: int, l: int) -> Graph:
    """Clique - path - clique chain K_a + P_{l+1} + K_b."""
    if a < 1 or b < 1 or l < 0:
        raise ParameterError(f"kpk needs a, b >= 1 and l >= 0, got {(a, b, l)}")
    return _memo.remember(("kpk", a, b, l), lambda: chain(
        rooted_complete(a), rooted_path(l + 1), rooted_complete(b)))


def kpk_b3(a: int, l: int) -> Graph:
    """K_a joined to a triangle by a path of length l: kpk(a, 3, l) with a >= 3."""
    if a < 3 or l < 0:
        raise ParameterError(f"kpk_b3 needs a >= 3 and l >= 0, got {(a, l)}")
    return kpk(a, 3, l)


def pkp(g: int, a: int, h: int) -> Graph:
    """Path - clique - path chain P_{g+1} + K_a + P_{h+1}: kpkp(1, g, a, h)."""
    if g < 0 or h < 0 or a < 2:
        raise ParameterError(f"pkp needs g, h >= 0 and a >= 2, got {(g, a, h)}")
    return kpkp(1, g, a, h)


def kkp(a: int, b: int, h: int) -> Graph:
    """Clique - clique - path chain K_a + K_b + P_{h+1}: kpkp(a, 0, b, h)."""
    if a < 1 or b < 2 or h < 0:
        raise ParameterError(f"kkp needs a >= 1, b >= 2, h >= 0, got {(a, b, h)}")
    return kpkp(a, 0, b, h)


def kpkp(a: int, g: int, b: int, h: int) -> Graph:
    """Clique - path - clique - path chain K_a + P_{g+1} + K_b + P_{h+1}."""
    if a < 1 or b < 2 or g < 0 or h < 0:
        raise ParameterError(
            f"kpkp needs a >= 1, b >= 2, g, h >= 0, got {(a, g, b, h)}")
    return _memo.remember(("kpkp", a, g, b, h), lambda: chain(
        rooted_complete(a), rooted_path(g + 1), rooted_complete(b), rooted_path(h + 1)))


def kpkp_b3(a: int, g: int, h: int) -> Graph:
    """Chain K_a + P_{g+1} + K_3 + P_{h+1}: kpkp(a, g, 3, h)."""
    if a < 1 or g < 0 or h < 0:
        raise ParameterError(f"kpkp_b3 needs a >= 1 and g, h >= 0, got {(a, g, h)}")
    return kpkp(a, g, 3, h)


def kpc(a: int, l: int, c: int) -> Graph:
    """Clique joined to a cycle by a path: K_a + P_{l+1} + C_c."""
    if a < 1 or l < 0 or c < 3:
        raise ParameterError(
            f"kpc needs a >= 1, l >= 0, c >= 3, got {(a, l, c)}")
    return _memo.remember(("kpc", a, l, c), lambda: chain(
        rooted_complete(a), rooted_path(l + 1), rooted_cycle(c)))


def tadpole(c: int, l: int) -> Graph:
    """Cycle C_c with a pendant path of length l: kpc(1, l, c)."""
    if c < 3 or l < 0:
        raise ParameterError(f"tadpole needs c >= 3 and l >= 0, got {(c, l)}")
    return kpc(1, l, c)


def kayak(a: int, b: int, l: int) -> Graph:
    """Kayak paddle: cycles C_a and C_b joined by a path of length l."""
    if a < 3 or b < 3 or l < 0:
        raise ParameterError(
            f"kayak needs a, b >= 3 and l >= 0, got {(a, b, l)}")
    return _memo.remember(("kayak", a, b, l), lambda: chain(
        rooted_cycle(a), rooted_path(l + 1), rooted_cycle(b)))


def infinity(a: int, b: int) -> Graph:
    """Two cycles sharing a vertex (the kayak paddle with path length 0)."""
    if a < 3 or b < 3:
        raise ParameterError(f"infinity needs a, b >= 3, got {(a, b)}")
    return kayak(a, b, 0)


# ----------------------------------------------------------------------
# twin operation and twinned families
# ----------------------------------------------------------------------

def twin(g: Graph, v: int) -> Graph:
    """Add a vertex adjacent to v and to every neighbor of v.

    g was checked or trusted when it was made, and the pairs with the new
    vertex are sorted and in range, so the twin is not checked again.
    """
    if not 0 <= v < g.n_vertices:
        raise ValueError(f"vertex {v} out of range")
    new = g.n_vertices
    nbrs = g.neighbors(v)
    out = _trusted(new + 1, g.edges | {(v, new)} | {(u, new) for u in nbrs})
    if out.edge_count != g.edge_count + len(nbrs) + 1:
        raise AssertionError(
            f"twin of vertex {v} has {out.edge_count} edges, expected "
            f"{g.edge_count + len(nbrs) + 1}")
    return out


def tw_path(n: int, l: int) -> Graph:
    """Path P_n = v_1 ... v_n twinned at the interior vertex v_l (2 <= l <= n-1)."""
    if n < 3 or not 2 <= l <= n - 1:
        raise ParameterError(f"tw_path needs n >= 3 and 2 <= l <= n-1, got {(n, l)}")
    return twin(path(n), l - 1)


def tw_cycle(n: int) -> Graph:
    """Cycle C_n twinned at a vertex."""
    if n < 3:
        raise ParameterError(f"tw_cycle needs n >= 3, got {n}")
    return twin(cycle(n), 0)


def tw_lollipop(a: int, l: int, h: int) -> Graph:
    """Lollipop K_a^l twinned at the path vertex at distance h from the leaf.

    Requires 1 <= h <= l-1 so the twinned vertex is interior to the path.
    """
    if a < 1 or l < 2 or not 1 <= h <= l - 1:
        raise ParameterError(
            f"tw_lollipop needs a >= 1, l >= 2, 1 <= h <= l-1, got {(a, l, h)}")
    return twin(kpk(a, 1, l), a + l - 1 - h)


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
