"""Independent computations of chromatic symmetric functions.

The workhorse is :func:`csf_bruteforce`, which evaluates the edge-subset
inclusion-exclusion identity

    X_G = sum over S subseteq E of (-1)^|S| p_{lambda(S)},

where lambda(S) lists the component sizes of (V, S) (Stanley 1995, Thm 2.5),
exactly and per connected component, by one route: grouping the edge subsets
by the connected blocks they span gives

    X_G = sum over partitions of V into connected blocks B of
          prod c(B) p_|B|,

where c(B) is the signed count of the connected spanning subgraphs of G[B].
The partitions are walked top down, memoized on the set of vertices left, and
c(B) comes from peeling pendant vertices and a memoized sum over the
independent sets of the core that remains.  Nothing here touches composition
statistics or any closed-form evaluator, which keeps this module an
independent oracle for them.

The memo holds integer e-coefficients, so no p-keyed table is ever built:
at each set of vertices left, the signed e-coefficients of the remainders are
summed per block size s, and each size's sum is multiplied once by the int
coefficients of p_to_e(s) (Newton's identities), since p_{lambda + (s)} =
p_s p_lambda.  One ESymFunc is built per component, from those ints.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph
from .symfunc import ESymFunc, e_term, one, p_to_e

DEFAULT_EDGE_BUDGET = 24


class EdgeBudgetError(Exception):
    """Raised when a graph exceeds the brute-force edge budget."""

    def __init__(self, n_edges: int, limit: int):
        super().__init__(
            f"graph has {n_edges} edges, exceeding the brute-force budget of "
            f"{limit}; raise the limit explicitly to proceed")
        self.n_edges = n_edges
        self.limit = limit


def _components(n: int, edges) -> list[list[int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def _e_coefficients(k: int, edges: list[tuple[int, int]]) -> dict[tuple[int, ...], int]:
    """e-coefficients of X of the graph on vertices 0..k-1: the sum over its
    partitions into connected blocks B of prod c(B) p_|B|, taken top down."""
    adj = [0] * k
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    cores: dict[int, int] = {}
    memo: dict[int, dict[tuple[int, ...], int]] = {}

    def connected(mask: int) -> bool:
        seen = todo = mask & -mask
        while todo:
            low = todo & -todo
            new = adj[low.bit_length() - 1] & mask & ~seen
            seen |= new
            todo = (todo ^ low) | new
        return seen == mask

    def signed_count(block: int) -> int:
        """c(block) for a connected block, by pendant peeling and its core."""
        # a pendant edge lies in every connected spanning subgraph, so
        # removing its leaf flips the sign and keeps the count
        deg = [(a & block).bit_count() for a in adj]
        leaves = [u for u in range(k) if block >> u & 1 and deg[u] == 1]
        sign = 1
        while leaves:
            u = leaves.pop()
            if deg[u] != 1:
                continue  # the last vertex of a peeled-away tree
            block ^= 1 << u
            sign = -sign
            w = (adj[u] & block).bit_length() - 1
            deg[w] -= 1
            if deg[w] == 1:
                leaves.append(w)
        if block & (block - 1) == 0:
            return sign
        if block not in cores:
            # The signed sum over all edge subsets of the core is 0.  Grouped
            # by the component of the lowest vertex, it gives c(core) = -sum
            # of c(core - I) over the nonempty independent sets I avoiding
            # that vertex with core - I connected: other edges cancel.
            total = 0
            stack = [(0, block & (block - 1))]
            while stack:
                chosen, free = stack.pop()
                if not free:
                    if chosen and connected(block ^ chosen):
                        total += signed_count(block ^ chosen)
                    continue
                low = free & -free
                stack.append((chosen, free ^ low))
                stack.append((chosen | low, free & ~low & ~adj[low.bit_length() - 1]))
            cores[block] = -total
        return sign * cores[block]

    def blocks(rest: int):
        """Yield (block, edges inside, edges touching) for each connected block
        in rest holding its lowest vertex, once: every boundary vertex is taken
        or banned, and banning runs first, so the lowest vertex alone is first."""
        v = rest & -rest
        stack = [(v, 0, 0, adj[v.bit_length() - 1] & rest, 0)]
        while stack:
            block, inner, touching, frontier, banned = stack.pop()
            if not frontier:
                yield block, inner, touching
                continue
            low = frontier & -frontier
            grown = block | low
            near = adj[low.bit_length() - 1]
            stack.append((grown, inner + (near & block).bit_count(),
                          touching + (near & (block | banned)).bit_count(),
                          (frontier | near & rest) & ~grown & ~banned, banned))
            stack.append((block, inner, touching + (near & block).bit_count(),
                          frontier ^ low, banned | low))

    def rec(rest: int, n_edges: int) -> dict[tuple[int, ...], int]:
        if not n_edges:
            return {(1,) * rest.bit_count(): 1}  # p_1 = e_1
        if rest in memo:
            return memo[rest]
        # p_{lambda + (s,)} = p_s p_lambda, so the products over the blocks
        # of one size s are summed first and multiplied by p_to_e(s) once
        by_size: dict[int, dict[tuple[int, ...], int]] = {}
        for block, inner, touching in blocks(rest):
            size = block.bit_count()
            # a tree peels down to one vertex, flipping the sign per edge
            c = (-1) ** inner if inner == size - 1 else signed_count(block)
            acc = by_size.setdefault(size, {})
            for key, coef in rec(rest ^ block, n_edges - touching).items():
                acc[key] = acc.get(key, 0) + c * coef
        out: dict[tuple[int, ...], int] = {}
        for size, acc in by_size.items():
            factor = p_to_e(size).terms.items()
            for k1, c1 in acc.items():
                if c1:
                    for k2, c2 in factor:
                        nk = tuple(sorted(k1 + k2, reverse=True))
                        out[nk] = out.get(nk, 0) + c1 * c2
        memo[rest] = out
        return out

    return rec((1 << k) - 1, len(edges))


def _csf_component(verts: list[int], edges: list[tuple[int, int]]) -> ESymFunc:
    k = len(verts)
    if not edges:
        return e_term((1,))
    index = {v: i for i, v in enumerate(verts)}
    local = [(index[u], index[v]) for u, v in edges]
    return ESymFunc(_e_coefficients(k, local))


# A verify sweep at max-n 9 caches 371 distinct graphs, so 1024 entries keep
# every hit there while bounding the memory of long sessions.
@lru_cache(maxsize=1024)
def csf_bruteforce(g: Graph, max_edges: int = DEFAULT_EDGE_BUDGET) -> ESymFunc:
    """Exact chromatic symmetric function of g in the e-basis.

    Raises :class:`EdgeBudgetError` when g has more than max_edges edges.
    The result is always integral and homogeneous of degree |V(g)|.
    """
    if g.edge_count > max_edges:
        raise EdgeBudgetError(g.edge_count, max_edges)
    by_vertex: dict[int, list[tuple[int, int]]] = {}
    for u, v in g.edges:
        by_vertex.setdefault(u, []).append((u, v))
        by_vertex.setdefault(v, []).append((u, v))
    out = one()
    for comp in _components(g.n_vertices, g.edges):
        comp_edges = sorted({e for v in comp for e in by_vertex.get(v, ())})
        out = out * _csf_component(comp, comp_edges)
    return out
