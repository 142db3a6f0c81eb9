"""Independent computations of chromatic symmetric functions.

The workhorse is :func:`csf_bruteforce`, which evaluates the edge-subset
inclusion-exclusion identity

    X_G = sum over S subseteq E of (-1)^|S| p_{lambda(S)},

where lambda(S) lists the component sizes of (V, S), and converts the result
to the e-basis through Newton's identities.  The sum is evaluated exactly but
factored per connected component: within a component either

* a vertex-subset dynamic program over signed connected-spanning-subgraph
  counts (the terms of the sum grouped by the component partition they
  induce), preferred for dense pieces, or
* a direct recursion over edge subsets with sign-reversing cancellation of
  cycle edges, preferred for sparse pieces with many vertices.  Its leaves
  are keyed by the vector of component-size counts, which becomes a
  partition once the recursion is done.

Both routes compute the identical sum; the choice is a cost heuristic only.
The recursion never touches composition statistics or any closed-form
evaluator, which keeps this module an independent oracle for them.

The integer p-coefficients go to the e-basis in one integer pass: the p-keys
are walked in sorted order over a stack of prefix products, so keys sharing
their first parts share those products, and each further part costs one
product with the int coefficients of p_to_e(part).  One ESymFunc is built
per component, from the summed ints.
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


def _vertex_dp(k: int, edges: list[tuple[int, int]]) -> dict[tuple[int, ...], int]:
    """p-basis coefficients for one component via the component-partition DP."""
    masks = 1 << k
    edge_masks = [(1 << u) | (1 << v) for u, v in edges]
    # edgeless[m] is true when the induced subgraph on m has no edge
    edgeless = bytearray([1]) * masks
    for em in edge_masks:
        rest = ((masks - 1) ^ em)
        sub = rest
        while True:
            edgeless[sub | em] = 0
            if sub == 0:
                break
            sub = (sub - 1) & rest
    # signed count of connected spanning subgraphs per vertex subset
    conn: dict[int, int] = {}
    for mask in range(1, masks):
        v0 = mask & -mask
        acc = 0
        sub = (mask - 1) & mask
        while sub:
            if sub & v0 and edgeless[mask ^ sub]:
                acc += conn.get(sub, 0)
            sub = (sub - 1) & mask
        val = (1 if edgeless[mask] else 0) - acc
        if val:
            conn[mask] = val
    # assemble set partitions, tracking component-size multisets
    table: list[dict[tuple[int, ...], int]] = [dict() for _ in range(masks)]
    table[0][()] = 1
    for mask in range(1, masks):
        v0 = mask & -mask
        here = table[mask]
        sub = mask
        while sub:
            if sub & v0:
                c = conn.get(sub)
                if c:
                    pc = sub.bit_count()
                    for key, coef in table[mask ^ sub].items():
                        nk = tuple(sorted(key + (pc,), reverse=True))
                        here[nk] = here.get(nk, 0) + c * coef
            sub = (sub - 1) & mask
    return table[masks - 1]


def _edge_subsets(k: int, edges: list[tuple[int, int]]) -> dict[tuple[int, ...], int]:
    """p-basis coefficients for one component by direct subset recursion.

    An edge joining two vertices already connected by the current subset is
    skipped entirely: including it flips the sign without changing the
    component sizes, so the two branches cancel exactly.
    """
    parent = list(range(k))
    size = [1] * k
    cnt = [0] * (k + 1)  # cnt[s] = number of components of size s
    cnt[1] = k
    acc: dict[tuple[int, ...], int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i: int, sign: int):
        if i == len(edges):
            key = tuple(cnt)
            acc[key] = acc.get(key, 0) + sign
            return
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            # exclude and include give equal partitions with opposite signs,
            # for every completion: the whole subtree sums to zero
            return
        rec(i + 1, sign)
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        s1, s2 = size[ru], size[rv]
        parent[rv] = ru
        size[ru] = s1 + s2
        cnt[s1] -= 1
        cnt[s2] -= 1
        cnt[s1 + s2] += 1
        rec(i + 1, -sign)
        cnt[s1 + s2] -= 1
        cnt[s2] += 1
        cnt[s1] += 1
        size[ru] = s1
        parent[rv] = rv

    rec(0, 1)
    return {tuple(s for s in range(k, 0, -1) for _ in range(counts[s])): c
            for counts, c in acc.items() if c}


def _p_to_e_sum(coeffs: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Integer e-coefficients of sum c_lambda p_lambda over the given p-keys.

    The keys are walked in sorted order over a stack of prefix products, so
    keys that share their first parts share the products of those parts: each
    part past the shared prefix costs one multiplication by p_to_e(part).
    """
    out: dict[tuple[int, ...], int] = {}
    prefix: list[int] = []
    stack: list[dict[tuple[int, ...], int]] = [{(): 1}]
    for key in sorted(coeffs):
        common = 0
        while common < min(len(prefix), len(key)) and prefix[common] == key[common]:
            common += 1
        del prefix[common:], stack[common + 1:]
        for part in key[common:]:
            factor = list(p_to_e(part).terms.items())
            prod: dict[tuple[int, ...], int] = {}
            for k1, c1 in stack[-1].items():
                for k2, c2 in factor:
                    nk = tuple(sorted(k1 + k2, reverse=True))
                    prod[nk] = prod.get(nk, 0) + c1 * c2
            prefix.append(part)
            stack.append(prod)
        c = coeffs[key]
        for nk, v in stack[-1].items():
            out[nk] = out.get(nk, 0) + c * v
    return out


def _csf_component(verts: list[int], edges: list[tuple[int, int]]) -> ESymFunc:
    k = len(verts)
    if not edges:
        return e_term((1,))
    index = {v: i for i, v in enumerate(verts)}
    local = [(index[u], index[v]) for u, v in edges]
    cost_dp = 3 ** k
    cost_es = 4 * (2 ** len(local))
    coeffs = _vertex_dp(k, local) if cost_dp <= cost_es else _edge_subsets(k, local)
    return ESymFunc(_p_to_e_sum(coeffs))


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
