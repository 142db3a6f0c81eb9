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
The partitions are walked top down, memoized on the set of vertices left.
c(B) = (-1)^(|B|-1) T_B(1,0) (Greene-Zaslavsky 1983), and T is a product
over biconnected components, each of which a connected B meets in a
connected piece.  The components of G are found once, by one depth-first
search, and given a rule: a piece of t vertices counts 1 as an arc of a
cycle and t - 1 as the whole cycle, (t-1)! in a clique, and d (t-2)! in a
clique plus one vertex x if it holds x and d of x's neighbours.  Any other
piece goes through the same split of its own vertex set, and only a
2-connected one with no rule is a sum over its independent sets, memoized
on its vertex set: over the families' grid(13), only twinned cycles reach
it.  So a cycle, a kayak paddle or an infinity graph of order 40 costs
milliseconds of c(B), where the independent sets of a 40-cycle number over
10^8.  Nothing here touches composition statistics or any closed-form
evaluator, which keeps this module an independent oracle for them.

The walk runs over classes of twins, vertices u and v with N(u) - v =
N(v) - u, such as the vertices of a clique apart from its attachments, or
the leaves of a star.  Each class is a clique or an independent set, and
permuting it is an automorphism, so X of what is left depends only on how
many vertices of each class are left.  The vertices are relabelled so that
each class is a bit range, and every memo key is canonical: within each
class, the lowest vertices are the ones present.  A block takes a prefix of
each class and stands for all the blocks that take as many: with r_i
vertices of class i left and t_i taken, there are prod C(r_i, t_i) of them,
with C(r_j - 1, t_j - 1) for the class of the lowest vertex, which every
block holds.  The independent sets of a core are weighed the same way.  A
K_a is then a walk over a states, not 2^a, and a twin-free graph does the
same work as a walk over single vertices.

Which sets of vertices are left depends on the labels, since a block always
holds the lowest vertex left, and what a block leaves of a class stays in
every later set until the walk comes to it.  So the walk should finish each
dead end before it moves on, and start at one: at the end of a path, or at
the smallest clique at an end, or at the hub of a graph with neither.  The
classes are laid out in an order that does so (_vertex_order): depth first,
lower-degree neighbours first and ties by label, from the lowest-labelled
simplicial vertex (one whose neighbours are all adjacent, such as a leaf) of
smallest degree, or with none from the lowest-labelled vertex of largest
degree.  In the clique-first labels of its constructor, lollipop(13,27)
computes 344 shapes; in this order, 39.  Paths, cycles, tadpoles, twinned
cycles, and kayak paddles and infinity graphs without a triangle keep their
given labels, and a twinned path is at most walked from its other end.

The memo holds integer e-coefficients, keyed by packed partitions (see
:mod:`chromsym.symfunc`), one int each, whose sum is the key of the product.
At each set of vertices left, the signed e-coefficients of the remainders are
summed per block size s, as p_{lambda + (s)} = p_s p_lambda, and Newton's
identity carries the sums down from the largest size one e_j at a time
(p_sum_to_e), so no p_s is ever expanded.  A key's 8-bit digit bounds a
component's order by 255 (check_order).  A graph within it is walked as it
is, one component at a time; a larger one would need big-int masks (268 MB
for a path of 2**16 vertices), so union-find splits it and refuses a
component of 256 or more before any mask is built.

X of what is left depends only on the induced subgraph G[rest], so the memo
has two layers.  The first is keyed by the set rest itself, an int, and
lives for one call.  On a miss, the second is keyed by the shape of
rest: the adjacency rows of G[rest], relabelled 0..m-1 in vertex order, as
bytes.  Two shapes are equal exactly when the induced labelled graphs are, so
this layer is shared by every call: the arcs a cycle leaves are paths, and
the small graphs of a verify sweep meet the same remainders again and again.
It is a :class:`~chromsym.symfunc.Memo` capped by the number of
coefficients it holds, and emptied whole once it goes past the cap.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb, factorial

from .graphs import Graph
from .symfunc import DIGIT_MASK, ESymFunc, Memo, OrderLimitError, check_order, e_term, p_sum_to_e
# unused here: perfbench/tracer.py times p_to_e by wrapping oracle.p_to_e
from .symfunc import p_to_e  # noqa: F401

DEFAULT_EDGE_BUDGET = 24
# Splitting a graph into components takes a few hundred bytes per vertex, so
# 2**16 vertices cost about 20 MB: a vertex count read from a file is refused
# past it, before anything is allocated per vertex.
_MAX_VERTICES = 1 << 16

# X of an induced subgraph depends on nothing else, so the block sum shares
# the e-coefficients of each set of vertices left across calls, keyed by its
# shape (see the module docstring).  Only nonzero coefficients are stored: a
# verify sweep stores 2478 at max-n 9, 8906 at max-n 11 and 15811 at max-n
# 12; lollipop(20,6) stores 67.  Each takes about 85 to 130 bytes with its
# packed key, so a cap of 2**16 coefficients holds at most about 8 MB.  Past
# it the memo is cleared, which costs only recomputation: each call still
# finishes from its own memo.
_shared = Memo(1 << 16, len)


class EdgeBudgetError(Exception):
    """Raised when a graph exceeds the brute-force edge budget."""

    def __init__(self, n_edges: int, limit: int):
        super().__init__(
            f"graph has {n_edges} edges, exceeding the brute-force budget of "
            f"{limit}; raise the limit explicitly to proceed")
        self.n_edges = n_edges
        self.limit = limit


def _components(n: int, edges) -> list[tuple[list[int], list[tuple[int, int]]]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}
    for v in range(n):
        groups.setdefault(find(v), ([], []))[0].append(v)
    for u, v in edges:
        groups[find(u)][1].append((u, v))
    return sorted(groups.values())


def _vertex_order(nbrs: list[int]) -> list[int]:
    """The vertices 0..k-1 of the graph with neighbour masks nbrs, depth
    first, lower-degree neighbours first and ties by label.  The walk starts
    at the lowest-labelled simplicial vertex (one whose neighbours are all
    adjacent, such as a leaf) of smallest degree, or with none at the
    lowest-labelled vertex of largest degree, and again at the lowest
    unvisited vertex whenever it runs out."""
    k = len(nbrs)
    if not k:
        return []
    deg = [m.bit_count() for m in nbrs]
    by_deg: dict[int, int] = {}  # the mask of the vertices of each degree
    for u, d in enumerate(deg):
        by_deg[d] = by_deg.get(d, 0) | 1 << u
    layers = [by_deg[d] for d in sorted(by_deg)]
    # a vertex is simplicial when each neighbour is adjacent to the others
    for start in sorted(range(k), key=deg.__getitem__):
        near = nbrs[start]
        closed = near | 1 << start
        while near:
            w = near & -near
            if closed & ~nbrs[w.bit_length() - 1] != w:
                break
            near ^= w
        else:
            break
    else:
        start = deg.index(max(by_deg))
    order = []
    seen = 0
    for root in (start, *range(k)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        order.append(root)
        stack = []
        u = root
        while True:
            step = nbrs[u] & ~seen
            if step:
                for layer in layers:
                    if step & layer:
                        step &= layer
                        break
                step &= -step
                seen |= step
                stack.append(u)
                u = step.bit_length() - 1
                order.append(u)
            elif stack:
                u = stack.pop()
            else:
                break
    return order


def _e_coefficients(k: int, edges) -> dict[int, int]:
    """e-coefficients of X of the graph on vertices 0..k-1, by packed key: the sum over its
    partitions into connected blocks B of prod c(B) p_|B|, taken top down
    over how many vertices of each class of twins are left."""
    nbrs = [0] * k
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    # u and v are twins when N(u) - v = N(v) - u: false twins share N(u) and
    # true twins N(u) + u, and no vertex has twins of both kinds.  Relabel
    # so that each class is a bit range, placed where its first vertex comes
    # in the vertex order (see the module docstring).
    order = _vertex_order(nbrs)
    twins: dict[int, list[int]] = {}
    for u in order:
        twins.setdefault(nbrs[u], []).append(u)
        twins.setdefault(nbrs[u] | 1 << u, []).append(u)
    at: dict[int, int] = {}
    mates: list[int] = []  # the mask of each vertex's class
    multi: list[int] = []  # the masks of the classes of two or more
    for u in order:
        cls = max(twins[nbrs[u]], twins[nbrs[u] | 1 << u], key=len)
        if cls[0] == u:
            mask = ((1 << len(cls)) - 1) << len(at)
            if len(cls) > 1:
                multi.append(mask)
            for w in cls:
                at[w] = len(at)
                mates.append(mask)
    adj = [0] * k
    for u, v in edges:
        adj[at[u]] |= 1 << at[v]
        adj[at[v]] |= 1 << at[u]
    # shape() cuts the rows from one int, where each takes whole bytes
    width = (k + 7) // 8
    stride = 8 * width
    packed = sum(row << stride * u for u, row in enumerate(adj))
    spread = sum(1 << stride * u for u in range(k))
    # Permuting a class is an automorphism, so every key below is canonical:
    # within each class, the lowest vertices are the ones present.
    counts: dict[int, int] = {}
    memo: dict[int, dict[int, int]] = {}

    def component(mask: int) -> int:
        """The vertices of mask that G[mask] connects to its lowest one."""
        seen = todo = mask & -mask
        while todo:
            low = todo & -todo
            new = adj[low.bit_length() - 1] & mask & ~seen
            seen |= new
            todo = (todo ^ low) | new
        return seen

    def split(mask: int) -> list[tuple[int, int]]:
        """(comp, rule(comp)) for the biconnected components of G[mask] with
        3 or more vertices, from one depth-first search (Hopcroft-Tarjan)."""
        disc = [0] * k  # the order each vertex is reached in; 0 at a root
        low = [0] * k  # the least disc one edge reaches from its subtree
        u = (mask & -mask).bit_length() - 1
        out, seen, n, path, trail = [], 1 << u, 0, [], []
        while True:
            if step := adj[u] & mask & ~seen:
                # the neighbours reached before w are its ancestors
                step &= -step
                w = step.bit_length() - 1
                back = adj[w] & seen ^ 1 << u
                seen |= step
                n += 1
                disc[w] = n
                low[w] = disc[u]
                while back:
                    low[w] = min(low[w], disc[(back & -back).bit_length() - 1])
                    back &= back - 1
                path.append(u)
                trail.append(w)
                u = w
            elif path:
                p = path.pop()
                if low[u] < disc[p]:
                    low[p] = min(low[p], low[u])
                else:  # p cuts u's subtree off: the rest of the trail
                    comp = 1 << p
                    while not comp >> u & 1:
                        comp |= 1 << trail.pop()
                    if comp.bit_count() > 2:
                        out.append((comp, rule(comp)))
                u = p
            elif left := mask & ~seen:  # on to the next connected part
                u = (left & -left).bit_length() - 1
                seen |= 1 << u
            else:
                return out

    def rule(comp: int) -> int:
        """-1 for a cycle, x for a clique K_{m-1} plus a vertex x joined to
        part of it (any vertex of a clique), -2 for any other component."""
        deg = {u: (adj[u] & comp).bit_count() for u in range(k) if comp >> u & 1}
        x = min(deg, key=deg.__getitem__)
        if all(d == 2 for d in deg.values()):
            return -1
        if all(d - (adj[u] >> x & 1) == len(deg) - 2 for u, d in deg.items() if u != x):
            return x
        return -2

    def factor(comp: int, x: int, piece: int) -> int:
        """|c(piece)| for a connected piece of the component comp of rule x."""
        t = piece.bit_count()
        if t < 3:
            return 1
        if x >= 0:  # K_{t-1} and x joined to d of it: d (t-2)!
            if piece >> x & 1:
                return (adj[x] & piece).bit_count() * factorial(t - 2)
            return factorial(t - 1)
        if x == -1:  # a cycle, or an arc of one
            return t - 1 if piece == comp else 1
        return abs(signed_count(piece))

    def signed_count(block: int) -> int:
        """c(block) for a connected block: a product over its biconnected
        components, or a sum over the core for a 2-connected one with no
        closed form."""
        if block & (block - 1) == 0:
            return 1
        if block in counts:
            return counts[block]
        comps = split(block)
        if comps != [(block, -2)]:
            c = (-1) ** (block.bit_count() - 1)
            for comp, x in comps:
                c *= factor(comp, x, comp)
            counts[block] = c
            return c
        # The signed sum over all edge subsets of the core is 0.  Grouped by
        # the component of the lowest vertex, it gives c(core) = -sum of
        # c(core - I) over the nonempty independent sets I avoiding that
        # vertex with core - I connected: other edges cancel.  I takes the
        # highest vertices of each class, so core - I stays canonical, and
        # stands for prod C(e_i, s_i) sets taking s_i of the e_i free ones.
        free = block & (block - 1)
        total = 0
        stack = [(0, free)]
        while stack:
            chosen, left = stack.pop()
            if not left:
                if chosen and component(block ^ chosen) == block ^ chosen:
                    c = signed_count(block ^ chosen)
                    for mask in multi:
                        s = (chosen & mask).bit_count()
                        if s:
                            c *= comb((free & mask).bit_count(), s)
                    total += c
                continue
            u = left.bit_length() - 1
            stack.append((chosen, left & ~mates[u]))
            stack.append((chosen | 1 << u, left & ~(1 << u) & ~adj[u]))
        counts[block] = -total
        return -total

    # c(B) is signed prod |c(B & K)| over the biconnected components K of G,
    # found at the first block that is no tree: a remembered G needs none
    rules: list[tuple[int, int]] = []

    def blocks(rest: int):
        """Yield (block, edges inside, edges touching) for each connected block
        in rest holding its lowest vertex and a prefix of each class, once:
        every boundary vertex is taken or banned with its classmates above
        it, and banning runs first, so the lowest vertex alone is first."""
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
            ban = mates[low.bit_length() - 1] & frontier
            stack.append((grown, inner + (near & block).bit_count(),
                          touching + (near & (block | banned)).bit_count(),
                          (frontier | near & rest) & ~grown & ~banned, banned))
            stack.append((block, inner,
                          touching + ban.bit_count() * (near & block).bit_count(),
                          frontier ^ ban, banned | ban))

    def shape(rest: int) -> bytes:
        """The adjacency rows of G[rest], relabelled 0..m-1 in vertex order:
        byte 0 of every row, then byte 1, and so on.  Each run of vertices in
        rest is one slice of the rows, and its columns shift in all at once."""
        rows, m, runs, r = 0, 0, [], rest
        while r:
            low = (r & -r).bit_length() - 1
            run = r & ~(r + (1 << low))
            size = run.bit_count()
            rows |= (packed >> stride * low & (1 << stride * size) - 1) << stride * m
            runs.append((run * spread, low - m))
            m += size
            r ^= run
        out = 0
        for cols, drop in runs:
            out |= (rows & cols) >> drop
        data = out.to_bytes(m * width, "little")
        return data[::width] if m <= 8 else b"".join([data[i::width] for i in range(m + 7 >> 3)])

    def rec(rest: int, n_edges: int) -> dict[int, int]:
        if not n_edges:
            return {rest.bit_count(): 1}  # p_1^m = e_1^m, which packs to m
        if rest in memo:
            return memo[rest]
        form = shape(rest)
        if form in _shared:
            out = memo[rest] = _shared[form]
            return out
        v = rest & -rest
        # p_{lambda + (s,)} = p_s p_lambda: sum the products per block size s
        by_size: dict[int, dict[int, int]] = {}
        for block, inner, touching in blocks(rest):
            size = block.bit_count()
            # a tree has one connected spanning subgraph: itself
            c = (-1) ** (size - 1)
            if inner >= size:
                if not rules:
                    rules.extend(split((1 << k) - 1))
                for comp, x in rules:
                    c *= factor(comp, x, block & comp)
            # the blocks holding v and t_i of the r_i vertices left in each
            # class are this one's images under automorphisms fixing v:
            # weigh it by their number, and shift what is left canonical
            left = rest ^ block
            for mask in multi:
                t = (block & mask).bit_count()
                if t:
                    r = (rest & mask).bit_count()
                    c *= comb(r - 1, t - 1) if v & mask else comb(r, t)
                    part = left & mask
                    left ^= part ^ (part >> t)
            acc = by_size.setdefault(size, {})
            for key, coef in rec(left, n_edges - touching).items():
                acc[key] = acc.get(key, 0) + c * coef
        out = memo[rest] = _shared.put(form, p_sum_to_e(by_size))
        return out

    if component(full := (1 << k) - 1) == full:
        return rec(full, len(edges))
    # a walk per component, as one over all would hold products in its memo
    out, left = {0: 1}, full
    while left:
        part = component(left)
        left ^= part
        prod: dict[int, int] = {}
        for key, coef in rec(part, sum(part >> at[u] & 1 for u, _ in edges)).items():
            for other, c in out.items():
                prod[key + other] = prod.get(key + other, 0) + c * coef
        out = prod
    return out


# A verify sweep at max-n 9 caches 371 distinct graphs, so 1024 entries keep
# every hit there while bounding the memory of long sessions.
@lru_cache(maxsize=1024)
def csf_bruteforce(g: Graph, max_edges: int = DEFAULT_EDGE_BUDGET) -> ESymFunc:
    """Exact chromatic symmetric function of g in the e-basis.

    Raises :class:`EdgeBudgetError` when g has more than max_edges edges and,
    before any work, OrderLimitError (a ValueError) when g has more than 2**16
    vertices or a component has 256 or more.  The result is always integral
    and homogeneous of degree |V(g)|.
    """
    if g.edge_count > max_edges:
        raise EdgeBudgetError(g.edge_count, max_edges)
    if g.n_vertices > _MAX_VERTICES:
        raise OrderLimitError(f"graph has {g.n_vertices} vertices, past the oracle's limit "
                              f"of {_MAX_VERTICES}")
    if g.n_vertices <= DIGIT_MASK:  # as it is, with masks of small ints
        return ESymFunc.from_packed(_e_coefficients(g.n_vertices, g.edges), g.n_vertices)
    comps = _components(g.n_vertices, g.edges)
    check_order(max((len(comp) for comp, _ in comps), default=0))
    # each isolated vertex is a factor e_1: one product for all of them, as
    # every product sorts the keys anew; a lone component needs no product
    isolated = sum(not edges for _, edges in comps)
    factors = []
    for comp, edges in comps:
        if edges:
            index = {v: i for i, v in enumerate(comp)}
            local = [(index[u], index[v]) for u, v in edges]
            factors.append(ESymFunc.from_packed(_e_coefficients(len(comp), local), len(comp)))
    if isolated:
        factors.append(e_term((1,) * isolated))
    return reduce(ESymFunc.__mul__, factors)
