"""Reference computations built on the oracle, for the tests only.

These check identities that tie the brute-force oracle to other routes:

* the p-basis sum over edge subsets, taken one subset at a time;
* proper colorings counted by enumeration, against X(1^m);
* the stable-triple deletion identities, evaluated with the oracle;
* X of conjoined graphs assembled from the clique/cycle node-graph
  reductions, with each X(h^m) from the oracle;
* the recurrence forms of the twinned families, built from the closed-form
  path, cycle, lollipop and clique-path-clique-path evaluators.

The last two mix the routes on purpose; that is why they live here and not
in :mod:`chromsym.oracle`, which must stay independent of the closed forms.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from math import factorial

from chromsym.formulas import x_cycle, x_kpkp_b3, x_lollipop, x_path
from chromsym.graphs import Graph, Piece, conjoin, rooted_complete
from chromsym.oracle import DEFAULT_EDGE_BUDGET, csf_bruteforce
from chromsym.symfunc import ESymFunc, e_term, one


def count_proper_colorings(g: Graph, colors: int) -> int:
    """Number of proper colorings with the given palette size, by enumeration."""
    if colors < 0:
        raise ValueError("palette size must be nonnegative")
    edges = list(g.edges)
    total = 0
    for assignment in product(range(colors), repeat=g.n_vertices):
        if all(assignment[u] != assignment[v] for u, v in edges):
            total += 1
    return total


def p_subset_sum(n: int, edges) -> dict[tuple[int, ...], int]:
    """Nonzero p-coefficients of sum over S subseteq E of (-1)^|S| p_{lambda(S)}.

    lambda(S) lists the component sizes of (V, S) (Stanley 1995, Thm 2.5);
    every subset is visited, with no cancellation or grouping.
    """
    out: dict[tuple[int, ...], int] = {}
    for r in range(len(edges) + 1):
        for subset in combinations(edges, r):
            root = list(range(n))

            def find(x: int) -> int:
                while root[x] != x:
                    x = root[x]
                return x

            for u, v in subset:
                root[find(u)] = find(v)
            key = tuple(sorted(Counter(map(find, range(n))).values(), reverse=True))
            out[key] = out.get(key, 0) + (-1) ** r
    return {key: c for key, c in out.items() if c}


# ----------------------------------------------------------------------
# triple deletion
# ----------------------------------------------------------------------

def triple_deletion_check(g: Graph, t: tuple[int, int, int],
                          max_edges: int = DEFAULT_EDGE_BUDGET) -> tuple[bool, bool]:
    """Verify the two stable-triple identities on g by brute force.

    With T = (t1, t2, t3) stable and e1 = t1t2, e2 = t1t3, e3 = t2t3, checks

        X(G + e1 + e2) == X(G + e1) + X(G + e2 + e3) - X(G + e3)
        X(G + e1 + e2 + e3) == X(G + e1 + e3) + X(G + e2 + e3) - X(G + e3)
    """
    t1, t2, t3 = t
    if len({t1, t2, t3}) != 3:
        raise ValueError("triple must consist of three distinct vertices")
    e1 = (min(t1, t2), max(t1, t2))
    e2 = (min(t1, t3), max(t1, t3))
    e3 = (min(t2, t3), max(t2, t3))
    if {e1, e2, e3} & g.edges:
        raise ValueError(f"triple {t} is not stable in the graph")

    def with_edges(*extra: tuple[int, int]) -> ESymFunc:
        return csf_bruteforce(Graph(g.n_vertices, g.edges | set(extra)), max_edges)

    first = with_edges(e1, e2) == with_edges(e1) + with_edges(e2, e3) - with_edges(e3)
    second = with_edges(e1, e2, e3) == (
        with_edges(e1, e3) + with_edges(e2, e3) - with_edges(e3))
    return first, second


# ----------------------------------------------------------------------
# conjoined-graph assemblies (clique or cycle node graph)
# ----------------------------------------------------------------------

def _pendant(h: Piece, m: int) -> Graph:
    # h with a pendant path of length m at its root
    return conjoin(h, rooted_complete(1), m)


def x_via_kpg(length: int, a: int, h: Piece,
              max_edges: int = DEFAULT_EDGE_BUDGET) -> ESymFunc:
    """X of the clique-to-graph conjoin P^length(K_a, h), assembled from pendant-path graphs.

    Computes (a-1)! * sum_{i=0}^{a-1} (1-i) e_i X(h^{a+length-i-1}), with each
    X(h^m) taken from the brute-force oracle and e_0 read as the constant 1.
    """
    if length < 0 or a < 2:
        raise ValueError(f"needs length >= 0 and a >= 2, got {(length, a)}")
    total = ESymFunc({}, 0)
    for i in range(a):
        factor = one() if i == 0 else e_term((i,))
        x_h = csf_bruteforce(_pendant(h, a + length - i - 1), max_edges)
        total = total + (1 - i) * (factor * x_h)
    return factorial(a - 1) * total


def x_via_cpg(length: int, a: int, h: Piece,
              max_edges: int = DEFAULT_EDGE_BUDGET) -> ESymFunc:
    """X of the cycle-to-graph conjoin P^length(C_a, h), assembled from pendant-path graphs.

    Computes (a-1) X(h^{a+length-1}) - sum_{i=1}^{a-2} X(C_{a-i}) X(h^{i+length-1});
    the cycle factors come from the closed-form cycle expansion, which accepts
    size 2.
    """
    if length < 0 or a < 2:
        raise ValueError(f"needs length >= 0 and a >= 2, got {(length, a)}")
    total = (a - 1) * csf_bruteforce(_pendant(h, a + length - 1), max_edges)
    for i in range(1, a - 1):
        piece = x_cycle(a - i) * csf_bruteforce(_pendant(h, i + length - 1), max_edges)
        total = total - piece
    return total


# ----------------------------------------------------------------------
# recurrence forms for the twinned families
# ----------------------------------------------------------------------

def x_tw_path_rec(n: int, l: int) -> ESymFunc:
    """X of the twinned path via its six-term path-product recurrence."""
    if n < 3 or not 2 <= l <= n - 1:
        raise ValueError(f"needs n >= 3 and 2 <= l <= n-1, got {(n, l)}")
    e1, e2 = e_term((1,)), e_term((2,))
    return (-2 * (x_path(l - 1) * x_path(n - l + 2))
            + 2 * (e1 * x_path(n))
            + 4 * x_path(n + 1)
            - 2 * (x_path(l) * x_path(n - l + 1))
            + 2 * (e2 * (x_path(l - 1) * x_path(n - l)))
            - 2 * (x_path(l + 1) * x_path(n - l)))


def x_tw_cycle_rec(n: int) -> ESymFunc:
    """X of the twinned cycle via its cycle/path recurrence."""
    if n < 3:
        raise ValueError(f"needs n >= 3, got {n}")
    e1, e2 = e_term((1,)), e_term((2,))
    return (4 * x_cycle(n + 1) + 2 * (e1 * x_cycle(n))
            - 6 * x_path(n + 1) + 2 * (e2 * x_path(n - 1)))


def x_tw_lollipop_rec(a: int, l: int, h: int) -> ESymFunc:
    """X of the twinned lollipop via the stable-triple reduction.

    Uses X = 2 X(K_a - path(g+1) - K_3 - path(h-1) chain) - X(K_3^{h-1}) X(K_a^g)
    with g = l - h - 1, every factor from a closed-form evaluator.
    """
    if a < 1 or l < 2 or not 1 <= h <= l - 1:
        raise ValueError(f"needs a >= 1, l >= 2, 1 <= h <= l-1, got {(a, l, h)}")
    g = l - h - 1
    return 2 * x_kpkp_b3(a, g + 1, h - 1) - x_lollipop(3, h - 1) * x_lollipop(a, g)
