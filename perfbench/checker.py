"""Independent checks of chromatic symmetric functions, written apart from chromsym.

Nothing here imports chromsym.  The module rebuilds every supported graph
family from its definition, computes the chromatic polynomial chi_G by a
frontier dynamic program, and checks an e-expansion X_G = sum c_lambda e_lambda
against two identities of Stanley (1995):

* X_G(1^k) = sum c_lambda prod_i C(k, lambda_i) equals chi_G(k), checked at
  k = 1 .. |V|+1, which pins down the whole specialization;
* sum c_lambda equals the number of acyclic orientations, |chi_G(-1)|
  (Thm 3.3 summed over the number of sinks).

It also enumerates each family's verification grid, so that the grid size of
``chromsym verify`` can be checked without asking chromsym for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

Edges = frozenset[tuple[int, int]]
Terms = dict[tuple[int, ...], tuple[int, int]]  # partition -> (num, den)


# ----------------------------------------------------------------------
# graph families, built from their definitions
# ----------------------------------------------------------------------

class _Builder:
    """Grows a graph piece by piece; vertices are numbered in creation order."""

    def __init__(self) -> None:
        self.n = 0
        self.edges: set[tuple[int, int]] = set()

    def vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def edge(self, u: int, v: int) -> None:
        self.edges.add((min(u, v), max(u, v)))

    def path(self, start: int, length: int) -> int:
        """Hang a path of `length` edges on `start`; returns its far end."""
        v = start
        for _ in range(length):
            w = self.vertex()
            self.edge(v, w)
            v = w
        return v

    def clique(self, start: int | None, size: int) -> list[int]:
        """K_size containing `start` (a fresh vertex when None); returns its vertices."""
        members = [self.vertex() if start is None else start]
        members += [self.vertex() for _ in range(size - 1)]
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                self.edge(u, v)
        return members

    def cycle(self, start: int | None, size: int) -> list[int]:
        """C_size through `start` (a fresh vertex when None); returns its vertices in order."""
        members = [self.vertex() if start is None else start]
        members += [self.vertex() for _ in range(size - 1)]
        for i in range(size):
            self.edge(members[i], members[(i + 1) % size])
        return members

    def twin(self, v: int) -> None:
        """Add a vertex adjacent to v and to every neighbour of v."""
        nbrs = [b if a == v else a for a, b in self.edges if v in (a, b)]
        t = self.vertex()
        for u in nbrs + [v]:
            self.edge(u, t)

    def done(self) -> tuple[int, Edges]:
        return self.n, frozenset(self.edges)


def _clique_then(gr: _Builder, a: int) -> int:
    """K_a with a distinguished exit vertex other than its entry (the entry itself for a = 1)."""
    return gr.clique(None, a)[-1]


def _path_graph(n: int):
    gr = _Builder()
    gr.path(gr.vertex(), n - 1)
    return gr.done()


def _cycle_graph(n: int):
    gr = _Builder()
    gr.cycle(None, n)
    return gr.done()


def _kchain(parts: tuple[int, ...]):
    gr = _Builder()
    exit_v = None
    for p in parts:
        exit_v = gr.clique(exit_v, p)[-1]
    return gr.done()


def _lollipop(a: int, l: int, k: int = 0):
    gr = _Builder()
    members = gr.clique(None, a)
    center = members[-1]
    gr.path(center, l)
    for u in members[:k]:
        gr.edges.discard((min(u, center), max(u, center)))
    return gr.done()


def _kpk(a: int, b: int, l: int):
    gr = _Builder()
    end = gr.path(_clique_then(gr, a), l)
    gr.clique(end, b)
    return gr.done()


def _pkp(g: int, a: int, h: int):
    gr = _Builder()
    end = gr.path(gr.vertex(), g)
    members = gr.clique(end, a)
    gr.path(members[-1], h)
    return gr.done()


def _kkp(a: int, b: int, h: int):
    gr = _Builder()
    members = gr.clique(_clique_then(gr, a), b)
    gr.path(members[-1], h)
    return gr.done()


def _kpc(a: int, l: int, c: int):
    gr = _Builder()
    end = gr.path(_clique_then(gr, a), l)
    gr.cycle(end, c)
    return gr.done()


def _kpkp(a: int, g: int, b: int, h: int):
    gr = _Builder()
    end = gr.path(_clique_then(gr, a), g)
    members = gr.clique(end, b)
    gr.path(members[-1], h)
    return gr.done()


def _tw_path(n: int, l: int):
    gr = _Builder()
    gr.path(gr.vertex(), n - 1)
    gr.twin(l - 1)
    return gr.done()


def _tw_cycle(n: int):
    gr = _Builder()
    members = gr.cycle(None, n)
    gr.twin(members[0])
    return gr.done()


def _tw_lollipop(a: int, l: int, h: int):
    gr = _Builder()
    leaf = gr.path(_clique_then(gr, a), l)
    gr.twin(leaf - h)  # path vertices are numbered consecutively up to the leaf
    return gr.done()


def _kayak(a: int, b: int, l: int):
    gr = _Builder()
    end = gr.path(gr.cycle(None, a)[0], l)
    gr.cycle(end, b)
    return gr.done()


def _compositions(total: int, parts: int, low: int) -> Iterator[tuple[int, ...]]:
    """Sequences of `parts` integers, each >= low, summing to total."""
    if parts == 1:
        if total >= low:
            yield (total,)
        return
    for first in range(low, total - low * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, low):
            yield (first,) + rest


def _named(names: str, total: int, lows: tuple[int, ...]) -> Iterator[dict]:
    """Parameter dicts whose values (each >= its low) sum to total."""
    keys = names.split()
    shifted = total - sum(lows)
    for values in _compositions(shifted + len(keys), len(keys), 1):
        yield {k: v - 1 + lo for k, v, lo in zip(keys, values, lows)}


def _dom_kchain(order: int) -> Iterator[dict]:
    for m in range(1, order):
        for q in _compositions(order - 1, m, 1):
            yield {"parts": tuple(p + 1 for p in q)}


def _dom_melting(order: int) -> Iterator[dict]:
    for p in _named("a l", order, (2, 0)):
        for k in range(p["a"]):
            yield {**p, "k": k}


def _dom_tw_path(order: int) -> Iterator[dict]:
    n = order - 1
    for l in range(2, n):
        yield {"n": n, "l": l}


def _dom_tw_lollipop(order: int) -> Iterator[dict]:
    for p in _named("a l", order - 1, (1, 2)):
        for h in range(1, p["l"]):
            yield {**p, "h": h}


@dataclass(frozen=True)
class FamilySpec:
    """A family's constructor, and its parameter tuples by graph order."""

    build: Callable[..., tuple[int, Edges]]
    domain: Callable[[int], Iterator[dict]]
    # the size parameter that `chromsym verify --max-n` bounds
    grid_size: Callable[[dict], int] | None = None


FAMILIES: dict[str, FamilySpec] = {
    "path": FamilySpec(_path_graph, lambda o: iter([{"n": o}] if o >= 1 else [])),
    "cycle": FamilySpec(_cycle_graph, lambda o: iter([{"n": o}] if o >= 3 else [])),
    "kchain": FamilySpec(_kchain, _dom_kchain,
                         lambda p: sum(p["parts"])),
    "lollipop": FamilySpec(_lollipop, lambda o: _named("a l", o, (2, 0))),
    "melting-lollipop": FamilySpec(_lollipop, _dom_melting),
    "kpk": FamilySpec(_kpk, lambda o: _named("a b l", o + 1, (1, 1, 0))),
    "kpk-b3": FamilySpec(lambda a, l: _kpk(a, 3, l),
                         lambda o: _named("a l", o - 2, (3, 0))),
    "pkp": FamilySpec(_pkp, lambda o: _named("g a h", o, (0, 2, 0))),
    "kkp": FamilySpec(_kkp, lambda o: _named("a b h", o + 1, (1, 2, 0))),
    "kpc": FamilySpec(_kpc, lambda o: _named("a l c", o + 1, (1, 0, 3))),
    "tadpole": FamilySpec(lambda c, l: _kpc(1, l, c),
                          lambda o: _named("c l", o, (3, 0))),
    "kpkp": FamilySpec(_kpkp, lambda o: _named("a g b h", o + 1, (1, 0, 2, 0))),
    "kpkp-b3": FamilySpec(lambda a, g, h: _kpkp(a, g, 3, h),
                          lambda o: _named("a g h", o - 2, (1, 0, 0))),
    "tw-path": FamilySpec(_tw_path, _dom_tw_path, lambda p: p["n"]),
    "tw-cycle": FamilySpec(_tw_cycle, lambda o: iter([{"n": o - 1}] if o >= 4 else []),
                           lambda p: p["n"]),
    "tw-lollipop": FamilySpec(_tw_lollipop, _dom_tw_lollipop),
    "kayak": FamilySpec(_kayak, lambda o: _named("a b l", o + 1, (3, 3, 0))),
    "infinity": FamilySpec(lambda a, b: _kayak(a, b, 0),
                           lambda o: _named("a b", o + 1, (3, 3))),
}


def build(tag: str, params: dict) -> tuple[int, Edges]:
    return FAMILIES[tag].build(**params)


def verify_grid(tag: str, max_n: int) -> list[dict]:
    """Every parameter tuple of the family whose size parameter is at most max_n."""
    spec = FAMILIES[tag]
    return [p for order in range(1, max_n + 2) for p in spec.domain(order)
            if (spec.grid_size(p) if spec.grid_size else order) <= max_n]


# ----------------------------------------------------------------------
# chromatic polynomial
# ----------------------------------------------------------------------

Poly = tuple[int, ...]  # coefficients of k^0, k^1, ...


def _poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    return tuple(a + (q[i] if i < len(q) else 0) for i, a in enumerate(p))


def _poly_times_k_minus(p: Poly, b: int) -> Poly:
    """p(k) * (k - b)."""
    out = [0] * (len(p) + 1)
    for i, a in enumerate(p):
        out[i + 1] += a
        out[i] -= b * a
    return tuple(out)


def chromatic_polynomial(n: int, edges) -> Poly:
    """chi_G by a frontier DP over vertices 0..n-1.

    A state is the partition of the frontier (processed vertices with a
    neighbour still to come) into colour classes; its value is the number of
    colourings of the processed vertices that induce it, as a polynomial in
    the palette size k.  A new vertex joins a class holding none of its
    neighbours, or takes one of the k - (number of classes) colours unused on
    the frontier.  Cost grows with the number of frontier partitions, which
    stays small when vertices come in chain order.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    last = [max(adj[v] | {v}) for v in range(n)]
    states: dict[tuple[tuple[int, ...], ...], Poly] = {(): (1,)}
    for v in range(n):
        earlier = {u for u in adj[v] if u < v}
        grown: dict[tuple[tuple[int, ...], ...], Poly] = {}
        for state, poly in states.items():
            options = [(state[:i] + (block + (v,),) + state[i + 1:], poly)
                       for i, block in enumerate(state) if earlier.isdisjoint(block)]
            options.append((state + ((v,),), _poly_times_k_minus(poly, len(state))))
            for key, value in options:
                kept = tuple(sorted(b for b in (tuple(x for x in blk if last[x] > v)
                                                for blk in key) if b))
                grown[kept] = _poly_add(grown[kept], value) if kept in grown else value
        states = grown
    total: Poly = (0,)
    for poly in states.values():
        total = _poly_add(total, poly)
    return total


def evaluate(poly: Poly, k: int) -> int:
    out = 0
    for a in reversed(poly):
        out = out * k + a
    return out


# ----------------------------------------------------------------------
# expansion checks
# ----------------------------------------------------------------------

def parse_records(records: list[dict]) -> Terms:
    """The structured output of chromsym (partition, num, den records) as a dict."""
    terms: Terms = {}
    for rec in records:
        key = tuple(int(p) for p in rec["partition"])
        if key in terms:
            raise ValueError(f"partition {list(key)} listed twice")
        terms[key] = (int(rec["num"]), int(rec["den"]))
    return terms


def check_expansion(terms: Terms, n: int, edges) -> list[str]:
    """Problems with X_G = terms for the graph (n, edges); empty when all checks pass.

    Checks integrality, e-positivity, homogeneous degree n, X_G(1^k) = chi_G(k)
    for k = 1..n+1, and sum of coefficients = |chi_G(-1)|.
    """
    problems = []
    for key, (num, den) in terms.items():
        if den != 1:
            problems.append(f"non-integer coefficient {num}/{den} at e{list(key)}")
        if num < 0:
            problems.append(f"negative coefficient {num} at e{list(key)}")
        if sum(key) != n or any(p < 1 for p in key):
            problems.append(f"e{list(key)} is not a partition of {n}")
    if problems:
        return problems
    chi = chromatic_polynomial(n, edges)
    coeffs = {key: num for key, (num, _) in terms.items()}
    for k in range(1, n + 2):
        binom = [comb(k, m) for m in range(n + 1)]
        value = 0
        for key, c in coeffs.items():
            for p in key:
                c *= binom[p]
            value += c
        if value != evaluate(chi, k):
            problems.append(f"X(1^{k}) = {value} but chi({k}) = {evaluate(chi, k)}")
    orientations = abs(evaluate(chi, -1))
    if sum(coeffs.values()) != orientations:
        problems.append(f"coefficients sum to {sum(coeffs.values())} but the graph "
                        f"has {orientations} acyclic orientations")
    return problems
