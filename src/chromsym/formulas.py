"""Closed-form positive e-expansions, one evaluator per supported graph family.

Every evaluator returns the full chromatic symmetric function (prefactors
multiplied back in) as an exact :class:`~chromsym.symfunc.ESymFunc`.  The
expansions are sums over integer compositions, weighted by the statistics of
:mod:`chromsym.compositions`.  They are evaluated by the prefix-sum DP
:func:`composition_sum`, whose work grows with the number of partitions of
n, not with the 2^(n-1) compositions; like the oracle, it keys partitions as
packed ints (:func:`~chromsym.symfunc.pack`).  It takes one of two paths by
the order n: up to order 12 it carries partitions in one forward pass, and
from order 13 it first prunes the states that cannot finish, which pays
only once partitions are many (its docstring has the measured crossover).
Each evaluator supplies a step that weighs one part p starting at offset s,
and every statistic is settled at a single step:

* w takes p from the first part (s == 0) and p - 1 from every later part;
* the part straddling a position x is the one with s < x <= s + p, so
  theta(I, x) = s + p - x, theta_minus(I, x) = x - s, or 0 when s + p == x,
  and gap(I, x) = p when s + p > x;
* the last part is the one with s + p == n, and K[-1] + K[-2] >= n - h says
  that K[-2] started at s <= h;
* the first part, and whatever else a later step needs, rides in the state.

Fractional weights are summed multiplied by the factors of w they divide,
so every coefficient is an integer; a finishing check asserts that every
result is e-positive, which all the families are.
The per-composition definitions are kept in ``tests/reference_formulas.py``
and checked against these evaluators.

Seven evaluators are special cases of others (the KPK chain covers lollipops
and the condensed KPK-b3 form, the KPC chain covers tadpoles, and the paper's
KPKP and kayak-paddle expansions cover KKP, PKP and KPKP-b3 chains and
infinity graphs); each checks its parameters and makes one call:
``x_lollipop(a, l) = x_kpk(a, 1, l)`` (K_a^l = K_a + P_{l+1} + K_1),
``x_kpk_b3(a, l) = x_kpk(a, 3, l)``, ``x_tadpole(c, l) = x_kpc(1, l, c)``,
``x_kkp(a, b, h) = x_kpkp(a, 0, b, h)``, ``x_pkp(g, a, h) = x_kpkp(1, g, a, h)``,
``x_kpkp_b3(a, g, h) = x_kpkp(a, g, 3, h)`` and ``x_infinity(a, b) = x_kayak(a, b, 0)``.
``x_kpk`` and ``x_tw_path`` keep their own forms, because the general forms
carry more kernel terms for them and so reach MAX_TERMS sooner:
``x_kpkp(a, l, b, 0)`` refuses ``x_kpk(3, 5, 52)`` by the terms held and
``x_kpk(500, 500, 1)`` by the moves recorded, and at order 20 it takes a median
2.5 times as long; ``x_tw_lollipop(1, n - 1, n - l)`` lets a first part of 1
through and refuses ``x_tw_path(59, 10)``.

The four general forms keep what they return, once their parameters pass the
check, keyed by the form and its positional parameters, so special cases and
keyword calls share entries: of the 1303 evaluations of a verify sweep at
n <= 9, 406 are hits, which skip the kernel.  A call that raises stores
nothing, and the :class:`~chromsym.symfunc.Memo` empties whole past 2**14 terms.

Conventions:

* ``K[-1]`` and ``K[-2]`` are the last and second-to-last parts.
* The weight of the empty composition is taken to be 1 (the empty product),
  which is what the helper-weight terms f2/f3 need on one-part compositions.
* Sums displayed over all compositions skip terms whose weight factor is 0;
  guarded fractional coefficients are never evaluated on vanishing terms.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial
from typing import Callable, Hashable, Iterable

# perfbench's tracer wraps w, theta, theta_minus, gap and rho here by name: keep them importable.
from .compositions import Composition, ParameterError, gap, rho, theta, theta_minus, w
from .symfunc import DIGIT, DIGIT_MASK, ESymFunc, Memo, OrderLimitError, pack, unpack

Acc = dict[int, int]
Step = Callable[[Hashable, int, int], Iterable[tuple[Hashable, int]]]

# An expansion whose kernel layers hold more terms than this after an offset is refused.
MAX_TERMS = 2**20
# composition_sum carries partitions in one pass up to this order, and prunes dead states above it.
ONE_PASS_MAX_N = 12

# A verify sweep stores 12983 terms at max-n 11, about 130 bytes each, and 38826
# at max-n 13, where holding 2**14 keeps 259 of its 1248 hits.
_memo = Memo(1 << 14, lambda f: len(f.terms))


def composition_sum(n: int, step: Step, start: Hashable) -> Acc:
    """Sum over the compositions of n of a product of per-part factors, by partition.

    A composition is read part by part, carrying a small state that starts at
    `start`.  A part p starting at offset s (the sum of the parts before it)
    is offered as ``step(state, s, p)``, which returns the ``(new_state,
    coeff)`` pairs it leads to: none, or a zero coeff, drops the composition,
    and several split it into summands.  The coefficient of a composition is
    the product of the coeffs along its path, credited to the partition of
    its parts.  Steps ending at n must return only states whose composition
    is complete.

    Compositions with the same prefix sum, state and partition are merged, so
    the work grows with the number of partitions of n times the number of
    states, not with the 2^(n-1) compositions; moves that end at n are summed
    straight into the result.  Partitions are packed keys
    (:func:`~chromsym.symfunc.pack`), so adding a part adds its key.  The
    result maps packed keys to their totals, without zero entries.

    Up to order ONE_PASS_MAX_N the partitions are carried in one forward pass
    (:func:`_one_pass`); above it, the moves are recorded and pruned to the
    states that can still reach n before anything is carried
    (:func:`_two_pass`).  Pruning pays only once partitions are many.  Over
    the kernel calls of six tuples of every family per graph order, one pass
    took this share of the time of two (best of 9, warm, Python 3.11 on a
    shared 2 vCPU host); order 13 is about even, so the switch keeps a margin:

        order     8     10    12    13    14    15    16    18    20
        share     0.80  0.88  0.96  0.98  1.03  1.09  1.16  1.29  1.38

    Both paths offer step the same (state, s, p) triples, in the same order,
    and give the same result.  Both raise OrderLimitError past MAX_TERMS moves
    (checked after every step call, so one state cannot make moves without
    bound) or past MAX_TERMS terms held after an offset, and past 255 equal
    parts, which only orders above ONE_PASS_MAX_N can reach.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return {0: 1}  # the empty composition, with no step to weigh
    return (_one_pass if n <= ONE_PASS_MAX_N else _two_pass)(n, step, start)


def _one_pass(n: int, step: Step, start: Hashable) -> Acc:
    """composition_sum carrying partitions as step is called, dead states included."""
    # no digit check: a partition of n <= ONE_PASS_MAX_N cannot hold 255 equal parts
    # layers[s]: state -> {packed partition of s: coefficient}, for s < n
    layers: list[dict] = [{} for _ in range(n)]
    layers[0][start] = {0: 1}
    total: Acc = {}
    held = 1  # terms in the layers not yet read, and in total
    made = 0
    for s in range(n):
        for state, poly in layers[s].items():
            held -= len(poly)
            for p in range(1, n - s + 1):
                shift = 1 << DIGIT * (p - 1)  # pack((p,))
                for new_state, coeff in step(state, s, p):
                    if coeff:
                        made += 1
                        out = total if s + p == n else layers[s + p].setdefault(new_state, {})
                        held -= len(out)
                        for key, c in poly.items():
                            key += shift
                            out[key] = out.get(key, 0) + coeff * c
                        held += len(out)
                if made > MAX_TERMS:
                    raise OrderLimitError(f"order {n} makes more than {MAX_TERMS} kernel moves "
                                          f"by offset {s}")
        layers[s] = {}
        if held > MAX_TERMS:
            raise OrderLimitError(f"order {n} holds more than {MAX_TERMS} terms after offset {s}")
    return {key: c for key, c in total.items() if c}


def _two_pass(n: int, step: Step, start: Hashable) -> Acc:
    """composition_sum recording every move, then carrying partitions through live states only.

    The first pass calls step once per reachable (offset, state, part) and
    records its nonzero moves, then walks back from n and keeps only the
    moves into states that can still reach n: a condition on the last parts,
    such as K[-1] >= a, leaves many states dead.  The second pass carries
    partitions along the kept moves only.
    """
    # moves[s]: state -> [(p, new_state, coeff), ...] for every state reached at s
    moves: list[dict] = [{} for _ in range(n + 1)]
    moves[0][start] = []
    recorded = 0
    for s in range(n):
        for state, out in moves[s].items():
            for p in range(1, n - s + 1):
                target = moves[s + p]
                for new_state, coeff in step(state, s, p):
                    if coeff:
                        out.append((p, new_state, coeff))
                        target.setdefault(new_state, [])
                        recorded += 1
                if recorded > MAX_TERMS:
                    raise OrderLimitError(f"order {n} makes more than {MAX_TERMS} kernel moves "
                                          f"by offset {s}")
    # every state at n is complete; a state below n lives if a move leads to a live one
    for s in range(n - 1, -1, -1):
        layer = moves[s]
        for state, out in list(layer.items()):
            kept = [move for move in out if move[1] in moves[s + move[0]]]
            if kept:
                layer[state] = kept
            else:
                del layer[state]
    # layers[s]: state -> {packed partition of s: coefficient}, for s < n
    layers: list[dict] = [{} for _ in range(n)]
    if start in moves[0]:
        layers[0][start] = {0: 1}
    total: Acc = {}
    held = len(layers[0])  # terms in the layers not yet read, and in total
    for s in range(n):
        for state, poly in layers[s].items():
            held -= len(poly)
            for p, new_state, coeff in moves[s][state]:
                shift = 1 << DIGIT * (p - 1)  # pack((p,))
                # a partition of s holds at most s // p parts p
                if s >= DIGIT_MASK * p and any(key // shift & DIGIT_MASK == DIGIT_MASK
                                               for key in poly):
                    raise OrderLimitError(f"order {n} puts more than {DIGIT_MASK} parts {p} in "
                                          "a partition, past the digit of packed keys")
                out = total if s + p == n else layers[s + p].setdefault(new_state, {})
                held -= len(out)
                for key, c in poly.items():
                    key += shift
                    out[key] = out.get(key, 0) + coeff * c
                held += len(out)
        layers[s] = moves[s] = {}
        if held > MAX_TERMS:
            raise OrderLimitError(f"order {n} holds more than {MAX_TERMS} terms after offset {s}")
    return {key: c for key, c in total.items() if c}


def _wf(s: int, p: int) -> int:
    """The factor of w for a part p starting at offset s: p first, p - 1 after."""
    return p if s == 0 else p - 1


def _product_sum(n: int, factor) -> Acc:
    """Sum over the compositions of n of the product of factor(s, p) over their parts."""
    return composition_sum(n, lambda state, s, p: ((state, factor(s, p)),), None)


def _add(acc: Acc, poly: Acc, extra: Composition = ()) -> Acc:
    """Add poly into acc, with the parts of `extra` joined to every partition."""
    shift = pack(extra)
    for key, c in poly.items():
        key += shift
        acc[key] = acc.get(key, 0) + c
    return acc


def _finish(acc: Acc, degree: int, prefactor: int = 1) -> ESymFunc:
    """The ESymFunc of prefactor * acc, asserting that it is e-positive."""
    for key, c in acc.items():
        if c < 0:
            raise AssertionError(f"negative coefficient {c * prefactor} at e{list(unpack(key))}")
    return ESymFunc.from_packed(acc, degree, prefactor)


# ----------------------------------------------------------------------
# paths, cycles, clique chains
# ----------------------------------------------------------------------

def x_path(n: int) -> ESymFunc:
    """X of the path on n vertices: sum of w_I e_I over compositions I of n."""
    if n < 1:
        raise ParameterError(f"needs n >= 1, got {n}")
    return _finish(_product_sum(n, _wf), n)


def x_cycle(n: int) -> ESymFunc:
    """X of the cycle on n vertices: sum of (i_1 - 1) w_I e_I.

    Only compositions with every part >= 2 contribute; n = 2 is accepted even
    though the graph constructor refuses it (the doubled edge colors like an
    edge).
    """
    if n < 2:
        raise ParameterError(f"needs n >= 2, got {n}")
    return _finish(_product_sum(n, lambda s, p: (p - 1) * p if s == 0 else p - 1), n)


def x_kchain(parts: Composition) -> ESymFunc:
    """X of the clique chain K_{i_1} + ... + K_{i_l}, all parts >= 2.

    The expansion runs over the weak compositions K of n - l + 1 of length l
    that branch consistently against the suffix sums of the part sequence;
    zero parts of K are dropped when forming e_K.  The state is the index of
    the next part of K; a step places one positive part and then any run of
    zero parts after it.
    """
    I = tuple(parts)
    if not I or any(p < 2 for p in I):
        raise ParameterError(f"needs a nonempty composition with parts >= 2, got {I}")
    n = sum(I)
    length = len(I)
    order = n - length + 1
    prefactor = factorial(I[-1] - 1)
    for p in I[:-1]:
        prefactor *= factorial(p - 2)
    suffix_sums = list(accumulate(reversed(I)))[::-1]  # suffix_sums[j] = sum(I[j:])
    bound = [t - (length - 1 - j) for j, t in enumerate(suffix_sums)]

    def factor(j: int, suffix: int, k: int) -> int:
        """Factor of K[j] = k (j >= 1) when K[j] + ... + K[l-1] = suffix; 0 off-branch."""
        if (k < I[j - 1]) != (suffix < bound[j]):
            return 0
        return abs(k - I[j - 1] + 1)

    def step(j, s, p):
        coeff = p if j == 0 else factor(j, order - s, p)
        rest = order - s - p
        pairs = []
        for m in range(j + 1, length):
            if not coeff:
                break
            if rest:
                pairs.append((m, coeff))
            coeff *= factor(m, rest, 0)
        if coeff and not rest:
            pairs.append((length, coeff))
        return pairs
    return _finish(composition_sum(order, step, 0), order, prefactor)


# ----------------------------------------------------------------------
# lollipops and melting lollipops
# ----------------------------------------------------------------------

def x_lollipop(a: int, l: int) -> ESymFunc:
    """X of the lollipop K_a^l, which is the chain K_a + P_{l+1} + K_1.

    a = 1 is allowed and degenerates to the path on l + 1 vertices.
    """
    if a < 1 or l < 0:
        raise ParameterError(f"needs a >= 1 and l >= 0, got {(a, l)}")
    return x_kpk(a, 1, l)


def x_melting_lollipop(a: int, l: int, k: int) -> ESymFunc:
    """X of the lollipop K_a^l with k center edges removed.

    The last part weighs k when it is a - 1 (it leaves w) and
    (a - k - 1)(i_{-1} - 1) when it is at least a.
    """
    if a < 2 or l < 0 or not 0 <= k <= a - 1:
        raise ParameterError(
            f"needs a >= 2, l >= 0, 0 <= k <= a-1, got {(a, l, k)}")
    n = a + l

    def factor(s, p):
        if s + p < n:
            return _wf(s, p)
        if p == a - 1:
            return k
        return (a - k - 1) * _wf(s, p) if p >= a else 0
    return _finish(_product_sum(n, factor), n, factorial(a - 2))


# ----------------------------------------------------------------------
# clique-path-clique chains and their cousins
# ----------------------------------------------------------------------

def x_kpk(a: int, b: int, l: int) -> ESymFunc:
    """X of the chain K_a + P_{l+1} + K_b.

    Compositions with i_{-1} >= a weigh w_I when i_1 >= b, and
    (i_2 - i_1)(i_3 - 1)...(i_l - 1) when i_1 < b <= i_2.  The state is
    "first", then i_1 while i_2 is pending, then "w".
    """
    if a < 1 or b < 1 or l < 0:
        raise ParameterError(f"needs a, b >= 1 and l >= 0, got {(a, b, l)}")
    n = a + b + l - 1

    def step(state, s, p):
        if s + p == n and p < a:
            return ()
        if state == "w":
            return (("w", p - 1),)
        if state == "first":
            return (("w", p),) if p >= b else ((p, 1),)
        return (("w", p - state),) if p >= b else ()
    return _memo.remember(("kpk", a, b, l), lambda: _finish(
        composition_sum(n, step, "first"), n, factorial(a - 1) * factorial(b - 1)))


def x_kpk_b3(a: int, l: int) -> ESymFunc:
    """X of K_a + P_{l+1} + K_3 (a >= 3), the chain x_kpk at b = 3."""
    if a < 3 or l < 0:
        raise ParameterError(f"needs a >= 3 and l >= 0, got {(a, l)}")
    return x_kpk(a, 3, l)


def x_pkp(g: int, a: int, h: int) -> ESymFunc:
    """X of the chain P_{g+1} + K_a + P_{h+1}, which is K_1 + P_{g+1} + K_a + P_{h+1}."""
    if g < 0 or h < 0 or a < 2:
        raise ParameterError(f"needs g, h >= 0 and a >= 2, got {(g, a, h)}")
    return x_kpkp(1, g, a, h)


def x_kkp(a: int, b: int, h: int) -> ESymFunc:
    """X of the chain K_a + K_b + P_{h+1}, which is K_a + P_1 + K_b + P_{h+1}."""
    if a < 1 or b < 2 or h < 0:
        raise ParameterError(f"needs a >= 1, b >= 2, h >= 0, got {(a, b, h)}")
    return x_kpkp(a, 0, b, h)


def x_kpc(a: int, l: int, c: int) -> ESymFunc:
    """X of the clique-path-cycle chain K_a + P_{l+1} + C_c.

    Compositions with i_2 >= a weigh theta_I(a+l) w_I, except that
    i_1 <= a - 1 and i_2 >= a + l give (i_2 - a - l + (i_2 - i_1)/(i_2 - 1)) w_I,
    summed as i_1 ((i_2 - a - l)(i_2 - 1) + i_2 - i_1)(i_3 - 1)...  The
    state is i_1 until i_2 is read, then 0.
    """
    if a < 1 or l < 0 or c < 2:
        raise ParameterError(f"needs a >= 1, l >= 0, c >= 2, got {(a, l, c)}")
    n = a + l + c - 1
    x = a + l

    def step(i1, s, p):
        coeff = _wf(s, p)
        if s == 0:
            i1 = p
        elif i1:
            if p < a:
                return ()
            if i1 <= a - 1 and p >= x:  # i_2 straddles a + l: no theta
                return ((0, (p - x) * coeff + p - i1),)
            i1 = 0
        if s < x <= s + p:
            coeff *= s + p - x
        return ((i1, coeff),)
    return _memo.remember(("kpc", a, l, c), lambda: _finish(
        composition_sum(n, step, 0), n, factorial(a - 1)))


def x_tadpole(c: int, l: int) -> ESymFunc:
    """X of the cycle C_c with a pendant path of length l, which is K_1 + P_{l+1} + C_c."""
    if c < 2 or l < 0:
        raise ParameterError(f"needs c >= 2 and l >= 0, got {(c, l)}")
    return x_kpc(1, l, c)


# ----------------------------------------------------------------------
# clique-path-clique-path chains
# ----------------------------------------------------------------------

def x_kpkp(a: int, g: int, b: int, h: int) -> ESymFunc:
    """X of the chain K_a + P_{g+1} + K_b + P_{h+1} (order n = a+g+b+h-1).

    Five composition sums plus the (b-1) n e_n head term; the single-part
    composition contributes only to the head term.  One f3 sum is subtracted,
    so positivity holds only for the total.  The state is (theta_K(h+1) >= b - 1
    once known, K[-2] >= a, K[-2] started at <= h, i.e. K[-1] + K[-2] >= n - h),
    and the last part p is weighed against w of the parts before it.
    """
    if a < 1 or b < 2 or g < 0 or h < 0:
        raise ParameterError(f"needs a >= 1, b >= 2, g, h >= 0, got {(a, g, b, h)}")
    n = a + g + b + h - 1

    def last(s, p, high, prev_big, near):
        if s == 0:
            return 0
        f1, f2, f3 = (b - 1) * (p - 1), (b - 2) * p, p - b + 1
        if not high:
            return f3 if p >= b - 1 and (near or prev_big) else 0
        coeff = 0
        if p >= b - 1 and prev_big and not near:
            coeff += f1
        if near and p >= max(a, b - 1):
            coeff += f1
        if p <= b - 2 and prev_big and (p >= a or not near):
            coeff += f2
        if near and p <= min(a - 1, b - 2):
            coeff -= f3
        return coeff

    def step(state, s, p):
        high, prev_big, near = state
        if s < h + 1 <= s + p:
            high = s + p - h - 1 >= b - 1
        if s + p < n:
            return (((high, p >= a, s <= h), _wf(s, p)),)
        return ((None, last(s, p, high, prev_big, near)),)
    return _memo.remember(("kpkp", a, g, b, h), lambda: _finish(
        _add({pack((n,)): (b - 1) * n}, composition_sum(n, step, (None, False, False))), n,
        factorial(a - 1) * factorial(b - 2)))


def x_kpkp_b3(a: int, g: int, h: int) -> ESymFunc:
    """X of K_a + P_{g+1} + K_3 + P_{h+1}, the chain x_kpkp at b = 3."""
    if a < 1 or g < 0 or h < 0:
        raise ParameterError(f"needs a >= 1 and g, h >= 0, got {(a, g, h)}")
    return x_kpkp(a, g, 3, h)


# ----------------------------------------------------------------------
# twinned families
# ----------------------------------------------------------------------

def x_tw_path(n: int, l: int) -> ESymFunc:
    """X of the path on n vertices twinned at its l-th vertex (2 <= l <= n-1).

    The fractional weights of the expansion cancel against w: the head term
    (1 - 2/i_1) w_I weighs i_1 - 2 for its first part, and (1 - 1/theta_K(l+t)) w_K
    weighs k - 2 for the part k read right after the one reaching l - 1 with
    overshoot t <= 2 (that part's overshoot at l + t is k - 1).
    """
    if n < 3 or not 2 <= l <= n - 1:
        raise ParameterError(f"needs n >= 3 and 2 <= l <= n-1, got {(n, l)}")

    def overshoot_at_least_3(x: int, min_part: int):
        return lambda s, p: 0 if p < min_part or s < x <= s + p < x + 3 else _wf(s, p)

    def twin_sum(state, s, p):
        if p < 2:
            return ()
        if state == "next":
            return (("w", p - 2),)
        coeff = _wf(s, p)
        if s < l - 1 <= s + p:
            return (("next", coeff),) if s + p - (l - 1) <= 2 else (("w", 2 * coeff),)
        return (("w", coeff),)
    acc = composition_sum(n + 1, twin_sum, "w")
    _add(acc, _product_sum(n, overshoot_at_least_3(l - 1, 1)), (1,))
    _add(acc, _product_sum(n, overshoot_at_least_3(n - l, 2)), (1,))
    _add(acc, _product_sum(n, lambda s, p: (p - 2 if s == 0 else p - 1) if p >= 2 else 0), (1,))
    return _finish(acc, n + 1, 2)


def x_tw_cycle(n: int) -> ESymFunc:
    """X of the cycle on n vertices with one vertex twinned.

    Three sums that differ from w only in the first part's factor (and, for
    the second, in a last part >= 3); 4 (i_1 - 3 + 1/i_1) i_1 is summed as
    4 (i_1^2 - 3 i_1 + 1).
    """
    if n < 3:
        raise ParameterError(f"needs n >= 3, got {n}")

    def total(m: int, first, last_min: int = 1) -> Acc:
        return _product_sum(m, lambda s, p: (0 if s + p == m and p < last_min
                                             else first(p) if s == 0 else p - 1))
    acc = total(n + 1, lambda p: 2 * (2 * p - 5) * p if p >= 3 else 0, 3)
    _add(acc, total(n, lambda p: 2 * (p - 3) * (p - 1) if p >= 4 else 0), (1,))
    _add(acc, total(n - 1, lambda p: 4 * (p * p - 3 * p + 1) if p >= 3 else 0), (2,))
    return _finish(acc, n + 1)


def x_tw_lollipop(a: int, l: int, h: int) -> ESymFunc:
    """X of the lollipop K_a^l twinned at the path vertex at distance h from the leaf.

    Valid for a >= 1, l >= 2 and 1 <= h <= l-1; the expansion does not hold
    at h = 0 (that twin is a clique-path-clique chain instead).  The term
    ((t3 - 1)/t3) w_K with t3 = theta_K(h+3) weighs k - 2 for the part k read
    right after the one reaching h + 2, since t3 = k - 1 there.
    """
    if a < 1 or l < 2 or not 1 <= h <= l - 1:
        raise ParameterError(f"needs a >= 1, l >= 2, 1 <= h <= l-1, got {(a, l, h)}")
    n = a + l + 1

    def big_last(state, s, p):  # i_{-1} >= a; theta_K(h) >= 3 or theta_K(h) == 2
        if s + p == n and p < a:
            return ()
        if state == "next":
            return (("w", p - 2),) if p >= 3 else ()
        coeff = _wf(s, p)
        if s < h <= s + p:
            t = s + p - h
            if t >= 3:
                return (("w", 2 * coeff),)
            return (("next", coeff),) if t == 2 else ()
        return (("w", coeff),)

    def low_theta(state, s, p):  # theta_K(h) <= 1; state: K[-2] >= a, K[-2] started < h
        if s < h <= s + p and s + p - h > 1:
            return ()
        if s + p < n:
            return (((p >= a, s <= h - 1), _wf(s, p)),)
        return ((None, p - 2),) if s and p >= 3 and any(state) else ()

    def shifted(s, p):
        return 0 if (s + p == n - 1 and p < a) or s < h <= s + p < h + 3 else _wf(s, p)
    acc = composition_sum(n, big_last, "w")
    _add(acc, composition_sum(n, low_theta, (False, False)))
    _add(acc, _product_sum(n - 1, shifted), (1,))
    return _finish(acc, n, 2 * factorial(a - 1))


# ----------------------------------------------------------------------
# kayak paddles and infinity graphs
# ----------------------------------------------------------------------

def x_kayak(a: int, b: int, l: int) -> ESymFunc:
    """X of the kayak paddle: cycles of sizes a and b joined by a path of length l.

    Four sums over single compositions keyed on the first part, plus two sums
    over concatenation splits K = IJ with a + l - j_1 + 1 <= |I| <= a - 1;
    every term carries the base weight g(K) = theta_K(a+l) w_K.  The split
    is unique when it exists: J starts with the part straddling a + l.  Its
    fractional weights are summed multiplied by i_1 (j_1 - 1), the factors
    of w they divide.
    """
    if a < 3 or b < 3 or l < 0:
        raise ParameterError(f"needs a, b >= 3 and l >= 0, got {(a, b, l)}")
    n = a + b + l - 1
    x = a + l

    # state: k_1 until theta_K(a+l) is settled, then 0; b2 and b3 below mean
    # 2 <= k_1 <= l + 1 and l + 2 <= k_1 <= l + a - 1, which need theta_K(a) <= l
    def single(k1, s, p):
        coeff = _wf(s, p)
        end = s + p
        if s == 0:
            k1 = p
            if k1 >= x:
                coeff *= a - 1
        if s < a <= end:
            if k1 == 1:
                coeff *= a - s if end > a else 0  # theta_minus_K(a)
            elif k1 < x and end - a > l:
                return ()
        y = k1 + a - 1
        if 2 <= k1 <= l + 1 and s < y <= end:  # b2: theta_minus_K(k_1 + a - 1)
            coeff *= y - s if end > y else 0
        if not s < x <= end:
            return ((k1, coeff),)
        coeff *= end - x
        if l + 2 <= k1 < x:  # b3: theta_minus_K(a+l) + k_1 - l - 1
            coeff *= (x - s if end > x else 0) + k1 - l - 1
        return ((0, coeff),)

    # state: i_1, its factor of w deferred, until J starts; then 0
    def split(i1, s, p):
        if p < 2:
            return ()
        end = s + p
        if s == 0:
            return ((p, 1),) if p < x else ()
        if not i1 or not s < x <= end:
            return ((i1, p - 1),)
        if s > a - 1 or end <= x:
            return ()
        j1, rest = p, a - 1 - s
        coeff = 0
        if i1 <= l + 1 or i1 == j1 or s >= a + i1 - j1:
            coeff += i1 * (rest * (j1 - 1) + j1 - i1)
        if i1 > j1:
            coeff += i1 * (i1 - j1) * (j1 - 1) + rest * (i1 * (j1 - 1) + j1 * (i1 - 1))
        return ((0, coeff * (end - x)),)
    return _memo.remember(("kayak", a, b, l), lambda: _finish(
        _add(composition_sum(n, single, 0), composition_sum(n, split, 0)), n))


def x_infinity(a: int, b: int) -> ESymFunc:
    """X of two cycles of sizes a and b sharing a vertex: the kayak paddle with l = 0."""
    if a < 3 or b < 3:
        raise ParameterError(f"needs a, b >= 3, got {(a, b)}")
    return x_kayak(a, b, 0)
