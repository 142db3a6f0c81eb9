"""Closed-form positive e-expansions, one evaluator per supported graph family.

Every evaluator returns the full chromatic symmetric function (prefactors
multiplied back in) as an exact :class:`~chromsym.symfunc.ESymFunc`.  The
expansions are sums over integer compositions, weighted by the statistics of
:mod:`chromsym.compositions`.  They are evaluated by the prefix-sum DP
:func:`~chromsym.compositions.composition_sum`, whose work grows with the
number of partitions of n, not with the 2^(n-1) compositions.  Each
evaluator supplies a step that weighs one part p starting at offset s, and
every statistic is settled at a single step:

* w takes p from the first part (s == 0) and p - 1 from every later part;
* the part straddling a position x is the one with s < x <= s + p, so
  theta(I, x) = s + p - x, theta_minus(I, x) = x - s, or 0 when s + p == x,
  and gap(I, x) = p when s + p > x;
* the last part is the one with s + p == n, and K[-1] + K[-2] >= n - h says
  that K[-2] started at s <= h;
* the first part, and whatever else a later step needs, rides in the state.

Fractional weights are summed multiplied by the factors of w they divide,
so every coefficient is an integer; a finishing check asserts that the
combined result is integral (and e-positive where a sum is subtracted).
The per-composition definitions are kept in ``tests/reference_formulas.py``
and checked against these evaluators.

Conventions:

* ``K[-1]`` and ``K[-2]`` are the last and second-to-last parts.
* The weight of the empty composition is taken to be 1 (the empty product),
  which is what the helper-weight terms f2/f3 need on one-part compositions.
* Sums displayed over all compositions skip terms whose weight factor is 0;
  guarded fractional coefficients are never evaluated on vanishing terms.
"""

from __future__ import annotations

from math import factorial

# perfbench's tracer wraps w, theta, theta_minus, gap and rho here by name: keep them importable.
from .compositions import (
    Composition,
    composition_sum,
    gap,
    rho,
    theta,
    theta_minus,
    w,
)
from .symfunc import ESymFunc, Scalar, e_term

Acc = dict[tuple[int, ...], Scalar]


def _wf(s: int, p: int) -> int:
    """The factor of w for a part p starting at offset s: p first, p - 1 after."""
    return p if s == 0 else p - 1


def _product_sum(n: int, factor) -> Acc:
    """Sum over the compositions of n of the product of factor(s, p) over their parts."""
    return composition_sum(n, lambda state, s, p: ((state, factor(s, p)),), None)


def _add(acc: Acc, poly: Acc, extra: Composition = ()) -> Acc:
    """Add poly into acc, with the parts of `extra` joined to every partition."""
    for key, c in poly.items():
        key = rho(key + extra)
        acc[key] = acc.get(key, 0) + c
    return acc


def _finish(acc: Acc, degree: int, prefactor: int = 1,
            require_positive: bool = False) -> ESymFunc:
    terms = {key: c * prefactor for key, c in acc.items() if c != 0}
    for key, c in terms.items():
        if c.denominator != 1:
            raise AssertionError(f"non-integer coefficient {c} at e{list(key)}")
        if require_positive and c < 0:
            raise AssertionError(f"negative coefficient {c} at e{list(key)}")
    return ESymFunc(terms, degree)


def _w_drop_last(K: Composition) -> int:
    """Weight of K without its last part; 1 when that leaves nothing."""
    return w(K[:-1]) if len(K) > 1 else 1


def _f1(K: Composition, b: int) -> int:
    return (b - 1) * w(K)


def _f2(K: Composition, b: int) -> int:
    return (b - 2) * K[-1] * _w_drop_last(K)


def _f3(K: Composition, b: int) -> int:
    return (K[-1] - b + 1) * _w_drop_last(K)


# ----------------------------------------------------------------------
# paths, cycles, clique chains
# ----------------------------------------------------------------------

def x_path(n: int) -> ESymFunc:
    """X of the path on n vertices: sum of w_I e_I over compositions I of n."""
    if n < 1:
        raise ValueError(f"needs n >= 1, got {n}")
    return _finish(_product_sum(n, _wf), n)


def x_cycle(n: int) -> ESymFunc:
    """X of the cycle on n vertices: sum of (i_1 - 1) w_I e_I.

    Only compositions with every part >= 2 contribute; n = 2 is accepted even
    though the graph constructor refuses it (the doubled edge colors like an
    edge).
    """
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
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
        raise ValueError(f"needs a nonempty composition with parts >= 2, got {I}")
    n = sum(I)
    length = len(I)
    order = n - length + 1
    prefactor = factorial(I[-1] - 1)
    for p in I[:-1]:
        prefactor *= factorial(p - 2)
    bound = [sum(I[j:]) - (length - 1 - j) for j in range(length)]

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
    """X of the lollipop K_a^l: (a-1)! times the sum of w_I e_I over i_{-1} >= a.

    a = 1 is allowed and degenerates to the path on l + 1 vertices.
    """
    if a < 1 or l < 0:
        raise ValueError(f"needs a >= 1 and l >= 0, got {(a, l)}")
    n = a + l
    return _finish(_product_sum(n, lambda s, p: _wf(s, p) if s + p < n or p >= a else 0),
                   n, factorial(a - 1))


def x_melting_lollipop(a: int, l: int, k: int) -> ESymFunc:
    """X of the lollipop K_a^l with k center edges removed.

    The last part weighs k when it is a - 1 (it leaves w) and
    (a - k - 1)(i_{-1} - 1) when it is at least a.
    """
    if a < 2 or l < 0 or not 0 <= k <= a - 1:
        raise ValueError(
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
        raise ValueError(f"needs a, b >= 1 and l >= 0, got {(a, b, l)}")
    n = a + b + l - 1

    def step(state, s, p):
        if s + p == n and p < a:
            return ()
        if state == "w":
            return (("w", p - 1),)
        if state == "first":
            return (("w", p),) if p >= b else ((p, 1),)
        return (("w", p - state),) if p >= b else ()
    return _finish(composition_sum(n, step, "first"), n,
                   factorial(a - 1) * factorial(b - 1))


def x_kpk_b3(a: int, l: int) -> ESymFunc:
    """X of K_a + P_{l+1} + K_3 in its condensed two-term form (a >= 3).

    The state counts the parts read, up to 2: a second part must be >= 3.
    """
    if a < 3 or l < 0:
        raise ValueError(f"needs a >= 3 and l >= 0, got {(a, l)}")
    n = a + l + 2

    def step(i, s, p):
        if (s + p == n and (p < a or p == n - 2)) or (i == 1 and p < 3):
            return ()
        return ((min(i + 1, 2), _wf(s, p)),)
    acc = _add({(n - 2, 2): n - 4}, composition_sum(n, step, 0))
    return _finish(acc, n, 2 * factorial(a - 1))


def x_pkp(g: int, a: int, h: int) -> ESymFunc:
    """X of the chain P_{g+1} + K_a + P_{h+1} (order g + a + h).

    (a - 1) e_n, plus f2 over theta_I(h+1) >= a - 1, plus f3 over i_{-1} >= a - 1.
    """
    if g < 0 or h < 0 or a < 2:
        raise ValueError(f"needs g, h >= 0 and a >= 2, got {(g, a, h)}")
    n = g + a + h
    x = h + 1

    def f2(s, p):
        if s < x <= s + p < x + a - 1:
            return 0
        return (a - 2) * p if s + p == n else _wf(s, p)
    acc = _add({(n,): a - 1}, _product_sum(n, f2))
    _add(acc, _product_sum(n, lambda s, p: _wf(s, p) if s + p < n else max(p - a + 1, 0)))
    return _finish(acc, n, factorial(a - 2))


def x_kkp(a: int, b: int, h: int) -> ESymFunc:
    """X of the chain K_a + K_b + P_{h+1}.

    f1 over i_{-1} >= n - h, and -f3 or +f3 over i_{-1} + i_{-2} >= n - h, that
    is over compositions whose second-to-last part starts at <= h; the state
    says whether the part just read started there.  One of the three sums is
    subtracted; positivity holds only for the total and is asserted on it.
    """
    if a < 1 or b < 2 or h < 0:
        raise ValueError(f"needs a >= 1, b >= 2, h >= 0, got {(a, b, h)}")
    n = a + b + h - 1

    def step(prev_near, s, p):
        if s + p < n:
            return ((s <= h, _wf(s, p)),)
        coeff = (b - 1) * _wf(s, p) if p >= n - h else 0
        if prev_near:
            if p <= min(a - 1, b - 2):
                coeff -= p - b + 1
            elif max(a, b) <= p <= n - h - 1:
                coeff += p - b + 1
        return ((None, coeff),)
    return _finish(composition_sum(n, step, False), n,
                   factorial(a - 1) * factorial(b - 2), require_positive=True)


def x_kpc(a: int, l: int, c: int) -> ESymFunc:
    """X of the clique-path-cycle chain K_a + P_{l+1} + C_c.

    Compositions with i_2 >= a weigh theta_I(a+l) w_I, except that
    i_1 <= a - 1 and i_2 >= a + l give (i_2 - a - l + (i_2 - i_1)/(i_2 - 1)) w_I,
    summed as i_1 ((i_2 - a - l)(i_2 - 1) + i_2 - i_1)(i_3 - 1)...  The
    state is i_1 until i_2 is read, then 0.
    """
    if a < 1 or l < 0 or c < 2:
        raise ValueError(f"needs a >= 1, l >= 0, c >= 2, got {(a, l, c)}")
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
    return _finish(composition_sum(n, step, 0), n, factorial(a - 1))


def x_tadpole(c: int, l: int) -> ESymFunc:
    """X of the cycle C_c with a pendant path of length l."""
    return x_kpc(1, l, c)


# ----------------------------------------------------------------------
# clique-path-clique-path chains
# ----------------------------------------------------------------------

def _kpkp_sum(n: int, a: int, b: int, h: int, last) -> Acc:
    """A sum for the clique-path-clique-path chains, settled at the last part.

    The state is (theta_K(h+1) >= b - 1 once known, K[-2] >= a, K[-2] started
    at <= h, i.e. K[-1] + K[-2] >= n - h); ``last(s, p, *state)`` weighs the
    last part p, against w of the parts before it.
    """
    def step(state, s, p):
        high, prev_big, near = state
        if s < h + 1 <= s + p:
            high = s + p - h - 1 >= b - 1
        if s + p < n:
            return (((high, p >= a, s <= h), _wf(s, p)),)
        return ((None, last(s, p, high, prev_big, near)),)
    return composition_sum(n, step, (None, False, False))


def x_kpkp(a: int, g: int, b: int, h: int) -> ESymFunc:
    """X of the chain K_a + P_{g+1} + K_b + P_{h+1} (order n = a+g+b+h-1).

    Five composition sums plus the (b-1) n e_n head term; the single-part
    composition contributes only to the head term.  One f3 sum is subtracted,
    so positivity is asserted on the total.
    """
    if a < 1 or b < 2 or g < 0 or h < 0:
        raise ValueError(f"needs a >= 1, b >= 2, g, h >= 0, got {(a, g, b, h)}")
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
    acc = _add({(n,): (b - 1) * n}, _kpkp_sum(n, a, b, h, last))
    return _finish(acc, n, factorial(a - 1) * factorial(b - 2),
                   require_positive=True)


def x_kpkp_b3(a: int, g: int, h: int) -> ESymFunc:
    """X of K_a + P_{g+1} + K_3 + P_{h+1} in its condensed three-sum form."""
    if a < 1 or g < 0 or h < 0:
        raise ValueError(f"needs a >= 1 and g, h >= 0, got {(a, g, h)}")
    n = a + g + h + 2

    def last(s, p, high, prev_big, near):
        coeff = 2 * _wf(s, p) if high and p >= a else 0
        if s and high and p == 1 and prev_big:
            coeff += 1
        if s and not high and p >= 2 and (near or prev_big):
            coeff += p - 2
        return coeff
    return _finish(_kpkp_sum(n, a, 3, h, last), n, factorial(a - 1))


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
        raise ValueError(f"needs n >= 3 and 2 <= l <= n-1, got {(n, l)}")

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
        raise ValueError(f"needs n >= 3, got {n}")

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
        raise ValueError(f"needs a >= 1, l >= 2, 1 <= h <= l-1, got {(a, l, h)}")
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
        raise ValueError(f"needs a, b >= 3 and l >= 0, got {(a, b, l)}")
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
    acc = composition_sum(n, single, 0)
    _add(acc, composition_sum(n, split, 0))
    return _finish(acc, n)


def x_infinity(a: int, b: int) -> ESymFunc:
    """X of two cycles of sizes a and b sharing a vertex.

    Keyed on the first part against theta_I(a) and the straddling part I(a);
    whole terms are skipped when theta_I(a) = 0 since the base weight
    vanishes there (and only there can I(a) drop below 2).  The state is i_1
    until the straddling part is read, then 0; for 2 <= i_1 <= a - 1 the
    factor i_1 of w waits for it, so that the fractional weights are summed
    as integers.
    """
    if a < 3 or b < 3:
        raise ValueError(f"needs a, b >= 3, got {(a, b)}")
    n = a + b - 1

    def step(i1, s, p):
        end = s + p
        if s == 0:
            i1, coeff = p, (a - 1) * p if p >= a else 1
        else:
            coeff = p - 1
            if not coeff:
                return ()
        if not s < a <= end:
            return ((i1, coeff),)
        t, tm = end - a, a - s
        if i1 >= a:
            coeff *= t
        elif i1 == 1:
            coeff *= tm * t
        elif i1 <= t or i1 == p:
            coeff = t * i1 * ((tm - 1) * (p - 1) + p - i1)
        elif p + 1 <= i1:
            coeff = t * (i1 * (i1 - p) * (p - 1) + (tm - 1) * (i1 * (p - 1) + p * (i1 - 1)))
        else:
            return ()
        return ((0, coeff),)
    return _finish(composition_sum(n, step, 0), n)


# ----------------------------------------------------------------------
# helper-weight identity
# ----------------------------------------------------------------------

def f123_check(a: int, I: Composition) -> bool:
    """Check f1(I,a) - f2(I,a) - f3(I,a) == (a-1) e_n for one-part I, else 0."""
    if a < 2 or not I:
        raise ValueError("needs a >= 2 and a nonempty composition")
    n = sum(I)
    coeff = _f1(I, a) - _f2(I, a) - _f3(I, a)
    actual = ESymFunc({rho(I): coeff})
    expected = e_term((n,), a - 1) if len(I) == 1 else ESymFunc({}, 0)
    return actual == expected
