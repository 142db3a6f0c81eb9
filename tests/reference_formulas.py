"""Enumerative reference for the closed forms in :mod:`chromsym.formulas`.

Each evaluator here walks every composition (2^(n-1) of them for order n)
and applies the filter and weight of its expansion to one composition at a
time: the definitions written out literally.  :mod:`chromsym.formulas`
evaluates the same sums with the prefix-sum kernel
:func:`chromsym.formulas.composition_sum`; the tests compare the two.
Keep this module as it is: it is the slow, obvious form that the fast one
is checked against, practical up to order 14 or so.

Also here, for the identity tests: the weak-composition enumerator the clique
chain needs, part removal, and the helper-weight identity f1 - f2 - f3.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from operator import sub
from typing import Iterator

from chromsym.compositions import (
    Composition,
    gap,
    iter_compositions,
    rho,
    theta,
    theta_minus,
    w,
)
from chromsym.symfunc import ESymFunc, Scalar, e_term

Acc = dict[tuple[int, ...], Scalar]


def _emit(acc: Acc, parts: Composition, coeff: Scalar) -> None:
    if coeff:
        key = rho(parts)
        acc[key] = acc.get(key, 0) + coeff


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


def iter_weak_compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of `total` into `length` parts, lexicographic: the steps
    between the length - 1 partial sums, drawn with repetition from 0..total."""
    if total < 0 or length < 1:
        raise ValueError(f"needs total >= 0 and length >= 1, got {(total, length)}")
    for sums in combinations_with_replacement(range(total + 1), length - 1):
        yield tuple(map(sub, sums + (total,), (0,) + sums))


def remove_part(I: Composition, k: int) -> Composition:
    """Drop the k-th part, 1-based; negative k counts from the end (i_{-k})."""
    length = len(I)
    if not 1 <= abs(k) <= length:
        raise ValueError(f"part index {k} out of range for length {length}")
    idx = k - 1 if k > 0 else length + k
    return I[:idx] + I[idx + 1:]


# ----------------------------------------------------------------------
# paths, cycles, clique chains
# ----------------------------------------------------------------------

def x_path(n: int) -> ESymFunc:
    """X of the path on n vertices: sum of w_I e_I over compositions I of n."""
    if n < 1:
        raise ValueError(f"needs n >= 1, got {n}")
    acc: Acc = {}
    for I in iter_compositions(n, 1):
        _emit(acc, I, w(I))
    return _finish(acc, n)


def x_cycle(n: int) -> ESymFunc:
    """X of the cycle on n vertices: sum of (i_1 - 1) w_I e_I.

    Only compositions with every part >= 2 contribute; n = 2 is accepted even
    though the graph constructor refuses it (the doubled edge colors like an
    edge).
    """
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    acc: Acc = {}
    for I in iter_compositions(n, 2):
        _emit(acc, I, (I[0] - 1) * w(I))
    return _finish(acc, n)


def x_kchain(parts: Composition) -> ESymFunc:
    """X of the clique chain K_{i_1} + ... + K_{i_l}, all parts >= 2.

    The expansion runs over the weak compositions K of n - l + 1 of length l
    that branch consistently against the suffix sums of the part sequence;
    zero parts of K are dropped when forming e_K.
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
    suffix_i = [sum(I[j:]) for j in range(length + 1)]
    acc: Acc = {}
    for K in iter_weak_compositions(order, length):
        ok = True
        suff_k = order
        for j in range(1, length):  # 0-based index of the 1-based parts 2..l
            suff_k -= K[j - 1]
            bound = suffix_i[j] - (length - 1 - j)
            if K[j] < I[j - 1]:
                ok = suff_k < bound
            else:
                ok = suff_k >= bound
            if not ok:
                break
        if not ok:
            continue
        coeff = K[0]
        for j in range(1, length):
            coeff *= abs(K[j] - I[j - 1] + 1)
        if coeff:
            _emit(acc, tuple(p for p in K if p), coeff)
    return _finish(acc, order, prefactor)


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
    acc: Acc = {}
    for I in iter_compositions(n, 1):
        if I[-1] >= a:
            _emit(acc, I, w(I))
    return _finish(acc, n, factorial(a - 1))


def x_melting_lollipop(a: int, l: int, k: int) -> ESymFunc:
    """X of the lollipop K_a^l with k center edges removed."""
    if a < 2 or l < 0 or not 0 <= k <= a - 1:
        raise ValueError(
            f"needs a >= 2, l >= 0, 0 <= k <= a-1, got {(a, l, k)}")
    n = a + l
    acc: Acc = {}
    for I in iter_compositions(n, 1):
        if I[-1] == a - 1:
            _emit(acc, I, k * _w_drop_last(I))
        elif I[-1] >= a:
            _emit(acc, I, (a - k - 1) * w(I))
    return _finish(acc, n, factorial(a - 2))


# ----------------------------------------------------------------------
# clique-path-clique chains and their cousins
# ----------------------------------------------------------------------

def x_kpk(a: int, b: int, l: int) -> ESymFunc:
    """X of the chain K_a + P_{l+1} + K_b."""
    if a < 1 or b < 1 or l < 0:
        raise ValueError(f"needs a, b >= 1 and l >= 0, got {(a, b, l)}")
    n = a + b + l - 1
    acc: Acc = {}
    for I in iter_compositions(n, 1):
        if I[-1] < a:
            continue
        if I[0] >= b:
            _emit(acc, I, w(I))
        elif len(I) >= 2 and I[1] > b - 1:
            tail = 1
            for p in I[2:]:
                tail *= p - 1
            _emit(acc, I, (I[1] - I[0]) * tail)
    return _finish(acc, n, factorial(a - 1) * factorial(b - 1))


def x_kpk_b3(a: int, l: int) -> ESymFunc:
    """X of K_a + P_{l+1} + K_3 in its condensed two-term form (a >= 3)."""
    if a < 3 or l < 0:
        raise ValueError(f"needs a >= 3 and l >= 0, got {(a, l)}")
    n = a + l + 2
    acc: Acc = {}
    _emit(acc, (n - 2, 2), n - 4)
    for I in iter_compositions(n, 1):
        if I[-1] >= a and I[-1] != n - 2 and (len(I) == 1 or I[1] >= 3):
            _emit(acc, I, w(I))
    return _finish(acc, n, 2 * factorial(a - 1))


def x_pkp(g: int, a: int, h: int) -> ESymFunc:
    """X of the chain P_{g+1} + K_a + P_{h+1} (order g + a + h)."""
    if g < 0 or h < 0 or a < 2:
        raise ValueError(f"needs g, h >= 0 and a >= 2, got {(g, a, h)}")
    n = g + a + h
    acc: Acc = {}
    _emit(acc, (n,), a - 1)
    for I in iter_compositions(n, 1):
        if theta(I, h + 1) >= a - 1:
            _emit(acc, I, _f2(I, a))
        if I[-1] >= a - 1:
            _emit(acc, I, _f3(I, a))
    return _finish(acc, n, factorial(a - 2))


def x_kkp(a: int, b: int, h: int) -> ESymFunc:
    """X of the chain K_a + K_b + P_{h+1}.

    One of the three sums is subtracted; positivity holds only for the total
    and is asserted on it.
    """
    if a < 1 or b < 2 or h < 0:
        raise ValueError(f"needs a >= 1, b >= 2, h >= 0, got {(a, b, h)}")
    n = a + b + h - 1
    acc: Acc = {}
    for I in iter_compositions(n, 1):
        if I[-1] >= n - h:
            _emit(acc, I, _f1(I, b))
        if len(I) >= 2 and I[-1] + I[-2] >= n - h:
            if I[-1] <= min(a - 1, b - 2):
                _emit(acc, I, -_f3(I, b))
            if max(a, b) <= I[-1] <= n - h - 1:
                _emit(acc, I, _f3(I, b))
    return _finish(acc, n, factorial(a - 1) * factorial(b - 2),
                   require_positive=True)


def x_kpc(a: int, l: int, c: int) -> ESymFunc:
    """X of the clique-path-cycle chain K_a + P_{l+1} + C_c.

    The per-composition coefficient has three branches; the fractional middle
    branch applies when i_1 <= a - 1 and i_2 >= a + l.
    """
    if a < 1 or l < 0 or c < 2:
        raise ValueError(f"needs a >= 1, l >= 0, c >= 2, got {(a, l, c)}")
    n = a + l + c - 1
    acc: Acc = {}
    for I in iter_compositions(n, 1):
        weight = w(I)
        if weight == 0:
            continue
        if len(I) >= 2 and I[1] < a:
            continue
        if len(I) >= 2 and I[0] <= a - 1 and I[1] >= a + l:
            coeff = I[1] - a - l + Fraction(I[1] - I[0], I[1] - 1)
        else:
            coeff = theta(I, a + l)
        _emit(acc, I, coeff * weight)
    return _finish(acc, n, factorial(a - 1))


def x_tadpole(c: int, l: int) -> ESymFunc:
    """X of the cycle C_c with a pendant path of length l."""
    return x_kpc(1, l, c)


# ----------------------------------------------------------------------
# clique-path-clique-path chains
# ----------------------------------------------------------------------

def x_kpkp(a: int, g: int, b: int, h: int) -> ESymFunc:
    """X of the chain K_a + P_{g+1} + K_b + P_{h+1} (order n = a+g+b+h-1).

    Five composition sums plus the (b-1) n e_n head term; the single-part
    composition contributes only to the head term.  One f3 sum is subtracted,
    so positivity is asserted on the total.
    """
    if a < 1 or b < 2 or g < 0 or h < 0:
        raise ValueError(f"needs a >= 1, b >= 2, g, h >= 0, got {(a, g, b, h)}")
    n = a + g + b + h - 1
    acc: Acc = {}
    _emit(acc, (n,), (b - 1) * n)
    for K in iter_compositions(n, 1):
        if len(K) < 2:
            continue
        high_theta = theta(K, h + 1) >= b - 1
        last, prev = K[-1], K[-2]
        tail_near = last + prev >= n - h
        if high_theta:
            if last >= b - 1 and prev >= a and not tail_near:
                _emit(acc, K, _f1(K, b))
            if tail_near and last >= max(a, b - 1):
                _emit(acc, K, _f1(K, b))
            if last <= b - 2 and prev >= a and (last >= a or not tail_near):
                _emit(acc, K, _f2(K, b))
            if tail_near and last <= min(a - 1, b - 2):
                _emit(acc, K, -_f3(K, b))
        else:
            if last >= b - 1 and (tail_near or prev >= a):
                _emit(acc, K, _f3(K, b))
    return _finish(acc, n, factorial(a - 1) * factorial(b - 2),
                   require_positive=True)


def x_kpkp_b3(a: int, g: int, h: int) -> ESymFunc:
    """X of K_a + P_{g+1} + K_3 + P_{h+1} in its condensed three-sum form."""
    if a < 1 or g < 0 or h < 0:
        raise ValueError(f"needs a >= 1 and g, h >= 0, got {(a, g, h)}")
    n = a + g + h + 2
    acc: Acc = {}
    for K in iter_compositions(n, 1):
        high_theta = theta(K, h + 1) >= 2
        if high_theta and K[-1] >= a:
            _emit(acc, K, _f1(K, 3))
        if len(K) < 2:
            continue
        if high_theta and K[-1] == 1 and K[-2] >= a:
            _emit(acc, K, _f2(K, 3))
        if (not high_theta and K[-1] >= 2
                and (K[-1] + K[-2] >= n - h or K[-2] >= a)):
            _emit(acc, K, _f3(K, 3))
    return _finish(acc, n, factorial(a - 1))


# ----------------------------------------------------------------------
# twinned families
# ----------------------------------------------------------------------

def x_tw_path(n: int, l: int) -> ESymFunc:
    """X of the path on n vertices twinned at its l-th vertex (2 <= l <= n-1)."""
    if n < 3 or not 2 <= l <= n - 1:
        raise ValueError(f"needs n >= 3 and 2 <= l <= n-1, got {(n, l)}")
    acc: Acc = {}
    for I in iter_compositions(n, 1):
        weight = w(I)
        if weight and theta(I, l - 1) >= 3:
            _emit(acc, I + (1,), weight)
    for I in iter_compositions(n, 2):
        weight = w(I)
        if theta(I, n - l) >= 3:
            _emit(acc, I + (1,), weight)
        _emit(acc, I + (1,), (1 - Fraction(2, I[0])) * weight)
    for K in iter_compositions(n + 1, 2):
        weight = w(K)
        t = theta(K, l - 1)
        if t <= 2:
            inner = theta(K, l + t)
            if inner < 1:
                raise AssertionError(
                    f"inner overshoot vanished for {K}, l={l}")
            _emit(acc, K, (1 - Fraction(1, inner)) * weight)
        else:
            _emit(acc, K, 2 * weight)
    return _finish(acc, n + 1, 2)


def x_tw_cycle(n: int) -> ESymFunc:
    """X of the cycle on n vertices with one vertex twinned."""
    if n < 3:
        raise ValueError(f"needs n >= 3, got {n}")
    acc: Acc = {}
    for I in iter_compositions(n, 1):
        if I[0] >= 4:
            _emit(acc, (1,) + I, 2 * (I[0] - 3) * w((1,) + I))
    for I in iter_compositions(n + 1, 2):
        if I[0] >= 3 and I[-1] >= 3:
            _emit(acc, I, 2 * (2 * I[0] - 5) * w(I))
    for I in iter_compositions(n - 1, 2):
        if I[0] >= 3:
            _emit(acc, I + (2,), 4 * (I[0] - 3 + Fraction(1, I[0])) * w(I))
    return _finish(acc, n + 1)


def x_tw_lollipop(a: int, l: int, h: int) -> ESymFunc:
    """X of the lollipop K_a^l twinned at the path vertex at distance h from the leaf.

    Valid for a >= 1, l >= 2 and 1 <= h <= l-1; the expansion does not hold
    at h = 0 (that twin is a clique-path-clique chain instead).
    """
    if a < 1 or l < 2 or not 1 <= h <= l - 1:
        raise ValueError(f"needs a >= 1, l >= 2, 1 <= h <= l-1, got {(a, l, h)}")
    n = a + l + 1
    acc: Acc = {}
    for K in iter_compositions(n, 1):
        t = theta(K, h)
        if K[-1] >= a and t >= 3:
            _emit(acc, K, 2 * w(K))
        if (t <= 1 and K[-1] >= 3 and len(K) >= 2
                and (K[-1] + K[-2] >= n - h + 1 or K[-2] >= a)):
            _emit(acc, K, (K[-1] - 2) * _w_drop_last(K))
        if K[-1] >= a and t == 2:
            t3 = theta(K, h + 3)
            if t3 >= 2:
                _emit(acc, K, Fraction(t3 - 1, t3) * w(K))
    for I in iter_compositions(n - 1, 1):
        if I[-1] >= a and theta(I, h) >= 3:
            _emit(acc, (1,) + I, w(I))
    return _finish(acc, n, 2 * factorial(a - 1))


# ----------------------------------------------------------------------
# kayak paddles and infinity graphs
# ----------------------------------------------------------------------

def _kayak_pairs(n: int, a: int, l: int):
    """Splits IJ of weight-relevant compositions with a+l-j1+1 <= |I| <= a-1."""
    for K in iter_compositions(n, 2):
        size = 0
        for cut in range(1, len(K)):
            size += K[cut - 1]
            if size > a - 1:
                break
            j1 = K[cut]
            if size >= a + l - j1 + 1:
                yield K, K[:cut], K[cut:], size


def x_kayak(a: int, b: int, l: int) -> ESymFunc:
    """X of the kayak paddle: cycles of sizes a and b joined by a path of length l.

    Four sums over single compositions keyed on the first part, plus two sums
    over concatenation splits (I, J); every term carries the base weight
    g(K) = theta_K(a+l) w_K.
    """
    if a < 3 or b < 3 or l < 0:
        raise ValueError(f"needs a, b >= 3 and l >= 0, got {(a, b, l)}")
    n = a + b + l - 1
    acc: Acc = {}
    for K in iter_compositions(n, 1):
        base = theta(K, a + l) * w(K)
        if base == 0:
            continue
        k1 = K[0]
        if k1 == 1:
            _emit(acc, K, theta_minus(K, a) * base)
        elif theta(K, a) <= l and 2 <= k1 <= l + 1:
            _emit(acc, K, theta_minus(K, k1 + a - 1) * base)
        elif theta(K, a) <= l and l + 2 <= k1 <= l + a - 1:
            _emit(acc, K, (theta_minus(K, a + l) + k1 - l - 1) * base)
        elif k1 >= a + l:
            _emit(acc, K, (a - 1) * base)
    for K, I, J, size in _kayak_pairs(n, a, l):
        base = theta(K, a + l) * w(K)
        if base == 0:
            continue
        i1, j1 = I[0], J[0]
        if i1 <= l + 1 or i1 == j1 or size >= a + i1 - j1:
            _emit(acc, K,
                  (a - 1 - size + Fraction(j1 - i1, j1 - 1)) * base)
        if i1 > j1:
            ratio = Fraction(j1, i1) * Fraction(i1 - 1, j1 - 1)
            _emit(acc, K,
                  (i1 - j1 + (a - 1 - size) * (1 + ratio)) * base)
    return _finish(acc, n)


def x_infinity(a: int, b: int) -> ESymFunc:
    """X of two cycles of sizes a and b sharing a vertex.

    Keyed on the first part against theta_I(a) and the straddling part I(a);
    whole terms are skipped when theta_I(a) = 0 since the base weight
    vanishes there (and only there can I(a) drop below 2).
    """
    if a < 3 or b < 3:
        raise ValueError(f"needs a, b >= 3, got {(a, b)}")
    n = a + b - 1
    acc: Acc = {}
    for I in iter_compositions(n, 1):
        t = theta(I, a)
        base = t * w(I)
        if base == 0:
            continue
        i1 = I[0]
        straddle = gap(I, a)
        if i1 == 1:
            _emit(acc, I, theta_minus(I, a) * base)
        elif i1 >= a:
            _emit(acc, I, (a - 1) * base)
        elif i1 <= t or i1 == straddle:
            coeff = theta_minus(I, a) - 1 + Fraction(straddle - i1, straddle - 1)
            _emit(acc, I, coeff * base)
        elif straddle + 1 <= i1:
            ratio = Fraction(straddle, i1) * Fraction(i1 - 1, straddle - 1)
            coeff = i1 - straddle + (theta_minus(I, a) - 1) * (1 + ratio)
            _emit(acc, I, coeff * base)
    return _finish(acc, n)


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
