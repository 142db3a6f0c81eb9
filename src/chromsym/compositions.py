"""Integer compositions, partitions and the statistics behind every expansion.

Conventions used throughout the package:

* A *composition* is a tuple of positive integers.  The empty tuple is a
  valid composition of 0 and is the identity for concatenation; the
  statistics below reject it.
* Parts are addressed with ordinary Python indexing, so ``I[-1]`` is the
  last part and ``I[-k]`` the k-th last, matching the usual i_{-k} notation.
* A *partition* is a composition sorted weakly decreasing.
* Prefix sums always include the empty prefix, so ``sigma(I, 0) == 0`` and
  ``theta(I, 0) == 0`` are well defined.

:func:`composition_sum` sums a product of per-part factors over all
compositions of n by a prefix-sum DP over partitions; every closed form in
:mod:`chromsym.formulas` is evaluated with it.

All functions are pure and all values immutable, so everything here is safe
for unrestricted concurrent use.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Hashable, Iterable, Iterator

Composition = tuple[int, ...]
Partition = tuple[int, ...]

# Remainders up to this size are finished from a table built once per call,
# so only the prefixes of larger remainders go through the stack.
_TAIL = 8


def iter_compositions(n: int, min_part: int) -> Iterator[Composition]:
    """Compositions of n with every part at least min_part, in lexicographic order."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    tails: list[list[Composition]] = [[()]]
    for m in range(1, min(n, _TAIL) + 1):
        tails.append([(first,) + rest for first in range(min_part, m + 1)
                      for rest in tails[m - first]])
    stack = [((), n)]
    while stack:
        prefix, rest = stack.pop()
        if rest <= _TAIL:
            yield from map(prefix.__add__, tails[rest])
        else:
            stack.extend((prefix + (first,), rest - first)
                         for first in range(rest, min_part - 1, -1))


def compositions_min2(n: int) -> tuple[Composition, ...]:
    """Compositions of n with every part at least 2, lexicographic order."""
    return tuple(iter_compositions(n, 2))


def composition_sum(n: int, step: Callable[[Hashable, int, int], Iterable[tuple[Hashable, int]]],
                    start: Hashable) -> dict[Partition, int]:
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
    states, not with the 2^(n-1) compositions.  Coefficients may be any exact
    numbers; the result maps partitions (weakly decreasing) to their totals,
    without zero entries.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    # layers[s]: state -> {partition of s, increasing: coefficient}
    layers: list[dict] = [{} for _ in range(n + 1)]
    layers[0][start] = {(): 1}
    for s in range(n):
        for state, poly in layers[s].items():
            for p in range(1, n - s + 1):
                pairs = [pair for pair in step(state, s, p) if pair[1]]
                if not pairs:
                    continue
                moved = []
                for key, c in poly.items():
                    i = bisect_right(key, p)
                    moved.append((key[:i] + (p,) + key[i:], c))
                target = layers[s + p]
                for new_state, coeff in pairs:
                    out = target.setdefault(new_state, {})
                    for key, c in moved:
                        out[key] = out.get(key, 0) + coeff * c
        layers[s] = {}
    total: dict[Partition, int] = {}
    for poly in layers[n].values():
        for key, c in poly.items():
            key = key[::-1]
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


def w(I: Composition) -> int:
    """The weight i_1 * (i_2 - 1) * ... * (i_l - 1); zero iff a later part is 1."""
    if not I:
        raise ValueError("w is undefined for the empty composition")
    prod = I[0]
    for part in I[1:]:
        prod *= part - 1
    return prod


def _check_range(I: Composition, a: int) -> int:
    size = sum(I)
    if not 0 <= a <= size:
        raise ValueError(f"a={a} outside [0, {size}] for composition {I}")
    return size


def sigma(I: Composition, a: int) -> int:
    """Smallest prefix sum of I (empty prefix included) that is >= a."""
    _check_range(I, a)
    s = 0
    if s >= a:
        return s
    for part in I:
        s += part
        if s >= a:
            return s
    raise AssertionError("unreachable: total prefix sum covers a")


def theta(I: Composition, a: int) -> int:
    """Overshoot sigma(I, a) - a, always nonnegative."""
    return sigma(I, a) - a


def sigma_minus(I: Composition, a: int) -> int:
    """Largest prefix sum of I (empty prefix included) that is <= a."""
    _check_range(I, a)
    best = 0
    s = 0
    for part in I:
        s += part
        if s > a:
            break
        best = s
    return best


def theta_minus(I: Composition, a: int) -> int:
    """Undershoot a - sigma_minus(I, a), always nonnegative."""
    return a - sigma_minus(I, a)


def gap(I: Composition, a: int) -> int:
    """theta(I, a) + theta_minus(I, a): 0 when a is a prefix sum of I, else the part straddling a."""
    if not 1 <= a <= sum(I) - 1:
        raise ValueError(f"a={a} outside [1, {sum(I) - 1}] for composition {I}")
    return sigma(I, a) - sigma_minus(I, a)


def rho(I: Composition) -> Partition:
    """The partition with the parts of I, sorted weakly decreasing."""
    return tuple(sorted(I, reverse=True))
