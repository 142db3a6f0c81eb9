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

All functions are pure and all values immutable, so everything here is safe
for unrestricted concurrent use.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import sub
from typing import Iterator

Composition = tuple[int, ...]
Partition = tuple[int, ...]
WeakComposition = tuple[int, ...]

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


def compositions_of(n: int) -> tuple[Composition, ...]:
    """All compositions of n in lexicographic order (2^(n-1) of them for n >= 1)."""
    return tuple(iter_compositions(n, 1))


def compositions_min2(n: int) -> tuple[Composition, ...]:
    """Compositions of n with every part at least 2, lexicographic order."""
    return tuple(iter_compositions(n, 2))


def iter_weak_compositions(total: int, length: int) -> Iterator[WeakComposition]:
    """Weak compositions of `total` into `length` parts, lexicographic: the steps
    between the length - 1 partial sums, drawn with repetition from 0..total."""
    if total < 0 or length < 1:
        raise ValueError(f"needs total >= 0 and length >= 1, got {(total, length)}")
    for sums in combinations_with_replacement(range(total + 1), length - 1):
        yield tuple(map(sub, sums + (total,), (0,) + sums))


def weak_compositions(total: int, length: int) -> tuple[WeakComposition, ...]:
    """All length-`length` sequences of nonnegative integers summing to `total`."""
    return tuple(iter_weak_compositions(total, length))


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


def reverse(I: Composition) -> Composition:
    return I[::-1]


def remove_part(I: Composition, k: int) -> Composition:
    """Drop the k-th part, 1-based; negative k counts from the end (i_{-k})."""
    length = len(I)
    if not 1 <= abs(k) <= length:
        raise ValueError(f"part index {k} out of range for length {length}")
    idx = k - 1 if k > 0 else length + k
    return I[:idx] + I[idx + 1:]


def concat(I: Composition, J: Composition) -> Composition:
    return I + J
