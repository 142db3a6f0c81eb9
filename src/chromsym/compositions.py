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

The closed forms of :mod:`chromsym.formulas` are sums over compositions,
evaluated there by ``composition_sum``, which settles each statistic at one part.

All functions are pure and all values immutable, so everything here is safe
for unrestricted concurrent use.
"""

from __future__ import annotations

from typing import Iterator

Composition = tuple[int, ...]
Partition = tuple[int, ...]


class ParameterError(ValueError):
    """Raised for graph-family parameters out of range: the caller's error, not the package's."""


# Remainders up to this size are finished from a table built once per call,
# so only the prefixes of larger remainders go through the stack.
_TAIL = 8


def iter_compositions(n: int, min_part: int) -> Iterator[Composition]:
    """Compositions of n with every part at least min_part, in lexicographic order."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if min_part < 1:
        raise ValueError(f"min_part must be positive, got {min_part}")
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
