"""Sparse exact symmetric functions in the elementary basis.

An :class:`ESymFunc` is a homogeneous symmetric function stored as a map from
partitions (weakly decreasing tuples) to exact coefficients.  The product rule
is multiset union of parts, since e_lambda * e_mu = e_{lambda mu}.

Coefficients are kept as the exact numbers given: ``int`` for everything the
package computes, or :class:`fractions.Fraction` where a caller passes one.
Anything that is not a :class:`numbers.Rational`, such as a float or a
Decimal, raises :class:`TypeError`.  The check needs no ``fractions``, which
would load ``decimal`` too, so only :meth:`ESymFunc.from_records` imports it.

Values are immutable once constructed (``terms`` is a read-only mapping, so
cached values cannot be altered); operations return new values.  The
structured form (:meth:`ESymFunc.to_json`) is written directly, and equals
``json.dumps`` of :meth:`ESymFunc.to_records`.

Inner loops key partitions by one int instead: the multiplicity vector packed
with a fixed digit, sum of m_i << DIGIT * (i - 1) for m_i parts equal to i
(:func:`pack`, :func:`unpack`).  The key of e_lambda e_mu is then the sum of
their keys, and e_1^m packs to m.  ``p_sum_to_e`` takes a sum of power sums
with such coefficients to the e-basis by Newton's identity; ``p_to_e`` is
its cached single-degree case, unpacked.

:class:`Memo` is the one memo of values kept across calls, bounded by their
size: general expansions and chains, rooted pieces and the oracle's remainders.
"""

from __future__ import annotations

from functools import cache
from numbers import Rational
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from .compositions import Partition, rho

Scalar = Rational  # int, bool, Fraction and any other exact rational


class ESymFunc:
    """Homogeneous symmetric function in the e-basis with exact coefficients."""

    __slots__ = ("terms", "degree")

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None,
                 degree: int | None = None):
        clean: dict[Partition, Scalar] = {}
        inferred: int | None = None
        for parts, c in (terms or {}).items():
            if not isinstance(c, Scalar):
                raise TypeError(f"coefficient {c!r} is not an exact number")
            if c == 0:
                continue
            key = rho(parts)
            if any(p < 1 for p in key):
                raise ValueError(f"partition parts must be positive: {parts}")
            size = sum(key)
            if inferred is None:
                inferred = size
            elif size != inferred:
                raise ValueError(
                    f"inhomogeneous terms: degree {size} vs {inferred}")
            clean[key] = clean.get(key, 0) + c
        clean = {k: v for k, v in clean.items() if v != 0}
        if not clean:
            self_degree = 0  # the zero function sits at degree 0 by convention
        else:
            self_degree = inferred if inferred is not None else 0
            if degree is not None and degree != self_degree:
                raise ValueError(
                    f"declared degree {degree} != term degree {self_degree}")
        object.__setattr__(self, "terms", MappingProxyType(clean))
        object.__setattr__(self, "degree", self_degree)

    @classmethod
    def from_packed(cls, acc: Mapping[int, int], degree: int, scale: int = 1) -> "ESymFunc":
        """scale times the sum of acc[key] e_lambda, for lambda the partition of
        each packed key (:func:`pack`), of the given degree.  Each key is
        unpacked once, already sorted; zero coefficients are dropped, and a
        coefficient that is not an int or a partition of another size raises."""
        terms: dict[Partition, int] = {}
        for key, c in acc.items():
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an integer")
            c *= scale
            if c:
                parts = unpack(key)
                if sum(parts) != degree:
                    raise ValueError(f"inhomogeneous terms: degree {sum(parts)} vs {degree}")
                terms[parts] = c
        out = object.__new__(cls)
        object.__setattr__(out, "terms", MappingProxyType(terms))
        object.__setattr__(out, "degree", degree if terms else 0)
        return out

    def __setattr__(self, *_):
        raise AttributeError("ESymFunc is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other: "ESymFunc") -> "ESymFunc":
        if not isinstance(other, ESymFunc):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add degree {self.degree} to degree {other.degree}")
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0) + c
        return ESymFunc(merged, self.degree)

    def __neg__(self) -> "ESymFunc":
        return ESymFunc({k: -c for k, c in self.terms.items()}, self.degree)

    def __sub__(self, other: "ESymFunc") -> "ESymFunc":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ESymFunc):
            prod: dict[tuple[int, ...], Scalar] = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key = tuple(sorted(k1 + k2, reverse=True))
                    prod[key] = prod.get(key, 0) + c1 * c2
            return ESymFunc(prod, self.degree + other.degree)
        if isinstance(other, Scalar):
            if other == 0:
                return ESymFunc({}, 0)
            return ESymFunc({k: c * other for k, c in self.terms.items()},
                            self.degree)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ESymFunc):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def coefficient(self, parts: Iterable[int]) -> Scalar:
        """Coefficient of e_lambda for the partition with the given parts (0 if absent)."""
        return self.terms.get(rho(tuple(parts)), 0)

    def is_e_positive(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def min_coefficient(self) -> tuple[Scalar, Partition] | None:
        """Smallest stored coefficient and its partition; None for the zero function."""
        if self.is_zero:
            return None
        key = min(self.terms, key=lambda k: (self.terms[k], k))
        return self.terms[key], key

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def evaluate_at(self, xs: Sequence[Scalar]) -> Scalar:
        """Substitute the finite variable list (all later variables 0)."""
        if not all(isinstance(x, Scalar) for x in xs):
            raise TypeError(f"values {xs!r} are not all exact numbers")
        top = min(self.degree, len(xs))
        esp = [1] + [0] * self.degree
        for x in xs:
            for j in range(top, 0, -1):
                esp[j] += x * esp[j - 1]
        total = 0
        for key, c in self.terms.items():
            term = c
            for part in key:
                term *= esp[part]
                if term == 0:
                    break
            total += term
        return total

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Partition, Scalar]]:
        """Terms sorted by partition, descending lexicographic."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def to_text(self) -> str:
        """Stable text form, e.g. ``50*e[5] + 6*e[4,1] + 4*e[3,2]``."""
        if self.is_zero:
            return "0"
        pieces: list[str] = []
        for key, c in self.sorted_terms():
            body = f"{abs(c)}*e[{','.join(map(str, key))}]"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(pieces)

    def to_records(self) -> list[dict]:
        return [{"partition": list(key), "num": c.numerator, "den": c.denominator}
                for key, c in self.sorted_terms()]

    def to_json(self) -> str:
        """The records of :meth:`to_records`, written directly: ``json.dumps`` of them."""
        return "[" + ", ".join([
            f'{{"partition": {list(key)}, "num": {c.numerator}, "den": {c.denominator}}}'
            for key, c in self.sorted_terms()]) + "]"

    @staticmethod
    def from_records(records: Iterable[Mapping]) -> "ESymFunc":
        from fractions import Fraction  # imported here, so that importing chromsym does not load it
        terms: dict[tuple[int, ...], Scalar] = {}
        for rec in records:
            key = tuple(int(p) for p in rec["partition"])
            c = Fraction(int(rec["num"]), int(rec["den"]))
            terms[key] = terms.get(key, 0) + (c.numerator if c.denominator == 1 else c)
        return ESymFunc(terms)

    @staticmethod
    def from_json(text: str) -> "ESymFunc":
        import json  # imported here, so that importing chromsym does not load it
        return ESymFunc.from_records(json.loads(text))

    def __repr__(self) -> str:
        return f"ESymFunc({self.to_text()})"


def zero() -> ESymFunc:
    return ESymFunc({}, 0)


def one() -> ESymFunc:
    """The constant 1: the empty partition at degree 0."""
    return ESymFunc({(): 1})


def e_term(parts: Iterable[int], coeff: Scalar = 1) -> ESymFunc:
    """The single term coeff * e_{rho(parts)}; parts may come in any order."""
    return ESymFunc({tuple(parts): coeff})


# A digit holds multiplicities up to 255.  A partition of k has at most k
# equal parts, so keys are exact for partitions of k < 256; p_k for k >= 256
# would have p(256) ~ 3.7e14 terms anyway, and is refused.
DIGIT = 8
DIGIT_MASK = (1 << DIGIT) - 1


def pack(parts: Iterable[int]) -> int:
    """Packed key of the partition with the given parts, in any order; exact
    while no part repeats more than 255 times."""
    return sum(1 << DIGIT * (p - 1) for p in parts)


def unpack(key: int) -> Partition:
    """Weakly decreasing parts of a packed key, read from its bytes, as a
    digit is one byte: from the top byte, which counts the largest part, each
    nonzero byte adds a run of equal parts."""
    p = (key.bit_length() + 7) // 8
    parts: Partition = ()
    for m in key.to_bytes(p, "big"):  # m parts equal to p, p going down
        if m:
            parts += (p,) * m
        p -= 1
    return parts


class OrderLimitError(ValueError):
    """Raised for an order too large: past packed keys or an expansion's term cap."""


def check_order(k: int) -> None:
    """Raise OrderLimitError if partitions of k may not fit packed keys."""
    if k > DIGIT_MASK:
        raise OrderLimitError(f"order {k} needs multiplicities up to {k}, past the {DIGIT}-bit "
                              f"digit of packed keys: orders up to {DIGIT_MASK} only")


def p_sum_to_e(by_size: Mapping[int, Mapping[int, int]]) -> dict[int, int]:
    """Sum over s >= 1 of A_s p_s in the e-basis, for A_s = by_size[s] on
    packed keys, with no zero coefficient.  By Newton's identity p_s =
    (-1)^(s-1) s e_s + sum_{j<s} (-1)^(j-1) e_j p_{s-j}, it is B_0 for
    B_s = A_s + sum_{j>=1} (-1)^(j-1) e_j B_{s+j}, carried down from the
    largest size, with A_0 = 0 and each e_j in B_0 weighted j; times e_j
    adds pack((j,)) to a key, so no p_s is ever expanded."""
    check_order(top := max(by_size, default=0))
    carried: list[dict[int, int]] = [{}] * (top + 1)  # B_s, once done
    for s in range(top, -1, -1):
        acc = dict(by_size.get(s, ())) if s else {}
        for j in range(1, top - s + 1):
            shift, weight = 1 << DIGIT * (j - 1), (-1) ** (j - 1) * (1 if s else j)
            for key, c in carried[s + j].items():
                acc[key + shift] = acc.get(key + shift, 0) + weight * c
        carried[s] = {key: c for key, c in acc.items() if c}
    return carried[0]


@cache
def p_to_e(k: int) -> ESymFunc:
    """Expansion of the power sum p_k in the e-basis: :func:`p_sum_to_e` of p_k, unpacked."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return ESymFunc.from_packed(p_sum_to_e({k: {0: 1}}), k)


class Memo(dict):
    """A dict whose held is the sum of size(value) over its values, emptied
    whole by the :meth:`put` that takes held past cap."""

    __slots__ = ("cap", "size", "held")

    def __init__(self, cap: int, size: Callable[[Any], int]):
        super().__init__()
        self.cap, self.size, self.held = cap, size, 0

    def put(self, key: Hashable, value):
        """Store value under a key not yet stored, and return it."""
        self[key] = value
        self.held += self.size(value)
        if self.held > self.cap:
            self.clear()
        return value

    def remember(self, key: Hashable, make: Callable[[], Any]):
        """The value stored under key, else make()'s, stored unless make raises."""
        return self[key] if key in self else self.put(key, make())

    def clear(self) -> None:
        super().clear()
        self.held = 0
