"""Exact e-basis arithmetic, power-sum conversion and serialization."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromsym.compositions import rho
from chromsym.symfunc import (ESymFunc, Memo, e_term, one, p_sum_to_e, p_to_e,
                              pack, unpack, zero)


def func_of_degree(n: int):
    """Strategy for random homogeneous functions of degree n with small coefficients."""
    from chromsym.compositions import iter_compositions

    keys = list({tuple(sorted(c, reverse=True)) for c in iter_compositions(n, 1)})
    return st.dictionaries(
        st.sampled_from(keys),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=4,
    ).map(lambda d: ESymFunc(d, n))


class TestConstruction:
    def test_e_term_normalizes_order(self):
        assert e_term((2, 3)) == e_term((3, 2))
        assert e_term((2, 3)).coefficient((3, 2)) == 1

    def test_zero_coefficient_gives_zero_function(self):
        assert e_term((5,), 0).is_zero
        assert e_term((5,), 0) == zero()

    def test_constant_one(self):
        f = e_term((), 1)
        assert f.degree == 0 and f.coefficient(()) == 1
        assert f == one()

    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            ESymFunc({(2,): 1, (1, 1, 1): 1})

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            ESymFunc({(0, 2): 1})
        with pytest.raises(TypeError):
            ESymFunc({(2,): 0.5})

    def test_exact_numbers_only(self):
        # int, bool and Fraction are exact; float and Decimal are refused everywhere
        for c in (3, True, Fraction(3, 2)):
            assert ESymFunc({(2,): c}).coefficient((2,)) == c == (e_term((2,)) * c).coefficient((2,))
            assert e_term((2,)).evaluate_at((c, 1)) == c
        for c in (0.5, Decimal(1)):
            with pytest.raises(TypeError, match="is not an exact number"):
                ESymFunc({(2,): c})
            with pytest.raises(TypeError):
                e_term((2,)) * c
            with pytest.raises(TypeError, match="are not all exact numbers"):
                e_term((2,)).evaluate_at((c, 1))


class TestRingOps:
    def test_add(self):
        f = e_term((3,), 3) + e_term((2, 1))
        assert f.coefficient((3,)) == 3
        assert f.coefficient((2, 1)) == 1

    def test_add_degree_mismatch(self):
        with pytest.raises(ValueError):
            e_term((3,)) + e_term((2,))

    def test_add_zero_any_degree(self):
        f = e_term((3,))
        assert f + zero() == f
        assert zero() + f == f

    def test_mul_unions_parts(self):
        assert e_term((2,)) * e_term((2, 1)) == e_term((2, 2, 1))

    def test_scale(self):
        assert e_term((4,), 2) * Fraction(1, 2) == e_term((4,))
        assert 0 * e_term((4,)) == zero()

    def test_mul_by_constant_term(self):
        assert one() * e_term((3, 2)) == e_term((3, 2))

    @given(func_of_degree(3), func_of_degree(3))
    def test_add_commutes(self, f, g):
        assert f + g == g + f

    @given(func_of_degree(2), func_of_degree(2), func_of_degree(2))
    def test_add_associates(self, f, g, h):
        assert (f + g) + h == f + (g + h)

    @given(func_of_degree(2), func_of_degree(3))
    def test_mul_commutes(self, f, g):
        assert f * g == g * f

    @given(func_of_degree(2), func_of_degree(2), func_of_degree(2))
    def test_mul_distributes(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(func_of_degree(2), func_of_degree(3))
    def test_mul_degree_additive(self, f, g):
        prod = f * g
        if not prod.is_zero:
            assert prod.degree == 5
        for key in prod.terms:
            assert sum(key) == 5

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=5).map(tuple))
    def test_basis_indexing_is_order_free(self, parts):
        assert e_term(parts, 7) == e_term(parts[::-1], 7)


class TestPowerSums:
    def test_p1(self):
        assert p_to_e(1) == e_term((1,))

    def test_p2_hand_newton(self):
        assert p_to_e(2) == e_term((1, 1)) + e_term((2,), -2)

    def test_integral_coefficients(self):
        for k in range(1, 10):
            assert p_to_e(k).is_integral()
        assert all(type(c) is int for c in p_to_e(12).terms.values())

    @given(st.integers(1, 9),
           st.lists(st.integers(-3, 5), min_size=0, max_size=5))
    def test_numeric_specialization(self, k, xs):
        expected = sum(Fraction(x) ** k for x in xs)
        assert p_to_e(k).evaluate_at(xs) == expected


class TestEvaluateAt:
    def test_e2_at_123(self):
        assert e_term((2,)).evaluate_at((1, 2, 3)) == 11
        assert e_term((2,)).evaluate_at((Fraction(1, 2), 2)) == 1
        with pytest.raises(TypeError):
            e_term((2,)).evaluate_at((0.5, 2))

    def test_too_few_variables(self):
        assert e_term((4,)).evaluate_at((1, 2, 3)) == 0

    def test_p3_at_12(self):
        assert p_to_e(3).evaluate_at((1, 2)) == 9


def partitions(n: int):
    """Every partition of n, weakly decreasing."""
    from chromsym.compositions import iter_compositions

    return sorted({tuple(sorted(c, reverse=True)) for c in iter_compositions(n, 1)})


def newton_reference(top: int) -> list[dict[tuple[int, ...], int]]:
    """p_1 .. p_top in the e-basis by Newton's recurrence on sorted-tuple
    keys: entry k - 1 is p_k."""
    out: list[dict[tuple[int, ...], int]] = []
    for k in range(1, top + 1):
        acc = {(k,): (-1) ** (k - 1) * k}
        for i in range(1, k):
            for key, c in out[i - 1].items():
                nk = tuple(sorted(key + (k - i,), reverse=True))
                acc[nk] = acc.get(nk, 0) + (-1) ** (k - 1 - i) * c
        out.append({key: c for key, c in acc.items() if c})
    return out


REFERENCE = newton_reference(20)


class TestPackedKeys:
    def test_round_trip(self):
        assert pack(()) == 0 and unpack(0) == ()
        for n in range(1, 13):
            for parts in partitions(n):
                key = pack(parts)
                assert unpack(key) == parts
                assert pack(parts[::-1]) == key
                # the key of e_lambda e_mu is the sum of their keys
                assert unpack(key + pack((n, 1, 1))) == tuple(
                    sorted(parts + (n, 1, 1), reverse=True))

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.integers(1, 300), st.integers(1, 255), max_size=8),
           st.randoms(use_true_random=False))
    def test_unpack_reads_runs(self, multiplicities, rng):
        parts = [p for p, m in multiplicities.items() for _ in range(m)]
        rng.shuffle(parts)
        assert unpack(pack(parts)) == rho(tuple(parts))

    def test_newton_matches_sorted_tuple_reference(self):
        for k, want in enumerate(newton_reference(20), 1):
            assert p_to_e(k).terms == want

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_carry_matches_sum_of_reference_products(self, rng):
        # sum over s of A_s p_s by the carry, against each p_s of the
        # sorted-tuple reference multiplied out term by term
        top = rng.randint(1, 20)
        by_size = {}
        for s in rng.sample(range(1, top + 1), rng.randint(1, min(top, 5))):
            by_size[s] = {pack(rng.choice(partitions(rng.randint(0, 6)))):
                          rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        want: dict[tuple[int, ...], int] = {}
        for s, acc in by_size.items():
            for k1, c1 in acc.items():
                for k2, c2 in REFERENCE[s - 1].items():
                    key = tuple(sorted(unpack(k1) + k2, reverse=True))
                    want[key] = want.get(key, 0) + c1 * c2
        got = p_sum_to_e(by_size)
        assert all(c != 0 for c in got.values())
        assert {unpack(key): c for key, c in got.items()} == {
            key: c for key, c in want.items() if c}

    def test_carry_of_nothing_is_zero(self):
        assert p_sum_to_e({}) == {}
        assert p_sum_to_e({3: {pack((1,)): 0}}) == {}
        with pytest.raises(ValueError, match="up to 255"):
            p_sum_to_e({256: {0: 1}})

    def test_expansion_is_immutable(self):
        # p_to_e hands one cached value to every caller
        want = p_to_e(3)
        assert p_to_e(3) is want
        with pytest.raises(TypeError):
            want.terms[(3,)] = 0
        assert want == e_term((1, 1, 1)) - e_term((2, 1), 3) + e_term((3,), 3)

    def test_digit_limit(self):
        for k in (256, 300):
            with pytest.raises(ValueError, match="up to 255"):
                p_to_e(k)
        with pytest.raises(ValueError, match="must be positive"):
            p_to_e(0)


class TestFromPacked:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 9), st.integers(-3, 3), st.randoms(use_true_random=False))
    def test_matches_tuple_constructor(self, n, scale, rng):
        chosen = rng.sample(partitions(n), min(len(partitions(n)), rng.randint(0, 6)))
        coeffs = {parts: rng.randint(-3, 3) for parts in chosen}
        got = ESymFunc.from_packed({pack(parts): c for parts, c in coeffs.items()}, n, scale)
        # the tuple constructor takes the parts in any order and sorts them
        assert got == ESymFunc({parts[::-1]: c * scale for parts, c in coeffs.items()}, n)
        assert all(type(c) is int for c in got.terms.values())

    def test_drops_zero_coefficients(self):
        got = ESymFunc.from_packed({pack((2, 1)): 0, pack((3,)): 2, pack((1, 1, 1)): 1}, 3, 2)
        assert dict(got.terms) == {(3,): 4, (1, 1, 1): 2}
        assert ESymFunc.from_packed({pack((4,)): 0}, 4) == zero()
        assert ESymFunc.from_packed({0: 1}, 0) == one()

    def test_refuses_what_the_tuple_constructor_refuses(self):
        with pytest.raises(ValueError, match="inhomogeneous terms: degree 4 vs 3"):
            ESymFunc.from_packed({pack((3,)): 1, pack((2, 2)): 1}, 3)
        for c in (Fraction(1, 2), 0.5):
            with pytest.raises(TypeError, match="not an integer"):
                ESymFunc.from_packed({pack((2,)): c}, 2)


class TestSerialization:
    def test_text_form(self):
        f = e_term((5,), 50) + e_term((4, 1), 6) + e_term((3, 2), 4)
        assert f.to_text() == "50*e[5] + 6*e[4,1] + 4*e[3,2]"

    def test_text_negative_and_zero(self):
        f = e_term((2,), -4) + e_term((1, 1), 3)
        assert f.to_text() == "-4*e[2] + 3*e[1,1]"
        assert zero().to_text() == "0"

    def test_text_fraction(self):
        assert e_term((2,), Fraction(1, 2)).to_text() == "1/2*e[2]"

    def test_records(self):
        f = e_term((4, 1), 6) + e_term((5,), 50)
        assert f.to_records() == [
            {"partition": [5], "num": 50, "den": 1},
            {"partition": [4, 1], "num": 6, "den": 1},
        ]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 7).flatmap(lambda n: st.dictionaries(
        st.sampled_from(partitions(n)),
        st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**9)),
        max_size=6).map(lambda d: ESymFunc(d, n))))
    @example(zero())
    @example(one())
    @example(e_term((300, 2), -5))
    @example(e_term((1,) * 255, Fraction(-7, 3)))
    @example(e_term((2,) * 255) + e_term((510,), 3))
    def test_json_is_what_json_dumps_writes(self, f):
        assert f.to_json() == json.dumps(f.to_records())

    @given(func_of_degree(4))
    def test_structured_round_trip(self, f):
        back = ESymFunc.from_json(f.to_json())
        assert back == f
        # whole coefficients come back as int, not as Fraction
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for c in back.terms.values())

    def test_positivity_queries(self):
        assert zero().is_e_positive()
        assert not (e_term((2,), -1)).is_e_positive()
        coeff, key = (e_term((2, 1), -4) + e_term((3,), 9)).min_coefficient()
        assert coeff == -4 and key == (2, 1)


class TestMemo:
    """The one bounded memo: held is the sum of the sizes, and past cap it empties."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(), st.text(max_size=8)), max_size=30,
                    unique_by=lambda kv: kv[0]))
    def test_held_is_the_sum_of_sizes_after_every_put(self, puts):
        # against a plain dict emptied whenever its values' lengths pass 20
        memo, model = Memo(20, len), {}
        for key, value in puts:
            model[key] = value
            if sum(map(len, model.values())) > 20:
                model = {}
            assert memo.put(key, value) is value
            assert memo == model and memo.held == sum(map(len, memo.values())) <= 20

    def test_empties_past_its_cap(self):
        memo = Memo(10, len)
        memo.put("a", "xxxx")
        memo.put("b", "xxxxxx")
        assert memo == {"a": "xxxx", "b": "xxxxxx"} and memo.held == 10
        memo.put("c", "x")
        assert not memo and memo.held == 0
        memo.put("d", "x" * 11)
        assert not memo and memo.held == 0

    def test_clear_resets_held(self):
        memo = Memo(100, len)
        memo.put(1, "abc")
        memo.clear()
        assert not memo and memo.held == 0
        memo.put(2, "de")
        assert memo.held == 2

    def test_raising_make_stores_nothing(self):
        memo = Memo(100, len)

        def make():
            raise ValueError("refused")
        for _ in range(2):
            with pytest.raises(ValueError, match="refused"):
                memo.remember("k", make)
        assert not memo and memo.held == 0

    def test_hit_returns_the_stored_object(self):
        memo = Memo(100, len)
        made = []
        first = memo.remember("k", lambda: made.append(1) or ["v"])
        again = memo.remember("k", lambda: made.append(2) or ["w"])
        assert again is first and first == ["v"] and made == [1]
        assert memo.held == 1
