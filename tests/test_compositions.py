"""Composition machinery: enumeration counts, statistics, and their identities."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromsym.compositions import (
    compositions_min2,
    gap,
    iter_compositions,
    rho,
    sigma,
    sigma_minus,
    theta,
    theta_minus,
    w,
)
from reference_formulas import iter_weak_compositions, remove_part

comps = st.lists(st.integers(1, 6), min_size=0, max_size=6).map(tuple)
nonempty_comps = st.lists(st.integers(1, 6), min_size=1, max_size=6).map(tuple)


def min2_count(n: int) -> int:
    # independent oracle: c(n) = c(n-1) + c(n-2), c(0) = 1, c(1) = 0
    vals = [1, 0]
    while len(vals) <= n:
        vals.append(vals[-1] + vals[-2])
    return vals[n]


class TestEnumeration:
    def test_compositions_of_zero(self):
        assert tuple(iter_compositions(0, 1)) == ((),)

    def test_compositions_of_three(self):
        assert set(iter_compositions(3, 1)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}

    def test_compositions_of_counts(self):
        assert len(tuple(iter_compositions(10, 1))) == 512
        for n in range(1, 11):
            assert len(tuple(iter_compositions(n, 1))) == 2 ** (n - 1)

    def test_lexicographic_order(self):
        for n in range(1, 13):
            seq = tuple(iter_compositions(n, 1))
            assert list(seq) == sorted(seq)

    def test_bad_arguments_rejected(self):
        for n, min_part in ((-1, 1), (3, 0), (0, 0), (3, -1)):
            with pytest.raises(ValueError):
                next(iter_compositions(n, min_part))

    def test_min2_examples(self):
        assert compositions_min2(1) == ()
        assert set(compositions_min2(4)) == {(4,), (2, 2)}
        assert set(compositions_min2(6)) == {(6,), (4, 2), (2, 4), (3, 3), (2, 2, 2)}

    def test_min2_counts_match_recurrence(self):
        for n in range(13):
            assert len(compositions_min2(n)) == min2_count(n)

    def test_min2_is_filter_of_all(self):
        for n in range(13):
            expected = {c for c in iter_compositions(n, 1) if all(p >= 2 for p in c)}
            assert set(compositions_min2(n)) == expected

    def test_weak_compositions(self):
        assert tuple(iter_weak_compositions(0, 3)) == ((0, 0, 0),)
        assert set(iter_weak_compositions(2, 2)) == {(0, 2), (1, 1), (2, 0)}
        assert len(tuple(iter_weak_compositions(4, 3))) == 15

    @given(st.integers(0, 7), st.integers(1, 4))
    def test_weak_composition_sums(self, total, length):
        seen = tuple(iter_weak_compositions(total, length))
        assert len(set(seen)) == len(seen)
        assert len(seen) == math.comb(total + length - 1, length - 1)
        for k in seen:
            assert len(k) == length and sum(k) == total and min(k) >= 0


class TestWeight:
    def test_examples(self):
        assert w((5,)) == 5
        assert w((1, 3)) == 2
        assert w((2, 1)) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            w(())

    @given(nonempty_comps)
    def test_zero_iff_interior_one(self, I):
        assert (w(I) == 0) == any(p == 1 for p in I[1:])


class TestSigmaTheta:
    def test_interleaved_prefix_sums(self):
        I = (8, 3, 6, 1, 7)
        assert sigma(I, 15) == 17
        assert theta(I, 15) == 2
        assert sigma_minus(I, 15) == 11
        assert theta_minus(I, 15) == 4

    def test_boundaries(self):
        assert sigma((4, 2), 0) == 0
        assert theta((4, 2), 0) == 0
        assert sigma((4, 2), 4) == 4
        assert theta((4, 2), 4) == 0
        assert theta_minus((4, 2), 6) == 0
        assert sigma_minus((2, 2), 3) == 2
        assert theta_minus((2, 2), 3) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sigma((3,), 4)
        with pytest.raises(ValueError):
            sigma_minus((3,), -1)

    def test_gap_examples(self):
        I = (8, 3, 6, 1, 7)
        assert gap(I, 15) == 6
        assert gap(I, 17) == 0
        assert gap((5,), 2) == 5

    def test_gap_range(self):
        with pytest.raises(ValueError):
            gap((3,), 3)

    @given(nonempty_comps, st.data())
    def test_theta_nonnegative(self, I, data):
        a = data.draw(st.integers(0, sum(I)))
        assert theta(I, a) >= 0
        assert theta_minus(I, a) >= 0

    @given(nonempty_comps, st.data())
    def test_theta_reversal_identity(self, I, data):
        a = data.draw(st.integers(0, sum(I)))
        assert theta_minus(I, a) == theta(I[::-1], sum(I) - a)

    @given(nonempty_comps, st.data())
    def test_sigma_minus_shift_identity(self, K, data):
        k1 = K[0]
        a = data.draw(st.integers(0, sum(K) - k1))
        if len(K) == 1:
            assert sigma_minus(K, k1 + a) == k1
        else:
            assert sigma_minus(K, k1 + a) == sigma_minus(remove_part(K, 1), a) + k1

    @given(nonempty_comps, st.data())
    def test_gap_zero_iff_prefix_sum(self, I, data):
        if sum(I) < 2:
            return
        a = data.draw(st.integers(1, sum(I) - 1))
        prefixes = {sum(I[:k]) for k in range(len(I) + 1)}
        assert (gap(I, a) == 0) == (a in prefixes)


class TestRearrangement:
    def test_rho(self):
        assert rho((1, 3, 2)) == (3, 2, 1)
        assert rho(()) == ()

    def test_reverse(self):
        assert (8, 3, 6, 1, 7)[::-1] == (7, 1, 6, 3, 8)

    def test_remove_part(self):
        assert remove_part((2, 5, 3), -1) == (2, 5)
        assert remove_part((2, 5, 3), 1) == (5, 3)
        assert remove_part((2, 5, 3), 2) == (2, 3)
        with pytest.raises(ValueError):
            remove_part((2, 5, 3), 4)
        with pytest.raises(ValueError):
            remove_part((2, 5, 3), 0)

    def test_concat(self):
        assert (2, 1) + (3,) == (2, 1, 3)
        assert () + (3,) == (3,)

    @given(comps)
    def test_rho_preserves_size_and_length(self, I):
        assert sum(rho(I)) == sum(I)
        assert len(rho(I)) == len(I)
