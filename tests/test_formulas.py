"""Closed-form evaluators: frozen small values, cross-identities, differentials.

The exhaustive formula-vs-oracle sweep lives in test_acceptance; here each
evaluator gets its spot checks and the identities that tie the formulas
together.
"""

import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_formulas
from chromsym.families import FAMILIES
from chromsym.formulas import (
    f123_check,
    x_cycle,
    x_infinity,
    x_kayak,
    x_kchain,
    x_kkp,
    x_kpc,
    x_kpk,
    x_kpk_b3,
    x_kpkp,
    x_kpkp_b3,
    x_lollipop,
    x_melting_lollipop,
    x_path,
    x_pkp,
    x_tadpole,
    x_tw_cycle,
    x_tw_lollipop,
    x_tw_path,
)
from chromsym.graphs import (
    infinity,
    kayak,
    kkp,
    kpc,
    kpk,
    kpkp,
    lollipop,
    melting_lollipop,
    k_chain,
    pkp,
    tw_lollipop,
    tw_path,
)
from chromsym.oracle import csf_bruteforce, x_tw_lollipop_rec, x_tw_path_rec
from chromsym.symfunc import e_term

nonempty_comps = st.lists(st.integers(1, 6), min_size=1, max_size=5).map(tuple)


class TestPathsAndCycles:
    def test_path_small(self):
        assert x_path(1) == e_term((1,))
        assert x_path(3) == e_term((3,), 3) + e_term((2, 1))
        assert x_path(4) == (e_term((4,), 4) + e_term((3, 1), 2)
                             + e_term((2, 2), 2))

    def test_path_differential(self):
        from chromsym.graphs import path
        assert x_path(6) == csf_bruteforce(path(6))

    def test_path_keeps_no_compositions(self):
        # the 2^17 compositions of 18 are streamed, not memoized
        tracemalloc.start()
        try:
            x_path(18)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 5 * 2 ** 20

    def test_cycle_small(self):
        assert x_cycle(3) == e_term((3,), 6)
        assert x_cycle(2) == e_term((2,), 2)

    def test_cycle_differential(self):
        from chromsym.graphs import cycle
        assert x_cycle(7) == csf_bruteforce(cycle(7))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            x_path(0)
        with pytest.raises(ValueError):
            x_cycle(1)


class TestKChains:
    def test_single_part_is_complete_graph(self):
        for n in range(2, 7):
            assert x_kchain((n,)) == e_term((n,), math.factorial(n))

    def test_all_twos_is_path(self):
        assert x_kchain((2, 2, 2)) == x_path(4)
        # order 31: C(60, 29) weak compositions, far past enumeration
        assert x_kchain((2,) * 30) == x_path(31)

    def test_differential(self):
        assert x_kchain((3, 3)) == csf_bruteforce(k_chain((3, 3)))
        assert x_kchain((4, 2, 3)) == csf_bruteforce(k_chain((4, 2, 3)))
        # ten triangles (30 edges) lie past the oracle's edge budget
        f = x_kchain((3,) * 10)
        assert f.is_integral() and f.is_e_positive()

    def test_part_below_two(self):
        with pytest.raises(ValueError):
            x_kchain((3, 1))


class TestLollipops:
    def test_bare_clique(self):
        for a in range(2, 7):
            assert x_lollipop(a, 0) == e_term((a,), math.factorial(a))

    def test_trivial_clique_is_path(self):
        for l in range(0, 6):
            assert x_lollipop(1, l) == x_path(l + 1)

    def test_lollipop_is_melting_at_zero(self):
        for a in range(2, 6):
            for l in range(0, 4):
                assert x_lollipop(a, l) == x_melting_lollipop(a, l, 0)

    def test_melting_differential(self):
        assert x_melting_lollipop(3, 1, 2) == csf_bruteforce(melting_lollipop(3, 1, 2))
        assert x_lollipop(3, 2) == csf_bruteforce(lollipop(3, 2))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            x_melting_lollipop(3, 0, 3)
        with pytest.raises(ValueError):
            x_lollipop(0, 1)


class TestCliquePathClique:
    def test_two_edges_give_path(self):
        assert x_kpk(2, 2, 1) == x_path(4)

    def test_trivial_cliques_give_path(self):
        for l in range(0, 5):
            assert x_kpk(1, 1, l) == x_path(l + 1)

    def test_differential(self):
        assert x_kpk(3, 3, 2) == csf_bruteforce(kpk(3, 3, 2))

    def test_b3_form_matches_general_form(self):
        for a in (3, 4, 5):
            for l in (0, 1, 2):
                assert x_kpk_b3(a, l) == x_kpk(a, 3, l)
        assert x_kpk_b3(10, 18) == x_kpk(10, 3, 18)

    def test_b3_form_matches_cycle_form(self):
        assert x_kpk_b3(3, 1) == x_kpc(3, 1, 3)
        assert x_kpk_b3(4, 2) == x_kpc(4, 2, 3)

    def test_b3_differential(self):
        assert x_kpk_b3(4, 0) == csf_bruteforce(kpk(4, 3, 0))


class TestPkpKkp:
    def test_pkp_bare_clique(self):
        for a in range(2, 7):
            assert x_pkp(0, a, 0) == e_term((a,), math.factorial(a))

    def test_pkp_differential(self):
        assert x_pkp(1, 3, 1) == csf_bruteforce(pkp(1, 3, 1))

    def test_pkp_symmetric_in_path_lengths(self):
        for g in range(0, 4):
            for h in range(0, 4):
                for a in (2, 3, 4):
                    assert x_pkp(g, a, h) == x_pkp(h, a, g)

    def test_kkp_differential(self):
        assert x_kkp(2, 3, 1) == csf_bruteforce(kkp(2, 3, 1))

    def test_kkp_trivial_first_clique_is_lollipop(self):
        for b in (2, 3, 4):
            for h in (0, 1, 2):
                assert x_kkp(1, b, h) == x_lollipop(b, h)
        assert x_kkp(1, 9, 21) == x_lollipop(9, 21)


class TestKpcTadpole:
    def test_tadpole_zero_tail_is_cycle(self):
        for c in range(2, 8):
            assert x_tadpole(c, 0) == x_cycle(c)

    def test_differential(self):
        assert x_kpc(2, 1, 4) == csf_bruteforce(kpc(2, 1, 4))
        assert x_tadpole(4, 2) == csf_bruteforce(kpc(1, 2, 4))

    def test_tadpole_is_kpc_with_trivial_clique(self):
        for c in (3, 4, 5):
            for l in (0, 1, 2):
                assert x_tadpole(c, l) == x_kpc(1, l, c)
        assert x_tadpole(12, 18) == x_kpc(1, 18, 12)


class TestKpkp:
    def test_all_edges_give_path(self):
        assert x_kpkp(2, 0, 2, 0) == x_path(3)

    def test_reduces_to_lollipop(self):
        assert x_kpkp(3, 1, 2, 1) == x_lollipop(3, 3)

    def test_differential(self):
        assert x_kpkp(3, 1, 3, 1) == csf_bruteforce(kpkp(3, 1, 3, 1))

    def test_b3_matches_full(self):
        assert x_kpkp_b3(2, 1, 1) == x_kpkp(2, 1, 3, 1)
        assert x_kpkp_b3(7, 9, 12) == x_kpkp(7, 9, 3, 12)

    def test_b3_trivial_clique_matches_pkp(self):
        assert x_kpkp_b3(1, 1, 1) == x_pkp(1, 3, 1)

    def test_b3_differential(self):
        assert x_kpkp_b3(3, 0, 1) == csf_bruteforce(kpkp(3, 0, 3, 1))


class TestTwinned:
    def test_tw_path_diamond(self):
        assert x_tw_path(3, 2) == csf_bruteforce(tw_path(3, 2))

    def test_tw_path_recurrence(self):
        assert x_tw_path(5, 3) == x_tw_path_rec(5, 3)

    def test_tw_path_positive_integral(self):
        for n in range(3, 7):
            for l in range(2, n):
                f = x_tw_path(n, l)
                assert f.is_integral() and f.is_e_positive()

    def test_tw_cycle_frozen_constants(self):
        assert x_tw_cycle(4) == (e_term((5,), 50) + e_term((4, 1), 6)
                                 + e_term((3, 2), 4))
        assert x_tw_cycle(5) == (e_term((6,), 84) + e_term((5, 1), 16)
                                 + e_term((4, 2), 20) + e_term((3, 3), 12))
        assert x_tw_cycle(6) == (e_term((7,), 126) + e_term((6, 1), 30)
                                 + e_term((5, 2), 44) + e_term((4, 3), 66)
                                 + e_term((4, 2, 1), 6) + e_term((3, 2, 2), 4))

    def test_tw_cycle_triangle(self):
        assert x_tw_cycle(3) == e_term((4,), 24)

    def test_tw_cycle_coefficient_lookup(self):
        assert x_tw_cycle(4).coefficient((4, 1)) == 6

    def test_tw_lollipop_differentials(self):
        assert x_tw_lollipop(1, 3, 1) == csf_bruteforce(tw_lollipop(1, 3, 1))
        assert x_tw_lollipop(2, 3, 2) == csf_bruteforce(tw_lollipop(2, 3, 2))

    def test_tw_lollipop_recurrence(self):
        assert x_tw_lollipop(3, 2, 1) == x_tw_lollipop_rec(3, 2, 1)

    def test_tw_lollipop_rejects_h0(self):
        with pytest.raises(ValueError):
            x_tw_lollipop(3, 2, 0)


class TestKayakInfinity:
    def test_zero_length_matches_infinity(self):
        assert x_kayak(3, 3, 0) == x_infinity(3, 3)
        assert x_kayak(4, 3, 0) == x_infinity(4, 3)
        assert x_kayak(13, 18, 0) == x_infinity(13, 18)

    def test_differentials(self):
        assert x_kayak(3, 3, 1) == csf_bruteforce(kayak(3, 3, 1))
        assert x_infinity(3, 3) == csf_bruteforce(infinity(3, 3))

    def test_positivity(self):
        f = x_kayak(4, 3, 1)
        assert f.is_integral() and f.is_e_positive()

    def test_infinity_symmetric(self):
        assert x_infinity(3, 4) == x_infinity(4, 3)
        assert x_infinity(3, 5) == x_infinity(5, 3)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            x_kayak(2, 3, 0)
        with pytest.raises(ValueError):
            x_infinity(3, 2)


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_matches_enumerative_reference(tag):
    # every tuple up to size 11, past the oracle's n <= 9 grid and edge budget
    fam = FAMILIES[tag]
    reference = getattr(reference_formulas, fam.evaluate.__name__)
    for params in fam.grid(11):
        assert fam.evaluate(**params) == reference(**params), params


class TestHelperIdentity:
    def test_single_part(self):
        assert f123_check(3, (5,))

    def test_two_parts(self):
        assert f123_check(3, (2, 3))

    @given(st.integers(2, 6), nonempty_comps)
    def test_sweep(self, a, I):
        assert f123_check(a, I)
