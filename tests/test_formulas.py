"""Closed-form evaluators: frozen small values, cross-identities, differentials.

The exhaustive formula-vs-oracle sweep lives in test_acceptance; here each
evaluator gets its spot checks and the identities that tie the formulas
together.
"""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_formulas
from chromsym import formulas
from chromsym.cli import main
from chromsym.compositions import iter_compositions, rho
from chromsym.families import FAMILIES
from chromsym.formulas import (
    MAX_TERMS,
    _finish,
    composition_sum,
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
    cycle,
    infinity,
    kayak,
    kkp,
    kpc,
    kpk,
    kpkp,
    lollipop,
    melting_lollipop,
    k_chain,
    path,
    pkp,
    tadpole,
    tw_lollipop,
    tw_path,
)
from chromsym.oracle import csf_bruteforce
from chromsym.symfunc import Memo, OrderLimitError, e_term, pack
from conftest import GENERAL_FORM_FAMILIES, count_hits
from reference_formulas import f123_check
from reference_oracle import x_tw_lollipop_rec, x_tw_path_rec

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

    def test_finish_asserts_positivity(self):
        assert _finish({pack((2, 1)): 1, pack((3,)): 0}, 3, 2) == e_term((2, 1), 2)
        with pytest.raises(AssertionError, match=r"negative coefficient -2 at e\[2, 1\]"):
            _finish({pack((3,)): 4, pack((2, 1)): -1}, 3, 2)

    def test_kernel_refuses_only_a_full_digit(self):
        # the all-ones composition: 255 parts 1 fill one digit of the packed key
        def ones(state, s, p):
            return ((state, 1),) if p == 1 else ()
        assert composition_sum(255, ones, None) == {pack((1,) * 255): 1} == {255: 1}
        with pytest.raises(OrderLimitError, match="more than 255 parts 1"):
            composition_sum(256, ones, None)


@st.composite
def step_tables(draw):
    """A length n and a table (state, s, p) -> (new_state, coeff) pairs over
    states 0..2, with refused parts, zero coefficients and split steps."""
    n = draw(st.integers(0, 7))
    pairs = st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 3)), max_size=2)
    return n, {(state, s, p): draw(pairs)
               for s in range(n) for state in range(3) for p in range(1, n - s + 1)}


def literal_sum(n: int, table: dict) -> dict:
    """composition_sum from state 0, one composition at a time."""
    total: dict = {}
    for comp in iter_compositions(n, 1):
        paths, s = {0: 1}, 0
        for p in comp:
            after: dict = {}
            for state, c in paths.items():
                for new_state, coeff in table.get((state, s, p), ()):
                    after[new_state] = after.get(new_state, 0) + c * coeff
            paths, s = after, s + p
        key = pack(comp)
        total[key] = total.get(key, 0) + sum(paths.values())
    return {key: c for key, c in total.items() if c}


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(step_tables())
    @example((0, {}))
    @example((3, {(0, 0, 1): [(1, 2), (2, 1)], (1, 1, 2): [(0, 3)], (2, 1, 2): [(0, 0)],
                  (2, 1, 1): [(2, 1)], (2, 2, 1): [(1, 5)], (0, 0, 3): [(0, 1)]}))
    @example((4, {(0, 0, 2): [(1, 1)], (1, 2, 1): [(1, 1)], (1, 3, 1): []}))  # start is dead
    def test_matches_literal_sum(self, case):
        n, table = case
        got = composition_sum(n, lambda state, s, p: table.get((state, s, p), ()), 0)
        assert got == literal_sum(n, table)

    def test_dead_states_carry_nothing(self):
        # K_300^2 = K_300 + P_3 + K_1: the last part is at least 300, so the
        # few partitions of at most 2 before it are all that is carried, and
        # X(1^k) is the chromatic polynomial k (k-1) ... (k-299) (k-1)^2
        k = 302
        assert x_lollipop(300, 2).evaluate_at([1] * k) == math.perm(k, 300) * (k - 1) ** 2
        # K_200 + P_2 + K_150, order 350, is two cliques glued to one edge
        k = 351
        assert (x_kpk(200, 150, 1).evaluate_at([1] * k)
                == math.perm(k, 200) * (k - 1) * math.perm(k - 1, 149))
        # the oracle refuses components of 256 vertices or more
        with pytest.raises(OrderLimitError):
            csf_bruteforce(lollipop(300, 2), 10 ** 5)

    def test_moves_are_capped(self):
        # the kernel records about 2M moves for K_2000^1 before it could
        # carry a partition, and refuses it past MAX_TERMS of them
        with pytest.raises(OrderLimitError, match=f"more than {MAX_TERMS} kernel moves"):
            x_lollipop(2000, 1)


KERNEL_PATHS = {"one pass": formulas._one_pass, "two passes": formulas._two_pass}


def sweep_through(path, monkeypatch) -> list:
    """(result, step calls) of every kernel call over every family's grid(14), all through path.

    The step calls are kept as their count and the hash of their sequence.
    The memo of the general forms is emptied before every evaluation, so
    that a special case does not reuse its general form's stored value and
    every call reaches the kernel.
    """
    seen = []

    def through(n, step, start):
        calls = []

        def spy(state, s, p):
            calls.append((state, s, p))
            return step(state, s, p)
        result = path(n, spy, start)
        seen.append((result, len(calls), hash(tuple(calls))))
        return result
    with monkeypatch.context() as patch:
        patch.setattr(formulas, "composition_sum", through)
        patch.setattr(formulas, "_memo", Memo(formulas._memo.cap, formulas._memo.size))
        for fam in FAMILIES.values():
            for params in fam.grid(14):
                formulas._memo.clear()
                fam.evaluate(**params)
    return seen


class TestKernelPaths:
    def test_paths_agree_on_every_family(self, monkeypatch):
        # one pass carries dead states too, yet both paths must offer step
        # the same (state, s, p) triples, in the same order, and sum alike
        one, two = (sweep_through(path, monkeypatch) for path in KERNEL_PATHS.values())
        assert len(one) == len(two) > 7000
        for got, want in zip(one, two):
            assert got == want

    @pytest.mark.parametrize("name", sorted(KERNEL_PATHS))
    @settings(max_examples=60, deadline=None)
    @given(case=step_tables())
    def test_each_path_matches_literal_sum(self, name, case):
        n, table = case
        if n:  # composition_sum answers n = 0 itself
            got = KERNEL_PATHS[name](n, lambda state, s, p: table.get((state, s, p), ()), 0)
            assert got == literal_sum(n, table)

    @pytest.mark.parametrize("n, used", [(1, "one pass"), (12, "one pass"),
                                         (13, "two passes"), (20, "two passes")])
    def test_order_picks_the_path(self, n, used, monkeypatch):
        called = []
        for name, attr in (("one pass", "_one_pass"), ("two passes", "_two_pass")):
            monkeypatch.setattr(formulas, attr,
                                lambda m, step, start, name=name: called.append(name) or {m: 1})
        assert composition_sum(n, None, None) == {n: 1} and called == [used]


def fresh(fam, params):
    """fam's value at params computed anew, with the memo of the general forms empty."""
    formulas._memo.clear()
    return fam.evaluate(**params)


@pytest.mark.usefixtures("fresh_memos")
class TestMemo:
    def test_stored_values_equal_fresh_ones(self):
        # the second sweep is all hits, many on entries another family stored
        tuples = [(FAMILIES[tag], params) for tag in GENERAL_FORM_FAMILIES
                  for params in FAMILIES[tag].grid(9)]
        for fam, params in tuples:
            fam.evaluate(**params)
        stored = [fam.evaluate(**params) for fam, params in tuples]
        assert formulas._memo.held == sum(len(f.terms) for f in formulas._memo.values()) > 0
        for (fam, params), got in zip(tuples, stored):
            want = fresh(fam, params)
            assert got == want and got.to_json() == want.to_json(), (fam.tag, params)

    def test_keyword_and_positional_calls_share_an_entry(self):
        f = x_kpkp(a=2, g=0, b=3, h=1)
        assert x_kkp(2, 3, 1) is f and x_kpkp(2, 0, 3, 1) is f
        assert list(formulas._memo) == [("kpkp", 2, 0, 3, 1)]

    def test_forms_do_not_collide(self):
        # K_3 + P_4 + K_3 is K_3 + P_4 + C_3, but K_3 + P_5 + K_3 is not K_3 + P_4 + C_4
        for args in ((3, 3, 3), (3, 3, 4)):
            got = x_kpk(*args), x_kpc(*args)
            assert got == (csf_bruteforce(kpk(*args)), csf_bruteforce(kpc(*args)))
        assert got[0] != got[1]
        assert set(formulas._memo) == {(form, 3, 3, c) for form in ("kpk", "kpc") for c in (3, 4)}

    def test_refused_calls_store_nothing(self, monkeypatch):
        for _ in range(2):
            with pytest.raises(ValueError, match="needs a, b >= 1"):
                x_kpk(0, 3, 8)
        monkeypatch.setattr(formulas, "MAX_TERMS", 10)
        for _ in range(2):
            with pytest.raises(OrderLimitError, match="more than 10 kernel moves"):
                x_kpk(3, 3, 8)
        assert not formulas._memo and not formulas._memo.held

    def test_memo_clears_past_its_cap(self, monkeypatch):
        monkeypatch.setattr(formulas._memo, "cap", 100)
        fam = FAMILIES["kpkp"]
        sizes = []
        for params in [*fam.grid(9), *fam.grid(9)]:
            got = fam.evaluate(**params)
            sizes.append(len(formulas._memo))
            assert formulas._memo.held <= 100
            assert formulas._memo.held == sum(len(f.terms) for f in formulas._memo.values())
        assert any(b < a for a, b in zip(sizes, sizes[1:]))
        for params in fam.grid(9):
            assert x_kpkp(**params) == fresh(fam, params)

    def test_verify_sweep_hits(self, capsys, monkeypatch):
        # 1006 of the sweep's 1303 evaluations reach a general form, 406 stored
        hits = count_hits(formulas, monkeypatch)
        assert main(["verify", "--family", "all", "--max-n", "9"]) == 0
        assert (len(hits), sum(hits)) == (1006, 406)
        assert capsys.readouterr().out.endswith("1349 instances: 1303 passed, 0 failed, "
                                                "46 skipped\n")


class TestKChains:
    def test_single_part_is_complete_graph(self):
        # 300 is past the 255 equal parts a packed key holds, but K_300 has one part
        for n in (*range(2, 7), 300):
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
        # x_kpk_b3 is evaluated by x_kpk: check the published condensed form
        for a in (3, 4, 5):
            for l in (0, 1, 2):
                assert reference_formulas.x_kpk_b3(a, l) == x_kpk(a, 3, l)
        # order 30, too far for the per-composition form: the KPKP-b3 form at h = 0
        assert x_kpkp_b3(10, 18, 0) == x_kpk(10, 3, 18)

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

    def test_tadpole_matches_oracle(self):
        for c in range(3, 14):
            for l in range(14 - c):
                assert x_tadpole(c, l) == csf_bruteforce(tadpole(c, l)), (c, l)
        # order 30, past the oracle: the cycle-to-graph node reduction,
        # (c-1) X(P_{c+l}) - sum_{i=1}^{c-2} X(C_{c-i}) X(P_{i+l})
        c, l = 12, 18
        want = (c - 1) * x_path(c + l)
        for i in range(1, c - 1):
            want = want - x_cycle(c - i) * x_path(i + l)
        assert x_tadpole(c, l) == want


class TestKpkp:
    def test_all_edges_give_path(self):
        assert x_kpkp(2, 0, 2, 0) == x_path(3)

    def test_reduces_to_lollipop(self):
        assert x_kpkp(3, 1, 2, 1) == x_lollipop(3, 3)

    def test_differential(self):
        assert x_kpkp(3, 1, 3, 1) == csf_bruteforce(kpkp(3, 1, 3, 1))
        f = x_kpkp(3, 2, 4, 3)
        assert f == csf_bruteforce(kpkp(3, 2, 4, 3))
        assert all(type(c) is int for c in f.terms.values())

    def test_b3_matches_full(self):
        # evaluated as x_kpkp at b = 3: held to the published condensed form,
        # and past the grid to the oracle
        for args in ((2, 1, 1), (3, 2, 2), (1, 3, 2)):
            assert x_kpkp_b3(*args) == reference_formulas.x_kpkp_b3(*args)
        assert x_kpkp_b3(5, 6, 8) == csf_bruteforce(kpkp(5, 6, 3, 8), 100000)

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
        # x_infinity is x_kayak at l = 0: check that against the published
        # infinity expansion, and past the grid against the oracle
        assert x_kayak(3, 3, 0) == reference_formulas.x_infinity(3, 3)
        assert x_kayak(4, 3, 0) == reference_formulas.x_infinity(4, 3)
        assert x_kayak(13, 18, 0) == csf_bruteforce(infinity(13, 18), 31)

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


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_every_composition_coefficient_is_nonnegative(tag, monkeypatch):
    # The paper claims c_K >= 0 for every composition K in X = sum c_K e_K,
    # which is stronger than e-positivity: rho merges compositions into
    # partitions only afterwards.  Total the reference's terms by K.
    fam = FAMILIES[tag]
    reference = getattr(reference_formulas, fam.evaluate.__name__)
    emit = reference_formulas._emit
    totals = {}

    def emit_and_total(acc, parts, coeff):
        totals[parts] = totals.get(parts, 0) + coeff
        emit(acc, parts, coeff)

    monkeypatch.setattr(reference_formulas, "_emit", emit_and_total)
    for params in fam.grid(10):
        totals.clear()
        x = reference(**params)
        negative = {K: c for K, c in totals.items() if c < 0}
        assert not negative, (params, negative)
        assert {rho(K) for K, c in totals.items() if c} == set(x.terms), params


@pytest.mark.parametrize("build, formula, args, max_edges", [
    (path, x_path, (22,), 24),
    (cycle, x_cycle, (20,), 24),
    (kayak, x_kayak, (6, 7, 8), 24),
    (tw_path, x_tw_path, (19, 9), 24),
    (kpk, x_kpk, (9, 8, 6), 100000),
    (kpk, x_kpk, (8, 1, 9), 100000),
    (kpk, x_kpk, (1, 7, 9), 100000),
    (kpk, lambda a, b, l: x_kpk_b3(a, l), (10, 3, 10), 100000),
    (tadpole, x_tadpole, (8, 12), 24),
    (lollipop, x_lollipop, (9, 8), 44),
    (lollipop, x_lollipop, (20, 6), 196),
    (k_chain, x_kchain, ((10, 9, 8),), 109),
    (kpkp, x_kpkp, (8, 3, 7, 2), 54),
    (kpkp, lambda a, g, b, h: x_kpkp_b3(a, g, h), (7, 9, 3, 12), 100000),
    (melting_lollipop, x_melting_lollipop, (12, 3, 5), 64),
    (kkp, x_kkp, (7, 6, 9), 45),
    (pkp, x_pkp, (6, 8, 6), 40),
    (infinity, x_infinity, (13, 18), 31),
], ids=["path22", "cycle20", "kayak678", "tw_path19_9", "kpk9_8_6", "kpk8_1_9", "kpk1_7_9",
        "kpk_b3_10_10", "tadpole8_12", "lollipop9_8",
        "lollipop20_6", "kchain10_9_8", "kpkp8372", "kpkp_b3_7_9_12", "melting12_3_5",
        "kkp7_6_9", "pkp6_8_6", "infinity13_18"])
def test_matches_oracle_past_grid(build, formula, args, max_edges):
    # sparse graphs above order 13, and clique families far past the 24-edge
    # budget, where the oracle counts each clique's twins by binomials
    assert csf_bruteforce(build(*args), max_edges) == formula(*args)


class TestHelperIdentity:
    def test_single_part(self):
        assert f123_check(3, (5,))

    def test_two_parts(self):
        assert f123_check(3, (2, 3))

    @given(st.integers(2, 6), nonempty_comps)
    def test_sweep(self, a, I):
        assert f123_check(a, I)
