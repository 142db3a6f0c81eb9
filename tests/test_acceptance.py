"""Acceptance suite: every exit criterion, exact arithmetic, zero tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines as they complete).  Grids are indexed by each family's size parameter
n; instances above the 24-edge brute-force budget are excluded, as for the
clique chains past K_7.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from chromsym.compositions import (
    sigma_minus,
    theta,
    theta_minus,
)
from chromsym.families import FAMILIES, run_verification
from chromsym.formulas import (
    x_kpk,
    x_lollipop,
    x_pkp,
    x_kpkp,
    x_tw_cycle,
    x_tw_lollipop,
    x_tw_path,
)
from chromsym.graphs import (
    Graph,
    complete,
    conjoin,
    rooted_complete,
    rooted_cycle,
    rooted_path,
    tadpole,
    twin,
)
from chromsym.oracle import csf_bruteforce
from chromsym.symfunc import e_term, p_to_e
import reference_formulas
from reference_formulas import f123_check, remove_part
from reference_oracle import (
    triple_deletion_check,
    x_tw_cycle_rec,
    x_tw_lollipop_rec,
    x_tw_path_rec,
    x_via_cpg,
    x_via_kpg,
)

GRID_N = 9
EDGE_BUDGET = 24


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} ({name}): FAIL")
        raise
    print(f"CRITERION {number} ({name}): PASS "
          f"[{time.perf_counter() - start:.2f}s]")


def test_criterion_1_twinned_cycle_constants():
    with criterion(1, "twinned-cycle constants"):
        start = time.perf_counter()
        assert x_tw_cycle(4) == (e_term((5,), 50) + e_term((4, 1), 6)
                                 + e_term((3, 2), 4))
        assert x_tw_cycle(5) == (e_term((6,), 84) + e_term((5, 1), 16)
                                 + e_term((4, 2), 20) + e_term((3, 3), 12))
        assert x_tw_cycle(6) == (e_term((7,), 126) + e_term((6, 1), 30)
                                 + e_term((5, 2), 44) + e_term((4, 3), 66)
                                 + e_term((4, 2, 1), 6) + e_term((3, 2, 2), 4))
        assert time.perf_counter() - start < 1.0


def test_criterion_2_twinned_tadpole_counterexample():
    with criterion(2, "twinned-tadpole counterexample"):
        start = time.perf_counter()
        base = tadpole(4, 1)  # center is vertex 1; cycle runs 1-2-3-4-1
        x_near = csf_bruteforce(twin(base, 2))
        expected_near = (e_term((6,), 60) + e_term((5, 1), 50)
                         + e_term((4, 2), -4) + e_term((4, 1, 1), 6)
                         + e_term((3, 3), 6) + e_term((3, 2, 1), 2))
        assert x_near == expected_near
        assert not x_near.is_e_positive()
        assert x_near.min_coefficient() == (Fraction(-4), (4, 2))

        x_far = csf_bruteforce(twin(base, 3))
        expected_far = (e_term((6,), 60) + e_term((5, 1), 40)
                        + e_term((4, 2), 12) + e_term((3, 3), 6)
                        + e_term((3, 2, 1), 2))
        assert x_far == expected_far
        assert x_far.is_e_positive()
        assert time.perf_counter() - start < 1.0


def test_criterion_3_complete_graph_law():
    with criterion(3, "complete-graph law"):
        start = time.perf_counter()
        for n in range(1, 8):
            assert csf_bruteforce(complete(n)) == e_term((n,), math.factorial(n))
        assert time.perf_counter() - start < 30.0


@pytest.fixture(scope="module")
def differential_results():
    """One full formula-vs-oracle sweep, shared by criteria 4 and 5."""
    start = time.perf_counter()
    records = {tag: list(run_verification(tag, GRID_N, EDGE_BUDGET))
               for tag in sorted(FAMILIES)}
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_4_differential_suite(differential_results):
    with criterion(4, "differential suite"):
        records, elapsed = differential_results
        total = sum(len(v) for v in records.values())
        failures = [r for v in records.values() for r in v if r.status == "fail"]
        assert total > 1000
        assert not failures, failures[:5]
        assert elapsed <= 300.0


def test_criterion_5_positivity_suite(differential_results):
    with criterion(5, "positivity suite"):
        records, _ = differential_results
        for tag, recs in records.items():
            fam = FAMILIES[tag]
            for rec in recs:
                f = fam.evaluate(**rec.params)
                assert f.is_integral(), (tag, rec.params)
                assert f.is_e_positive(), (tag, rec.params)


def test_criterion_6_specialization_suite():
    with criterion(6, "four-piece chain specializations"):
        checked = 0
        for a in range(1, GRID_N + 1):
            for g in range(GRID_N):
                for b in range(2, GRID_N + 1):
                    for h in range(GRID_N):
                        n = a + g + b + h - 1
                        if n > GRID_N:
                            continue
                        full = x_kpkp(a, g, b, h)
                        if b == 2:
                            assert full == x_lollipop(a, g + h + 1), (a, g, h)
                        if h == 0:
                            assert full == x_kpk(a, b, g), (a, g, b)
                        # x_kkp and x_pkp are evaluated by x_kpkp, so g == 0
                        # and a == 1 are checked against their published forms
                        if g == 0:
                            assert full == reference_formulas.x_kkp(a, b, h), (a, b, h)
                        if a == 1:
                            assert full == reference_formulas.x_pkp(g, b, h), (g, b, h)
                        if a == 2:
                            assert full == x_pkp(g + 1, b, h), (g, b, h)
                        checked += 1
        assert checked > 300


def test_criterion_7_recurrence_suite():
    with criterion(7, "recurrence suite"):
        for n in range(3, 9):
            assert x_tw_cycle(n) == x_tw_cycle_rec(n), n
            for l in range(2, n):
                assert x_tw_path(n, l) == x_tw_path_rec(n, l), (n, l)
        for a in range(1, 6):
            for l in range(2, 8 - a):
                for h in range(1, l):
                    assert x_tw_lollipop(a, l, h) == x_tw_lollipop_rec(a, l, h)
        node_graphs = [rooted_complete(1), rooted_path(3), rooted_complete(3),
                       rooted_cycle(4)]
        for node in node_graphs:
            for a in (2, 3):
                for l in (0, 1, 2):
                    want = csf_bruteforce(conjoin(rooted_complete(a), node, l))
                    assert x_via_kpg(l, a, node) == want
        for node in node_graphs:
            for a in (3, 4):
                for l in (0, 1):
                    want = csf_bruteforce(conjoin(rooted_cycle(a), node, l))
                    assert x_via_cpg(l, a, node) == want


def test_criterion_8_identity_suite():
    with criterion(8, "statistic and deletion identities"):
        start = time.perf_counter()
        rng = random.Random(20240817)

        def random_composition():
            return tuple(rng.randint(1, 7)
                         for _ in range(rng.randint(1, 6)))

        for _ in range(300):
            I = random_composition()
            n = sum(I)
            a = rng.randint(0, n)
            assert theta_minus(I, a) == theta(I[::-1], n - a)
            shift = rng.randint(0, n - I[0])
            if len(I) == 1:
                assert sigma_minus(I, I[0] + shift) == I[0]
            else:
                assert (sigma_minus(I, I[0] + shift)
                        == sigma_minus(remove_part(I, 1), shift) + I[0])
            assert theta(I, a) >= 0 and theta_minus(I, a) >= 0
            assert f123_check(rng.randint(2, 6), I)

        checked = 0
        while checked < 200:
            n = rng.randint(3, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = {e for e in pairs if rng.random() < 0.45}
            t = tuple(sorted(rng.sample(range(n), 3)))
            forbidden = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
            g = Graph(n, frozenset(edges - forbidden))
            assert triple_deletion_check(g, t) == (True, True), (g, t)
            checked += 1

        for k in range(1, 10):
            xs = [rng.randint(-3, 5) for _ in range(rng.randint(0, 5))]
            assert (p_to_e(k).evaluate_at(xs)
                    == sum(Fraction(x) ** k for x in xs))
        assert time.perf_counter() - start < 60.0
