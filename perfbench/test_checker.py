"""Tests of the independent checker against known closed forms.

Run with: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest
from math import comb, factorial

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402


def falling(k: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= k - i
    return out


def poly_at(tag: str, params: dict, k: int) -> int:
    return checker.evaluate(checker.chromatic_polynomial(*checker.build(tag, params)), k)


def terms(**by_name: int) -> checker.Terms:
    """terms(e4=4, e31=2) is 4 e_4 + 2 e_{3,1}; parts are single digits."""
    return {tuple(int(d) for d in name[1:]): (c, 1) for name, c in by_name.items()}


class ChromaticPolynomial(unittest.TestCase):
    KS = range(-3, 11)

    def test_paths(self):
        for n in range(1, 10):
            for k in self.KS:
                self.assertEqual(poly_at("path", {"n": n}, k), k * (k - 1) ** (n - 1))

    def test_cycles(self):
        for n in range(3, 10):
            for k in self.KS:
                self.assertEqual(poly_at("cycle", {"n": n}, k),
                                 (k - 1) ** n + (-1) ** n * (k - 1))

    def test_cliques(self):
        for n in range(2, 9):
            for k in self.KS:
                self.assertEqual(poly_at("kchain", {"parts": (n,)}, k), falling(k, n))

    def test_blocks_multiply(self):
        # a lollipop is K_a and a path glued at cut vertices: chi = chi(K_a) (k-1)^l
        for a, l in [(3, 2), (5, 4), (7, 1)]:
            for k in self.KS:
                self.assertEqual(poly_at("lollipop", {"a": a, "l": l}, k),
                                 falling(k, a) * (k - 1) ** l)

    def test_acyclic_orientations(self):
        for n in range(3, 9):
            self.assertEqual(abs(poly_at("path", {"n": n}, -1)), 2 ** (n - 1))
            self.assertEqual(abs(poly_at("cycle", {"n": n}, -1)), 2 ** n - 2)
            self.assertEqual(abs(poly_at("kchain", {"parts": (n,)}, -1)), factorial(n))


class Expansions(unittest.TestCase):
    def check(self, tag, params, expansion):
        return checker.check_expansion(expansion, *checker.build(tag, params))

    def test_known_expansions_pass(self):
        self.assertEqual(self.check("path", {"n": 1}, terms(e1=1)), [])
        self.assertEqual(self.check("path", {"n": 3}, terms(e3=3, e21=1)), [])
        self.assertEqual(self.check("path", {"n": 4}, terms(e4=4, e31=2, e22=2)), [])
        self.assertEqual(self.check("cycle", {"n": 4}, terms(e4=12, e22=2)), [])
        self.assertEqual(self.check("kchain", {"parts": (5,)}, terms(e5=120)), [])

    def test_wrong_coefficient_fails(self):
        self.assertTrue(self.check("path", {"n": 3}, terms(e3=3, e21=2)))
        # right sum of coefficients, wrong specialization
        self.assertTrue(self.check("path", {"n": 4}, terms(e4=2, e31=4, e22=2)))

    def test_malformed_expansions_fail(self):
        self.assertTrue(self.check("path", {"n": 2}, {(2,): (4, 2)}))
        self.assertTrue(self.check("path", {"n": 3}, terms(e3=5, e21=-1)))
        self.assertTrue(self.check("path", {"n": 3}, terms(e3=3, e2=1)))

    def test_parse_records(self):
        parsed = checker.parse_records([{"partition": [2, 1], "num": 1, "den": 1}])
        self.assertEqual(parsed, {(2, 1): (1, 1)})
        with self.assertRaises(ValueError):
            checker.parse_records([{"partition": [1], "num": 1, "den": 1}] * 2)


class Families(unittest.TestCase):
    def test_edge_counts(self):
        cases = [
            ("lollipop", {"a": 5, "l": 3}, comb(5, 2) + 3),
            ("melting-lollipop", {"a": 5, "l": 3, "k": 2}, comb(5, 2) + 3 - 2),
            ("kpk", {"a": 4, "b": 3, "l": 2}, 6 + 3 + 2),
            ("kkp", {"a": 1, "b": 4, "h": 2}, 6 + 2),
            ("pkp", {"g": 2, "a": 4, "h": 1}, 2 + 6 + 1),
            ("kpc", {"a": 3, "l": 1, "c": 5}, 3 + 1 + 5),
            ("kpkp", {"a": 3, "g": 1, "b": 4, "h": 2}, 3 + 1 + 6 + 2),
            ("kchain", {"parts": (3, 4, 2)}, 3 + 6 + 1),
            ("tw-path", {"n": 6, "l": 3}, 5 + 3),
            ("tw-cycle", {"n": 5}, 5 + 3),
            ("tw-lollipop", {"a": 3, "l": 4, "h": 2}, 3 + 4 + 3),
            ("kayak", {"a": 4, "b": 5, "l": 2}, 4 + 5 + 2),
            ("infinity", {"a": 3, "b": 4}, 7),
        ]
        for tag, params, edges in cases:
            self.assertEqual(len(checker.build(tag, params)[1]), edges, tag)

    def test_domains_give_their_order(self):
        for tag, spec in checker.FAMILIES.items():
            for order in range(1, 10):
                for params in spec.domain(order):
                    self.assertEqual(checker.build(tag, params)[0], order, (tag, params))

    def test_small_grids(self):
        self.assertEqual(len(checker.verify_grid("path", 4)), 4)
        self.assertEqual(len(checker.verify_grid("cycle", 5)), 3)
        self.assertEqual(checker.verify_grid("infinity", 5), [{"a": 3, "b": 3}])
        self.assertEqual(checker.verify_grid("tw-cycle", 4), [{"n": 3}, {"n": 4}])
        # kchain is bounded by the sum of its parts, not by its order
        self.assertEqual(checker.verify_grid("kchain", 4),
                         [{"parts": (2,)}, {"parts": (3,)}, {"parts": (2, 2)}, {"parts": (4,)}])


if __name__ == "__main__":
    unittest.main()
