"""Each oracle accepts a known-good value and rejects a planted wrong one.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import json
import unittest

import oracles
from perm import FiniteGroup, parse_cycles


def _s3_group_doc() -> dict:
    # classes: identity, the 3 transpositions, the 2 three-cycles; values as
    # eigenvalue multisets of 6th roots of unity (-1 = zeta^3, zeta_3 = zeta^2)
    return {
        "order": 6,
        "class_sizes": [1, 3, 2],
        "character_table": {
            "exponent": 6,
            "degrees": [1, 1, 2],
            "values": [
                [{"0": 1}, {"0": 1}, {"0": 1}],
                [{"0": 1}, {"3": 1}, {"0": 1}],
                [{"0": 2}, {"0": 1, "3": 1}, {"2": 1, "4": 1}],
            ],
        },
    }


def _s3_analysis() -> dict:
    """Row S3-5 of the table: two genus-3 S3-covers of elliptic curves
    branched at one point of order 3; K^2 = 5, 1/3(1,1) + 1/3(1,2)."""
    curve = {
        "base_genus": 1,
        "orders": [3],
        "genus": 3,
        "handles": [["(1,2)", "(1,3)"]],
        "monodromies": ["(1,2,3)"],
        "isotypical_factors": [{"d": 1, "n": 1}, {"d": 0, "n": 1}, {"d": 1, "n": 2}],
        "chevalley_weil": [1, 0, 1],
    }
    return {
        "group": _s3_group_doc(),
        "curves": [curve, copy.deepcopy(curve)],
        "surface": {
            "p_g": 2,
            "q": 2,
            "chi": 1,
            "e": 7,
            "K2": 5,
            "b2": 13,
            "eta": 3,
            "singularities": [
                {"n": 3, "q": 1, "chain": [3]},
                {"n": 3, "q": 2, "chain": [2, 2]},
            ],
        },
    }


_S3_TEXT = """pqsurf 0.1.0
group: S3 (order 6, degree 3, 3 classes, exponent 6)
curve 1: base genus 1, branch orders (3), genus 3
curve 2: base genus 1, branch orders (3), genus 3
surface: p_g=2 q=2 chi=1 e=7 K^2=5 b2=13 eta=3
  singularities: 1/3(1,1), 1/3(1,2)
"""


def _orbit_representatives(group: FiniteGroup, g0: int, orders) -> list[list[tuple[int, ...]]]:
    reps = {}
    pools = [range(group.order)] * (2 * g0) + [
        [g for g in range(group.order) if group.orders[g] == m] for m in orders
    ]
    from itertools import product

    for word in product(*pools):
        if group.closes_up(g0, word) and group.generates(word):
            reps.setdefault(group.canonical(word), word)
    return [[group.elements[g] for g in word] for word in reps.values()]


class SurfaceOracles(unittest.TestCase):
    def test_basket_reproduces_every_published_row(self):
        for name, (order, (g1, g2), k2, sings, _) in oracles.PAPER_ROWS.items():
            with self.subTest(row=name):
                self.assertEqual(oracles.basket(order, g1, g2, sings), (k2, 12 - k2))

    def test_analysis_json_accepts_good_and_rejects_k2_off_by_one(self):
        doc = _s3_analysis()
        self.assertEqual(oracles.check_analysis_json(doc, {"header": {"K2": 5, "p_g": 2, "q": 2}}), [])
        doc["surface"]["K2"] += 1
        problems = oracles.check_analysis_json(doc, {})
        self.assertTrue(any("basket" in p for p in problems), problems)

    def test_header_value_rejects_k2_off_by_one(self):
        doc = _s3_analysis()
        self.assertTrue(oracles.check_analysis_json(doc, {"header": {"K2": 6, "p_g": 2, "q": 2}}))

    def test_analysis_text_rejects_k2_off_by_one(self):
        self.assertEqual(oracles.check_analysis_text(_S3_TEXT, {}), [])
        wrong = _S3_TEXT.replace("K^2=5", "K^2=6")
        self.assertTrue(oracles.check_analysis_text(wrong, {}))

    def test_table_row_rejects_k2_off_by_one(self):
        row = {
            "row": "S3-5",
            "ok": True,
            "mismatches": [],
            "K2": 5,
            "eta": 3,
            "singularities": ["1/3(1,1)", "1/3(1,2)"],
            "jacobian1": [[1, 2]],
            "jacobian2": [[1, 2]],
            "paired_dn": [1, 2],
        }
        self.assertEqual(oracles.check_table_row([row], "S3-5"), [])
        row["K2"] = 4
        self.assertTrue(oracles.check_table_row([row], "S3-5"))

    def test_dimension_counts_reject_a_wrong_factor(self):
        doc = _s3_analysis()
        doc["curves"][0]["isotypical_factors"][2]["n"] = 1
        self.assertTrue(any("sum d*n" in p for p in oracles.check_analysis_json(doc, {})))


class CharacterTableOracle(unittest.TestCase):
    def test_accepts_s3(self):
        self.assertEqual(oracles.check_character_table(_s3_group_doc()), [])

    def test_rejects_permuted_row(self):
        doc = _s3_group_doc()
        row = doc["character_table"]["values"][2]
        row[1], row[2] = row[2], row[1]
        problems = oracles.check_character_table(doc)
        self.assertTrue(any("orthonormal" in p for p in problems), problems)


class SearchOracle(unittest.TestCase):
    def setUp(self):
        self.v4 = FiniteGroup([parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)])
        self.tuples = oracles.count_generating_tuples(self.v4, 1, (2, 2))
        self.reps = _orbit_representatives(self.v4, 1, (2, 2))

    def test_accepts_complete_search(self):
        self.assertGreater(len(self.reps), 1)
        self.assertEqual(oracles.check_search(self.v4, 1, (2, 2), self.reps, self.tuples), [])

    def test_rejects_dropped_orbit(self):
        problems = oracles.check_search(self.v4, 1, (2, 2), self.reps[1:], self.tuples)
        self.assertTrue(any("generating tuples" in p for p in problems), problems)

    def test_rejects_conjugate_duplicate(self):
        vectors = self.reps[1:] + self.reps[1:2]
        problems = oracles.check_search(self.v4, 1, (2, 2), vectors, self.tuples)
        self.assertTrue(any("conjugate" in p for p in problems), problems)

    def test_rejects_non_generating_vector(self):
        identity, c = (1, 2, 3, 4), parse_cycles("(1,2)(3,4)", 4)
        vectors = [[identity, identity, c, c]] + self.reps[1:]
        problems = oracles.check_search(self.v4, 1, (2, 2), vectors, self.tuples)
        self.assertTrue(any("does not generate" in p for p in problems), problems)

    def test_tuple_count_matches_orbit_sizes(self):
        s3 = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
        reps = _orbit_representatives(s3, 1, (3,))
        # Z(S3) is trivial, so every orbit has 6 members
        self.assertEqual(oracles.count_generating_tuples(s3, 1, (3,)), 6 * len(reps))


class LatticeOracle(unittest.TestCase):
    def test_rejects_wrong_signature(self):
        expected = [{"signature": [2, 19], "disc_order": 6, "factors": [6], "embedding": "criterion_not_satisfied"}]
        good = [{"signature": [2, 19], "factors": [6], "embedding": "criterion_not_satisfied"}]
        self.assertEqual(oracles.check_lattices(good, expected), [])
        bad = json.loads(json.dumps(good))
        bad[0]["signature"] = [3, 18]
        self.assertTrue(oracles.check_lattices(bad, expected))


if __name__ == "__main__":
    unittest.main()
