import collections
from pathlib import Path

import pytest

from pqsurf import covering, jacobian, surface
from pqsurf.analysis import analyze_pair
from pqsurf.catalog import select_pair
from pqsurf.cli import main
from pqsurf.covering import (
    GeneratingVector,
    fixed_point_data,
    genus,
    hurwitz_character,
    search_generating_vectors,
    validate,
)
from pqsurf.chars import ClassFunction, inner_product
from pqsurf.errors import (
    GroupMismatch,
    IdentityElement,
    InternalInconsistency,
    InvalidParameter,
    NotGenerating,
    OrderMismatch,
    RelationFails,
    SearchSpaceTooLarge,
    TrivialMonodromy,
)
from pqsurf.groups import Group, catalog_group, group_from_generators
from pqsurf.perms import parse_permutation

from conveniences import rebuilt
from planted import planted

REPO = Path(__file__).resolve().parents[1]


def p4(s):
    return parse_permutation(s, 4)


def v4_example_pair():
    """The explicit K^2 = 8 pair of V4-covers of elliptic curves."""
    G = catalog_group("V4")
    gv1 = GeneratingVector(
        G, ((p4("(1,3)(2,4)"), p4("()")),),
        (p4("(1,2)(3,4)"), p4("(1,2)(3,4)")), (2, 2),
    )
    gv2 = GeneratingVector(
        G, ((p4("(1,2)(3,4)"), p4("()")),),
        (p4("(1,3)(2,4)"), p4("(1,3)(2,4)")), (2, 2),
    )
    return gv1, gv2


def s3_branch3():
    G = catalog_group("S3")
    rot = parse_permutation("(1,2,3)", 3)
    flip = parse_permutation("(1,2)", 3)
    # [a, b] = rot^-1 requires a noncommuting handle pair
    for a in G.elements:
        for b in G.elements:
            word = a * b * a.inverse() * b.inverse() * rot
            if word.is_identity():
                try:
                    return GeneratingVector(G, ((a, b),), (rot,), (3,))
                except Exception:
                    continue
    raise AssertionError("no S3 witness found")


def test_validate_accepts_the_v4_datum():
    gv1, gv2 = v4_example_pair()
    validate(gv1)
    validate(gv2)


def test_validate_rejects_trivial_monodromy():
    G = catalog_group("V4")
    with pytest.raises(TrivialMonodromy):
        GeneratingVector(G, ((p4("(1,3)(2,4)"), p4("()")),), (p4("()"), p4("()")), (2, 2))


def test_validate_rejects_non_generating():
    G = catalog_group("V4")
    t = p4("(1,3)(2,4)")
    with pytest.raises(NotGenerating):
        GeneratingVector(G, ((t, p4("()")),), (t, t), (2, 2))


def test_validate_rejects_wrong_order_and_relation():
    G = catalog_group("V4")
    with pytest.raises(OrderMismatch):
        GeneratingVector(
            G, ((p4("(1,3)(2,4)"), p4("()")),),
            (p4("(1,2)(3,4)"), p4("(1,2)(3,4)")), (4, 4),
        )
    with pytest.raises(RelationFails):
        GeneratingVector(
            G, ((p4("(1,3)(2,4)"), p4("()")),),
            (p4("(1,2)(3,4)"), p4("(1,4)(2,3)")), (2, 2),
        )


def test_validate_raises_the_first_violated_invariant():
    G = catalog_group("V4")
    handles = ((p4("(1,3)(2,4)"), p4("()")),)
    # an identity monodromy and a broken relation
    with pytest.raises(TrivialMonodromy):
        GeneratingVector(G, handles, (p4("()"), p4("(1,2)(3,4)")), (2, 2))
    # a wrong declared order and a broken relation
    with pytest.raises(OrderMismatch):
        GeneratingVector(G, handles, (p4("(1,2)(3,4)"), p4("(1,4)(2,3)")), (4, 2))
    # a missing order and an element outside the group
    with pytest.raises(OrderMismatch):
        GeneratingVector(G, handles, (p4("(1,2)"),), ())


def test_fields_that_are_not_tuples_are_invalid():
    # a list field would be accepted and then fail to hash in every pair
    # stage keyed by its partner
    gv, _ = v4_example_pair()
    (a, b), = gv.handles
    for handles, monos, orders in [
        (gv.handles, list(gv.monodromies), list(gv.orders)),
        (list(gv.handles), gv.monodromies, gv.orders),
        (([a, b],), gv.monodromies, gv.orders),
        (((a, b, a),), gv.monodromies, gv.orders),
        (gv.handles, gv.monodromies, list(gv.orders)),
    ]:
        with pytest.raises(InvalidParameter, match="tuples"):
            GeneratingVector(gv.group, handles, monos, orders)
    # the tuple fields are checked before the declared orders
    with pytest.raises(InvalidParameter):
        GeneratingVector(gv.group, gv.handles, list(gv.monodromies), ())
    assert hash(GeneratingVector(gv.group, gv.handles, gv.monodromies, gv.orders)) == hash(gv)


def test_replace_checks_the_new_vector():
    gv1, _ = v4_example_pair()
    # the second monodromy (1,4)(2,3) leaves the product (1,3)(2,4), not 1
    with pytest.raises(RelationFails):
        GeneratingVector(gv1.group, gv1.handles, (p4("(1,2)(3,4)"), p4("(1,4)(2,3)")), gv1.orders)
    with pytest.raises(OrderMismatch):
        GeneratingVector(gv1.group, gv1.handles, gv1.monodromies, (2,))


def test_genus_examples():
    gv1, _ = v4_example_pair()
    assert genus(gv1) == 3

    # unbranched cover of an elliptic curve has genus 1
    G = catalog_group("V4")
    etale = GeneratingVector(G, ((p4("(1,2)(3,4)"), p4("(1,3)(2,4)")),), (), ())
    assert genus(etale) == 1

    assert genus(s3_branch3()) == 3


def test_hurwitz_character_examples():
    gv1, gv2 = v4_example_pair()
    assert hurwitz_character(gv1).values == (6, -2, 2, 2)
    assert hurwitz_character(gv2).values == (6, 2, -2, 2)

    G = catalog_group("V4")
    etale = GeneratingVector(G, ((p4("(1,2)(3,4)"), p4("(1,3)(2,4)")),), (), ())
    assert hurwitz_character(etale).values == (2, 2, 2, 2)  # twice the trivial character

    # S3 with one order-3 branch point: 0 on the 3-cycles, 2 on transpositions
    chi = hurwitz_character(s3_branch3())
    G3 = catalog_group("S3")
    by_order = {rep.order(): chi.values[i] for i, rep in enumerate(G3.class_reps)}
    assert by_order == {1: 6, 2: 2, 3: 0}


def test_hurwitz_identity_value_is_twice_genus():
    for name, g0, orders in [("V4", 1, (2, 2)), ("S3", 1, (3,)), ("Q8", 1, (2,))]:
        for gv in search_generating_vectors(catalog_group(name), g0, orders):
            assert hurwitz_character(gv).values[0] == 2 * genus(gv)


def test_trivial_inner_product_is_twice_base_genus():
    for name, g0, orders in [("V4", 1, (2, 2)), ("D4", 1, (2,)), ("A4", 1, (2,))]:
        G = catalog_group(name)
        triv = ClassFunction(G, (1,) * len(G.classes))
        for gv in search_generating_vectors(G, g0, orders):
            assert inner_product(triv, hurwitz_character(gv)) == 2 * g0


@planted
def test_planted_hurwitz_degree_fault_is_internal_inconsistency(monkeypatch):
    # a permutation character that forgets to divide by |H| counts each fixed
    # point m times, so the degree of the Hurwitz character is not 2g
    gv = rebuilt(s3_branch3())
    real = covering.permutation_character
    monkeypatch.setattr(
        covering,
        "permutation_character",
        lambda group, classes: tuple(len(classes) * v for v in real(group, classes)),
    )
    with pytest.raises(InternalInconsistency, match="degree must be 2g"):
        hurwitz_character(gv)


def test_fixed_point_data_v4():
    gv1, _ = v4_example_pair()
    t10 = p4("(1,2)(3,4)")
    t01 = p4("(1,3)(2,4)")
    pts = fixed_point_data(gv1, t10)
    assert len(pts) == 4  # two cosets above each of the two branch points
    assert all(fp.rotation_exponent == 1 for fp in pts)
    assert {fp.branch_index for fp in pts} == {1, 2}
    assert fixed_point_data(gv1, t01) == ()
    with pytest.raises(IdentityElement):
        fixed_point_data(gv1, p4("()"))


def test_fixed_point_data_s3_rotations():
    gv = s3_branch3()
    pts = fixed_point_data(gv, gv.monodromies[0])
    assert len(pts) == 2
    assert sorted(fp.rotation_exponent for fp in pts) == [1, 2]


def test_fixed_point_count_identity():
    # summing fixed points of all nontrivial g above branch j recovers the
    # number of ramification points, (m_j - 1) * |G| / m_j
    for name, g0, orders in [("S3", 1, (3,)), ("Q8", 1, (2,)), ("D4", 1, (2, 2))]:
        G = catalog_group(name)
        for gv in search_generating_vectors(G, g0, orders)[:3]:
            for j, m in enumerate(gv.orders, start=1):
                total = 0
                for g in G.elements:
                    if g.is_identity():
                        continue
                    total += sum(
                        1 for fp in fixed_point_data(gv, g) if fp.branch_index == j
                    )
                assert total == (m - 1) * (G.order // m)


def test_search_v4_contains_the_example_datum():
    G = catalog_group("V4")
    vectors = search_generating_vectors(G, 1, (2, 2))
    assert vectors
    gv1, _ = v4_example_pair()
    targets = {gv.listed_elements() for gv in vectors}
    # V4 is abelian, so conjugation is trivial and the datum appears verbatim
    assert gv1.listed_elements() in targets


def test_search_q8_forces_central_monodromy():
    G = catalog_group("Q8")
    vectors = search_generating_vectors(G, 1, (2,))
    assert vectors
    central = next(g for g in G.elements if g.order() == 2)
    assert all(gv.monodromies == (central,) for gv in vectors)


def test_search_impossible_signature_is_empty():
    G = catalog_group("S3")
    assert search_generating_vectors(G, 0, (2, 2)) == ()


def test_search_space_cap(monkeypatch):
    # the cap bounds the tuples scanned: 12^4 handles * 3 * 3 involutions
    monkeypatch.setattr(covering, "SEARCH_SPACE_LIMIT", 1000)
    with pytest.raises(SearchSpaceTooLarge):
        search_generating_vectors(catalog_group("A4"), 2, (2, 2, 2))
    # 3 involutions * 8 elements of order 3 fit, though |G|^r = 1728 does not
    assert search_generating_vectors(catalog_group("A4"), 0, (2, 3, 3))


def test_search_outputs_validate_and_are_deduplicated():
    G = catalog_group("D4")
    vectors = search_generating_vectors(G, 1, (2,))
    for gv in vectors:
        validate(gv)
    keys = {gv.listed_elements() for gv in vectors}
    assert len(keys) == len(vectors)


def test_per_vector_stages_run_once_and_share_their_value():
    gv1, _ = v4_example_pair()
    chi = hurwitz_character(gv1)
    assert hurwitz_character(gv1) is chi
    assert genus(gv1) == 3 and validate(gv1) is None


def test_invalid_vector_raises_from_validate_on_every_call():
    G = catalog_group("V4")
    handles = ((p4("(1,3)(2,4)"), p4("()")),)
    monos = (p4("(1,2)(3,4)"), p4("(1,4)(2,3)"))
    for _ in range(3):
        with pytest.raises(RelationFails):
            GeneratingVector(G, handles, monos, (2, 2))
    # validation keeps only the monodromy classes on a vector
    gv, _ = v4_example_pair()
    validate(gv)
    assert gv._memo == {covering.monodromy_classes.__wrapped__: (1, 1)}


def test_memo_is_not_part_of_equality_hash_or_repr():
    fresh, _ = v4_example_pair()
    used, _ = v4_example_pair()
    hurwitz_character(used)
    assert hurwitz_character.__wrapped__ in used._memo
    assert hurwitz_character.__wrapped__ not in fresh._memo
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert "_memo" not in repr(used)


def test_replace_starts_with_an_empty_memo():
    gv1, _ = v4_example_pair()
    chi = hurwitz_character(gv1)
    copy = rebuilt(gv1)
    assert copy == gv1 and copy._memo == {covering.monodromy_classes.__wrapped__: (1, 1)}
    assert hurwitz_character(copy) == chi
    assert hurwitz_character(copy) is not chi


# -- searches kept on the group ---------------------------------------------------

def fresh(name):
    """An equal copy of a catalog group that no earlier test has searched."""
    return group_from_generators(catalog_group(name).generators)


@pytest.fixture
def scans(monkeypatch):
    """Counts the closure checks made: a search makes one per canonical key
    it meets and one per vector it validates."""
    count = [0]
    generated_by = Group.generated_by

    def counting(group, elements):
        count[0] += 1
        return generated_by(group, elements)

    monkeypatch.setattr(Group, "generated_by", counting)
    return count


def test_repeated_search_returns_the_kept_vectors(scans):
    G = fresh("D4")
    first = search_generating_vectors(G, 1, (2,))
    chi = hurwitz_character(first[0])
    assert scans[0] > 0
    scans[0] = 0
    again = search_generating_vectors(G, 1, (2,))
    assert again is first and scans[0] == 0
    assert hurwitz_character(again[0]) is chi


def test_other_signatures_and_equal_groups_search_anew(scans):
    G = fresh("D4")
    kept = search_generating_vectors(G, 1, (2,))
    # other orders, then the same orders over another base genus
    earlier = [kept]
    for g0, orders in ((1, (2, 2)), (0, (2, 2, 4)), (1, (2, 2, 4))):
        scans[0] = 0
        vectors = search_generating_vectors(G, g0, orders)
        assert vectors and scans[0] > 0
        assert all(vectors is not e for e in earlier)
        earlier.append(vectors)
    scans[0] = 0
    other = fresh("D4")
    assert other == G
    again = search_generating_vectors(other, 1, (2,))
    assert again == kept and again is not kept and scans[0] > 0


def candidate_keys(G, orders):
    """The canonical keys of the g0 = 1 tuples (a, b, c) with c = [a, b]^-1
    of order orders[0]: the candidates of a one-branch-point search."""
    (m,) = orders
    keys = set()
    for a in G.elements:
        for b in G.elements:
            c = (a * b * a.inverse() * b.inverse()).inverse()
            if not c.is_identity() and c.order() == m:
                keys.add(covering._canonical(G, (a, b, c)))
    return keys


@pytest.mark.parametrize("name, orders", [("S3", (3,)), ("D4", (2,)), ("Q8", (2,)), ("A4", (2,))])
def test_search_closes_once_per_key_and_once_per_vector(scans, name, orders):
    G = fresh(name)
    vectors = search_generating_vectors(G, 1, orders)
    assert vectors
    assert scans[0] == len(candidate_keys(G, orders)) + len(vectors)


def test_s5_search_closes_once_per_key(scans):
    S5 = group_from_generators([parse_permutation(g, 5) for g in ("(1,2)", "(1,2,3,4,5)")])
    vectors = search_generating_vectors(S5, 1, (2,))
    # 3720 candidate tuples in 34 conjugation orbits, 24 of them generating
    assert len(vectors) == 24
    assert scans[0] == 34 + 24


def test_kept_search_still_checks_the_space_bound(monkeypatch):
    G = fresh("A4")
    assert search_generating_vectors(G, 1, (2,))  # 12^2 = 144 tuples
    monkeypatch.setattr(covering, "SEARCH_SPACE_LIMIT", 100)
    with pytest.raises(SearchSpaceTooLarge):
        search_generating_vectors(G, 1, (2,))


def test_search_that_raises_keeps_nothing(monkeypatch):
    G = fresh("S3")
    with monkeypatch.context() as patch:
        # a key that separates conjugate tuples fails the orbit count
        patch.setattr(covering, "_canonical", lambda G, vec: tuple(g.images for g in vec))
        with pytest.raises(InternalInconsistency):
            search_generating_vectors(G, 1, (3,))
    kept = (covering._search.__wrapped__, 1, (3,))
    assert kept not in G._memo
    assert search_generating_vectors(G, 1, (3,)) == search_generating_vectors(fresh("S3"), 1, (3,))
    assert kept in G._memo


def test_analyze_searches_a_shared_directive_once(scans, monkeypatch, capsys):
    # both curves of a4.surface carry the directive "genus0 = 1, search = 2"
    monkeypatch.setattr(catalog_group("A4"), "_memo", {})
    assert main(["analyze", str(REPO / "surfaces" / "a4.surface")]) == 0
    capsys.readouterr()
    analyze_scans = scans[0]
    scans[0] = 0
    search_generating_vectors(fresh("A4"), 1, (2,))
    assert analyze_scans == scans[0] > 0


# -- pair stages kept on the first vector -----------------------------------------

PAIR_STAGES = (surface.quotient_singularities, jacobian.k3_pairing)
# the helper calls of one ``invariants`` call beyond its stored stages: it
# sums p_g (``geometric_genus``, which keeps nothing) and D
INVARIANTS_ONCE = collections.Counter(_dual_pairing=2)


@pytest.fixture
def bodies(monkeypatch):
    """Counts calls of helpers that only one pair stage's body makes:
    ``_rank_z2`` (``k3_pairing``),
    ``_basket``, once per pair of monodromies (``quotient_singularities``)
    and ``_dual_pairing``, which no stored stage calls: ``geometric_genus``
    and ``invariants`` sum p_g and D with it on every call."""
    count = collections.Counter()
    for module, name in (
        (jacobian, "_rank_z2"),
        (surface, "_basket"),
        (surface, "_dual_pairing"),
    ):
        def counting(*args, _fn=getattr(module, name), _name=name):
            count[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counting)
    return count


def one_pass(bodies, gv1, gv2):
    """Helper calls of one run of every pair stage, on fresh copies."""
    bodies.clear()
    for stage in PAIR_STAGES:
        stage(rebuilt(gv1), rebuilt(gv2))
    counts = collections.Counter(bodies)
    bodies.clear()
    return counts


def test_analyze_pair_runs_each_pair_stage_once(bodies):
    # a pair with two singular points over its one pair of monodromies, on
    # vectors no other test has used
    gv1, gv2 = search_generating_vectors(fresh("A4"), 1, (2,))[:2]
    expected = one_pass(bodies, gv1, gv2)
    assert expected["_rank_z2"] == 1 and expected["_basket"] == 1
    assert expected["_dual_pairing"] == 0
    doc = analyze_pair(gv1, gv2)
    assert bodies == expected + INVARIANTS_ONCE and bodies["_dual_pairing"] == 2
    # h^2 = U + Z1 + Z2 + exceptional, each rank read from its one home
    surf, motive = doc["surface"], doc["motive"]
    assert motive["rank_U"] + motive["rank_Z1"] + doc["pairing"]["rank_z2"] + surf["eta"] == surf["b2"]
    assert doc["pairing"]["rank_z2"] == jacobian.k3_pairing(gv1, gv2).rank_z2
    assert surf["eta"] == 2


def test_cli_analyze_runs_each_pair_stage_once(bodies, capsys):
    # v4.surface lists its vectors, so the CLI builds them anew; select_pair
    # sums p_g once before invariants does
    gv1, gv2 = v4_example_pair()
    expected = one_pass(bodies, gv1, gv2)
    assert main(["analyze", str(REPO / "surfaces" / "v4.surface")]) == 0
    capsys.readouterr()
    assert bodies == expected + INVARIANTS_ONCE + collections.Counter(_dual_pairing=1)
    assert bodies["_rank_z2"] == 1 and bodies["_dual_pairing"] == 3


def test_pair_values_are_kept_per_ordered_pair(bodies):
    gv1, gv2, gv3 = search_generating_vectors(fresh("A4"), 1, (2,))[:3]
    for a, b in ((gv1, gv2), (gv2, gv1), (gv1, gv3)):
        for stage in PAIR_STAGES:
            bodies.clear()
            value = stage(a, b)
            assert bodies, "each ordered pair is computed"
            assert (stage.__wrapped__, b) in a._memo
            bodies.clear()
            assert stage(a, b) is value and not bodies
            assert value == stage(rebuilt(a), rebuilt(b))


def test_pair_over_different_groups_keeps_nothing():
    gv1, _ = v4_example_pair()
    other = search_generating_vectors(catalog_group("S3"), 1, (3,))[0]
    for stage in PAIR_STAGES:
        with pytest.raises(GroupMismatch):
            stage(gv1, other)
    assert not any(isinstance(key, tuple) for key in gv1._memo)


def test_select_pair_keeps_nothing_per_pair_it_tries():
    # no pair of A4 (1; 2,2) vectors has p_g = 2, so select_pair sums p_g on
    # every pair before it falls back to the first; p_g is not stored, so the
    # vectors' memos hold only their own stages, whatever the pairs tried
    vectors = search_generating_vectors(fresh("A4"), 1, (2, 2))
    assert select_pair(vectors, vectors) == (vectors[0], vectors[0])
    assert len(vectors) > 1
    assert not any(isinstance(key, tuple) for gv in vectors for key in gv._memo)
