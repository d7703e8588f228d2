import copy
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqsurf.errors import NonPermutation, _clipped, _quoted
from pqsurf.perms import Permutation, parse_permutation


def test_identity_roundtrip():
    e = Permutation.identity(4)
    assert e.is_identity()
    assert e.order() == 1
    assert e.cycle_string() == "()"


def test_composition_is_functional():
    a = parse_permutation("(1,2)", 3)
    b = parse_permutation("(2,3)", 3)
    # (a*b)(x) = a(b(x)):  3 -> 2 -> 1
    assert (a * b)(3) == 1
    assert (b * a)(3) != (a * b)(3) or a * b == b * a
    # a plain tuple equals a permutation but is not one, so it is no operand
    with pytest.raises(TypeError, match="cannot compose"):
        a * (2, 1, 3)
    with pytest.raises(NonPermutation, match="degree mismatch"):
        a * parse_permutation("(1,2)", 2)


def test_inverse_and_power():
    g = parse_permutation("(1,2,3,4)", 4)
    assert g * g.inverse() == Permutation.identity(4)
    assert g.order() == 4


def test_parse_cycle_notation():
    g = parse_permutation("(1,2)(3,4)", 4)
    assert g.images == (2, 1, 4, 3)
    assert parse_permutation("[2,1,4,3]", 4) == g
    assert parse_permutation("()", 5) == Permutation.identity(5)
    # points may be separated by blanks, and an empty cycle is no cycle
    assert parse_permutation("(1 2)(3 ,4)", 4) == g
    assert parse_permutation("[ 2, 1 ]", 2) == parse_permutation("(1,2)()", 2)
    # the identity's spellings
    for text in ("()", "id", "e", "", " ", "()()", "( )"):
        assert parse_permutation(text, 3) == Permutation.identity(3)


@pytest.mark.parametrize("text, degree", [("()", 1), ("(1,2)", 3), ("(1,3,2)", 3), ("(1,4)(2,3)", 5)])
def test_a_permutation_is_its_image_tuple(text, degree):
    p = parse_permutation(text, degree)
    images = p.images
    assert type(images) is tuple and isinstance(p, tuple)
    assert p == images and images == p and hash(p) == hash(images)
    assert {p: 1}[images] == 1 and images in {p}
    assert (p < images, p <= images, p > images) == (False, True, False)
    for other in (Permutation.identity(degree), parse_permutation("(1,2)", degree + 1)):
        assert (p < other) == (images < other.images)
        assert (p <= other) == (images <= other.images)
    pickled = [pickle.loads(pickle.dumps(p, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in pickled + [copy.deepcopy(p), copy.copy(p)]:
        assert type(copied) is Permutation and copied == p
        assert copied.order() == p.order()


def test_parse_rejects_garbage():
    with pytest.raises(NonPermutation):
        parse_permutation("(1,2)(2,3)", 4)  # not disjoint
    with pytest.raises(NonPermutation):
        parse_permutation("(1,9)", 4)  # out of range
    with pytest.raises(NonPermutation):
        Permutation((1, 1, 3))
    with pytest.raises(NonPermutation, match=r"not a permutation of 1\.\.3: \(1, 1, 3\)"):
        Permutation([1, 1, 3])
    with pytest.raises(NonPermutation, match=r"point 'a' is not an integer in '\(1,a\)'"):
        parse_permutation("(1,a)", 4)
    with pytest.raises(NonPermutation, match="point 'x' is not an integer"):
        parse_permutation("[2,1,x]", 3)
    # an empty entry is refused, not dropped
    for text, degree in [("[2,1,,4,3]", 4), ("[2,1,4,3,]", 4), ("(1,,2)", 3), ("(,1,2)", 3)]:
        with pytest.raises(NonPermutation, match=rf"^empty entry in {re.escape(repr(text))}$"):
            parse_permutation(text, degree)
    # one pair of brackets around an image array, no more and no less
    for text in ("[2,1", "[2,1]]", "[[2,1]]", "2,1]", "[2,1](1,2)", "(1,2)[2,1]"):
        with pytest.raises(NonPermutation, match=rf"^cannot parse permutation: {re.escape(repr(text))}$"):
            parse_permutation(text, 2)


def test_cycles_start_at_smallest_point():
    g = parse_permutation("(2,4,3)", 4)
    assert g.cycles() == ((2, 4, 3),)
    assert g.cycle_string() == "(2,4,3)"


permutations = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(Permutation)
)


def image_array(p: Permutation) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


@given(permutations)
def test_both_notations_parse_back(p):
    assert parse_permutation(p.cycle_string(), p.degree) == p
    assert parse_permutation(image_array(p), p.degree) == p


@given(permutations, st.sampled_from(["", "[", "[["]), st.sampled_from(["", "]", "]]"]))
def test_unbalanced_or_nested_brackets_are_refused(p, before, after):
    text = before + image_array(p)[1:-1] + after
    if text != image_array(p):
        with pytest.raises(NonPermutation):
            parse_permutation(text, p.degree)


def test_a_message_quotes_short_text_whole_and_cuts_long_text():
    assert _quoted("x" * 58) == repr("x" * 58)
    assert _quoted("x" * 59) == "'" + "x" * 44 + "... (61 characters)"
    assert _quoted((1,) * 30) == "(" + "1, " * 14 + "1,... (90 characters)"
    # a name is clipped the same way, without the quotes
    assert _clipped("x" * 60) == "x" * 60
    assert _clipped("x" * 61) == "x" * 45 + "... (61 characters)"
    assert _clipped("x" * 200, 160) == "x" * 145 + "... (200 characters)"
