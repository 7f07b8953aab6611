"""Input formats: braid words, crossing lists, PD codes, closure, catalog."""
import random

import pytest

from alexkit.codes import (BraidWord, Crossing, CrossingList, braid_closure,
                           catalog_lookup, catalog_names, label_classes,
                           parse_braid, parse_crossing_list, parse_pd)
from alexkit.alexander import knot_delta
from alexkit.errors import (AmbiguousOrientation, NotFound, ParseError,
                            ValidationError)
from alexkit.laurent import normalize_unit
from util import random_braid


def test_parse_braid_tokens():
    b = parse_braid("3: s1 S2 -1 2  # trailing comment")
    assert b == BraidWord(3, [1, -2, -1, 2])
    assert parse_braid("1:") == BraidWord(1)
    assert parse_braid(b.render()) == b
    assert parse_braid("4: +3 s01 S02 -03") == BraidWord(4, [3, 1, -2, -3])


@pytest.mark.parametrize("text", ["s1 s2", "0: s1", "2: s2", "2: s0",
                                  "2: q1", "x: s1", "2: S0", "2: -0",
                                  "3: s+1", "3: s1 S-1", "3: +-1", "3: s 1"])
def test_parse_braid_rejects(text):
    with pytest.raises(ParseError):
        parse_braid(text)


def test_braid_word_validation():
    with pytest.raises(ValidationError):
        BraidWord(2, [2])
    with pytest.raises(ValidationError):
        BraidWord(0)
    with pytest.raises(ValidationError):
        BraidWord(2, ["a"])
    with pytest.raises(TypeError):
        BraidWord(2, [None])
    # equality is within one exact class, whatever the keys
    assert BraidWord(1)._key() == CrossingList(1)._key()
    assert BraidWord(1) != CrossingList(1)
    assert _SubBraid(2, [1]) != BraidWord(2, [1])
    assert len({BraidWord(2, [1]), BraidWord(2.0, [1.0])}) == 1


class _SubBraid(BraidWord):
    __slots__ = ()


def test_permutation_and_components():
    b = BraidWord(3, [1, 2])
    assert b.permutation() == [1, 2, 0]
    assert b.component_count() == 1
    assert BraidWord(3, [1, 1]).component_count() == 3
    assert BraidWord(2, [1, 1]).component_count() == 2
    assert BraidWord(2, []).component_count() == 2


def test_label_classes_numbers_by_least_member():
    assert label_classes(6, [(5, 2), (6, 4), (4, 3)]) == {
        1: 1, 2: 2, 3: 3, 4: 3, 5: 2, 6: 3}
    assert label_classes(0, []) == {}


def test_crossing_list_validation():
    with pytest.raises(ValidationError):
        CrossingList(2, [Crossing(1, 2, 3, 1)])  # arc out of range
    with pytest.raises(ValidationError):
        CrossingList(2, [Crossing(1, 2, 2, 1), Crossing(1, 1, 2, 1)])
    with pytest.raises(ValidationError):
        # arc 1 is consumed but never emitted
        CrossingList(2, [Crossing(1, 2, 2, 1)])


def test_crossing_list_components():
    d = parse_crossing_list("arcs 2\nx 2 1 2 +\nx 1 2 1 +")
    assert d.component_count == 2
    assert d.components == {1: 1, 2: 2}
    trefoil = catalog_lookup("trefoil").crossing_list
    assert trefoil.component_count == 1
    assert parse_crossing_list(trefoil.render()) == trefoil


def test_parse_crossing_list_errors():
    # positions are line numbers of the text, comments and blank lines
    # included
    for text, position in (("", 0), ("# only\n\n", 0), ("arcs x", 1),
                           ("arcs 3\nx 1 2 +", 2),
                           ("# header\narcs 3\n\nx 1 2 q +", 4),
                           ("\n  # c\n\n  arcs -1", 4),
                           ("arcs 2  # two\r\n\r\nx 1 2 1 +\r\n# c\nx 2",
                            5)):
        with pytest.raises(ParseError) as err:
            parse_crossing_list(text)
        assert err.value.position == position, text


def test_braid_closure_counts():
    rng = random.Random(17)
    for _ in range(25):
        b = random_braid(rng)
        d = braid_closure(b)
        assert len(d.crossings) == len(b.letters)
        assert d.component_count == b.component_count()


def test_braid_closure_unknot_and_unlink():
    assert braid_closure(BraidWord(1)).arc_count == 1
    unlink = braid_closure(BraidWord(2))
    assert unlink.arc_count == 2 and not unlink.crossings


def test_parse_pd_trefoil():
    d = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    assert d.arc_count == 3 and d.component_count == 1
    expected = catalog_lookup("trefoil").delta
    assert knot_delta(d) == normalize_unit(expected)


def test_parse_pd_figure8():
    d = parse_pd("X[4,2,5,1], X[8,6,1,5], X[6,3,7,4], X[2,7,3,8]")
    assert d.arc_count == 4
    expected = catalog_lookup("figure8").delta
    assert knot_delta(d) == normalize_unit(expected)


def test_parse_pd_errors():
    with pytest.raises(ParseError):
        parse_pd("X[1,2,3")
    with pytest.raises(ValidationError):
        parse_pd("X[1,2,3,9]")
    with pytest.raises(AmbiguousOrientation):
        # b and d neither consecutive: orientation cannot be inferred
        parse_pd("X[2,1,4,3] X[1,2,3,4]")
    # positions count characters of the text, comments included
    for text, position in (("X[1,2,3", 0), ("  \t X[1,2,3", 4),
                           (" ,, X[1,2,3,4] ,Y", 16),
                           ("X[1, 2,3,4],\n , x[1,2,3,4]", 16),
                           ("# X[1,2]\n  X[", 11),
                           ("X[1,4,2,5]  # ok\n X[3,6,4,1]]", 28),
                           ("# a comment\nX[1,2,3", 12),
                           ("X[%s,1,2,3]" % ("9" * 5000), 2)):
        with pytest.raises(ParseError) as err:
            parse_pd(text)
        assert err.value.position == position, text[:40]


def test_catalog():
    names = catalog_names()
    assert "trefoil" in names and "figure8" in names
    entry = catalog_lookup("trefoil")
    assert entry.braid == parse_braid("2: s1 s1 s1")
    with pytest.raises(NotFound):
        catalog_lookup("nope")
