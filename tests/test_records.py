"""Behaviour of the five frozen record classes.

Equality, hashing, repr, frozenness, construction and pickling are pinned
here by their observable results, so the way the classes are built can
change without any of it changing.  A ThetaSet is a record that compares
as the set of its members, whatever its n and provenance.
"""

import copy
import pickle

import pytest

from cyclic_chroma import (
    ComponentSpan,
    CycleColoring,
    ProofDecomposition,
    SearchConfig,
    ThetaSet,
    VerificationReport,
    Violation,
    construct,
    decompose,
    theta_cyclic,
    verify,
)

DECOMPOSITION_ARGS = (6, 3, 4, 0, (0, 1, 1, 0), (1, 4, 1, 4))
FIELDS = {
    CycleColoring: ("n", "t", "colors"),
    ThetaSet: ("n", "members", "provenance"),
    VerificationReport: ("violations", "missing_colors"),
    SearchConfig: ("mode", "limit"),
    ProofDecomposition: ("n", "t", "u_size", "rotation", "y", "psi"),
}


def verified(c):
    """c after verify has read it and left its private memo of c's walk."""
    verify(c, "interval")
    assert c._walk is not None
    return c


# per label, a builder whose every call makes a new value equal to the last;
# a label is the class name of its values, or a variant of one whose values
# must equal those built under the class name
BUILDS = {
    "CycleColoring": lambda: CycleColoring(4, 2, [1, 2, 1, 2]),
    "verified-CycleColoring": lambda: verified(CycleColoring(4, 2, [1, 2, 1, 2])),
    "ThetaSet": lambda: ThetaSet(6, [2, 3, 4, 6], "formula"),
    "VerificationReport": lambda: verify(
        CycleColoring(4, 2, (1, 1, 2, 2)), "interval"
    ),
    "SearchConfig": lambda: SearchConfig("interval", 3),
    "ProofDecomposition": lambda: decompose(construct(8, 3)),
}
LABELS = list(BUILDS)


@pytest.mark.parametrize("label", LABELS)
def test_equal_builds_are_equal_and_hash_alike(label):
    a, b = BUILDS[label](), BUILDS[label]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # verify's memo is no field: a verified coloring equals an unverified one
    c = BUILDS[type(a).__name__]()
    assert a == c and c == a and hash(a) == hash(c) and repr(a) == repr(c)


@pytest.mark.parametrize("label", LABELS)
def test_equal_only_to_the_same_class(label):
    a = BUILDS[label]()
    assert a != object()
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(getattr(a, f) for f in FIELDS[type(a)])


def test_a_subclass_is_another_class():
    class Sub(CycleColoring):
        pass

    a, b = CycleColoring(3, 3, (1, 2, 3)), Sub(3, 3, (1, 2, 3))
    assert a != b and b != a
    assert repr(b) == f"{Sub.__qualname__}(n=3, t=3, colors=(1, 2, 3))"


def test_different_fields_are_unequal():
    assert CycleColoring(4, 2, (1, 2, 1, 2)) != CycleColoring(4, 2, (2, 1, 2, 1))
    assert ThetaSet(6, (2, 3), "formula") != ThetaSet(6, (2, 4), "formula")
    assert SearchConfig() != SearchConfig(limit=1)
    assert verify(construct(6, 3)) != verify(CycleColoring(4, 2, (1, 1, 2, 2)))
    assert decompose(construct(8, 3)) != decompose(construct(8, 4))


def test_closed_form_set_equals_one_built_by_hand():
    assert theta_cyclic(6) == ThetaSet(6, (2, 3, 4, 6), "formula")
    assert hash(theta_cyclic(6)) == hash(ThetaSet(6, (2, 3, 4, 6), "formula"))


def test_a_theta_set_compares_by_its_members_alone():
    # n and provenance say where a set comes from; == and hash read neither
    by_search = ThetaSet(6, (2, 3), "search")
    for other in (ThetaSet(6, (2, 3), "formula"), ThetaSet(7, (2, 3), "formula")):
        assert by_search == other and not by_search != other
        assert hash(by_search) == hash(other)
    assert by_search == {2, 3} == frozenset({2, 3}) == {2: 0, 3: 0}.keys()
    assert hash(by_search) == hash(frozenset({2, 3}))
    assert len({by_search, frozenset({2, 3})}) == 1


def test_repr():
    assert repr(CycleColoring(4, 2, [1, 2, 1, 2])) == (
        "CycleColoring(n=4, t=2, colors=(1, 2, 1, 2))"
    )
    # a ThetaSet shows its parts, not its members: one text at every size
    assert repr(theta_cyclic(6)) == (
        "ThetaSet(n=6, parts=(range(2, 5), range(6, 7)), provenance='formula')"
    )
    assert repr(ThetaSet(9, (3, 5, 7, 9), "search")) == (
        "ThetaSet(n=9, parts=(range(3, 10, 2),), provenance='search')"
    )
    assert repr(verify(CycleColoring(4, 2, (1, 1, 2, 2)), "interval")) == (
        "VerificationReport("
        "violations=(Violation(vertex=2, palette=(1, 1), reason='not-proper'), "
        "Violation(vertex=4, palette=(2, 2), reason='not-proper')), "
        "missing_colors=frozenset())"
    )
    assert repr(SearchConfig()) == "SearchConfig(mode='cyclic', limit=None)"
    assert repr(decompose(construct(7, 7))) == (
        "ProofDecomposition(n=7, t=7, u_size=5, rotation=0, y=(), psi=())"
    )


def test_field_order():
    # repr lists the fields in order, a ThetaSet its parts for its members;
    # positional construction follows it
    for cls, names in FIELDS.items():
        value = BUILDS[cls.__name__]()
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
        if cls is ThetaSet:
            shown = shown.replace(f"members={value.members}", f"parts={value._parts}")
        assert repr(value) == f"{cls.__name__}({shown})"
        assert cls(*(getattr(value, name) for name in names)) == value


def _assert_refused(value, name, what):
    """Setting and deleting value's name both raise, naming it a `what`."""
    with pytest.raises(AttributeError) as info:
        setattr(value, name, None)
    assert str(info.value) == f"cannot assign to {what} '{name}'"
    with pytest.raises(AttributeError) as info:
        delattr(value, name)
    assert str(info.value) == f"cannot delete {what} '{name}'"


@pytest.mark.parametrize("label", LABELS)
def test_fields_cannot_be_set_or_deleted(label):
    value = BUILDS[label]()
    before = repr(value)
    fields = FIELDS[type(value)]
    for name in fields:
        _assert_refused(value, name, "field")
    # a memo slot (a coloring's _walk) or an unknown name is no field
    for name in sorted(set(type(value).__slots__) - set(fields)) + ["extra"]:
        _assert_refused(value, name, "attribute")
    assert repr(value) == before


def test_positional_and_keyword_construction():
    assert CycleColoring(3, 3, (1, 2, 3)) == CycleColoring(t=3, colors=[1, 2, 3], n=3)
    assert ThetaSet(6, (2, 3), "search") == ThetaSet(
        provenance="search", n=6, members=[2, 3]
    )
    violations = (Violation(2, (1, 1), "not-proper"),)
    report = VerificationReport(violations, frozenset())
    assert report == VerificationReport(missing_colors=frozenset(), violations=violations)
    # the verdicts, read off the two fields
    assert (report.proper, report.surjective, report.mode_satisfied) == (
        False, True, False
    )
    assert SearchConfig("interval", 2) == SearchConfig(limit=2, mode="interval")
    keywords = dict(zip(FIELDS[ProofDecomposition], DECOMPOSITION_ARGS))
    by_keyword = ProofDecomposition(**keywords)
    assert ProofDecomposition(*DECOMPOSITION_ARGS) == by_keyword
    assert by_keyword.psi_sum == 10
    # the derived properties, read off psi and y
    assert (by_keyword.m, by_keyword.connected) == (2, False)
    assert by_keyword.components == (
        ComponentSpan(1, 1, 1, 1, 4), ComponentSpan(2, 4, 4, 1, 4)
    )
    assert by_keyword.horizontal == (False, True, False, True)
    assert by_keyword.m1 == frozenset({2})
    assert by_keyword.m2 == frozenset({1})


def test_construction_normalises_sequences_to_tuples():
    assert CycleColoring(3, 3, [1, 2, 3]).colors == (1, 2, 3)
    assert ThetaSet(6, [2, 3], "search").members == (2, 3)
    violation = Violation(2, (1, 1), "not-proper")
    report = VerificationReport([violation], set())
    assert (report.violations, report.missing_colors) == ((violation,), frozenset())
    assert report == VerificationReport((violation,), frozenset())
    assert hash(report) == hash(VerificationReport((violation,), frozenset()))
    listed = ProofDecomposition(6, 3, 4, 0, [0, 1, 1, 0], [1, 4, 1, 4])
    assert (listed.y, listed.psi) == ((0, 1, 1, 0), (1, 4, 1, 4))
    assert listed == ProofDecomposition(*DECOMPOSITION_ARGS)
    assert hash(listed) == hash(ProofDecomposition(*DECOMPOSITION_ARGS))


def test_search_config_defaults():
    cfg = SearchConfig()
    assert (cfg.mode, cfg.limit) == ("cyclic", None)
    assert SearchConfig.__slots__ == ("mode", "limit")
    assert SearchConfig("interval") == SearchConfig(mode="interval", limit=None)


def test_wrong_arguments_are_refused_by_signature():
    with pytest.raises(TypeError):
        CycleColoring(3, 3)
    with pytest.raises(TypeError):
        SearchConfig("cyclic", None, False)
    with pytest.raises(TypeError):
        ThetaSet(6, (2,), "search", colour=1)
    # the verdicts and m and connected are no fields: a report that would
    # call itself valid beside a not-proper violation cannot be built
    with pytest.raises(TypeError):
        VerificationReport(
            True, True, True, (Violation(1, (1, 1), "not-proper"),), frozenset()
        )
    with pytest.raises(TypeError):
        ProofDecomposition(*DECOMPOSITION_ARGS[:2], 2, False, *DECOMPOSITION_ARGS[2:])


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(label, protocol):
    value = BUILDS[label]()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    assert repr(back) == repr(value)
    # a copy is rebuilt from the fields, so verify's memo stays behind
    assert getattr(back, "_walk", None) is None


@pytest.mark.parametrize("label", LABELS)
def test_copy_round_trip(label):
    value = BUILDS[label]()
    for back in (copy.copy(value), copy.deepcopy(value)):
        assert type(back) is type(value)
        assert back == value and repr(back) == repr(value)
        assert getattr(back, "_walk", None) is None
    with pytest.raises(AttributeError):
        copy.deepcopy(value).extra = 1


DERIVED = ("m", "connected", "components", "horizontal", "m1", "m2", "psi_sum")


@pytest.mark.parametrize("n, t", [(7, 7), (8, 3), (11, 5)])
def test_decomposition_derived_properties_round_trip(n, t):
    value = decompose(construct(n, t))
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    backs = [pickle.loads(pickle.dumps(value, p)) for p in protocols]
    for back in backs + [copy.copy(value), copy.deepcopy(value)]:
        for name in DERIVED:
            assert getattr(back, name) == getattr(value, name), name
        assert back.to_json_dict() == value.to_json_dict()


def test_decomposition_derived_properties_cannot_be_set():
    value = decompose(construct(8, 3))
    for name in DERIVED:
        _assert_refused(value, name, "attribute")
    assert value.m2 == frozenset({1, 2})
    # nor can the report's verdicts, derived from its two fields
    report = verify(CycleColoring(4, 2, (1, 1, 2, 2)), "interval")
    for name in ("proper", "surjective", "mode_satisfied"):
        _assert_refused(report, name, "attribute")
    _assert_refused(report, "violations", "field")
    assert (report.proper, report.surjective, report.mode_satisfied) == (
        False, True, False
    )


def test_unchecked_builds_round_trip():
    # built by _trusted and _of_ranges, which skip the public constructor
    for value in (construct(9, 5), theta_cyclic(10)):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
    # a copy keeps n, the parts and provenance, so its pickle is small
    value = theta_cyclic(10**6)
    assert len(pickle.dumps(value)) < 200
    for back in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
        assert back == value
        assert (back.n, back._parts, back.provenance) == (
            value.n, value._parts, value.provenance
        )
        assert not hasattr(back, "_members")
