"""Behaviour of the five frozen record classes.

Equality, hashing, repr, frozenness, construction and pickling are pinned
here by their observable results, so the way the classes are built can
change without any of it changing.
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

SPANS = (ComponentSpan(1, 1, 1, 1, 4), ComponentSpan(2, 4, 4, 1, 4))
DECOMPOSITION_ARGS = (
    6, 3, 2, False, 2, 0, SPANS, (0, 1, 1, 0), (1, 4, 1, 4),
    (False, True, False, True), frozenset({1, 2}), frozenset({1}),
)
FIELDS = {
    CycleColoring: ("n", "t", "colors"),
    ThetaSet: ("n", "members", "provenance"),
    VerificationReport: (
        "proper", "surjective", "mode_satisfied", "violations", "missing_colors",
    ),
    SearchConfig: ("mode", "limit", "fix_first_color"),
    ProofDecomposition: (
        "n", "t", "m", "connected", "u_size", "rotation", "components", "y",
        "psi", "horizontal", "m1", "m2",
    ),
}


# per class, a builder whose every call makes a new value equal to the last
BUILDS = {
    CycleColoring: lambda: CycleColoring(4, 2, [1, 2, 1, 2]),
    ThetaSet: lambda: ThetaSet(6, [2, 3, 4, 6], "formula"),
    VerificationReport: lambda: verify(CycleColoring(4, 2, (1, 1, 2, 2)), "interval"),
    SearchConfig: lambda: SearchConfig("interval", 3),
    ProofDecomposition: lambda: decompose(construct(8, 3)),
}
CLASSES = list(BUILDS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_builds_are_equal_and_hash_alike(cls):
    a, b = BUILDS[cls](), BUILDS[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_only_to_the_same_class(cls):
    a = BUILDS[cls]()
    assert a != object()
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(getattr(a, f) for f in FIELDS[cls])


def test_a_subclass_is_another_class():
    class Sub(CycleColoring):
        pass

    a, b = CycleColoring(3, 3, (1, 2, 3)), Sub(3, 3, (1, 2, 3))
    assert a != b and b != a
    assert repr(b) == f"{Sub.__qualname__}(n=3, t=3, colors=(1, 2, 3))"


def test_different_fields_are_unequal():
    assert CycleColoring(4, 2, (1, 2, 1, 2)) != CycleColoring(4, 2, (2, 1, 2, 1))
    assert ThetaSet(6, (2, 3), "formula") != ThetaSet(6, (2, 3), "search")
    assert ThetaSet(6, (2, 3), "formula") != ThetaSet(7, (2, 3), "formula")
    assert SearchConfig() != SearchConfig(limit=1)
    assert verify(construct(6, 3)) != verify(CycleColoring(4, 2, (1, 1, 2, 2)))
    assert decompose(construct(8, 3)) != decompose(construct(8, 4))


def test_closed_form_set_equals_one_built_by_hand():
    assert theta_cyclic(6) == ThetaSet(6, (2, 3, 4, 6), "formula")
    assert hash(theta_cyclic(6)) == hash(ThetaSet(6, (2, 3, 4, 6), "formula"))


def test_repr():
    assert repr(CycleColoring(4, 2, [1, 2, 1, 2])) == (
        "CycleColoring(n=4, t=2, colors=(1, 2, 1, 2))"
    )
    assert repr(theta_cyclic(6)) == (
        "ThetaSet(n=6, members=(2, 3, 4, 6), provenance='formula')"
    )
    assert repr(verify(CycleColoring(4, 2, (1, 1, 2, 2)), "interval")) == (
        "VerificationReport(proper=False, surjective=True, mode_satisfied=False, "
        "violations=(Violation(vertex=2, palette=(1, 1), reason='not-proper'), "
        "Violation(vertex=4, palette=(2, 2), reason='not-proper')), "
        "missing_colors=frozenset())"
    )
    assert repr(SearchConfig()) == (
        "SearchConfig(mode='cyclic', limit=None, fix_first_color=False)"
    )
    assert repr(decompose(construct(7, 7))) == (
        "ProofDecomposition(n=7, t=7, m=1, connected=True, u_size=5, rotation=0, "
        "components=(), y=(), psi=(), horizontal=(), m1=frozenset(), m2=frozenset())"
    )


def test_field_order():
    # repr lists the fields in order; positional construction follows it
    for cls, names in FIELDS.items():
        value = BUILDS[cls]()
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
        assert repr(value) == f"{cls.__name__}({shown})"
        assert cls(*(getattr(value, name) for name in names)) == value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    value = BUILDS[cls]()
    before = repr(value)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


def test_positional_and_keyword_construction():
    assert CycleColoring(3, 3, (1, 2, 3)) == CycleColoring(t=3, colors=[1, 2, 3], n=3)
    assert ThetaSet(6, (2, 3), "search") == ThetaSet(
        provenance="search", n=6, members=[2, 3]
    )
    violations = (Violation(2, (1, 1), "not-proper"),)
    assert VerificationReport(False, True, False, violations, frozenset()) == (
        VerificationReport(
            missing_colors=frozenset(),
            violations=violations,
            mode_satisfied=False,
            surjective=True,
            proper=False,
        )
    )
    assert SearchConfig("cyclic", 2, True) == SearchConfig(
        fix_first_color=True, limit=2, mode="cyclic"
    )
    keywords = dict(zip(FIELDS[ProofDecomposition], DECOMPOSITION_ARGS))
    by_keyword = ProofDecomposition(**keywords)
    assert ProofDecomposition(*DECOMPOSITION_ARGS) == by_keyword
    assert by_keyword.psi_sum == 10


def test_construction_normalises_sequences_to_tuples():
    assert CycleColoring(3, 3, [1, 2, 3]).colors == (1, 2, 3)
    assert ThetaSet(6, [2, 3], "search").members == (2, 3)


def test_search_config_defaults():
    cfg = SearchConfig()
    assert (cfg.mode, cfg.limit, cfg.fix_first_color) == ("cyclic", None, False)
    assert SearchConfig("interval") == SearchConfig(mode="interval", limit=None)


def test_wrong_arguments_are_refused_by_signature():
    with pytest.raises(TypeError):
        CycleColoring(3, 3)
    with pytest.raises(TypeError):
        SearchConfig("cyclic", None, False, None)
    with pytest.raises(TypeError):
        ThetaSet(6, (2,), "search", colour=1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, protocol):
    value = BUILDS[cls]()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is cls
    assert back == value and hash(back) == hash(value)
    assert repr(back) == repr(value)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copy_round_trip(cls):
    value = BUILDS[cls]()
    for back in (copy.copy(value), copy.deepcopy(value)):
        assert type(back) is cls
        assert back == value and repr(back) == repr(value)
    with pytest.raises(AttributeError):
        copy.deepcopy(value).extra = 1


def test_unchecked_builds_round_trip():
    # built by _trusted and _of_ranges, which skip the public constructor
    for value in (construct(9, 5), theta_cyclic(10)):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
