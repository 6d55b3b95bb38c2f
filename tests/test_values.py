"""The package's value types: equality, hashing, immutability, repr and fresh state."""

import copy
import pickle

import pytest

from windroot import (
    ConvexRegion,
    EvalCounter,
    Normal,
    Polynomial,
    RdpStats,
    RootBox,
    SingularError,
)
from windroot.oracle import RootList


def square(x0: float) -> ConvexRegion:
    return ConvexRegion.from_json({"rect": [x0, 0, x0 + 1, 1]})


# Per immutable type: its fields, then a value, an equal value built
# apart (from other argument types where the constructor converts), and
# a value that differs in one field.
VALUES = {
    "Polynomial": (
        ("coeffs",),
        lambda: (Polynomial((1, 0, 1)), Polynomial([1 + 0j, 0.0, 1, 0]), Polynomial((1, 1))),
    ),
    "ConvexRegion": (
        ("vertices",),
        lambda: (square(0), ConvexRegion([0, 1, 1 + 1j, 1j]), square(1)),
    ),
    "RootBox": (
        ("region", "count"),
        lambda: (RootBox(square(0), 2), RootBox(square(0), 2), RootBox(square(0), 1)),
    ),
    "Normal": (
        ("index", "insertions"),
        lambda: (Normal(3, 10), Normal(index=3, insertions=10), Normal(3, 11)),
    ),
    "SingularError": (
        ("t", "guarantee", "insertions"),
        lambda: (
            SingularError(0.5, 2.0, 4),
            SingularError(t=0.5, guarantee=2.0, insertions=4),
            SingularError(0.5, 2.5, 4),
        ),
    ),
    "RootList": (
        ("roots", "radii"),
        lambda: (RootList((1j, -1j)), RootList((1j, -1j), ()), RootList((1j, -1j), (0.1, 0.1))),
    ),
}


@pytest.fixture(params=sorted(VALUES))
def values(request):
    fields, build = VALUES[request.param]
    a, b, c = build()
    assert type(a).__name__ == request.param
    return fields, a, b, c


class TestImmutableValues:
    def test_equal_values_compare_and_hash_alike(self, values):
        _, a, b, c = values
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != c and not a == c
        assert len({a, b, c}) == 2

    def test_equality_and_hash_are_over_the_fields(self, values):
        fields, a, _, _ = values
        assert hash(a) == hash(tuple(getattr(a, name) for name in fields))
        assert a != tuple(getattr(a, name) for name in fields)
        assert a != object()

    def test_assignment_is_refused(self, values):
        fields, a, b, c = values
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(c, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b and a != c

    def test_repr_names_the_class_and_each_field(self, values):
        fields, a, _, _ = values
        text = repr(a)
        assert text.startswith(type(a).__name__ + "(") and text.endswith(")")
        for name in fields:
            assert f"{name}={getattr(a, name)!r}" in text

    def test_copies_and_pickles_are_equal(self, values):
        _, a, _, _ = values
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(twin) is type(a)
            assert twin == a and hash(twin) == hash(a)


class TestMutableRecords:
    def test_each_eval_counter_gets_its_own_containers(self):
        a, b = EvalCounter(), EvalCounter()
        for name in ("cache", "samples", "previous_samples"):
            assert getattr(a, name) == {}
            assert getattr(a, name) is not getattr(b, name)
        assert a.derivative is None
        a.cache[1j] = 2j
        assert b.cache == {}

    def test_eval_counter_keywords(self):
        window = {1j: [1j, 2, 1.0, None]}
        ctr = EvalCounter(samples=window)
        assert ctr.samples is window
        assert ctr.cache == {} and ctr.previous_samples == {}
        ctr = EvalCounter({}, {}, window)
        assert ctr.previous_samples is window
        with pytest.raises(TypeError):
            EvalCounter(derivative=Polynomial((1,)))

    def test_each_rdp_stats_gets_its_own_lists(self):
        a, b = RdpStats(), RdpStats()
        assert (a.pe, a.budget, a.max_level) == (0, 0.0, 0)
        for name in ("visited", "ipsr_calls", "offsets"):
            assert getattr(a, name) == []
            assert getattr(a, name) is not getattr(b, name)
        a.visited.append((0, square(0)))
        assert b.visited == [] and b.max_level == 0
        a.pe, a.budget = 5, 9.5
        assert (a.pe, a.budget, a.max_level) == (5, 9.5, 0)

    def test_rdp_stats_keywords(self):
        visited = [(0, square(0)), (2, square(1))]
        stats = RdpStats(pe=3, budget=4.0, visited=visited)
        assert stats.visited is visited and stats.max_level == 2
        assert stats.ipsr_calls == [] and stats.offsets == []
