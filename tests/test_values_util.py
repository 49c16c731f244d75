"""Foundations: domains, subset enumeration, fresh names."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DomainError
from repro.util import FreshNames, iter_nonempty_subsets, iter_splits, iter_subsets
from repro.values import BOOLS, Domain, IntRange, bool_domain, tuple_domain


class TestDomain:
    def test_basic(self):
        d = Domain([1, 2, 3])
        assert len(d) == 3
        assert 2 in d and 5 not in d
        assert list(d) == [1, 2, 3]
        assert d.index_of(3) == 2

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            Domain([1, 1])

    def test_check(self):
        d = Domain([1, 2])
        assert d.check(1) == 1
        with pytest.raises(DomainError):
            d.check(9)

    def test_index_of_missing(self):
        with pytest.raises(DomainError):
            Domain([1]).index_of(2)

    def test_equality(self):
        assert Domain([1, 2]) == Domain([1, 2])
        assert Domain([1, 2]) != Domain([2, 1])
        assert hash(Domain([1, 2])) == hash(Domain([1, 2]))
        assert BOOLS != IntRange(0, 1)
        assert Domain([0, 1], name="A") == IntRange(0, 1)

    def test_pickle_rebuilds(self):
        import pickle

        for d in (IntRange(-1, 2), BOOLS, tuple_domain([0, 1], 2, name="T")):
            loaded = pickle.loads(pickle.dumps(d))
            assert type(loaded) is type(d) and loaded == d
            assert hash(loaded) == hash(d) and repr(loaded) == repr(d)

    def test_int_range(self):
        d = IntRange(-1, 2)
        assert list(d) == [-1, 0, 1, 2]
        with pytest.raises(DomainError):
            IntRange(3, 2)

    def test_bools(self):
        assert list(BOOLS) == [False, True]
        assert bool_domain() is BOOLS

    def test_tuple_domain(self):
        d = tuple_domain([0, 1], 2)
        assert () in d
        assert (0, 1) in d
        assert len(d) == 1 + 2 + 4

    def test_repr(self):
        assert "IntRange" in repr(IntRange(0, 3))
        assert "values" in repr(Domain(range(20)))


class TestSubsetEnumeration:
    @given(st.integers(0, 5))
    def test_counts(self, n):
        items = list(range(n))
        assert sum(1 for _ in iter_subsets(items)) == 2 ** n
        assert sum(1 for _ in iter_nonempty_subsets(items)) == 2 ** n - (1 if n >= 0 else 0)

    def test_size_ordering(self):
        sizes = [len(s) for s in iter_subsets(range(3))]
        assert sizes == sorted(sizes)

    def test_max_size(self):
        subsets = list(iter_subsets(range(4), max_size=1))
        assert len(subsets) == 5

    @given(st.frozensets(st.integers(0, 3), max_size=3))
    def test_splits_cover(self, states):
        for left, right in iter_splits(states):
            assert left | right == states

    def test_splits_count(self):
        assert sum(1 for _ in iter_splits(range(3))) == 27


class TestFreshNames:
    def test_avoids_collisions(self):
        fresh = FreshNames({"v", "v1"})
        assert fresh.fresh("v") == "v2"
        assert fresh.fresh("v") == "v3"

    def test_base_returned_when_free(self):
        assert FreshNames().fresh("k") == "k"
