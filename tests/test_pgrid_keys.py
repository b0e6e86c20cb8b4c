"""Key-space semantics: comparisons, responsibility, partitions, KeyRange."""

import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from repro.pgrid.datastore import DataStore, Entry
from repro.pgrid.keys import (
    KeyRange,
    common_prefix_length,
    compare_keys,
    flip,
    increment_path,
    intervals_intersect,
    is_complete_partition,
    is_prefix_free,
    key_fraction,
    key_le,
    path_interval,
    responsible,
    validate_key,
)

BITS = st.text(alphabet="01", max_size=12)


class TestBasics:
    def test_validate_accepts_bits(self):
        assert validate_key("0101") == "0101"
        assert validate_key("") == ""

    def test_validate_rejects_other(self):
        with pytest.raises(ValueError):
            validate_key("012")

    def test_flip(self):
        assert flip("0") == "1" and flip("1") == "0"
        with pytest.raises(ValueError):
            flip("x")

    def test_common_prefix_length(self):
        assert common_prefix_length("0101", "0111") == 2
        assert common_prefix_length("", "0") == 0
        assert common_prefix_length("01", "01") == 2


class TestComparison:
    def test_zero_padding_equality(self):
        assert compare_keys("01", "010") == 0
        assert compare_keys("01", "0100") == 0

    def test_strict_order(self):
        assert compare_keys("001", "01") == -1
        assert compare_keys("1", "01") == 1

    def test_key_le(self):
        assert key_le("01", "010")
        assert key_le("001", "01")
        assert not key_le("1", "01")

    @given(BITS, BITS)
    def test_compare_agrees_with_fractions(self, a, b):
        by_fraction = (key_fraction(a) > key_fraction(b)) - (key_fraction(a) < key_fraction(b))
        assert compare_keys(a, b) == by_fraction


class TestResponsibility:
    def test_long_key(self):
        assert responsible("01", "0110")
        assert not responsible("01", "0010")

    def test_key_shorter_than_path(self):
        assert responsible("010", "01")  # 0.01 falls at left edge of 010
        assert not responsible("011", "01")

    def test_empty_path_covers_everything(self):
        assert responsible("", "10110")

    @given(BITS, BITS)
    def test_responsible_iff_point_in_interval(self, path, key):
        lo, hi = path_interval(path)
        point = key_fraction(key)
        assert responsible(path, key) == (lo <= point < hi)


class TestIntervals:
    def test_path_interval(self):
        assert path_interval("1") == (Fraction(1, 2), Fraction(1))
        assert path_interval("") == (Fraction(0), Fraction(1))

    def test_intersect_inclusive_bounds(self):
        assert intervals_intersect("01", "0100", "0111")
        assert intervals_intersect("01", "00", "01")  # hi touches left edge
        assert not intervals_intersect("01", "10", "11")

    def test_increment_path(self):
        assert increment_path("010") == "011"
        assert increment_path("011") == "1"
        assert increment_path("0") == "1"
        assert increment_path("111") is None
        assert increment_path("") is None

    @given(BITS.filter(lambda p: p.rstrip("1") != ""))
    def test_increment_is_exact_supremum(self, path):
        nxt = increment_path(path)
        _lo, hi = path_interval(path)
        assert key_fraction(nxt) == hi


class TestPartitions:
    def test_prefix_free(self):
        assert is_prefix_free(["00", "01", "1"])
        assert not is_prefix_free(["0", "01"])

    def test_complete_partition(self):
        assert is_complete_partition(["00", "01", "1"])
        assert is_complete_partition([""])
        assert not is_complete_partition(["00", "01"])  # misses half
        assert not is_complete_partition([])

    def test_duplicates_collapse(self):
        # Replicas share paths; the *distinct* set must tile the space.
        assert is_complete_partition(["0", "0", "1"])


class TestKeyRange:
    def test_subtree_contains_only_prefix(self):
        kr = KeyRange.subtree("01")
        assert kr.contains("0100")
        assert kr.contains("01")
        assert not kr.contains("1")
        assert not kr.contains("001")

    def test_at_least(self):
        kr = KeyRange.at_least("1")
        assert kr.contains("11")
        assert not kr.contains("01")

    def test_everything(self):
        kr = KeyRange.everything()
        assert kr.contains("") and kr.contains("111111")

    def test_half_open_upper_bound(self):
        kr = KeyRange("00", "01")
        assert kr.contains("001")
        assert not kr.contains("01")
        assert not kr.contains("0100")  # equal point to hi

    def test_intersects_path(self):
        kr = KeyRange("0100", "0111")
        assert kr.intersects_path("01")
        assert kr.intersects_path("010")
        assert not kr.intersects_path("00")

    def test_top_of_space_subtree(self):
        kr = KeyRange.subtree("111")
        assert kr.hi is None
        assert kr.contains("1111")

    def test_equality_semantics(self):
        assert KeyRange("01", "10") == KeyRange("010", "100")
        assert hash(KeyRange("01", "10")) == hash(KeyRange("010", "100"))

    @given(BITS, BITS)
    def test_contains_matches_fraction_interval(self, lo, key):
        kr = KeyRange.at_least(lo)
        assert kr.contains(key) == (key_fraction(key) >= key_fraction(lo))


class TestFractionOracle:
    """String comparison of canonical keys agrees with exact binary fractions."""

    @staticmethod
    def _oracle_range(lo, hi):
        return key_fraction(lo), key_fraction(hi) if hi is not None else Fraction(1)

    @given(BITS, st.one_of(st.none(), BITS), BITS, BITS)
    def test_key_range_agrees_with_fractions(self, lo, hi, key, path):
        kr = KeyRange(lo, hi)
        q_lo, q_hi = self._oracle_range(lo, hi)
        p_lo, p_hi = path_interval(path)
        a, b = key_fraction(key), key_fraction(path)
        assert compare_keys(key, path) == (a > b) - (a < b)
        assert kr.contains(key) == (q_lo <= a < q_hi)
        assert kr.intersects_path(path) == (p_lo < q_hi and q_lo < p_hi)
        assert kr.is_empty() == (q_lo >= q_hi)
        if hi is not None:
            assert intervals_intersect(path, lo, hi) == (
                p_lo <= key_fraction(hi) and key_fraction(lo) < p_hi
            )

    @given(BITS, st.one_of(st.none(), BITS), BITS, st.one_of(st.none(), BITS))
    def test_equality_and_hash_agree_with_fractions(self, lo, hi, lo2, hi2):
        first, second = KeyRange(lo, hi), KeyRange(lo2, hi2)
        same = self._oracle_range(lo, hi) == self._oracle_range(lo2, hi2)
        assert (first == second) == same
        if same:
            assert hash(first) == hash(second)

    @given(st.lists(BITS, max_size=30), BITS, st.one_of(st.none(), BITS))
    def test_datastore_scan_agrees_with_fractions(self, keys, lo, hi):
        store = DataStore()
        for index, key in enumerate(keys):
            store.put(Entry(key=key, item_id=f"i{index}", value=key))
        q_lo, q_hi = self._oracle_range(lo, hi)
        got = sorted((e.key, e.item_id) for e in store.scan(KeyRange(lo, hi)))
        expected = sorted(
            (key, f"i{index}") for index, key in enumerate(keys) if q_lo <= key_fraction(key) < q_hi
        )
        assert got == expected
