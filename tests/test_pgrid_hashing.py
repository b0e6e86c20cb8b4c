"""The order/prefix-preserving hash — P-Grid's key enabling property."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pgrid.hashing import (
    after_key,
    encode_number,
    encode_string,
    encode_value,
    string_prefix_key,
)
from repro.pgrid.keys import compare_keys, key_fraction

SAFE_TEXT = st.text(alphabet=st.characters(min_codepoint=3, max_codepoint=126), max_size=10)
UNICODE_TEXT = st.text(alphabet=st.characters(min_codepoint=3), max_size=8)
NUMBERS = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


class TestStringEncoding:
    def test_fixed_width(self):
        assert len(encode_string("abc")) == 24

    def test_empty(self):
        assert encode_string("") == ""

    def test_prefix_preservation(self):
        # encode(s) is a bit-prefix of encode(s + t): substring search is native.
        assert encode_string("icde2006").startswith(encode_string("icde"))

    @given(SAFE_TEXT, SAFE_TEXT)
    def test_order_preservation(self, a, b):
        if a < b:
            assert compare_keys(encode_string(a), encode_string(b)) <= 0
        elif a > b:
            assert compare_keys(encode_string(a), encode_string(b)) >= 0
        else:
            assert encode_string(a) == encode_string(b)

    @given(UNICODE_TEXT, UNICODE_TEXT)
    def test_order_and_prefix_preservation_beyond_latin1(self, a, b):
        # UTF-8 byte order is code-point order, and UTF-8 is concatenative.
        ka, kb = encode_string(a), encode_string(b)
        assert compare_keys(ka, kb) == (a > b) - (a < b)
        assert encode_string(a + b).startswith(ka)

    @given(SAFE_TEXT, SAFE_TEXT)
    def test_injective_on_safe_text(self, a, b):
        if a != b:
            assert encode_string(a) != encode_string(b)


class TestNumberEncoding:
    def test_width(self):
        assert len(encode_number(42)) == 64

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            encode_number(float("nan"))

    def test_sign_ordering(self):
        assert encode_number(-1) < encode_number(0) < encode_number(1)

    def test_negative_zero_equals_zero(self):
        assert encode_number(-0.0) == encode_number(0.0)

    @given(NUMBERS, NUMBERS)
    def test_order_preservation(self, a, b):
        ka, kb = encode_number(a), encode_number(b)
        if float(a) < float(b):
            assert ka < kb
        elif float(a) > float(b):
            assert ka > kb
        else:
            assert ka == kb


class TestValueEncoding:
    def test_numbers_sort_before_strings(self):
        assert compare_keys(encode_value(10**12), encode_value("")) < 0

    def test_bool_treated_as_number(self):
        assert encode_value(True) == encode_value(1)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            encode_value([1, 2])

    @given(
        st.one_of(SAFE_TEXT, NUMBERS),
        st.one_of(SAFE_TEXT, NUMBERS),
    )
    def test_total_order_within_types(self, a, b):
        ka, kb = encode_value(a), encode_value(b)
        same_type = isinstance(a, str) == isinstance(b, str)
        if same_type:
            if a < b:
                assert compare_keys(ka, kb) < 0 or ka == kb  # float collisions
            elif a > b:
                assert compare_keys(ka, kb) > 0 or ka == kb


class TestAfterKey:
    def test_strictly_above_point(self):
        key = encode_value("icde")
        assert key_fraction(after_key(key)) > key_fraction(key)

    def test_below_any_extension(self):
        # after('ab') must exclude 'ab<c>' for every allowed character c>=\x03.
        base = encode_value("ab")
        extension = encode_value("ab\x03")
        assert key_fraction(after_key(base)) < key_fraction(extension)

    @given(SAFE_TEXT, st.characters(min_codepoint=3, max_codepoint=126))
    def test_extension_exclusion_property(self, s, ch):
        base = encode_value(s)
        extended = encode_value(s + ch)
        bound = after_key(base)
        assert key_fraction(base) < key_fraction(bound) <= key_fraction(extended)


class TestStringPrefixKey:
    def test_matches_value_encoding_prefix(self):
        assert encode_value("icde2006").startswith(string_prefix_key("icde"))

    def test_excludes_non_prefix(self):
        assert not encode_value("vldb").startswith(string_prefix_key("icde"))
