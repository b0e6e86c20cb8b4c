"""Order- and prefix-preserving hashing into the binary key space.

P-Grid's distinguishing feature (paper §2) is that its hash function preserves
the order of keys, so range and prefix queries map to contiguous trie regions.
We realize this with fixed-width encodings:

* **Strings** — the UTF-8 bytes, 8 bits each.  UTF-8 is concatenative, so
  ``encode_string(s)`` is a bit-prefix of ``encode_string(s + t)``, and its
  byte order equals code-point order, so Python's string order equals
  fractional key order.  This is what makes substring/prefix search "native"
  in P-Grid.  ASCII keeps one byte (8 bits) per character.
* **Numbers** — 64-bit offset-binary IEEE-754: flip the sign bit of the
  float's big-endian bits for non-negatives, flip *all* bits for negatives.
  The resulting bit string orders exactly like the numbers themselves.

Values of mixed type get a 1-bit type tag (numbers sort before strings, an
arbitrary but total convention).
"""

from __future__ import annotations

import math
import struct

#: Character used by the triple layer to join attribute and value in the
#: A#v index.  Encoded as the byte 0x02 — above the q-gram pad, below the
#: first UTF-8 byte of any allowed character (>= 0x03) — so ``attr SEP
#: value`` keys for one attribute form a contiguous subtree that no other
#: attribute's keys can enter.
KEY_SEPARATOR = "\x02"


def encode_string(s: str) -> str:
    """Encode a string as the bits of its UTF-8 bytes, order-preserving.

    Lone surrogates are encoded like any other code point
    (``surrogatepass``), so every ``str`` keeps its place in the order.
    """
    data = s.encode("utf-8", "surrogatepass")
    if not data:
        return ""
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")


def encode_number(x: float | int) -> str:
    """Encode a number as 64 bits whose lexicographic order is numeric order.

    Uses the standard IEEE-754 total-order trick.  Integers beyond 2**53 lose
    precision (documented limitation of the float-backed key space).  NaN is
    rejected — it has no place in an ordered key space.
    """
    value = float(x)
    if math.isnan(value):
        raise ValueError("NaN cannot be encoded as an ordered key")
    if value == 0.0:
        value = 0.0  # normalize -0.0, which is numerically equal to +0.0
    (bits,) = struct.unpack(">Q", struct.pack(">d", value))
    if bits & (1 << 63):  # negative: flip everything
        bits = ~bits & (2**64 - 1)
    else:  # non-negative: flip the sign bit
        bits |= 1 << 63
    return format(bits, "064b")


def encode_value(v: object) -> str:
    """Encode a typed value with a leading type tag (number=0, string=1)."""
    if isinstance(v, bool):
        # bool is an int subclass; treat as number for a total order.
        return "0" + encode_number(int(v))
    if isinstance(v, (int, float)):
        return "0" + encode_number(v)
    if isinstance(v, str):
        return "1" + encode_string(v)
    raise TypeError(f"unsupported value type for key encoding: {type(v).__name__}")


def after_key(key: str) -> str:
    """The smallest usable exclusive upper bound just above point ``key``.

    Appends ``00000001``: strictly above ``key`` itself, but still below the
    encoding of any *extension* of the encoded value, because the triple
    layer rejects characters with code points < 3 (q-gram pad ``\\x01`` and
    :data:`KEY_SEPARATOR` ``\\x02`` are reserved), so a one-character
    extension appends at least ``00000011`` (a multi-byte UTF-8 character
    starts with a byte of at least ``11000010``).  This is what makes
    ``value <= v`` ranges exact under the prefix-preserving encoding.
    """
    return key + "00000001"


def string_prefix_key(prefix: str) -> str:
    """Key-space prefix covering all strings that start with ``prefix``.

    Because the encoding is fixed-width per character, the subtree rooted at
    ``'1' + encode_string(prefix)`` contains exactly the string values with
    that prefix.
    """
    return "1" + encode_string(prefix)
