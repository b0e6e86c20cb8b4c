"""Binary key space of the P-Grid trie.

Keys and peer paths are strings over ``{'0','1'}``.  Semantically a *key* is a
point in the unit interval ``[0, 1)`` (the binary fraction ``0.k1 k2 k3 ...``)
and a *path* π denotes the interval ``[π, π + 2^-|π|)``: the set of all keys
having π as a prefix.  A set of paths is a valid P-Grid partition when those
intervals tile the whole space (prefix-free, Kraft sum 1).

All comparison helpers here treat missing trailing bits as ``0`` so that keys
of unequal length compare as the binary fractions they denote.  They do so
without arithmetic: the binary-fraction order of two keys is the plain
string order of their :func:`canonical` forms (trailing zeros stripped).
:func:`key_fraction` and :func:`path_interval` give the exact rational
values, for tests to check that equivalence against.
"""

from __future__ import annotations

from fractions import Fraction

BITS = ("0", "1")

#: Canonical upper end of the key space (the point 1.0): sorts after every
#: bit string.
END_OF_SPACE = "2"


def canonical(key: str) -> str:
    """The shortest key denoting the same point: ``"0100"`` -> ``"01"``.

    Canonical keys compare as plain strings exactly like the binary
    fractions they denote.
    """
    return key.rstrip("0")


def upper_end(path: str) -> str:
    """Canonical exclusive upper end of the interval a path covers."""
    return increment_path(path) or END_OF_SPACE


def validate_key(key: str) -> str:
    """Return ``key`` unchanged if it is a (possibly empty) bit string."""
    if any(c not in "01" for c in key):
        raise ValueError(f"not a binary key: {key!r}")
    return key


def flip(bit: str) -> str:
    """Return the complementary bit."""
    if bit == "0":
        return "1"
    if bit == "1":
        return "0"
    raise ValueError(f"not a bit: {bit!r}")


def common_prefix_length(a: str, b: str) -> int:
    """Length of the longest common prefix of two bit strings."""
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def compare_keys(a: str, b: str) -> int:
    """Three-way compare of two keys as binary fractions (-1, 0, +1).

    ``"01" == "010"`` because both denote the point 0.01₂.
    """
    a, b = canonical(a), canonical(b)
    return (a > b) - (a < b)


def key_le(a: str, b: str) -> bool:
    """``a <= b`` as binary fractions."""
    return compare_keys(a, b) <= 0


def responsible(path: str, key: str) -> bool:
    """True when a peer with ``path`` is responsible for ``key``.

    A peer covers a key iff the key's point lies in the path's interval,
    i.e. the key (padded with zeros) starts with the path.
    """
    if len(key) >= len(path):
        return key.startswith(path)
    return path == key + "0" * (len(path) - len(key))


def path_interval(path: str) -> tuple[Fraction, Fraction]:
    """Return the half-open interval ``[lo, hi)`` a path covers, as fractions."""
    lo = key_fraction(path)
    return lo, lo + Fraction(1, 2 ** len(path))


def key_fraction(key: str) -> Fraction:
    """Exact numeric value of a key as a binary fraction in ``[0, 1)``."""
    value = Fraction(0)
    for i, bit in enumerate(key, start=1):
        if bit == "1":
            value += Fraction(1, 2**i)
    return value


def intervals_intersect(path: str, lo: str, hi: str) -> bool:
    """True when the subtree of ``path`` contains any key in ``[lo, hi]``.

    ``lo``/``hi`` are inclusive key bounds (points).  The subtree is the
    half-open interval of :func:`path_interval`.
    """
    return canonical(path) <= canonical(hi) and canonical(lo) < upper_end(path)


class KeyRange:
    """A half-open key interval ``[lo, hi)`` over points in ``[0, 1)``.

    ``hi is None`` means "to the end of the key space".  All physical range
    operators and the overlays' range-query algorithms take one of these.
    ``lo_canonical``/``hi_canonical`` are the bounds as :func:`canonical`
    strings (``hi_canonical`` is :data:`END_OF_SPACE` for an open range).
    """

    __slots__ = ("lo", "hi", "lo_canonical", "hi_canonical")

    def __init__(self, lo: str, hi: str | None):
        self.lo = validate_key(lo)
        self.hi = validate_key(hi) if hi is not None else None
        self.lo_canonical = canonical(self.lo)
        self.hi_canonical = canonical(self.hi) if self.hi is not None else END_OF_SPACE

    @classmethod
    def subtree(cls, prefix: str) -> "KeyRange":
        """The interval covered by all keys with the given bit prefix."""
        return cls(prefix, increment_path(prefix))

    @classmethod
    def at_least(cls, key: str) -> "KeyRange":
        """``[key, end-of-space)``."""
        return cls(key, None)

    @classmethod
    def everything(cls) -> "KeyRange":
        return cls("", None)

    def contains(self, key: str) -> bool:
        return self.lo_canonical <= canonical(key) < self.hi_canonical

    def intersects_path(self, path: str) -> bool:
        """True when the subtree of ``path`` overlaps this interval."""
        return canonical(path) < self.hi_canonical and self.lo_canonical < upper_end(path)

    def is_empty(self) -> bool:
        return self.lo_canonical >= self.hi_canonical

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyRange):
            return NotImplemented
        return (self.lo_canonical, self.hi_canonical) == (other.lo_canonical, other.hi_canonical)

    def __hash__(self) -> int:
        return hash((self.lo_canonical, self.hi_canonical))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hi = "END" if self.hi is None else self.hi
        return f"KeyRange[{self.lo!r}, {hi!r})"


def increment_path(path: str) -> str | None:
    """Smallest key strictly above the interval of ``path`` (``None`` at the top).

    Used by the sequential range-query traversal to step to the next leaf:
    the returned key is the left edge of the neighbouring subtree.
    """
    trimmed = path.rstrip("1")
    if not trimmed:
        return None
    return trimmed[:-1] + "1"


def is_prefix_free(paths: list[str]) -> bool:
    """True when no path is a prefix of another (distinct peers' intervals disjoint)."""
    unique = sorted(set(paths))
    for first, second in zip(unique, unique[1:]):
        if second.startswith(first):
            return False
    return True


def is_complete_partition(paths: list[str]) -> bool:
    """True when the set of paths tiles the whole key space.

    Checks prefix-freeness plus the Kraft equality ``sum 2^-|π| == 1``.
    The empty set is not a partition; a single empty path (whole space) is.
    """
    unique = set(paths)
    if not unique:
        return False
    if not is_prefix_free(list(unique)):
        return False
    total = sum(Fraction(1, 2 ** len(p)) for p in unique)
    return total == 1
