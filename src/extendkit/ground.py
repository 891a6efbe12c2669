"""Exact arithmetic, subset algebra, partial-function containers, and the
JSON interchange format shared by every solver in the package.

Rationals are stdlib fractions.Fraction values: always in lowest terms,
positive denominator, exact field arithmetic.
The exact kernels (the simplex, the cover DPs, dual-vertex enumeration)
do not add rationals in their inner loops: they scale their inputs once to
integers over a common denominator with scaled_ints()
(a partial set function keeps its scaled values, PartialSetFunction.int_values,
which the subadditive cover DP and the XOS roof LP read; a tester reads
each drawn set's subsets once as one packed table of ints,
FunctionOracle.read_scaled), run on Python ints, and form rationals only
when results are read out.
Scaling by a positive integer keeps every comparison, so tie-breaks and
outputs are the same as in rational arithmetic.
Subsets of {0,...,m-1} are plain int bitmasks; Python ints are
arbitrary-precision, so the same representation covers m <= 63 and beyond
at O(m/word) per operation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as Rational
from functools import cached_property
from math import lcm
from typing import Iterable

from .errors import (
    DuplicatePoint,
    IndexOutOfRange,
    MalformedDocument,
    MalformedRational,
    NegativeValueForClass,
    ValueNotPositive,
)

ZERO = Rational(0)
ONE = Rational(1)

# The largest ground set for work that is dense over [m]: XOS vectors, the
# m-bit masks of the certificate rewrite, and the instance generators.
MAX_DENSE_M = 1 << 16

# Classes whose codomain is the nonnegative rationals.
NONNEGATIVE_CLASSES = frozenset({"subadditive", "subadditive-nonmonotone", "xos"})


def rational_pair(text: str) -> tuple[int, int]:
    """The literal "p" or "p/q" as the int pair (p, q), not reduced: an
    optional sign, ASCII digits, and an optional "/" with a nonzero
    ASCII-digit denominator. Nothing else is accepted (no whitespace, no
    underscores, no other scripts' digits)."""
    if isinstance(text, str) and text.isascii():
        num, slash, den = text.partition("/")
        signed = num[1:].isdigit() and num[0] in "+-"
        if (num.isdigit() or signed) and (den.isdigit() or not slash):
            q = int(den) if slash else 1
            if q == 0:
                raise MalformedRational(f"zero denominator: {text!r}")
            return int(num), q
    raise MalformedRational(f"not a rational literal: {text!r}")


def parse_rational(text: str) -> Rational:
    """Parse a literal that rational_pair() accepts."""
    return Rational(*rational_pair(text))


def denominator_lcm(values) -> int:
    """The least common multiple of the values' denominators (1 for none)."""
    out = 1
    for v in values:
        d = v.denominator
        if d != 1:
            out = lcm(out, d)
    return out


def scaled_int(value, scale: int) -> int:
    """value * scale as an int, for a scale its denominator divides."""
    return value.numerator * (scale // value.denominator)


def scaled_ints(values) -> tuple[list[int], int]:
    """The rationals in the list ``values`` as ints over the lcm of their
    denominators: (ints, scale), each value being int / scale."""
    scale = denominator_lcm(values)
    return [v.numerator * (scale // v.denominator) for v in values], scale


def format_rational(value) -> str:
    """Canonical "p" or "p/q" form, always in lowest terms."""
    value = Rational(value)
    return str(value)


# ---------------------------------------------------------------------------
# subset algebra on int bitmasks


def mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def elements(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def popcount(mask: int) -> int:
    return mask.bit_count()


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def submasks(mask: int) -> list[int]:
    """All submasks of mask, ascending by the standard subset enumeration."""
    subs = []
    s = 0
    while True:
        subs.append(s)
        if s == mask:
            return subs
        s = (s - mask) & mask


def lex_key(mask: int) -> tuple[int, ...]:
    """Sort key giving lexicographic order of the sorted element tuples."""
    return elements(mask)


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class PartialSetFunction:
    """Finitely many (subset, value) pairs over the ground set {0,...,m-1}."""

    m: int
    points: tuple[tuple[int, Rational], ...]

    def __post_init__(self):
        if self.m <= 0:
            raise MalformedDocument(f"ground-set size must be positive, got {self.m}")
        seen = set()
        for mask, _value in self.points:
            if mask >> self.m:
                raise IndexOutOfRange(
                    f"set {sorted(elements(mask))} has elements outside [0,{self.m})"
                )
            if mask in seen:
                raise DuplicatePoint(f"set {sorted(elements(mask))} defined twice")
            seen.add(mask)
        # canonical point order, so equal functions compare equal
        object.__setattr__(
            self,
            "points",
            tuple(sorted(self.points, key=lambda p: lex_key(p[0]))),
        )

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(mask for mask, _ in self.points)

    def as_dict(self) -> dict[int, Rational]:
        return {mask: v for mask, v in self.points}

    @cached_property
    def int_values(self) -> tuple[int, tuple[int, ...]]:
        """(L, the values times L as ints, in point order), with L the
        lcm of the values' denominators; computed once per instance."""
        ints, scale = scaled_ints([v for _mask, v in self.points])
        return scale, tuple(ints)

    def require_nonnegative(self, klass: str = "subadditive") -> None:
        for mask, v in self.points:
            if v < 0:
                raise NegativeValueForClass(
                    f"class {klass!r} requires values >= 0; "
                    f"f({sorted(elements(mask))}) = {format_rational(v)}"
                )

    def require_positive(self, klass: str) -> None:
        """Approximation factors divide by the values, so each must be > 0."""
        for mask, v in self.points:
            if v <= 0:
                raise ValueNotPositive(
                    f"approximate {klass} extension needs values > 0; "
                    f"f({sorted(elements(mask))}) = {format_rational(v)}"
                )

    def scaled(self, factor: Rational) -> "PartialSetFunction":
        factor = Rational(factor)
        return PartialSetFunction(
            self.m, tuple((mask, v * factor) for mask, v in self.points)
        )


@dataclass(frozen=True)
class ConvexPartialFunction:
    """Finitely many (vector, value) pairs with vectors in Q^m."""

    m: int
    points: tuple[tuple[tuple[Rational, ...], Rational], ...]

    def __post_init__(self):
        if self.m <= 0:
            raise MalformedDocument(f"dimension must be positive, got {self.m}")
        seen = set()
        for vec, _value in self.points:
            if len(vec) != self.m:
                raise MalformedDocument(
                    f"point {vec} has dimension {len(vec)}, expected {self.m}"
                )
            if vec in seen:
                raise DuplicatePoint(f"point {vec} defined twice")
            seen.add(vec)
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    @property
    def vectors(self) -> tuple[tuple[Rational, ...], ...]:
        return tuple(vec for vec, _ in self.points)

    @property
    def values(self) -> tuple[Rational, ...]:
        return tuple(v for _, v in self.points)


# ---------------------------------------------------------------------------
# JSON interchange


def is_json_int(value) -> bool:
    """An integer from a JSON document; JSON true/false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_set_array(arr, m: int) -> int:
    if not isinstance(arr, list) or not all(is_json_int(i) for i in arr):
        raise MalformedDocument(f"set must be an array of integers: {arr!r}")
    if any(b <= a for a, b in zip(arr, arr[1:])):
        raise MalformedDocument(f"set indices must be strictly increasing: {arr!r}")
    if arr and (arr[0] < 0 or arr[-1] >= m):
        raise IndexOutOfRange(f"set {arr!r} has elements outside [0,{m})")
    return mask_of(arr)


def json_document(data):
    """JSON text (str or bytes) parsed, or an already parsed document as
    given; text that is not JSON raises MalformedDocument."""
    if not isinstance(data, (bytes, str)):
        return data
    try:
        return json.loads(data)
    except ValueError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc


def parse_partial_function(data, klass: str | None = None):
    """Parse the JSON interchange document into a PartialSetFunction or
    ConvexPartialFunction (dispatching on the "m" / "dim" key).

    When ``klass`` names a nonnegative class the values are checked here,
    at parse time.
    """
    doc = json_document(data)
    if not isinstance(doc, dict):
        raise MalformedDocument("top-level JSON value must be an object")

    if "m" in doc:
        m = doc["m"]
        if not is_json_int(m):
            raise MalformedDocument(f'"m" must be an integer, got {m!r}')
        pts = doc.get("points")
        if not isinstance(pts, list):
            raise MalformedDocument('"points" must be an array')
        points = []
        for entry in pts:
            if not isinstance(entry, dict) or "set" not in entry or "value" not in entry:
                raise MalformedDocument(f"point must have 'set' and 'value': {entry!r}")
            mask = _parse_set_array(entry["set"], m)
            points.append((mask, parse_rational(entry["value"])))
        psf = PartialSetFunction(m, tuple(points))
        if klass in NONNEGATIVE_CLASSES:
            psf.require_nonnegative(klass)
        return psf

    if "dim" in doc:
        m = doc["dim"]
        if not is_json_int(m):
            raise MalformedDocument(f'"dim" must be an integer, got {m!r}')
        pts = doc.get("points")
        if not isinstance(pts, list):
            raise MalformedDocument('"points" must be an array')
        points = []
        for entry in pts:
            if not isinstance(entry, dict) or "x" not in entry or "value" not in entry:
                raise MalformedDocument(f"point must have 'x' and 'value': {entry!r}")
            x = entry["x"]
            if not isinstance(x, list):
                raise MalformedDocument(f"'x' must be an array of rationals: {x!r}")
            vec = tuple(parse_rational(c) for c in x)
            points.append((vec, parse_rational(entry["value"])))
        return ConvexPartialFunction(m, tuple(points))

    raise MalformedDocument('document must carry "m" (set function) or "dim" (convex)')


def to_jsonable(obj):
    """Convert a domain object to plain JSON-ready data.

    Set functions, convex partial functions, rationals, and masks are
    handled here; richer objects (certificates, witnesses, reports)
    register their own converters by defining ``_to_jsonable``.
    """
    if hasattr(obj, "_to_jsonable"):
        return obj._to_jsonable()
    if isinstance(obj, PartialSetFunction):
        return {
            "m": obj.m,
            "points": [
                {"set": list(elements(mask)), "value": format_rational(v)}
                for mask, v in sorted(obj.points, key=lambda p: lex_key(p[0]))
            ],
        }
    if isinstance(obj, ConvexPartialFunction):
        return {
            "dim": obj.m,
            "points": [
                {"x": [format_rational(c) for c in vec], "value": format_rational(v)}
                for vec, v in obj.points
            ],
        }
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    # rationals land here
    return format_rational(obj)


def serialize(obj) -> str:
    """Canonical UTF-8 JSON for any domain object; parse(serialize(x)) == x."""
    return json.dumps(to_jsonable(obj), separators=(",", ":"), sort_keys=False)
