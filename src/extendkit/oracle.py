"""Independent brute-force ground truth for small m: full-domain LP
extendibility per class, exact distance to a class, and random instance
generators. Constraint builders here share nothing with the solver
modules; that independence is the point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from math import comb, lcm

from . import lp
from .errors import InfeasibleParameters, InternalError, MalformedDocument, TooLarge
from .ground import (
    ONE,
    ZERO,
    PartialSetFunction,
    Rational,
    elements,
    format_rational,
    is_json_int,
    is_subset,
    json_document,
    lex_key,
    popcount,
    rational_pair,
)
from .submodular import SquareCertificate, square, verify_square_certificate

CLASSES = ("monotone-subadditive", "general-subadditive", "xos", "submodular")

_MAX_M = {
    "monotone-subadditive": 4,
    "general-subadditive": 4,
    "xos": 5,
    "submodular": 5,
}


class TableValues:
    """A full table's values, indexed by bitmask: held as their checked
    literals ("p" or "p/q"). scaled() reads a set of entries as ints over a
    common denominator; an entry read by index is made a Rational the first
    time and kept. Testers read a few thousand of up to 2^20 entries."""

    __slots__ = ("_literals", "_cache", "_negative")

    def __init__(self, literals: list, negative: bool, cache: list | None = None):
        self._literals = literals
        self._negative = negative
        self._cache = [None] * len(literals) if cache is None else cache

    @classmethod
    def of(cls, values) -> "TableValues":
        cache = [Rational(v) for v in values]
        return cls([str(v) for v in cache], any(v < 0 for v in cache), cache)

    def __len__(self) -> int:
        return len(self._literals)

    def scaled(self, masks) -> tuple[list[int], int]:
        """The entries at ``masks`` as ints over the lcm of their
        denominators, in order: (ints, scale). No Rational is built."""
        parts = [self._literals[s].partition("/") for s in masks]
        dens = [int(den) if den else 1 for _num, _slash, den in parts]
        scale = lcm(*set(dens))
        return [int(num) * (scale // q) for (num, _s, _d), q in zip(parts, dens)], scale

    def __getitem__(self, mask: int) -> Rational:
        value = self._cache[mask]
        if value is None:
            num, _slash, den = self._literals[mask].partition("/")
            value = self._cache[mask] = Rational(int(num), int(den) if den else 1)
        return value

    def __iter__(self):
        return map(self.__getitem__, range(len(self._literals)))

    def __eq__(self, other):
        if not isinstance(other, TableValues):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"TableValues({list(self)!r})"

    def has_negative(self) -> bool:
        return self._negative


@dataclass(frozen=True)
class FullTable:
    """A complete value table on 2^[m], indexed by bitmask. ``values`` may
    be given as any sequence of rationals; it is kept as TableValues."""

    m: int
    values: TableValues

    def __post_init__(self):
        if self.m > 20:
            raise TooLarge(f"full tables support m <= 20, got {self.m}")
        if len(self.values) != 1 << self.m:
            raise MalformedDocument(
                f"table needs {1 << self.m} entries, got {len(self.values)}"
            )
        if not isinstance(self.values, TableValues):
            object.__setattr__(self, "values", TableValues.of(self.values))

    def _to_jsonable(self):
        return {"m": self.m, "values": [format_rational(v) for v in self.values]}


# A line of the newline-joined literals that rational_pair() would refuse:
# after each "\n", anything but a sign, ASCII digits and an optional "/"
# with a nonzero ASCII-digit denominator, running to the next "\n" or the
# end. A search keeps constant state, where a match of one repeated group
# over the whole text would keep state per entry.
_MALFORMED = re.compile(r"\n(?![+-]?[0-9]+(?:/0*[1-9][0-9]*)?(?![^\n]))")
# a checked literal below zero: a minus sign and a nonzero numerator
_NEGATIVE = re.compile(r"\n-0*[1-9]")


def parse_full_table(data) -> FullTable:
    """Parse an oracle table, checking every literal in one regex scan of
    the newline-joined literals and building no Rational. When the scan
    finds a malformed literal, or a value is not a string, each entry goes
    through rational_pair(), which raises on the first bad one."""
    doc = json_document(data)
    if not isinstance(doc, dict) or "m" not in doc or "values" not in doc:
        raise MalformedDocument('oracle table needs "m" and "values"')
    m, values = doc["m"], doc["values"]
    if not is_json_int(m) or m < 0:
        raise MalformedDocument(f'"m" must be a nonnegative integer, got {m!r}')
    if not isinstance(values, list):
        raise MalformedDocument(f'"values" must be a list, got {type(values).__name__}')
    try:
        text = "\n" + "\n".join(values)
    except TypeError:  # a value that is not a string
        text = ""
    # a literal holding "\n" would pass the scan as two lines
    if text.count("\n") != len(values) or _MALFORMED.search(text):
        pairs = list(map(rational_pair, values))
        negative = any(p < 0 for p, _q in pairs)
    else:
        negative = "\n-" in text and _NEGATIVE.search(text) is not None
    return FullTable(m, TableValues(list(values), negative))


# ---------------------------------------------------------------------------
# full-domain feasibility per class


def full_domain_extend(h: PartialSetFunction, klass: str, box_alpha=None) -> bool:
    """Extendibility of the partial function decided by a feasibility LP
    with one variable per subset (or, for xos, the one-vector-per-point
    program), with equality pins at the defined sets.

    With ``box_alpha`` set, pins relax to f_i <= w(T_i) <= alpha f_i,
    which is the feasibility probe of the approximate-extension bisection.
    """
    if klass not in CLASSES:
        raise ValueError(f"unknown class {klass!r}")
    if h.m > _MAX_M[klass]:
        raise TooLarge(f"full-domain oracle for {klass} supports m <= {_MAX_M[klass]}")
    if klass == "xos":
        if box_alpha is not None:
            raise ValueError("box mode is only for the table classes")
        return _xos_vector_feasible(h)

    nonneg = klass != "submodular"
    pinned = h.as_dict()
    if nonneg and any(v < 0 for v in pinned.values()):
        return False
    pins = {} if box_alpha is not None else pinned
    m = h.m
    nsets = 1 << m
    free = [s for s in range(nsets) if s not in pins]
    col = {s: i for i, s in enumerate(free)}
    nv = len(free)

    rows = []  # (coeff dict over free columns, ">=", rhs)

    def add(parts, rhs=ZERO):
        cc: dict[int, Rational] = {}
        b = Rational(rhs)
        for s, c in parts:
            if s in pins:
                b -= c * pins[s]
            else:
                j = col[s]
                cc[j] = cc.get(j, ZERO) + c
        cc = {j: c for j, c in cc.items() if c != 0}
        rows.append((cc, b))

    if box_alpha is not None:
        alpha = Rational(box_alpha)
        for s, v in pinned.items():
            add(((s, ONE),), v)  # w >= f
            add(((s, -ONE),), -alpha * v)  # w <= alpha f

    if klass == "submodular":
        for a in range(nsets):
            outside = [e for e in range(m) if not a >> e & 1]
            for i, j in combinations(outside, 2):
                add(
                    (
                        (a | 1 << i, ONE),
                        (a | 1 << j, ONE),
                        (a | 1 << i | 1 << j, -ONE),
                        (a, -ONE),
                    )
                )
    else:
        if klass == "monotone-subadditive":
            for a in range(nsets):
                for e in range(m):
                    if not a >> e & 1:
                        add(((a | 1 << e, ONE), (a, -ONE)))
            for a in range(1, nsets):
                rest = nsets - 1 - a  # complement, kept disjoint from a
                b = rest
                while b:
                    if b > a:
                        add(((a, ONE), (b, ONE), (a | b, -ONE)))
                    b = (b - 1) & rest
        else:  # general-subadditive: incomparable pairs
            for a in range(1, nsets):
                for b in range(a + 1, nsets):
                    if is_subset(a, b) or is_subset(b, a):
                        continue
                    add(((a, ONE), (b, ONE), (a | b, -ONE)))

    cons = []
    for cc, b in rows:
        if not cc:
            if 0 < b:
                return False  # constant row already violated
            continue
        coeffs = [ZERO] * nv
        for j, c in cc.items():
            coeffs[j] = c
        cons.append(lp.Constraint(tuple(coeffs), ">=", b))
    if nv == 0:
        return True
    lower = (ZERO,) * nv if nonneg else None
    names = tuple(f"v{s}" for s in free)
    out = lp.solve(lp.ExactLP(names, tuple(cons), lower=lower))
    return isinstance(out, lp.Feasible)


def _xos_vector_feasible(h: PartialSetFunction) -> bool:
    """H is XOS-extendible iff there are nonnegative
    vectors w_i with w_i . chi(T_i) = f_i and w_i . chi(T_i) >= w_k . chi(T_i)."""
    if any(v < 0 for _, v in h.points):
        return False
    n, m = len(h.points), h.m
    if n == 0:
        return True
    nv = n * m
    names = tuple(f"w{i}_{j}" for i in range(n) for j in range(m))
    cons = []
    for i, (mask, value) in enumerate(h.points):
        row = [ZERO] * nv
        for e in elements(mask):
            row[i * m + e] = ONE
        cons.append(lp.Constraint(tuple(row), "=", value))
        for k in range(n):
            if k == i:
                continue
            row = [ZERO] * nv
            for e in elements(mask):
                row[i * m + e] = ONE
                row[k * m + e] = -ONE
            cons.append(lp.Constraint(tuple(row), ">=", ZERO))
    out = lp.solve(lp.ExactLP(names, tuple(cons), lower=(ZERO,) * nv))
    return isinstance(out, lp.Feasible)


def distance_to_class(table: FullTable, klass: str) -> Rational:
    """Minimum fraction of table entries that must change to enter the
    class: repair subsets are tried in increasing size, each tested by
    full_domain_extend on the complementary pins."""
    if table.m > 4:
        raise TooLarge("distance_to_class supports m <= 4")
    nsets = 1 << table.m
    all_masks = tuple(range(nsets))
    for d in range(nsets + 1):
        for repair in combinations(all_masks, d):
            gone = set(repair)
            kept = tuple(
                (s, table.values[s]) for s in all_masks if s not in gone
            )
            h = PartialSetFunction(table.m, kept)
            if full_domain_extend(h, klass):
                return Rational(d, nsets)
    raise InternalError("internal error: every class contains the all-zero table")


# ---------------------------------------------------------------------------
# generators


def random_rational(rng, lo: int, hi: int, max_den: int = 4) -> Rational:
    den = rng.randint(1, max_den)
    return Rational(rng.randint(lo * den, hi * den), den)


def random_value(rng, lo: int, hi: int, positive: bool) -> Rational:
    """random_rational(), drawn again while positive and it is <= 0."""
    v = random_rational(rng, lo, hi)
    while positive and v <= 0:
        v = random_rational(rng, lo, hi)
    return v


def random_partial_function(
    m: int,
    n: int,
    value_range: tuple[int, int],
    rng,
    *,
    allow_empty_set: bool = True,
    positive: bool = False,
) -> PartialSetFunction:
    lo, hi = value_range
    first = 0 if allow_empty_set else 1
    if m <= 62:
        pool = range(first, 1 << m)
        if n > len(pool):
            raise InfeasibleParameters(f"cannot pick {n} distinct sets from {len(pool)}")
        masks = rng.sample(pool, n)
    else:
        # len() of a range past sys.maxsize overflows, so draw until n
        # masks are distinct (from 2^63 or more sets, repeats are rare)
        masks = {}
        while len(masks) < n:
            masks[rng.randrange(first, 1 << m)] = None
    return PartialSetFunction(
        m, tuple((mask, random_value(rng, lo, hi, positive)) for mask in masks)
    )


def random_antichain(m: int, n: int, rng, restarts: int = 50) -> tuple[int, ...]:
    """A containment-free family of n distinct subsets of [m]: greedy
    draws with restarts, falling back to a sample of the middle layer
    (always an antichain) when greedy keeps wedging itself."""
    if n > comb(m, m // 2):
        raise InfeasibleParameters(
            f"no antichain of size {n} exists over [{m}] (Sperner bound)"
        )
    for _ in range(restarts):
        picked: list[int] = []
        misses = 0
        while len(picked) < n and misses < 40 * (n + 1):
            c = rng.randrange(1, 1 << m)
            if any(is_subset(c, p) or is_subset(p, c) for p in picked):
                misses += 1
                continue
            picked.append(c)
        if len(picked) == n:
            return tuple(sorted(picked, key=lex_key))
    layer = [s for s in range(1 << m) if popcount(s) == m // 2]
    return tuple(sorted(rng.sample(layer, n), key=lex_key))


def random_valid_square_certificate(m: int, rng, max_squares: int = 3):
    """A verifying square certificate over a random partial function:
    compose random incomparable squares, let the sets with unbalanced
    middle/top-bottom counts be the defined ones, then pick values that
    make the weighted sum positive."""
    if m < 2:
        raise InfeasibleParameters(
            f"a square certificate needs two incomparable sets, so m >= 2; got m={m}"
        )
    while True:
        nsq = rng.randint(1, max_squares)
        seen = set()
        tuples = []
        for _ in range(nsq):
            for _attempt in range(50):
                a = rng.randrange(1, 1 << m)
                b = rng.randrange(1, 1 << m)
                if a == b or is_subset(a, b) or is_subset(b, a):
                    continue
                t = square(a, b)
                if (t.a, t.b) not in seen:
                    seen.add((t.a, t.b))
                    tuples.append((t, rng.randint(1, 2)))
                    break
        if not tuples:
            continue
        cert = SquareCertificate(m, tuple(tuples))
        counts = cert.counts()
        defined = sorted(
            (s for s, (mc, tbc) in counts.items() if mc != tbc), key=lex_key
        )
        if not defined:
            continue
        values = {s: random_rational(rng, -5, 5) for s in defined}
        total = sum(
            (values[s] * (counts[s][1] - counts[s][0]) for s in defined), ZERO
        )
        if total <= 0:
            gains = [s for s in defined if counts[s][1] != counts[s][0]]
            s_star = rng.choice(gains)
            g = counts[s_star][1] - counts[s_star][0]
            values[s_star] += (ONE - total) / g
        h = PartialSetFunction(m, tuple(sorted(values.items())))
        cert = SquareCertificate(m, tuple(tuples), h)
        if not verify_square_certificate(cert, h):
            raise InternalError("internal error: a generated certificate does not verify")
        return cert, h
