"""Convex extension in Q^m: roof values via the primal transportation LP,
extension decision, optimal approximation factor, dual-polyhedron vertex
enumeration, and the canonical extension (max over dual vertices) inside
and outside the hull.

The roof of x is min sum lambda_i f_i over convex combinations of the
defined points hitting x; a partial function extends to a convex function
iff the roof equals the pinned value at every defined point. Outside the
hull the canonical extension is the max over vertices (y, mu) of the dual
{T_i . y + mu <= f_i} of x . y + mu, which needs vertex enumeration and is
exponential in m (it is NP-hard in general), hence the budget of
MAX_VERTEX_SYSTEMS square systems, checked before any is solved.

One exact elimination routine, _eliminate (Gauss-Jordan on integer rows by
lp.pivot, the simplex's fraction-free pivot), serves both the affine
dimension and the square solves of vertex enumeration; the rows are scaled
to integers once and rationals are formed only for the vertices that are
kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Optional

from . import lp
from .errors import (
    DegenerateHull,
    DimensionMismatch,
    InternalError,
    MalformedDocument,
    TooLarge,
    ValueNotPositive,
)
from .ground import (
    ONE,
    ZERO,
    ConvexPartialFunction,
    Rational,
    denominator_lcm,
    scaled_int,
)

# The most (m+1)-subsets vertex enumeration solves: C(n, m+1) square
# systems, each an exact elimination.
MAX_VERTEX_SYSTEMS = 1 << 18


@dataclass(frozen=True)
class DualVertex:
    y: tuple[Rational, ...]
    mu: Rational
    tight: tuple[int, ...]  # indices of tight constraints

    def value_at(self, x) -> Rational:
        return sum((a * b for a, b in zip(x, self.y)), ZERO) + self.mu

    def _to_jsonable(self):
        return {
            "y": [str(c) for c in self.y],
            "mu": str(self.mu),
            "tight": list(self.tight),
        }


@dataclass(frozen=True)
class ConvexViolation:
    index: int
    point: tuple[Rational, ...]
    value: Rational
    roof: Rational

    def _to_jsonable(self):
        return {
            "index": self.index,
            "x": [str(c) for c in self.point],
            "value": str(self.value),
            "roof": str(self.roof),
        }


def affine_dimension(points) -> int:
    """Dimension of the affine hull: the number of pivots the exact
    elimination takes on the difference set."""
    pts = [tuple(Rational(c) for c in p) for p in points]
    if not pts:
        raise MalformedDocument("need at least one point")
    base = pts[0]
    rows = [_integer_row([c - b for c, b in zip(p, base)]) for p in pts[1:]]
    _d, pivots = _eliminate(rows, len(base))
    return len(pivots)


def _integer_row(row) -> list[int]:
    """The rational row scaled to integers by its common denominator."""
    scale = denominator_lcm(row)
    return [scaled_int(c, scale) for c in row]


def _eliminate(rows: list[list[int]], ncols: int):
    """Fraction-free Gauss-Jordan on integer rows by lp.pivot, in place;
    returns (d, pivots) with pivots the (row, column) pairs in pivot order.

    Column c < ncols is pivoted on the first row not yet pivoted with a
    nonzero entry there, and skipped when there is none. Afterwards, for
    B the input's submatrix on the pivot rows and columns and
    d = |det B| > 0, the pivot rows hold d * B^-1 times the input's pivot
    rows: each holds d in its own pivot column, and every pivot column is
    zero in every other row.
    """
    d = 1
    pivots = []
    free = list(range(len(rows)))
    for c in range(ncols):
        r = next((i for i in free if rows[i][c]), None)
        if r is None:
            continue
        free.remove(r)
        d = lp.pivot(rows, r, c, d)
        pivots.append((r, c))
    return d, pivots


def _check_dim(ch: ConvexPartialFunction, x) -> tuple:
    x = tuple(Rational(c) for c in x)
    if len(x) != ch.m:
        raise DimensionMismatch(f"point has dimension {len(x)}, expected {ch.m}")
    return x


def roof_value(ch: ConvexPartialFunction, x) -> Optional[Rational]:
    """Optimal value of the roof LP at x, or None when x is outside the
    convex hull of the defined points."""
    x = _check_dim(ch, x)
    n = len(ch.points)
    names = tuple(f"l{i}" for i in range(n))
    cons = []
    for j in range(ch.m):
        row = tuple(vec[j] for vec, _ in ch.points)
        cons.append(lp.Constraint(row, "=", x[j]))
    cons.append(lp.Constraint((ONE,) * n, "=", ONE))
    objective = (tuple(v for _, v in ch.points), "min")
    out = lp.solve(lp.ExactLP(names, tuple(cons), objective, lower=(ZERO,) * n))
    if isinstance(out, lp.Infeasible):
        return None
    if not isinstance(out, lp.Optimal):
        raise InternalError("internal error: a feasible roof LP has no optimum")
    return out.value


def extend_convex(ch: ConvexPartialFunction):
    """Extendible iff the roof reproduces every pinned value (the roof
    never exceeds a pinned value, so only drops below can occur)."""
    for i, (vec, value) in enumerate(ch.points):
        roof = roof_value(ch, vec)
        if roof is None or roof > value:
            raise InternalError(
                f"internal error: the roof at defined point {i} is missing or "
                "exceeds its value"
            )
        if roof < value:
            return ConvexViolation(i, vec, value, roof)
    return None  # extendible


def approx_convex(ch: ConvexPartialFunction, audit: bool = False):
    """Minimal alpha admitting a convex f with f_i <= f(T_i) <= alpha f_i.

    Closed form: the roof is linear in the upper-bound values, so alpha* =
    max_i f_i / roof(T_i). With audit=True the box-feasibility bisection
    (re-solving the roof LPs of the scaled instance at every probe) must
    bracket the same number to 2^-40.
    """
    for vec, v in ch.points:
        if v <= 0:
            raise ValueNotPositive(f"approximation needs values > 0; f({vec}) = {v}")
    alpha = ONE
    for vec, value in ch.points:
        roof = roof_value(ch, vec)
        ratio = value / roof
        if ratio > alpha:
            alpha = ratio
    if audit:
        lo, hi = bisect_approx_convex(ch, tol=Rational(1, 2**40))
        if not lo <= alpha <= hi:
            raise InternalError(
                "internal error: closed form escaped the bisection bracket"
            )
    return alpha


def feasible_at_alpha(ch: ConvexPartialFunction, alpha) -> bool:
    """Box-constrained convex feasibility at a given factor: a convex f
    with f_i <= f(T_i) <= alpha f_i exists iff the roof of the scaled
    instance {(T_i, alpha f_i)} stays >= f_i at every point."""
    alpha = Rational(alpha)
    scaled = ConvexPartialFunction(
        ch.m, tuple((vec, alpha * v) for vec, v in ch.points)
    )
    for (vec, value), _ in zip(ch.points, scaled.points):
        roof = roof_value(scaled, vec)
        if roof is None:
            raise InternalError("internal error: a defined point left its own hull")
        if roof < value:
            return False
    return True


def bisect_approx_convex(ch: ConvexPartialFunction, tol) -> tuple[Rational, Rational]:
    """Bracket the optimal factor with the feasibility probe alone."""
    tol = Rational(tol)
    if feasible_at_alpha(ch, ONE):
        return ONE, ONE
    lo, hi = ONE, Rational(2)
    while not feasible_at_alpha(ch, hi):
        lo, hi = hi, hi * 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if feasible_at_alpha(ch, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def enumerate_dual_vertices(ch: ConvexPartialFunction) -> tuple[DualVertex, ...]:
    """All vertices of Q = {(y, mu) : T_i . y + mu <= f_i}: solve every
    (m+1)-subset of constraints as equalities, keep nonsingular feasible
    solutions, deduplicate exact coordinates.

    Each row (T_i, 1 | f_i) is scaled to integers a_i | b_i once. A subset
    solves by _eliminate to (y, mu) = x / d with integers x and d > 0,
    reduced by their gcd, which makes (x, d) canonical; row i holds at x / d
    when a_i . x <= b_i * d. Rationals are formed only for the vertices
    that are kept. Refuses more than MAX_VERTEX_SYSTEMS subsets."""
    m, n = ch.m, len(ch.points)
    if comb(n, m + 1) > MAX_VERTEX_SYSTEMS:
        raise TooLarge(
            f"vertex enumeration would solve C({n}, {m + 1}) square systems; "
            f"<= {MAX_VERTEX_SYSTEMS} only"
        )
    if affine_dimension(ch.vectors) < m:
        raise DegenerateHull(
            "the defined points span less than the ambient dimension; "
            "the dual polyhedron has no vertex (project to the affine hull)"
        )
    k = m + 1
    rows = [_integer_row(list(vec) + [ONE, value]) for vec, value in ch.points]
    seen = set()
    kept = []
    for subset in combinations(range(n), k):
        # copies: _eliminate updates rows in place
        system = [list(rows[i]) for i in subset]
        d, pivots = _eliminate(system, k)
        if len(pivots) < k:
            continue  # singular
        x = [0] * k
        for r, c in pivots:
            x[c] = system[r][k]
        g = gcd(d, *x)
        key = (tuple(v // g for v in x), d // g)
        if key in seen:
            continue
        seen.add(key)
        x, d = key
        if any(_dot(row, x) > row[k] * d for row in rows):
            continue
        kept.append(key)
    if not kept:
        raise InternalError(
            "internal error: a full-dimensional hull has no dual vertex"
        )
    vertices = []
    for x, d in kept:
        sol = tuple(Rational(v, d) for v in x)
        tight = tuple(i for i, row in enumerate(rows) if _dot(row, x) == row[k] * d)
        vertices.append(DualVertex(sol[:m], sol[m], tight))
    vertices.sort(key=lambda v: v.y + (v.mu,))
    return tuple(vertices)


def _dot(row, x) -> int:
    """a_i . x for the integer row a_i | b_i (zip stops before b_i)."""
    return sum(a * v for a, v in zip(row, x))


def eval_tilde(ch: ConvexPartialFunction, x):
    """The canonical extension: max over dual vertices of x . y + mu."""
    x = _check_dim(ch, x)
    vertices = enumerate_dual_vertices(ch)
    return max(v.value_at(x) for v in vertices), vertices
