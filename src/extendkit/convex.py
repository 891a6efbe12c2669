"""Convex extension in Q^m: roof values via the primal transportation LP,
extension decision, optimal approximation factor, dual-polyhedron vertex
enumeration, and the canonical extension (max over dual vertices) inside
and outside the hull.

The roof of x is min sum lambda_i f_i over convex combinations of the
defined points hitting x; a partial function extends to a convex function
iff the roof equals the pinned value at every defined point. The canonical
extension is the max over vertices (y, mu) of the dual
{T_i . y + mu <= f_i} of x . y + mu. Inside the hull that is the roof: the
roof LP's dual maximises x . y + mu over the same polyhedron, which is
pointed when the hull is full-dimensional, so one LP answers. Outside the
hull it needs vertex enumeration, exponential in m (it is NP-hard in
general), hence the budget of MAX_VERTEX_SYSTEMS square systems, checked
before any is solved.

One exact elimination step, _absorb (append a row to a fraction-free
Gauss-Jordan system and pivot it by lp.pivot, the simplex's pivot), serves
both the affine dimension and vertex enumeration. Enumeration walks the
(m+1)-subsets as a depth-first search over the combination tree, so each
prefix's system is built once and shared by every subset that extends it,
and a row that depends on its prefix cuts off every subset containing
both. The rows are scaled to integers once and rationals are formed only
for the vertices that are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# The most (m+1)-subsets vertex enumeration may solve: C(n, m+1) square
# systems, counted before any is built.
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
    system = _EMPTY
    for p in pts[1:]:
        row = _integer_row([c - b for c, b in zip(p, base)])
        system = _absorb(system, row, len(base)) or system
    return len(system[1])


def _integer_row(row) -> list[int]:
    """The rational row scaled to integers by its common denominator."""
    scale = denominator_lcm(row)
    return [scaled_int(c, scale) for c in row]


# A fraction-free Gauss-Jordan system (rows, pivot columns, d) of no rows.
_EMPTY = ((), (), 1)


def _absorb(system, row: list[int], ncols: int):
    """The fraction-free Gauss-Jordan system grown by one integer row, or
    None when the row depends on the system's rows in its first ``ncols``
    columns. The input system is left untouched, so prefixes can share it.

    A system (rows, cols, d) holds in row r d * B^-1 times the input rows,
    for B the input rows' submatrix on the pivot columns and
    d = |det B| > 0: d in its pivot column cols[r], and zero in every other
    pivot column. The new row v reduces to w = d*v - sum_r v[cols[r]] *
    rows[r], which is zero in every pivot column and is v's row over the
    same denominator; w then takes one lp.pivot on its first nonzero
    column (Bareiss 1968).
    """
    rows, cols, d = system
    w = [d * a for a in row]
    for prow, c in zip(rows, cols):
        f = row[c]
        if f:
            w = [a - f * b for a, b in zip(w, prow)]
    c = next((j for j in range(ncols) if w[j]), None)
    if c is None:
        return None
    # copies: lp.pivot may update rows in place
    grown = [list(prow) for prow in rows]
    grown.append(w)
    return grown, cols + (c,), lp.pivot(grown, len(rows), c, d)


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
    max_i f_i / roof(T_i). With audit=True the box-feasibility probe must
    confirm it to 2^-40 (see _audit).
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
        _audit(ch, alpha)
    return alpha


# How far below the audited factor the optimum is certified to lie.
AUDIT_TOL = Rational(1, 2**40)


def _audit(ch: ConvexPartialFunction, alpha) -> None:
    """Check a factor against the feasibility probe alone, which re-solves
    the roof LPs of the scaled instance and never uses the closed form.
    Feasibility is monotone in the factor, so two probes bracket the
    optimum in (alpha - AUDIT_TOL, alpha]: feasible at alpha and, when
    alpha > 1, infeasible at alpha - AUDIT_TOL."""
    if not feasible_at_alpha(ch, alpha):
        raise InternalError("internal error: the closed-form factor is infeasible")
    if alpha > ONE and feasible_at_alpha(ch, alpha - AUDIT_TOL):
        raise InternalError(
            "internal error: a factor 2^-40 below the closed form is feasible"
        )


def feasible_at_alpha(ch: ConvexPartialFunction, alpha) -> bool:
    """Box-constrained convex feasibility at a given factor: a convex f
    with f_i <= f(T_i) <= alpha f_i exists iff the roof of the scaled
    instance {(T_i, alpha f_i)} stays >= f_i at every point."""
    alpha = Rational(alpha)
    scaled = ConvexPartialFunction(
        ch.m, tuple((vec, alpha * v) for vec, v in ch.points)
    )
    for vec, value in ch.points:
        roof = roof_value(scaled, vec)
        if roof is None:
            raise InternalError("internal error: a defined point left its own hull")
        if roof < value:
            return False
    return True


def _require_full_dimension(ch: ConvexPartialFunction) -> None:
    """DegenerateHull unless the hull is full-dimensional, without which
    the dual polyhedron has no vertex."""
    if affine_dimension(ch.vectors) < ch.m:
        raise DegenerateHull(
            "the defined points span less than the ambient dimension; "
            "the dual polyhedron has no vertex (project to the affine hull)"
        )


def enumerate_dual_vertices(ch: ConvexPartialFunction) -> tuple[DualVertex, ...]:
    """All vertices of Q = {(y, mu) : T_i . y + mu <= f_i}: solve every
    (m+1)-subset of constraints as equalities, keep nonsingular feasible
    solutions, deduplicate exact coordinates. Checked first, in this order:
    at most MAX_VERTEX_SYSTEMS (m+1)-subsets (TooLarge), counted before any
    system is solved, and a full-dimensional hull (DegenerateHull).

    The subsets are visited depth first over the combination tree, in
    lexicographic order: each prefix's system is built once by _absorb and
    shared by every subset that extends it, and a row that depends on its
    prefix skips every subset holding both, all of them singular. A full
    subset solves to (y, mu) = x / d with integers x and d > 0, reduced by
    their gcd, which makes (x, d) canonical; row i = a_i | b_i holds at
    x / d when a_i . x <= b_i * d. Rationals are formed only for the
    vertices that are kept."""
    m, n = ch.m, len(ch.points)
    k = m + 1
    if comb(n, k) > MAX_VERTEX_SYSTEMS:
        raise TooLarge(
            f"vertex enumeration would solve C({n}, {k}) square systems; "
            f"<= {MAX_VERTEX_SYSTEMS} only"
        )
    _require_full_dimension(ch)
    # the rows (T_i, 1 | f_i), each scaled to integers once
    rows = [_integer_row(list(vec) + [ONE, value]) for vec, value in ch.points]
    seen = set()
    kept = []

    # per depth of the combination tree: (system, rows left to try next)
    path = [(_EMPTY, iter(range(n - k + 1)))]
    while path:
        system, candidates = path[-1]
        i = next(candidates, None)
        if i is None:
            path.pop()
            continue
        child = _absorb(system, rows[i], k)
        if child is None:
            continue  # singular, with every subset holding it
        depth = len(path)
        if depth < k:
            path.append((child, iter(range(i + 1, n - k + depth + 1))))
            continue
        srows, cols, d = child
        x = [0] * k
        for srow, c in zip(srows, cols):
            x[c] = srow[k]
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


def eval_tilde(ch: ConvexPartialFunction, x) -> Rational:
    """The canonical extension at x: the max over dual vertices of
    x . y + mu. Inside the hull that is the roof value, since the roof
    LP's dual maximises x . y + mu over Q, which is pointed when the hull
    is full-dimensional (the one check made there) and so attains its
    maximum at a vertex. Only a point outside the hull enumerates, under
    the checks of enumerate_dual_vertices."""
    x = _check_dim(ch, x)
    roof = roof_value(ch, x)
    if roof is None:
        return max(v.value_at(x) for v in enumerate_dual_vertices(ch))
    _require_full_dimension(ch)
    return roof
