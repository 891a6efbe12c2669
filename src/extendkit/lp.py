"""Exact rational linear programs: simplex with Bland's rule, Farkas
infeasibility witnesses, and unboundedness rays.

Every decision procedure in the package funnels through solve(). All
arithmetic is exact and fraction-free. Each solver row is scaled to integers
by the lcm of its denominators, and the tableau holds the integers
T = D * B^-1 [A | b] over one common denominator D = |det B| > 0. A pivot
on p = T[r][c] sets T[i][j] = (p*T[i][j] - T[i][c]*T[r][j]) // D and D = p;
the division is exact (Edmonds 1967, Bareiss 1968), so the simplex takes no
gcd. That pivot, pivot(), is also the elimination step of the convex
module's square solves.
Rationals are formed only when an assignment, an optimal value, a ray or a
set of multipliers is read out.

Column j is variable j: x_j = lower_j + col_j when bounded below, and
x_j = col_j when free. A free column enters with either sign, and once basic
it never leaves, so its basic value may be negative. Slack and artificial
columns follow the variables.

Farkas convention: a witness assigns one multiplier per *expanded* row
(declared constraints, then lower-bound rows in variable order). An upper
bound is written as a declared "<=" row. Rows are oriented "<=" for the
combination: "<=" rows enter as-is, ">=" rows enter negated, "=" rows
enter as-is with a free-sign multiplier; inequality multipliers must be
nonnegative. A valid witness combines rows to 0 <= c with c < 0.

Dual convention: an Optimal carries ``dual``, multipliers in the same order,
orientation and signs, which combine the rows into the bound the optimum
meets: c . x <= value for "max", -c . x <= -value for "min". So no feasible
point beats the value, and the assignment attains it. Both multiplier sets
are read from row 0 of the final tableau, in the slack and artificial
columns (phase 1 for a witness, phase 2 for a dual), and solve() checks
each exactly before returning it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import lcm
from typing import Optional

from .errors import DimensionMismatch, InternalError
from .ground import ONE, ZERO, Rational, denominator_lcm, scaled_int

DEBUG = False

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple
    relation: str
    rhs: Rational

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise DimensionMismatch(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class ExactLP:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    objective: Optional[tuple[tuple, str]] = None  # (coeffs, "min"|"max")
    lower: Optional[tuple] = None  # per-variable lower bound or None

    def __post_init__(self):
        nv = len(self.variables)
        for c in self.constraints:
            if len(c.coeffs) != nv:
                raise DimensionMismatch(
                    f"row width {len(c.coeffs)} != variable count {nv}"
                )
        if self.objective is not None:
            coeffs, direction = self.objective
            if len(coeffs) != nv:
                raise DimensionMismatch("objective width != variable count")
            if direction not in ("min", "max"):
                raise DimensionMismatch(f"bad objective direction {direction!r}")
        if self.lower is not None and len(self.lower) != nv:
            raise DimensionMismatch("bounds width != variable count")

    def expanded_rows(self) -> list[tuple[tuple, str, Rational]]:
        """Constraints plus bound rows, in the canonical witness order."""
        nv = len(self.variables)
        rows = [(c.coeffs, c.relation, c.rhs) for c in self.constraints]
        for j, lo in enumerate(self.lower or ()):
            if lo is not None:
                unit = tuple(ONE if k == j else ZERO for k in range(nv))
                rows.append((unit, GE, lo))
        return rows


@dataclass(frozen=True)
class FarkasWitness:
    multipliers: tuple


@dataclass(frozen=True)
class Optimal:
    assignment: dict
    value: Rational
    dual: tuple  # per expanded row, see the dual convention above


@dataclass(frozen=True)
class Feasible:
    assignment: dict


@dataclass(frozen=True)
class Infeasible:
    witness: FarkasWitness


@dataclass(frozen=True)
class Unbounded:
    ray: dict


def _integer_rows(lp: ExactLP):
    """The expanded rows, each scaled to integers by the lcm of its
    denominators: (sparse [(j, a)], relation, rhs, scale). A bound row holds
    its one variable only, so no unit row is built."""
    out = []
    for c in lp.constraints:
        row = [(j, a) for j, a in enumerate(c.coeffs) if a]
        s = denominator_lcm([c.rhs] + [a for _j, a in row])
        row = [(j, scaled_int(a, s)) for j, a in row]
        out.append((row, c.relation, scaled_int(c.rhs, s), s))
    for j, b in enumerate(lp.lower or ()):
        if b is not None:
            s = b.denominator
            out.append(([(j, s)], GE, b.numerator, s))
    return out


def _combine(lp: ExactLP, irows, mults):
    """The sum of mults[k] times expanded row k (``irows`` from
    _integer_rows), each row oriented "<=", on integers: (coefficients,
    rhs, q) for q > 0 times the sum, or None when an inequality multiplier
    is negative."""
    if len(mults) != len(irows):
        raise DimensionMismatch(f"{len(mults)} multipliers for {len(irows)} expanded rows")
    terms = []  # (row, rhs, signed multiplier numerator, denominator)
    q = 1
    for (row, rel, b, s), lam in zip(irows, mults):
        num, den = lam.numerator, lam.denominator
        if num < 0 and rel != EQ:
            return None
        if num:
            terms.append((row, b, -num if rel == GE else num, s * den))
            q = lcm(q, s * den)
    combo = [0] * len(lp.variables)
    rhs = 0
    for row, b, num, den in terms:
        f = num * (q // den)
        for j, a in row:
            combo[j] += f * a
        rhs += f * b
    return combo, rhs, q


def verify_farkas(lp: ExactLP, witness: FarkasWitness) -> bool:
    """Exact check that the multipliers combine the rows into 0 <= c, c < 0.

    Independent of solve(): recomputes the combination from scratch.
    """
    combined = _combine(lp, _integer_rows(lp), witness.multipliers)
    if combined is None:
        return False
    combo, rhs, _q = combined
    return not any(combo) and rhs < 0


# ---------------------------------------------------------------------------
# simplex internals


def pivot(rows, r, c, d):
    """The fraction-free pivot on p = rows[r][c] of integer rows over the
    common denominator d > 0, in place; returns the new denominator |p|.

    Every other row becomes T[i][j] = (p*T[i][j] - T[i][c]*T[r][j]) // d,
    an exact division (Bareiss 1968). When p < 0 the pivot row is negated
    first, which negates the whole result and keeps the denominator
    positive. When p == d, rows are updated in place (callers that share a
    row between systems pass copies).
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        # negating the whole tableau keeps d > 0; folding the sign into
        # the pivot row gives every other row the negated update for free
        p = -p
        prow = rows[r] = [-v for v in prow]
    if p == d:
        # T[i][j] - T[i][c] * T[r][j] / d: only the pivot row's nonzero
        # columns change, and rows with T[i][c] == 0 not at all
        nz = [(j, b) for j, b in enumerate(prow) if b]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for j, b in nz:
                    row[j] -= f * b // d
    else:
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            else:
                rows[i] = [p * a // d if a else 0 for a in row]
    return p


class _Tableau:
    """Dense integer tableau over the common denominator ``d``.

    Row 0 holds d * L * (reduced costs | -objective) for the phase's integer
    cost vector scaled by L; rows 1.. hold d * B^-1 [A | b]. ``colscale[j]``
    is the factor by which column j's variable is scaled against the
    unscaled LP (a row's scale for its slack and artificial, else 1).
    """

    def __init__(self, rows, ncols, basis, colscale):
        self.rows = rows  # list of int lists, each length ncols+1
        self.ncols = ncols
        self.basis = basis  # basic column per row
        self.colscale = colscale
        self.d = 1

    def pivot(self, r, c):
        self.d = pivot(self.rows, r, c, self.d)
        self.basis[r - 1] = c

    def price(self, cost):
        """Row 0 for a phase's integer costs: d * cost minus each basic
        column's cost times its row (-cost_B . rhs in the rhs column)."""
        obj = [self.d * a for a in cost] + [0]
        for row, col in zip(self.rows[1:], self.basis):
            cb = cost[col]
            if cb:
                for j, v in enumerate(row):
                    if v:
                        obj[j] -= cb * v
        self.rows[0] = obj

    def bland_min(self, eligible, free):
        """One phase of Bland's-rule simplex on a min objective in row 0.
        A column in ``free`` has no lower bound: it enters in the direction
        s = +-1 that lowers the objective, and its row never leaves.

        Returns "optimal" or ("unbounded", entering_col, s).
        """
        rows = self.rows
        basis = self.basis
        rhs = self.ncols
        while True:
            obj = rows[0]
            for enter in eligible:
                if obj[enter] < 0 or (obj[enter] and enter in free):
                    break
            else:
                return "optimal"
            s = 1 if obj[enter] < 0 else -1
            # ratio test: the least rhs/a over a = s*T[r][enter] > 0 in the
            # rows of bounded basic columns, compared as t*den vs num*a,
            # ties to the smaller basic column
            leave = -1
            num = den = 0
            for r in range(1, len(rows)):
                a = s * rows[r][enter]
                if a > 0 and basis[r - 1] not in free:
                    t = rows[r][rhs]
                    if leave < 0 or t * den < num * a or (
                        t * den == num * a and basis[r - 1] < basis[leave - 1]
                    ):
                        num, den, leave = t, a, r
            if leave < 0:
                return ("unbounded", enter, s)
            if DEBUG:
                ratio = Rational(num, den * self.colscale[enter])
                print(
                    f"[lp] pivot enter={enter} leave_row={leave} ratio={ratio}",
                    file=sys.stderr,
                )
            self.pivot(leave, enter)


def solve(lp: ExactLP):
    """Exact outcome for the LP: Optimal, Feasible, Infeasible (with a
    verifiable Farkas witness), or Unbounded (with an improving ray).

    Two-phase primal simplex with Bland's anti-cycling rule throughout, so
    identical inputs take identical pivots.
    """
    nv = len(lp.variables)
    lower = lp.lower if lp.lower is not None else (None,) * nv
    free = {j for j, lo in enumerate(lower) if lo is None}
    ncols = nv

    # Fold each row's lower-bound shifts into its rhs, scale the row to
    # integers by the lcm of its denominators, then normalize to nonnegative
    # rhs (tracking the sign flip). A homogeneous ">=" row is flipped too,
    # so that it starts basic on its slack.
    norm = []  # (sparse [(col, int)], rel, rhs: int, flip, scale)
    for con in lp.constraints:
        rel = con.relation
        nz = []
        b = con.rhs
        for j, a in enumerate(con.coeffs):
            if not a:
                continue
            nz.append((j, a))
            if lower[j]:
                b -= a * lower[j]
        s = denominator_lcm([a for _j, a in nz] + [b])
        flip = 1
        b = scaled_int(b, s)
        if b < 0 or (b == 0 and rel == GE):
            flip = -1
            b = -b
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        cc = [(j, flip * scaled_int(a, s)) for j, a in nz]
        norm.append((cc, rel, b, flip, s))

    nrows = len(norm)
    # slack/surplus columns, then artificial columns
    slack_col = [None] * nrows
    art_col = [None] * nrows
    for cols, rels in ((slack_col, (LE, GE)), (art_col, (EQ, GE))):
        for i, (cc, rel, b, flip, s) in enumerate(norm):
            if rel in rels:
                cols[i] = ncols
                ncols += 1
    art_set = {a for a in art_col if a is not None}

    # The slack and artificial of row i keep coefficients +-1, so they stand
    # for the row's scale s times the unscaled ones.
    # Each row starts basic on its artificial, or on its slack when it has
    # none (a "<=" row); that column carries +1 in the row only, so row 0
    # shows the row's dual there. dual_read pairs it with o, which turns
    # that dual into the orientation of the unflipped row.
    colscale = [1] * ncols
    rows = [[0] * (ncols + 1)]  # row 0 = objective row, filled per phase
    basis = []
    dual_read = []
    for i, (cc, rel, b, flip, s) in enumerate(norm):
        row = [0] * (ncols + 1)
        for col, a in cc:
            row[col] = a
        if slack_col[i] is not None:
            row[slack_col[i]] = 1 if rel == LE else -1
            colscale[slack_col[i]] = s
        col = slack_col[i] if art_col[i] is None else art_col[i]
        row[col] = 1
        colscale[col] = s
        basis.append(col)
        dual_read.append((col, flip if lp.constraints[i].relation == GE else -flip))
        row[ncols] = b
        rows.append(row)

    tab = _Tableau(rows, ncols, basis, colscale)
    lower_cols = [j for j, lo in enumerate(lower) if lo is not None]

    # ---- phase 1: minimize phase1_l times the sum of the unscaled
    # artificials, so that the artificial of a row with scale s costs
    # phase1_l // s and Bland's rule pivots as on the unscaled tableau
    if art_set:
        phase1_l = lcm(*(colscale[a] for a in art_set))
        cost1 = [phase1_l // colscale[j] if j in art_set else 0 for j in range(ncols)]
        tab.price(cost1)
        status = tab.bland_min(range(ncols), free)
        if status != "optimal":
            raise InternalError("internal error: phase 1 cannot be unbounded")
        if rows[0][ncols] < 0:  # a positive sum of artificials remains
            # the phase-1 dual bounds the artificials' sum away from 0 with
            # a zero combination of the structural columns: a Farkas witness
            witness = FarkasWitness(
                _read_dual(tab, cost1, phase1_l, dual_read, lower_cols)
            )
            if not verify_farkas(lp, witness):
                raise InternalError("internal error: unverifiable Farkas witness")
            return Infeasible(witness)
        # drive artificials out of the basis where possible
        for i in range(nrows):
            if tab.basis[i] in art_set:
                row = rows[i + 1]
                for j in range(ncols):
                    if j not in art_set and row[j]:
                        tab.pivot(i + 1, j)
                        break
                # an all-zero row is redundant; its basic artificial stays 0

    def read_out(c, f, base):
        """The variables when each basic column stands at f * T[i][c] / d,
        column c at 1 and every other column at 0: x_j is base_j plus
        column j. The basic point is c = ncols (the rhs), f = 1; the ray of
        entering column c has f = -colscale[c], since one unit of its
        unscaled variable moves basic column i by that much."""
        d = tab.d
        vals = [0] * (ncols + 1)
        vals[c] = d
        for row, col in zip(rows[1:], tab.basis):
            vals[col] = f * row[c]
        out = {}
        for name, lo, v in zip(lp.variables, base, vals):
            v = Rational(v, d)
            out[name] = lo + v if lo else v
        return out

    if lp.objective is None:
        assignment = read_out(ncols, 1, lower)
        _check_rows(lp, assignment)
        return Feasible(assignment)

    # ---- phase 2: row 0 from the cost vector scaled to integers by cost_l
    coeffs, direction = lp.objective
    sign = ONE if direction == "min" else -ONE
    signed = [sign * a for a in coeffs]
    cost_l = denominator_lcm(signed)
    cost = [0] * ncols
    const_term = ZERO
    for j, a in enumerate(signed):
        if not a:
            continue
        cost[j] = scaled_int(a, cost_l)
        if lower[j]:
            const_term += a * lower[j]
    tab.price(cost)

    eligible = [j for j in range(ncols) if j not in art_set]
    status = tab.bland_min(eligible, free)
    if status != "optimal":
        _, enter, s = status
        ray = read_out(enter, -tab.colscale[enter], (None,) * nv)
        if s < 0:  # a free column entering downwards
            ray = {name: -v for name, v in ray.items()}
        _check_rows(lp, ray, ray=True)
        return Unbounded(ray)

    assignment = read_out(ncols, 1, lower)
    irows = _check_rows(lp, assignment)
    value = sign * (Rational(-rows[0][ncols], cost_l * tab.d) + const_term)
    dual = _read_dual(tab, cost, cost_l, dual_read, lower_cols)
    combined = _combine(lp, irows, dual)
    o = 1 if direction == "max" else -1  # the dual proves o*c.x <= o*value
    certified = combined is not None and all(
        v * a.denominator == o * combined[2] * a.numerator
        for v, a in zip([*combined[0], combined[1]], [*coeffs, value])
    )
    if not certified or _dot(coeffs, [assignment[name] for name in lp.variables]) != value:
        raise InternalError("internal error: the dual does not certify the optimum")
    return Optimal(assignment, value, dual)


def _read_dual(tab, cost, scale, dual_read, lower_cols):
    """Multipliers per expanded row, in the Farkas order and orientation,
    read from row 0 of a final tableau whose phase costs are cost / scale.

    Row 0 holds d * scale * (cost_j - y . A_j) for every column j. Each
    column in ``dual_read`` has coefficient +1 in its row only, so it gives
    that scaled row's dual; times the row's scale (the column's) it is the
    dual of the unscaled row. The reduced cost of a shifted column is the
    multiplier of its variable's lower-bound row.
    """
    obj = tab.rows[0]
    d = tab.d
    den = d * scale
    rows = [
        Rational(o * tab.colscale[j] * (cost[j] * d - obj[j]), den)
        for j, o in dual_read
    ]
    lower = [Rational(obj[j], den) for j in lower_cols]
    return tuple(rows + lower)


def _dot(coeffs, vals):
    return sum((a * v for a, v in zip(coeffs, vals) if a), ZERO)


def _check_rows(lp, values, ray=False):
    """The expanded rows from _integer_rows, once every one holds at the
    point ``values``, compared on integers. A ray must improve the
    objective and hold every row with its rhs taken as 0 (the row's
    recession cone)."""
    vals = [values[name] for name in lp.variables]
    if ray:
        coeffs, direction = lp.objective
        gain = _dot(coeffs, vals)
        if not ((gain < 0) if direction == "min" else (gain > 0)):
            raise InternalError("internal error: ray does not improve the objective")
    irows = _integer_rows(lp)
    scale = denominator_lcm(vals)
    x = [scaled_int(v, scale) for v in vals]
    rhs_scale = 0 if ray else scale
    for row, rel, b, _s in irows:
        lhs = sum(a * x[j] for j, a in row)
        rhs = b * rhs_scale
        if not (lhs <= rhs if rel == LE else lhs >= rhs if rel == GE else lhs == rhs):
            raise InternalError(
                "internal error: ray leaves the feasible region" if ray
                else "internal error: simplex returned an infeasible point"
            )
    return irows
