"""Exact rational linear programs: simplex with Bland's rule, Farkas
infeasibility witnesses, and unboundedness rays.

Every decision procedure in the package funnels through solve() or a
Session. All
arithmetic is exact and fraction-free. Each solver row is scaled to integers
by the lcm of its denominators, and the tableau holds the integers
T = D * B^-1 [A | b] over one common denominator D = |det B| > 0. A pivot
on p = T[r][c] sets T[i][j] = (p*T[i][j] - T[i][c]*T[r][j]) // D and D = p;
the division is exact (Edmonds 1967, Bareiss 1968), so the simplex takes no
gcd. That pivot, pivot(), is also the elimination step of the convex
module's square solves.
Rationals are formed only when an assignment, an optimal value, a ray or a
set of multipliers is read out.

solve() is Session(lp).result(): a Session runs the two-phase primal
simplex and keeps its final tableau, so that row generation can add a "<="
row to an optimal tableau and re-optimise it by dual simplex steps (Lemke
1954) instead of solving again from the slack basis. Every outcome, cold
or warm, is read out and certified by the same result().

Column j is variable j: x_j = lower_j + col_j when bounded below, and
x_j = col_j when free. A free column enters with either sign, and once basic
it never leaves, so its basic value may be negative. Slack and artificial
columns follow the variables, and the slack of each added row follows them.

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
columns (phase 1 for a witness, phase 2 for a dual); a witness found by a
dual simplex step is read from the row that no column can make feasible.
result() checks each exactly before returning it.
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
    return Session(lp).result()


class Session:
    """An LP solved by two-phase primal simplex and kept at its final
    tableau, so that "<=" rows can be added to it (row generation).

    Session(lp) normalises the rows and runs both phases; result() reads
    out the outcome and runs every self-check, so a session that is never
    added to answers exactly as solve() does. add() appends one row to an
    optimal tableau and restores feasibility by dual simplex steps (Lemke
    1954); point() gives the current point to steer a separation.
    """

    def __init__(self, lp: ExactLP):
        nv = len(lp.variables)
        self.lp = lp
        self.added = []  # the rows add() appended, in order
        self.lower = lower = lp.lower if lp.lower is not None else (None,) * nv
        self.free = free = {j for j, lo in enumerate(lower) if lo is None}
        ncols = nv

        # Fold each row's lower-bound shifts into its rhs, scale the row to
        # integers by the lcm of its denominators, then normalize to
        # nonnegative rhs (tracking the sign flip). A homogeneous ">=" row is
        # flipped too, so that it starts basic on its slack.
        norm = []  # (sparse [(col, int)], rel, rhs: int, flip, scale)
        for con in lp.constraints:
            cc, b, s = self._shifted(con)
            rel = con.relation
            flip = 1
            if b < 0 or (b == 0 and rel == GE):
                flip = -1
                b = -b
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
                cc = [(j, -a) for j, a in cc]
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

        # The slack and artificial of row i keep coefficients +-1, so they
        # stand for the row's scale s times the unscaled ones.
        # Each row starts basic on its artificial, or on its slack when it
        # has none (a "<=" row); that column carries +1 in the row only, so
        # row 0 shows the row's dual there. dual_read pairs it with o, which
        # turns that dual into the orientation of the unflipped row.
        colscale = [1] * ncols
        rows = [[0] * (ncols + 1)]  # row 0 = objective row, filled per phase
        basis = []
        self.dual_read = []
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
            self.dual_read.append(
                (col, flip if lp.constraints[i].relation == GE else -flip)
            )
            row[ncols] = b
            rows.append(row)

        self.tab = tab = _Tableau(rows, ncols, basis, colscale)
        self.lower_cols = [j for j, lo in enumerate(lower) if lo is not None]

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
                # the phase-1 dual bounds the artificials' sum away from 0
                # with a zero combination of the structural columns: a
                # Farkas witness
                self.status = ("infeasible", rows[0], cost1, phase1_l)
                return
            # drive artificials out of the basis where possible
            for i in range(nrows):
                if tab.basis[i] in art_set:
                    row = rows[i + 1]
                    for j in range(ncols):
                        if j not in art_set and row[j]:
                            tab.pivot(i + 1, j)
                            break
                    # an all-zero row is redundant; its basic artificial stays 0

        if lp.objective is None:
            self.status = "feasible"
            return

        # ---- phase 2: row 0 from the cost vector scaled to integers by cost_l
        coeffs, direction = lp.objective
        self.sign = sign = 1 if direction == "min" else -1
        signed = [sign * a for a in coeffs]
        self.cost_l = cost_l = denominator_lcm(signed)
        self.cost = cost = [0] * ncols
        self.const_term = ZERO
        for j, a in enumerate(signed):
            if not a:
                continue
            cost[j] = scaled_int(a, cost_l)
            if lower[j]:
                self.const_term += a * lower[j]
        tab.price(cost)

        self.eligible = [j for j in range(ncols) if j not in art_set]
        self.status = tab.bland_min(self.eligible, free)

    def _shifted(self, con):
        """The row's nonzero coefficients and its rhs less the lower-bound
        shifts, scaled to integers by the lcm s of their denominators:
        ([(col, int)], rhs, s)."""
        nz = []
        b = con.rhs
        for j, a in enumerate(con.coeffs):
            if a:
                nz.append((j, a))
                if self.lower[j]:
                    b -= a * self.lower[j]
        s = denominator_lcm([a for _j, a in nz] + [b])
        return [(j, scaled_int(a, s)) for j, a in nz], scaled_int(b, s), s

    def add(self, con: Constraint):
        """Append the "<=" row ``con`` to the optimal tableau and
        re-optimise by dual simplex steps.

        The row is scaled to integers and gets one slack column, basic in
        the new row. Reduced against the basis as d*a - sum a[basis_i]*T_i
        it keeps the tableau's invariant without a division, and row 0 does
        not change, so the tableau stays dual feasible. Each step then takes
        the row of least basic column among the bounded basic columns with
        a negative value, and enters the column of least ratio
        obj[j] / |T[r][j]| over T[r][j] < 0 (a free column, whose reduced
        cost is 0, enters on either sign), ties to the least column. When no
        column can enter, the row proves the LP infeasible.
        """
        if con.relation != LE:
            raise InternalError("internal error: Session.add takes a '<=' row")
        if self.status != "optimal":
            raise InternalError("internal error: Session.add needs an optimal tableau")
        nv = len(self.lp.variables)
        if len(con.coeffs) != nv:
            raise DimensionMismatch(f"row width {len(con.coeffs)} != variable count {nv}")
        tab = self.tab
        rows = tab.rows
        n = tab.ncols
        cc, b, s = self._shifted(con)
        for row in rows:
            row.insert(n, 0)
        tab.ncols = n + 1
        tab.colscale.append(s)
        self.cost.append(0)
        d = tab.d
        new = [0] * (n + 2)
        for j, a in cc:
            new[j] = d * a
        new[n] = d
        new[n + 1] = d * b
        coeff = dict(cc)
        for row, col in zip(rows[1:], tab.basis):
            f = coeff.get(col)
            if f:
                for j, v in enumerate(row):
                    if v:
                        new[j] -= f * v
        rows.append(new)
        tab.basis.append(n)
        self.added.append(con)
        self.dual_read.append((n, -1))  # an unflipped "<=" row
        self.eligible.append(n)
        self._dual_simplex()

    def _dual_simplex(self):
        """Dual simplex steps until every bounded basic column is
        nonnegative (status stays "optimal") or a row proves the LP
        infeasible. Under DEBUG each pivot prints like a primal one, with
        the dual step obj[j] / |T[r][j]| over the cost scale as its ratio."""
        tab = self.tab
        rows = tab.rows
        basis = tab.basis
        free = self.free
        rhs = tab.ncols
        while True:
            leave = -1
            for r in range(1, len(rows)):
                col = basis[r - 1]
                if rows[r][rhs] < 0 and col not in free and (
                    leave < 0 or col < basis[leave - 1]
                ):
                    leave = r
            if leave < 0:
                return
            obj = rows[0]
            row = rows[leave]
            enter = -1
            num = den = 0
            for j in self.eligible:
                a = row[j]
                if a < 0 or (a and j in free):
                    a = abs(a)
                    if enter < 0 or obj[j] * den < num * a:
                        enter, num, den = j, obj[j], a
            if enter < 0:
                self.status = ("infeasible", row, [0] * tab.ncols, 1)
                return
            if DEBUG:
                ratio = Rational(num, den * self.cost_l)
                print(
                    f"[lp] pivot enter={enter} leave_row={leave} ratio={ratio}",
                    file=sys.stderr,
                )
            tab.pivot(leave, enter)

    def point(self):
        """The current values of the variables as ints over one common
        denominator q: (x, q) with variable j at x[j] / q. q is the
        tableau denominator d when every lower bound is an integer."""
        if self.status != "optimal":
            raise InternalError("internal error: the session is not at an optimum")
        tab = self.tab
        ll = denominator_lcm([lo for lo in self.lower if lo])
        q = tab.d * ll
        x = [0] * len(self.lower)
        for row, col in zip(tab.rows[1:], tab.basis):
            if col < len(x):
                x[col] = row[tab.ncols] * ll
        for j, lo in enumerate(self.lower):
            if lo:
                x[j] += scaled_int(lo, q)
        return x, q

    def _read_out(self, c, f, base):
        """The variables when each basic column stands at f * T[i][c] / d,
        column c at 1 and every other column at 0: x_j is base_j plus
        column j. The basic point is c = ncols (the rhs), f = 1; the ray of
        entering column c has f = -colscale[c], since one unit of its
        unscaled variable moves basic column i by that much."""
        tab = self.tab
        d = tab.d
        vals = [0] * (tab.ncols + 1)
        vals[c] = d
        for row, col in zip(tab.rows[1:], tab.basis):
            vals[col] = f * row[c]
        out = {}
        for name, lo, v in zip(self.lp.variables, base, vals):
            v = Rational(v, d)
            out[name] = lo + v if lo else v
        return out

    def result(self):
        """The outcome of the LP with every added row, checked exactly: a
        Farkas witness by verify_farkas, a point or a ray against every
        expanded row, an optimum by its dual."""
        lp = self.lp
        if self.added:
            lp = ExactLP(lp.variables, lp.constraints + tuple(self.added), lp.objective, lp.lower)
        status = self.status
        kind = status if isinstance(status, str) else status[0]
        ncols = self.tab.ncols
        if kind == "infeasible":
            _, obj, cost, scale = status
            witness = FarkasWitness(_read_dual(self, obj, cost, scale))
            if not verify_farkas(lp, witness):
                raise InternalError("internal error: unverifiable Farkas witness")
            return Infeasible(witness)
        if kind == "feasible":
            assignment = self._read_out(ncols, 1, self.lower)
            _check_rows(lp, assignment)
            return Feasible(assignment)
        if kind == "unbounded":
            _, enter, s = status
            ray = self._read_out(enter, -self.tab.colscale[enter], (None,) * len(self.lower))
            if s < 0:  # a free column entering downwards
                ray = {name: -v for name, v in ray.items()}
            _check_rows(lp, ray, ray=True)
            return Unbounded(ray)

        assignment = self._read_out(ncols, 1, self.lower)
        irows, x, scale = _check_rows(lp, assignment)
        d = self.tab.d
        value = self.sign * (Rational(-self.tab.rows[0][ncols], self.cost_l * d) + self.const_term)
        dual = _read_dual(self, self.tab.rows[0], self.cost, self.cost_l)
        combined = _combine(lp, irows, dual)
        coeffs, direction = lp.objective
        o = 1 if direction == "max" else -1  # the dual proves o*c.x <= o*value
        certified = combined is not None and all(
            v * a.denominator == o * combined[2] * a.numerator
            for v, a in zip([*combined[0], combined[1]], [*coeffs, value])
        )
        # the point attains the value: c.x on the integers cost_l*c and scale*x
        attained = sum(scaled_int(a, self.cost_l) * v for a, v in zip(coeffs, x) if a)
        if not certified or attained * value.denominator != value.numerator * self.cost_l * scale:
            raise InternalError("internal error: the dual does not certify the optimum")
        return Optimal(assignment, value, dual)


def _read_dual(session, obj, cost, scale):
    """Multipliers per expanded row, in the Farkas order and orientation,
    read from a row ``obj`` of the session's tableau that holds
    d * scale * (cost_j - y . A_j) for every column j and some y.

    Row 0 of a final tableau is such a row for the phase's costs
    cost / scale, with y its dual; a row T_r of the tableau is one for zero
    costs, scale 1 and y = -(B^-1)_r. Each column in ``dual_read`` has
    coefficient +1 in its row only, so it gives that scaled row's y; times
    the row's scale (the column's) it is the multiplier of the unscaled
    row. The entry of a shifted column is the multiplier of its variable's
    lower-bound row.
    """
    d = session.tab.d
    colscale = session.tab.colscale
    den = d * scale
    rows = [
        Rational(o * colscale[j] * (cost[j] * d - obj[j]), den)
        for j, o in session.dual_read
    ]
    lower = [Rational(obj[j], den) for j in session.lower_cols]
    return tuple(rows + lower)


def _check_rows(lp, values, ray=False):
    """(irows, x, scale), once every expanded row holds at the point
    ``values``, compared on integers: irows from _integer_rows, and x the
    point's values times scale, the lcm of their denominators. A ray must
    improve the objective and hold every row with its rhs taken as 0 (the
    row's recession cone)."""
    vals = [values[name] for name in lp.variables]
    if ray:
        coeffs, direction = lp.objective
        gain = sum((a * v for a, v in zip(coeffs, vals) if a), ZERO)
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
    return irows, x, scale
