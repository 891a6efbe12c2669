"""The exact simplex: outcomes, witnesses, rays, determinism."""

import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from extendkit import lp
from extendkit.errors import DimensionMismatch, InternalError
from extendkit.ground import Rational as Q


def make(names, rows, objective=None, lower=None, upper=None):
    """An ExactLP; each upper bound becomes an explicit "<=" row after
    ``rows``."""
    rows = list(rows)
    for j, hi in enumerate(upper or ()):
        if hi is not None:
            rows.append((tuple(int(k == j) for k in range(len(names))), "<=", hi))
    cons = tuple(lp.Constraint(tuple(Q(c) for c in co), rel, Q(b)) for co, rel, b in rows)
    if objective is not None:
        objective = (tuple(Q(c) for c in objective[0]), objective[1])
    return lp.ExactLP(tuple(names), cons, objective, lower)


def test_optimal_single_constraint():
    out = lp.solve(make(["x"], [((1,), "<=", 3)], ((1,), "max")))
    assert isinstance(out, lp.Optimal)
    assert out.value == 3 and out.assignment["x"] == 3


def test_infeasible_contradiction_pair():
    prob = make(["x"], [((1,), ">=", 1), ((1,), "<=", 0)])
    out = lp.solve(prob)
    assert isinstance(out, lp.Infeasible)
    assert lp.verify_farkas(prob, out.witness)
    assert lp.verify_farkas(prob, lp.FarkasWitness((Q(1), Q(1))))
    assert not lp.verify_farkas(prob, lp.FarkasWitness((Q(1), Q(0))))


def test_unbounded_ray():
    out = lp.solve(make(["x"], [((1,), ">=", 0)], ((1,), "max")))
    assert isinstance(out, lp.Unbounded)
    assert out.ray["x"] > 0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        make(["x", "y"], [((1,), "<=", 3)])
    prob = make(["x"], [((1,), "<=", 3)])
    with pytest.raises(DimensionMismatch):
        lp.verify_farkas(prob, lp.FarkasWitness((Q(1), Q(1))))


def test_equality_and_bounds():
    # min x+y s.t. x+y = 2, x in [0,5], y free
    prob = make(
        ["x", "y"],
        [((1, 1), "=", 2)],
        ((1, 1), "min"),
        lower=(Q(0), None),
        upper=(Q(5), None),
    )
    out = lp.solve(prob)
    assert isinstance(out, lp.Optimal) and out.value == 2


def test_bound_rows_participate_in_witness():
    # x >= 0 (bound) conflicts with x <= -1 (constraint)
    prob = make(["x"], [((1,), "<=", -1)], lower=(Q(0),))
    out = lp.solve(prob)
    assert isinstance(out, lp.Infeasible)
    assert len(out.witness.multipliers) == 2  # constraint + lower-bound row
    assert lp.verify_farkas(prob, out.witness)


def test_degenerate_negative_rhs_equalities():
    prob = make(["x", "y"], [((-1, -1), "=", -2), ((1, -1), "=", 0)], ((1, 0), "min"))
    out = lp.solve(prob)
    assert isinstance(out, lp.Optimal)
    assert out.assignment["x"] == 1 and out.assignment["y"] == 1


def _random_lp(rng):
    nv = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        rows.append(
            (
                tuple(rng.randint(-3, 3) for _ in range(nv)),
                rng.choice(["<=", "=", ">="]),
                rng.randint(-4, 4),
            )
        )
    obj = (
        (tuple(rng.randint(-2, 2) for _ in range(nv)), rng.choice(["min", "max"]))
        if rng.random() < 0.7
        else None
    )
    lower = tuple(rng.choice([None, Q(0), Q(-1)]) for _ in range(nv))
    upper = tuple(rng.choice([None, Q(5)]) for _ in range(nv))
    return make([f"x{i}" for i in range(nv)], rows, obj, lower, upper)


def test_random_sweep_witnesses_and_optimality():
    """1000 random systems: every Infeasible verdict carries a verifying
    witness, every Optimal value is unimprovable, reruns are identical."""
    rng = random.Random(31337)
    n_inf = 0
    for _ in range(1000):
        prob = _random_lp(rng)
        out = lp.solve(prob)
        again = lp.solve(prob)
        assert type(out) is type(again)
        if isinstance(out, lp.Infeasible):
            n_inf += 1
            assert lp.verify_farkas(prob, out.witness)
            assert out.witness == again.witness
        elif isinstance(out, lp.Optimal):
            assert out.value == again.value
            coeffs, d = prob.objective
            rel = ">=" if d == "max" else "<="
            eps = Q(1, 10**6)
            push = out.value + (eps if d == "max" else -eps)
            harder = lp.ExactLP(
                prob.variables,
                prob.constraints + (lp.Constraint(coeffs, rel, push),),
                prob.objective,
                prob.lower,
            )
            assert isinstance(lp.solve(harder), lp.Infeasible)
    assert n_inf >= 100  # the sweep genuinely exercises the witness path


def _split_free(prob):
    """The same LP with each free variable x written as x_p - x_n over two
    variables with lower bound 0: the split-column formulation."""
    names, lower, cols = [], [], []
    for name, lo in zip(prob.variables, prob.lower or (None,) * len(prob.variables)):
        if lo is None:
            names += [name + "+", name + "-"]
            lower += [Q(0), Q(0)]
            cols.append((1, -1))
        else:
            names.append(name)
            lower.append(lo)
            cols.append((1,))

    def widen(coeffs):
        return tuple(sg * a for a, signs in zip(coeffs, cols) for sg in signs)

    cons = tuple(lp.Constraint(widen(c.coeffs), c.relation, c.rhs) for c in prob.constraints)
    objective = None
    if prob.objective is not None:
        objective = (widen(prob.objective[0]), prob.objective[1])
    return lp.ExactLP(tuple(names), cons, objective, tuple(lower))


def test_random_sweep_matches_split_free_variables():
    """On the 1000 systems of the sweep above, solving with each free
    variable split into two nonnegative ones gives the same outcome type
    and the same optimal value."""
    rng = random.Random(31337)
    n_free = 0
    for _ in range(1000):
        prob = _random_lp(rng)
        split = _split_free(prob)
        n_free += len(split.variables) > len(prob.variables)
        out, ref = lp.solve(prob), lp.solve(split)
        assert type(out) is type(ref)
        if isinstance(out, lp.Optimal):
            assert out.value == ref.value
    assert n_free >= 500


def test_free_variable_bounded_below_by_a_row():
    out = lp.solve(make(["x"], [((1,), ">=", -3)], ((1,), "min")))
    assert isinstance(out, lp.Optimal)
    assert out.value == -3 and out.assignment["x"] == -3


def test_free_variable_unbounded_downwards():
    prob = make(["x"], [((1,), "<=", 5)], ((1,), "min"))
    out = lp.solve(prob)
    assert isinstance(out, lp.Unbounded)
    assert out.ray["x"] < 0


def test_free_variables_contradictory_equalities():
    prob = make(["x", "y"], [((1, 1), "=", 1), ((1, 1), "=", 2)])
    out = lp.solve(prob)
    assert isinstance(out, lp.Infeasible)
    assert lp.verify_farkas(prob, out.witness)


def test_fractional_coefficients():
    # min 3x + 2y s.t. x/2 + y/3 >= 1, x,y >= 0
    prob = make(
        ["x", "y"],
        [((Q(1, 2), Q(1, 3)), ">=", 1)],
        ((3, 2), "min"),
        lower=(Q(0), Q(0)),
    )
    out = lp.solve(prob)
    assert isinstance(out, lp.Optimal)
    assert out.value == 6  # x=2 or y=3 both cost 6


def _gauss_jordan(B, A):
    """B^-1 A in Fractions, for a nonsingular square B."""
    k = len(B)
    aug = [[Q(x) for x in brow + arow] for brow, arow in zip(B, A)]
    for c in range(k):
        r = next(r for r in range(c, k) if aug[r][c])
        aug[c], aug[r] = aug[r], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(k):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[k:] for row in aug]


def test_reduce_row_matches_rational_elimination():
    """reduce_row against a system built by lp.pivot is d*(v - v_B B^-1 A),
    computed in Fractions apart, and zero in every pivot column."""
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        k = rng.randint(1, 4)
        n = rng.randint(k, 6)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rows = [list(row) for row in A]
        cols, d = [], 1
        for r in range(k):
            c = next((j for j in range(n) if j not in cols and rows[r][j]), None)
            if c is None:
                break  # A has dependent rows
            d = lp.pivot(rows, r, c, d)
            cols.append(c)
        else:
            v = [rng.randint(-5, 5) for _ in range(n)]
            w = lp.reduce_row(rows, cols, d, v)
            inv = _gauss_jordan([[row[c] for c in cols] for row in A], A)
            expect = [
                d * (v[j] - sum(v[c] * inv[r][j] for r, c in enumerate(cols)))
                for j in range(n)
            ]
            assert w == expect
            assert all(w[c] == 0 for c in cols)
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# property: the integer tableau against an independent brute force

small_q = st.builds(
    Q, st.integers(min_value=-3, max_value=3), st.sampled_from([1, 2, 3, 4, 6])
)


@st.composite
def small_lps(draw):
    """At most 3 variables, mixed denominators, homogeneous ">=" rows, "="
    rows with a redundant copy, lower and upper bounds, free variables."""
    nv = draw(st.integers(min_value=1, max_value=3))
    coeffs = st.tuples(*[small_q] * nv)
    rows = draw(
        st.lists(
            st.tuples(coeffs, st.sampled_from(["<=", "=", ">="]), small_q),
            max_size=4,
        )
    )
    rows += [(co, ">=", Q(0)) for co in draw(st.lists(coeffs, max_size=2))]
    if draw(st.booleans()):
        co, b = draw(coeffs), draw(small_q)
        k = draw(st.sampled_from([Q(1), Q(-2), Q(1, 3)]))
        rows += [(co, "=", b), (tuple(k * a for a in co), "=", k * b)]
    rows = draw(st.permutations(rows))
    lower = tuple(draw(st.sampled_from([None, Q(0), Q(-1), Q(1, 2)])) for _ in range(nv))
    upper = tuple(draw(st.sampled_from([None, None, Q(2), Q(7, 3)])) for _ in range(nv))
    objective = None
    if draw(st.integers(0, 4)):
        objective = (draw(coeffs), draw(st.sampled_from(["min", "max"])))
    return make([f"x{i}" for i in range(nv)], rows, objective, lower, upper)


def _solve_square(mat, rhs):
    """Gauss-Jordan on a square Fraction system; None when singular."""
    n = len(mat)
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _satisfies(rows, x):
    for co, rel, b in rows:
        s = sum((a * v for a, v in zip(co, x)), Q(0))
        if not (s <= b if rel == "<=" else s >= b if rel == ">=" else s == b):
            return False
    return True


def _brute_force_points(prob):
    """Every feasible solution of a square subsystem drawn from the rows
    (made tight) and the coordinate hyperplanes x_j = 0. Each minimal face
    of the feasible region is an affine space that contains such a point,
    so a bounded objective attains its optimum among them."""
    nv = len(prob.variables)
    rows = prob.expanded_rows()
    units = [(tuple(Q(int(k == j)) for k in range(nv)), Q(0)) for j in range(nv)]
    candidates = [(co, b) for co, _rel, b in rows] + units
    points = []
    for sub in combinations(candidates, nv):
        x = _solve_square([co for co, _ in sub], [b for _, b in sub])
        if x is not None and _satisfies(rows, x):
            points.append(x)
    return points


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_integer_tableau_matches_brute_force(prob):
    out = lp.solve(prob)
    points = _brute_force_points(prob)
    if isinstance(out, lp.Infeasible):
        assert lp.verify_farkas(prob, out.witness)
        assert not points
        return
    assert points
    if isinstance(out, lp.Feasible):
        assert _satisfies(prob.expanded_rows(), [out.assignment[v] for v in prob.variables])
        return
    coeffs, direction = prob.objective
    if isinstance(out, lp.Unbounded):
        ray = [out.ray[v] for v in prob.variables]
        gain = sum((a * v for a, v in zip(coeffs, ray)), Q(0))
        assert gain < 0 if direction == "min" else gain > 0
        homogeneous = [(co, rel, Q(0)) for co, rel, _b in prob.expanded_rows()]
        assert _satisfies(homogeneous, ray)
        return
    assert isinstance(out, lp.Optimal)
    x = [out.assignment[v] for v in prob.variables]
    assert _satisfies(prob.expanded_rows(), x)
    assert out.value == sum((a * v for a, v in zip(coeffs, x)), Q(0))
    values = [sum((a * v for a, v in zip(coeffs, p)), Q(0)) for p in points]
    assert out.value == (min(values) if direction == "min" else max(values))
    _check_dual(prob, out)


def _check_dual(prob, out):
    """The dual multipliers, nonnegative on inequality rows, combine the
    expanded rows, each oriented "<=", into c.x <= value for a max and
    -c.x <= -value for a min."""
    rows = prob.expanded_rows()
    assert len(out.dual) == len(rows)
    coeffs, direction = prob.objective
    sign = 1 if direction == "max" else -1
    combo = [Q(0)] * len(prob.variables)
    rhs = Q(0)
    for (co, rel, b), y in zip(rows, out.dual):
        assert rel == "=" or y >= 0
        if rel == ">=":
            co, b = [-a for a in co], -b
        combo = [c + y * a for c, a in zip(combo, co)]
        rhs += y * b
    assert combo == [sign * a for a in coeffs]
    assert rhs == sign * out.value


def test_corrupted_dual_readout_raises(monkeypatch):
    """solve() checks every optimal dual it reads out before returning it,
    and a session checks the dual of a tableau re-optimised after add()."""
    read = lp._read_dual

    def corrupt(*args):
        dual = read(*args)
        return (dual[0] + 1,) + dual[1:]

    prob = make(["x", "y"], [([1, 1], "<=", 4), ([1, 0], ">=", 1)], ([1, 2], "max"),
                lower=(Q(0), Q(0)))
    assert isinstance(lp.solve(prob), lp.Optimal)
    session = lp.Session(prob)
    session.add(lp.Constraint((Q(0), Q(1)), "<=", Q(1)))
    assert session.result().value == 5
    monkeypatch.setattr(lp, "_read_dual", corrupt)
    with pytest.raises(InternalError, match="dual does not certify"):
        lp.solve(prob)
    with pytest.raises(InternalError, match="dual does not certify"):
        session.result()


def test_self_checks_raise_under_python_O():
    """The Farkas self-check is a raise, so python -O keeps it."""
    code = (
        "from fractions import Fraction as Q\n"
        "from extendkit import lp\n"
        "from extendkit.errors import InternalError\n"
        "lp.verify_farkas = lambda prob, witness: False\n"
        "prob = lp.ExactLP(('x',), (lp.Constraint((Q(1),), '>=', Q(1)),"
        " lp.Constraint((Q(1),), '<=', Q(0))))\n"
        "try:\n"
        "    lp.solve(prob)\n"
        "except InternalError as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "internal error: unverifiable Farkas witness"


def _tighten_first_row(monkeypatch):
    """Make solve() check its answers against expanded rows whose first
    row's rhs is one less than the LP's, as a wrong read-out would."""
    rows_of = lp._integer_rows

    def tightened(prob):
        (row, rel, b, s), *rest = rows_of(prob)
        return [(row, rel, b - 1, s), *rest]

    monkeypatch.setattr(lp, "_integer_rows", tightened)


def _claim_unbounded(monkeypatch):
    """Make phase 2 stop at once and call the first column unbounded, as a
    wrong ratio test would. The LPs below have no artificial column, so
    phase 2 is the only phase."""
    monkeypatch.setattr(lp.Session, "_primal", lambda session, eligible: ("unbounded", 0, 1))


def test_infeasible_point_raises(monkeypatch):
    """solve() checks an optimal point against every expanded row."""
    from extendkit.errors import InternalError

    prob = make(["x"], [((1,), "<=", 3)], ((1,), "max"), lower=(Q(0),))
    assert lp.solve(prob).assignment == {"x": 3}
    _tighten_first_row(monkeypatch)
    with pytest.raises(InternalError, match="simplex returned an infeasible point"):
        lp.solve(prob)


def test_ray_leaving_the_region_raises(monkeypatch):
    """x = 3 bounds max x; the ray x + t is claimed and refused."""
    from extendkit.errors import InternalError

    prob = make(["x"], [((1,), "<=", 3)], ((1,), "max"), lower=(Q(0),))
    _claim_unbounded(monkeypatch)
    with pytest.raises(InternalError, match="ray leaves the feasible region"):
        lp.solve(prob)


def test_ray_not_improving_raises(monkeypatch):
    """The ray x + t stays feasible but raises min x; it is refused."""
    from extendkit.errors import InternalError

    prob = make(["x", "y"], [((0, 1), "<=", 1)], ((1, 0), "min"), lower=(Q(0), Q(0)))
    assert lp.solve(prob).value == 0
    _claim_unbounded(monkeypatch)
    with pytest.raises(InternalError, match="ray does not improve the objective"):
        lp.solve(prob)


def test_point_check_raises_under_python_O():
    """The row check is a raise, so python -O keeps it."""
    code = (
        "from fractions import Fraction as Q\n"
        "from extendkit import lp\n"
        "from extendkit.errors import InternalError\n"
        "rows_of = lp._integer_rows\n"
        "def tightened(prob):\n"
        "    (row, rel, b, s), *rest = rows_of(prob)\n"
        "    return [(row, rel, b - 1, s), *rest]\n"
        "lp._integer_rows = tightened\n"
        "prob = lp.ExactLP(('x',), (lp.Constraint((Q(1),), '=', Q(2)),))\n"
        "try:\n"
        "    lp.solve(prob)\n"
        "except InternalError as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "internal error: simplex returned an infeasible point"


# ---------------------------------------------------------------------------
# lp.Session: rows added to an optimal tableau, against a cold solve

frac_q = [Q(n, d) for n in range(-4, 5) for d in (1, 2, 3)]


def _random_base(rng):
    """An LP with an objective over free variables, zero and nonzero lower
    bounds, fractional coefficients and "<=", "=" and ">=" rows."""
    nv = rng.randint(1, 4)
    rows = [
        (tuple(rng.choice(frac_q) for _ in range(nv)), rng.choice(["<=", "=", ">="]),
         rng.choice(frac_q))
        for _ in range(rng.randint(1, 4))
    ]
    lower = tuple(rng.choice([None, Q(0), Q(-1), Q(1, 2)]) for _ in range(nv))
    upper = tuple(rng.choice([None, Q(3), Q(7, 2)]) for _ in range(nv))
    objective = (tuple(rng.choice(frac_q) for _ in range(nv)), rng.choice(["min", "max"]))
    return make([f"x{i}" for i in range(nv)], rows, objective, lower, upper)


def _with_rows(prob, rows):
    return lp.ExactLP(prob.variables, prob.constraints + tuple(rows), prob.objective, prob.lower)


def test_session_agrees_with_cold_solve_row_by_row():
    """Rows added one at a time to a session: after each, result() has the
    outcome kind and value of a cold solve of the same rows, every Optimal
    dual certifies the value, point() is the assignment, and an Infeasible
    witness verifies."""
    rng = random.Random(2718)
    seen = {"moved": 0, "infeasible": 0, "free": 0, "fractional_lower": 0}
    for _ in range(600):
        prob = _random_base(rng)
        session = lp.Session(prob)
        if not isinstance(session.result(), lp.Optimal):
            continue
        seen["free"] += None in prob.lower
        seen["fractional_lower"] += Q(1, 2) in prob.lower
        nv = len(prob.variables)
        added = []
        for _ in range(rng.randint(1, 5)):
            before = session.result().assignment
            con = lp.Constraint(
                tuple(rng.choice(frac_q) for _ in range(nv)), "<=", rng.choice(frac_q)
            )
            session.add(con)
            added.append(con)
            full = _with_rows(prob, added)
            warm, cold = session.result(), lp.solve(full)
            assert type(warm) is type(cold)
            if isinstance(warm, lp.Infeasible):
                seen["infeasible"] += 1
                assert lp.verify_farkas(full, warm.witness)
                with pytest.raises(InternalError):
                    session.add(con)
                break
            assert isinstance(warm, lp.Optimal)
            assert warm.value == cold.value
            _check_dual(full, warm)
            x = [warm.assignment[v] for v in full.variables]
            assert _satisfies(full.expanded_rows(), x)
            ints, q = session.point()
            assert [Q(v, q) for v in ints] == x
            seen["moved"] += warm.assignment != before
    assert min(seen.values()) >= 40, seen


def test_session_free_column_enters_with_a_positive_coefficient():
    """max y over y <= 1 with x free; the added row y + x <= 0 is met by
    x = -1 at the same optimum. The free column enters on a positive entry
    of the infeasible row, where a bounded one would need a negative one."""
    prob = make(["x", "y"], [((0, 1), "<=", 1)], ((0, 1), "max"), lower=(None, Q(0)))
    session = lp.Session(prob)
    session.add(lp.Constraint((Q(1), Q(1)), "<=", Q(0)))
    out = session.result()
    assert isinstance(out, lp.Optimal)
    assert out.value == 1 and out.assignment == {"x": -1, "y": 1}


def test_session_row_that_empties_the_region():
    prob = make(["x", "y"], [((1, 1), "<=", 4)], ((1, 1), "max"), lower=(Q(0), Q(0)))
    session = lp.Session(prob)
    session.add(lp.Constraint((Q(1), Q(0)), "<=", Q(1)))
    assert session.result().value == 4
    bad = lp.Constraint((Q(-1), Q(-1)), "<=", Q(-5))
    session.add(bad)
    out = session.result()
    assert isinstance(out, lp.Infeasible)
    full = _with_rows(prob, [lp.Constraint((Q(1), Q(0)), "<=", Q(1)), bad])
    assert len(out.witness.multipliers) == 5  # three rows, two lower bounds
    assert lp.verify_farkas(full, out.witness)
    assert isinstance(lp.solve(full), lp.Infeasible)


def test_session_add_refuses_other_rows_and_non_optima():
    row = lp.Constraint((Q(1),), "<=", Q(2))
    session = lp.Session(make(["x"], [((1,), "<=", 3)], ((1,), "max"), lower=(Q(0),)))
    for rel in (">=", "="):
        with pytest.raises(InternalError, match="'<=' row"):
            session.add(lp.Constraint((Q(1),), rel, Q(1)))
    with pytest.raises(DimensionMismatch):
        session.add(lp.Constraint((Q(1), Q(1)), "<=", Q(1)))
    session.add(row)
    assert session.result().value == 2
    for prob in (
        make(["x"], [((1,), ">=", 1), ((1,), "<=", 0)], ((1,), "max")),  # infeasible
        make(["x"], [((1,), ">=", 0)], ((1,), "max")),  # unbounded
        make(["x"], [((1,), "<=", 3)]),  # no objective
    ):
        session = lp.Session(prob)
        with pytest.raises(InternalError, match="optimal tableau"):
            session.add(row)
        with pytest.raises(InternalError, match="not at an optimum"):
            session.point()


def test_dual_simplex_pivots_print_under_debug(monkeypatch, capsys):
    prob = make(["x", "y"], [([1, 1], "<=", 4)], ([1, 2], "max"), lower=(Q(0), Q(0)))
    session = lp.Session(prob)
    monkeypatch.setattr(lp, "DEBUG", True)
    session.add(lp.Constraint((Q(0), Q(1)), "<=", Q(1)))
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("[lp] pivot enter=") for line in lines)
    assert all(" leave_row=" in line and " ratio=" in line for line in lines)
