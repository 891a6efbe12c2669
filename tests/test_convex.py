"""Convex roofs, extension, factor, dual vertices, canonical extension."""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from extendkit import convex as cx
from extendkit import lp
from extendkit.errors import DegenerateHull, InternalError, ValueNotPositive
from extendkit.ground import ConvexPartialFunction, Rational as Q

from helpers import bisect_approx_convex


def cpf(m, *pairs):
    return ConvexPartialFunction(
        m, tuple((tuple(Q(c) for c in vec), Q(v)) for vec, v in pairs)
    )


LINE = cpf(1, ((0,), 0), ((2,), 2))
KINK = cpf(1, ((0,), 0), ((1,), 2), ((2,), 2))


def test_affine_dimension():
    assert cx.affine_dimension([(0, 0), (1, 0), (0, 1)]) == 2
    assert cx.affine_dimension([(0, 0), (1, 1), (2, 2)]) == 1
    assert cx.affine_dimension([(3, 4)]) == 0


def test_roof_midpoint():
    assert cx.roof_value(LINE, (Q(1),)) == 1


def test_roof_beats_middle_point():
    assert cx.roof_value(KINK, (Q(1),)) == 1


def test_roof_outside_hull():
    assert cx.roof_value(KINK, (Q(3),)) is None
    assert cx.roof_value(KINK, (Q(-1),)) is None


def test_extend_linear():
    assert cx.extend_convex(cpf(1, ((0,), 0), ((1,), 1), ((2,), 2))) is None


def test_extend_kink_violation():
    out = cx.extend_convex(KINK)
    assert out is not None
    assert out.point == (Q(1),) and out.roof == 1 and out.value == 2


def test_two_points_always_extend():
    rng = random.Random(3)
    for _ in range(20):
        a, b = sorted(rng.sample(range(-5, 6), 2))
        h = cpf(1, ((a,), rng.randint(-5, 5)), ((b,), rng.randint(-5, 5)))
        assert cx.extend_convex(h) is None


def test_approx_extendible_is_one():
    assert cx.approx_convex(cpf(1, ((0,), 1), ((1,), 1), ((2,), 1))) == 1


def test_approx_kink():
    h = cpf(1, ((0,), 1), ((1,), 2), ((2,), 2))
    assert cx.approx_convex(h, audit=True) == Q(4, 3)
    doubled = cpf(1, ((0,), 2), ((1,), 4), ((2,), 4))
    assert cx.approx_convex(doubled) == Q(4, 3)


def test_approx_requires_positive():
    with pytest.raises(ValueNotPositive):
        cx.approx_convex(cpf(1, ((0,), 0), ((1,), 1)))


def test_dual_vertices_segment():
    verts = cx.enumerate_dual_vertices(cpf(1, ((0,), 0), ((1,), 1)))
    assert len(verts) == 1
    assert verts[0].y == (Q(1),) and verts[0].mu == 0


def test_dual_vertices_kink_value_zero_two_two():
    # constraints mu<=0, y+mu<=2, 2y+mu<=2: the only feasible tight pair
    # is rows {1,3}, the vertex (y,mu)=(1,0)
    verts = cx.enumerate_dual_vertices(cpf(1, ((0,), 0), ((1,), 2), ((2,), 2)))
    assert [(v.y, v.mu) for v in verts] == [((Q(1),), Q(0))]


def test_dual_vertices_degenerate():
    with pytest.raises(DegenerateHull):
        cx.enumerate_dual_vertices(cpf(2, ((0, 0), 0), ((1, 1), 1), ((2, 2), 2)))


def test_eval_tilde_outside_segment():
    value = cx.eval_tilde(cpf(1, ((0,), 0), ((1,), 1)), (Q(2),))
    assert value == 2


def test_eval_tilde_kink_exterior():
    h = cpf(1, ((0,), 0), ((1,), 2), ((2,), 2))
    value = cx.eval_tilde(h, (Q(3),))
    assert value == 3  # single dual vertex (1,0)


def test_eval_tilde_equals_roof_inside():
    h = cpf(1, ((0,), 1), ((1,), 2), ((2,), 2))
    rng = random.Random(9)
    for _ in range(25):
        x = (Q(rng.randint(0, 8), 4),)
        tilde = cx.eval_tilde(h, x)
        assert tilde == cx.roof_value(h, x)


def test_roof_convex_along_segments():
    h = cpf(2, ((0, 0), 0), ((2, 0), 3), ((0, 2), 1), ((2, 2), 5), ((1, 1), 7))
    rng = random.Random(13)
    for _ in range(15):
        x1 = (Q(rng.randint(0, 8), 4), Q(rng.randint(0, 8), 4))
        x2 = (Q(rng.randint(0, 8), 4), Q(rng.randint(0, 8), 4))
        g1, g2 = cx.roof_value(h, x1), cx.roof_value(h, x2)
        if g1 is None or g2 is None:
            continue
        for t in (Q(1, 4), Q(1, 2), Q(3, 4)):
            mid = tuple(t * a + (1 - t) * b for a, b in zip(x1, x2))
            gm = cx.roof_value(h, mid)
            assert gm is not None and gm <= t * g1 + (1 - t) * g2


def test_maximality_inside_hull():
    """Any max of supporting affine functions below the data stays below
    the roof at interior points."""
    h = cpf(2, ((0, 0), 1), ((2, 0), 3), ((0, 2), 2), ((2, 2), 5))
    rng = random.Random(21)
    planes = []
    for _ in range(12):
        y = (Q(rng.randint(-4, 4), 2), Q(rng.randint(-4, 4), 2))
        mu = min(
            v - (y[0] * vec[0] + y[1] * vec[1]) for vec, v in h.points
        )
        planes.append((y, mu))
    for _ in range(25):
        x = (Q(rng.randint(0, 8), 4), Q(rng.randint(0, 8), 4))
        roof = cx.roof_value(h, x)
        if roof is None:
            continue
        g = max(y[0] * x[0] + y[1] * x[1] + mu for y, mu in planes)
        assert g <= roof


def test_bisection_matches_closed_form():
    rng = random.Random(37)
    for _ in range(10):
        pts = [(Q(i), Q(rng.randint(1, 9), rng.randint(1, 3))) for i in range(4)]
        h = ConvexPartialFunction(1, tuple(((p,), v) for p, v in pts))
        alpha = cx.approx_convex(h)
        lo, hi = bisect_approx_convex(h, Q(1, 2**40))
        assert lo <= alpha <= hi and hi - lo <= Q(1, 2**40)


def test_audit_two_probes_reject_a_wrong_factor(monkeypatch):
    """The audit accepts the optimal factor with two probes, at it and
    2^-40 below it; a factor 2^-39 too high (the probe below it is still
    feasible) and one 2^-41 too low (itself infeasible) raise
    InternalError; at factor 1 one probe suffices."""
    probe = cx.feasible_at_alpha
    probes = []

    def counted(ch, alpha):
        probes.append(alpha)
        return probe(ch, alpha)

    monkeypatch.setattr(cx, "feasible_at_alpha", counted)
    h = cpf(1, ((0,), 1), ((1,), 2), ((2,), 2))
    alpha = cx.approx_convex(h)
    assert alpha == Q(4, 3) and probes == []
    cx._audit(h, alpha)
    assert probes == [alpha, alpha - Q(1, 2**40)]
    high, low = alpha + Q(1, 2**39), alpha - Q(1, 2**41)
    assert probe(h, high - Q(1, 2**40)) and not probe(h, low)
    for wrong in (high, low):
        with pytest.raises(InternalError):
            cx._audit(h, wrong)
    flat = cpf(1, ((0,), 1), ((1,), 1), ((2,), 1))
    probes.clear()
    assert cx.approx_convex(flat, audit=True) == 1
    assert probes == [1]


def test_tilde_inside_the_hull_is_the_roof_without_enumeration(tmp_path, monkeypatch):
    """Inside the hull the canonical extension is the roof LP's value and
    no vertex is enumerated; a degenerate hull is refused (exit 3, as
    vertices refuses it) at points inside and outside it alike."""

    def no_enumeration(*_args):
        raise AssertionError("the canonical extension enumerated vertices")

    h = cpf(2, ((0, 0), 0), ((2, 0), 3), ((0, 2), 1), ((2, 2), 5), ((1, 1), 1))
    rng = random.Random(17)
    inside = [(Q(rng.randint(0, 8), 4), Q(rng.randint(0, 8), 4)) for _ in range(10)]
    want = [max(v.value_at(x) for v in cx.enumerate_dual_vertices(h)) for x in inside]
    monkeypatch.setattr(cx, "enumerate_dual_vertices", no_enumeration)
    assert [cx.eval_tilde(h, x) for x in inside] == want
    assert want == [cx.roof_value(h, x) for x in inside]
    with pytest.raises(AssertionError):
        cx.eval_tilde(h, (Q(3), Q(0)))

    line = [{"x": [str(i), str(i)], "value": str(i * i)} for i in range(3)]
    doc = {"dim": 2, "points": line}
    for at in ('["1","1"]', '["1","0"]', '["5","5"]'):
        code, out, err = _cli(tmp_path, doc, ["eval", "--class", "convex-tilde", "--at", at])
        assert (code, out) == (3, ""), err
        assert "span less than the ambient dimension" in err


def _reference_solve(rows):
    """Rational Gauss-Jordan with row swaps on the square system rows =
    [A | b]: (solution, sign of det A), or (None, 0) when singular."""
    a = [[Fraction(c) for c in r] for r in rows]
    k = len(a)
    sign = 1
    for col in range(k):
        piv = next((i for i in range(col, k) if a[i][col] != 0), None)
        if piv is None:
            return None, 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        if a[col][col] < 0:
            sign = -sign
        inv = 1 / a[col][col]
        a[col] = [c * inv for c in a[col]]
        for i in range(k):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [c - f * d for c, d in zip(a[i], a[col])]
    return tuple(a[i][k] for i in range(k)), sign


def _reference_rank(rows):
    a = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / a[rank][col]
                a[i] = [c - f * d for c, d in zip(a[i], a[rank])]
        rank += 1
    return rank


def _reference_vertices(points, m):
    """(y, mu, tight) of every vertex, sorted by (y, mu), in Fractions;
    also the signs of the determinants met (0 for a singular subset)."""
    rows = [[Fraction(c) for c in vec] + [1, Fraction(v)] for vec, v in points]
    found = {}
    signs = set()
    for subset in combinations(range(len(rows)), m + 1):
        sol, sign = _reference_solve([rows[i] for i in subset])
        signs.add(sign)
        if sol is None or sol in found:
            continue
        lhs = [sum(a * x for a, x in zip(r, sol)) for r in rows]
        if any(v > r[-1] for v, r in zip(lhs, rows)):
            continue
        found[sol] = tuple(i for i, r in enumerate(rows) if lhs[i] == r[-1])
    return [(k[:m], k[m], found[k]) for k in sorted(found)], signs


def test_dual_vertices_match_rational_reference():
    """The fraction-free enumeration against a rational elimination, in
    dimensions 1-3 with negative and fractional coordinates; the instances
    include singular subsets and negative determinants."""
    rng = random.Random(53)
    signs_seen = set()
    degenerate = 0
    for _ in range(60):
        m = rng.randint(1, 3)
        vecs = set()
        while len(vecs) < m + rng.randint(1, 3):
            vecs.add(
                tuple(Q(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(m))
            )
        vecs = sorted(vecs)
        if rng.random() < 0.5:  # a midpoint makes some subsets singular
            mid = tuple((a + b) / 2 for a, b in zip(vecs[0], vecs[1]))
            if mid not in vecs:
                vecs.append(mid)
        ch = ConvexPartialFunction(
            m, tuple((v, Q(rng.randint(-5, 5), rng.choice((1, 2, 5)))) for v in vecs)
        )
        diffs = [[a - b for a, b in zip(v, ch.vectors[0])] for v in ch.vectors[1:]]
        assert cx.affine_dimension(ch.vectors) == _reference_rank(diffs)
        if _reference_rank(diffs) < m:
            degenerate += 1
            with pytest.raises(DegenerateHull):
                cx.enumerate_dual_vertices(ch)
            continue
        want, signs = _reference_vertices(ch.points, m)
        signs_seen |= signs
        got = cx.enumerate_dual_vertices(ch)
        assert [(v.y, v.mu, v.tight) for v in got] == want
    assert signs_seen == {-1, 0, 1}
    assert degenerate < 30


def _eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan by lp.pivot on one square system, in
    place and from scratch: (d, [(row, column)] in pivot order). Column c
    is pivoted on the first row not yet pivoted that is nonzero there."""
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


def _per_subset_vertices(ch):
    """(y, mu, tight) of every dual vertex, sorted by (y, mu), by the loop
    that eliminates each (m+1)-subset from scratch: the integer solution
    x / d of a nonsingular subset is keyed by (x, d) over their gcd, and
    kept when every row a_i | b_i holds, a_i . x <= b_i * d."""
    k = ch.m + 1
    rows = []
    for vec, value in ch.points:
        row = [*vec, Q(1), value]
        scale = lcm(*(c.denominator for c in row))
        rows.append([int(c * scale) for c in row])
    seen, kept = set(), []
    for subset in combinations(range(len(rows)), k):
        system = [list(rows[i]) for i in subset]
        d, pivots = _eliminate(system, k)
        if len(pivots) < k:
            continue
        x = [0] * k
        for r, c in pivots:
            x[c] = system[r][k]
        g = gcd(d, *x)
        key = (tuple(v // g for v in x), d // g)
        if key in seen:
            continue
        seen.add(key)
        x, d = key
        slack = [row[k] * d - sum(a * v for a, v in zip(row, x)) for row in rows]
        if min(slack) >= 0:
            sol = tuple(Q(v, d) for v in x)
            kept.append((sol[:-1], sol[-1], tuple(i for i, t in enumerate(slack) if t == 0)))
    return sorted(kept)


def _tangent_instance(rng, m, pieces, extra):
    """Points pinned to the max of the tangent planes of |x|^2 at integer
    centres: each centre and the centre plus e_i / 2, and random extra
    points. A plane is a dual vertex tight at every point where it is the
    max, so it is reached from many subsets."""
    centres = set()
    while len(centres) < pieces:
        centres.add(tuple(rng.randint(-3, 3) for _ in range(m)))
    pts = set()
    for centre in centres:
        for i in range(-1, m):
            pts.add(tuple(Q(c) + (Q(1, 2) if j == i else 0) for j, c in enumerate(centre)))
    goal = len(pts) + extra
    while len(pts) < goal:
        pts.add(tuple(Q(rng.randint(-8, 8), 2) for _ in range(m)))

    def g(x):
        return max(
            sum(2 * c * a - c * c for c, a in zip(centre, x)) for centre in centres
        )

    return ConvexPartialFunction(m, tuple((p, g(p)) for p in pts))


def _dependent_instance(rng, m, extra):
    """Random points after a collinear triple that sorts first (no other
    point reaches below -24 in the first coordinate), so that the first
    two difference rows depend on each other and the enumeration's first
    prefix of three rows is singular, plus a midpoint of two random points
    and, from m = 3, a point coplanar with three others."""
    line = [tuple(Q(-40 + t) if j == 0 else Q(t * (j + 1)) for j in range(m)) for t in range(3)]
    pts = set(line)
    while len(pts) < m + 2 + extra:
        pts.add(tuple(Q(rng.randint(-8, 8), rng.choice((1, 2))) for _ in range(m)))
    a, b, c = sorted(pts)[-3:]
    pts.add(tuple((u + v) / 2 for u, v in zip(a, b)))
    if m >= 3:
        pts.add(tuple(u + v - w for u, v, w in zip(a, b, c)))
    return ConvexPartialFunction(
        m, tuple((p, Q(rng.randint(-6, 6), rng.choice((1, 3)))) for p in pts)
    )


def test_prefix_shared_enumeration_matches_the_per_subset_loop(monkeypatch):
    """The depth-first enumeration returns exactly the vertices, in order
    and with the tight sets, of the per-subset loop, at m 1-5: on tangent
    planes reached from many subsets, and on instances whose collinear
    triples, midpoints and coplanar quadruples cut off whole subtrees of
    the combination tree: the leading triple is the first prefix the walk
    refuses, and prefixes of fewer than m rows are refused."""
    absorb = cx._absorb
    calls = []

    def counted(system, row, ncols):
        grown = absorb(system, row, ncols)
        # an enumeration row carries f_i past its ncols = m + 1 columns
        if len(row) > ncols:
            calls.append((len(system[1]), grown is not None))
        return grown

    monkeypatch.setattr(cx, "_absorb", counted)
    rng = random.Random(71)
    many = pruned = 0
    for m in range(1, 6):
        extra = max(1, 4 - m)
        tangent = [_tangent_instance(rng, m, 2, extra) for _ in range(3)]
        dependent = [_dependent_instance(rng, m, extra) for _ in range(3)]
        for ch in tangent + dependent:
            assert cx.affine_dimension(ch.vectors) == m
            calls.clear()
            got = [(v.y, v.mu, v.tight) for v in cx.enumerate_dual_vertices(ch)]
            assert got == _per_subset_vertices(ch), (m, ch.points)
            many += any(len(tight) > m + 1 for *_yz, tight in got)
            pruned += sum(1 for depth, grown in calls if not grown and depth < m)
            if m >= 2 and ch in dependent:
                assert calls[:3] == [(0, True), (1, True), (2, False)]
    assert many >= 5
    assert pruned >= 100


def test_convex_self_checks_raise_internal_error(monkeypatch):
    monkeypatch.setattr(cx, "roof_value", lambda ch, x: Q(10))
    with pytest.raises(InternalError):
        cx.extend_convex(KINK)
    monkeypatch.setattr(cx, "roof_value", lambda ch, x: None)
    with pytest.raises(InternalError):
        cx.feasible_at_alpha(KINK, 2)


def _cli(tmp_path, doc, argv):
    """(exit code, stdout, stderr) of cli.main on one convex document."""
    import contextlib
    import io

    from extendkit import cli

    path = tmp_path / "convex.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_vertex_budget_refuses_before_solving(tmp_path, monkeypatch):
    """C(118, 3) = 266,916 systems in dimension 2 exceed the budget: both
    commands exit 3 without one elimination, the canonical extension even
    at a point inside the hull, where it would need no enumeration."""
    from math import comb

    assert comb(118, 3) > cx.MAX_VERTEX_SYSTEMS >= comb(117, 3)

    def no_elimination(*_args):
        raise AssertionError("vertex enumeration solved a system")

    monkeypatch.setattr(cx, "_absorb", no_elimination)
    points = [{"x": [str(i), str(i * i)], "value": "0"} for i in range(118)]
    doc = {"dim": 2, "points": points}
    for argv in (["vertices"], ["eval", "--class", "convex-tilde", "--at", '["0","0"]']):
        code, out, err = _cli(tmp_path, doc, argv)
        assert (code, out) == (3, ""), err
        assert "C(118, 3) square systems" in err


def test_high_dimension_within_the_budget_is_answered(tmp_path):
    """m = 9 with 10 points is one system: eval --class convex-tilde answers
    it (no dimension cap), and so does vertices."""
    m = 9
    points = [{"x": ["0"] * m, "value": "0"}] + [
        {"x": ["1" if j == i else "0" for j in range(m)], "value": "1"} for i in range(m)
    ]
    doc = {"dim": m, "points": points}
    at = json.dumps(["2"] + ["0"] * (m - 1))
    code, out, err = _cli(tmp_path, doc, ["eval", "--class", "convex-tilde", "--at", at])
    assert (code, json.loads(out)) == (0, {"status": "ok", "value": "2"}), err
    code, out, err = _cli(tmp_path, doc, ["vertices"])
    vertex = {"y": ["1"] * m, "mu": "0", "tight": list(range(m + 1))}
    assert (code, json.loads(out)) == (0, {"vertices": [vertex]}), err
