"""The acceptance gate: ten criteria, one test each, one printed verdict
line each. Random sweeps use fixed seeds; every expected value is either
computed by an independent oracle in this file or frozen from a hand
calculation recorded next to the assertion."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from extendkit import convex as cx
from extendkit import oracle as orc
from extendkit import subadditive as sub
from extendkit import submodular as sm
from extendkit import testers as ts
from extendkit import xos
from extendkit.ground import (
    ConvexPartialFunction,
    PartialSetFunction,
    Rational as Q,
    ZERO,
    elements,
    mask_of,
    popcount,
)

from helpers import bisect_approx_convex, diamond_certificate, loop_pair_circuit

TOL_2_40 = Q(1, 2**40)


def _stamp(name, started, extra=""):
    print(f"ACCEPT {name}: PASS ({time.monotonic() - started:.1f}s){extra}")


# ---------------------------------------------------------------------------


def test_criterion_1_subadditive_oracle_equivalence():
    """1000 random partial functions, both subadditive variants against
    the full-domain LP oracle; 0 disagreements, under 5 minutes."""
    started = time.monotonic()
    rng = random.Random(101)
    for trial in range(1000):
        m = rng.randint(2, 4)
        n = rng.randint(1, min(8, (1 << m)))
        h = orc.random_partial_function(m, n, (0, 10), rng)
        mono = isinstance(sub.extend_monotone_subadditive(h), sub.Extendible)
        assert mono == orc.full_domain_extend(h, "monotone-subadditive"), trial
        gen = isinstance(sub.extend_general_subadditive(h), sub.Extendible)
        assert gen == orc.full_domain_extend(h, "general-subadditive"), trial
    elapsed = time.monotonic() - started
    assert elapsed < 300
    _stamp("criterion-1 subadditive-oracle-equivalence", started)


def test_criterion_2_xos_oracle_equivalence():
    """Same sweep for XOS against the vector-feasibility oracle; every
    Extendible verdict's max-of-linear reconstruction reproduces the data."""
    started = time.monotonic()
    rng = random.Random(202)
    n_ext = 0
    for trial in range(1000):
        m = rng.randint(2, 4)
        n = rng.randint(1, min(8, (1 << m)))
        h = orc.random_partial_function(m, n, (0, 10), rng)
        verdict = xos.extend_xos(h)
        extendible = isinstance(verdict, xos.XosExtendible)
        assert extendible == orc.full_domain_extend(h, "xos"), trial
        if extendible:
            n_ext += 1
            for mask, value in h.points:
                assert verdict.evaluate(mask) == value
        else:
            assert verdict.check(h)
    assert n_ext > 100  # the sweep sees both verdicts in volume
    _stamp("criterion-2 xos-oracle-equivalence", started)


def test_criterion_3_submodular_oracle_equivalence():
    """1000 random instances: family-LP verdicts match the full-domain
    oracle; every refutation yields a verifying certificate whose rewrite
    verifies again inside the interval family. Under 10 minutes."""
    started = time.monotonic()
    rng = random.Random(303)
    n_refuted = 0
    for trial in range(1000):
        m = rng.randint(2, 4)
        n = rng.randint(1, min(8, (1 << m)))
        h = orc.random_partial_function(m, n, (-10, 10), rng)
        res = sm.extend_submodular(h)
        assert res.extendible == orc.full_domain_extend(h, "submodular"), trial
        if not res.extendible:
            n_refuted += 1
            cert = res.certificate
            assert sm.verify_square_certificate(cert, h)
            rewritten = sm.lattice_rewrite(cert, h)
            assert sm.verify_square_certificate(rewritten, h)
            fam = set(sm.interval_family(h.masks))
            assert set(rewritten.involved_sets()) <= fam, trial
    elapsed = time.monotonic() - started
    assert elapsed < 600
    assert n_refuted > 50
    _stamp("criterion-3 submodular-oracle-equivalence", started)


def test_criterion_4_antichains_always_extend():
    """1000 random antichains with values in [-10,10] extend to submodular
    functions, confirmed by the oracle."""
    started = time.monotonic()
    rng = random.Random(404)
    for trial in range(1000):
        m = rng.randint(2, 5)
        from math import comb

        n = rng.randint(1, min(8, comb(m, m // 2)))
        fam = orc.random_antichain(m, n, rng)
        h = PartialSetFunction(
            m, tuple((s, orc.random_rational(rng, -10, 10)) for s in fam)
        )
        res = sm.extend_submodular(h)
        assert res.kind == "antichain" and res.extendible
        assert orc.full_domain_extend(h, "submodular"), trial
    _stamp("criterion-4 antichain-extendibility", started)


def test_criterion_5_golden_instances():
    """Golden instances: the cyclic two-input circuit fixes exactly its
    outputs on input (0,1); the four-square certificate becomes a 6/2/6
    circuit; the diamond certificate verifies and rewrites into the
    closure."""
    started = time.monotonic()
    bc = loop_pair_circuit()
    report = sm.fixing_algorithm(bc, (0, 1))
    y1, y2 = bc.output_ids()
    assert report.bit(y1) == 0 and report.bit(y2) == 1
    assert set(report.unfixed) == set(bc.intermediate_ids())

    from test_submodular import hub_cert

    cert2, h2 = hub_cert()
    bc2 = sm.square_to_boolean(cert2)
    assert len(bc2.input_ids()) == 6
    assert len(bc2.intermediate_ids()) == 2
    assert len(bc2.output_ids()) == 6

    cert3, h3 = diamond_certificate()
    assert sm.verify_square_certificate(cert3, h3)
    rewritten = sm.lattice_rewrite(cert3, h3)
    assert sm.verify_square_certificate(rewritten, h3)
    allowed = {0, mask_of([0]), mask_of([1, 2]), mask_of([0, 1, 2])}
    assert set(rewritten.involved_sets()) <= allowed
    _stamp("criterion-5 golden-instances", started)


def test_criterion_6_approximation_consistency():
    """alpha_sub <= alpha_via_xos = alpha_xos on 500 positive instances;
    factors hit 1 exactly on extendible instances; the subadditive closed
    form sits inside a 2^-40 bisection bracket of the box-feasibility
    oracle (endpoint probes on all instances, full bisection on 25)."""
    started = time.monotonic()
    rng = random.Random(606)
    box = lambda h, a: orc.full_domain_extend(h, "monotone-subadditive", box_alpha=a)
    for trial in range(500):
        m = rng.randint(2, 4)
        n = rng.randint(1, min(8, (1 << m) - 1))
        h = orc.random_partial_function(
            m, n, (1, 10), rng, allow_empty_set=False, positive=True
        )
        a_sub, _ = sub.approx_monotone_subadditive_exact(h)
        a_via = sub.approx_subadditive_via_xos(h)
        a_xos, _ = xos.approx_xos(h)
        assert a_via == a_xos
        assert a_sub <= a_xos
        mono_ext = isinstance(sub.extend_monotone_subadditive(h), sub.Extendible)
        assert (a_sub == 1) == mono_ext
        xos_ext = isinstance(xos.extend_xos(h), xos.XosExtendible)
        assert (a_xos == 1) == xos_ext
        # bisection endpoints: feasible at alpha*, infeasible just below
        assert box(h, a_sub)
        if a_sub > 1:
            assert not box(h, a_sub - TOL_2_40)
        if trial < 25:
            lo, hi = _bisect_box(h, box)
            assert lo <= a_sub <= hi and hi - lo <= TOL_2_40
    _stamp("criterion-6 approximation-consistency", started)


def _bisect_box(h, box):
    if box(h, Q(1)):
        return Q(1), Q(1)
    lo, hi = Q(1), Q(2)
    while not box(h, hi):
        lo, hi = hi, hi * 2
    while hi - lo > TOL_2_40:
        mid = (lo + hi) / 2
        if box(h, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_criterion_7_set_cover_gadgets():
    """200 random gadgets: extendible exactly when the exhaustive minimum
    set cover needs more than k sets."""
    started = time.monotonic()
    rng = random.Random(707)
    trials = 0
    while trials < 200:
        m = rng.randint(2, 8)
        nv = rng.randint(1, 8)
        full = (1 << m) - 1
        sets = []
        for _ in range(nv):
            s = rng.randrange(1, full + 1)
            if s != full and s not in sets:
                sets.append(s)
        if not sets:
            continue
        k = rng.randint(0, nv + 1)
        gadget = sub.gen_set_cover_gadget(m, sets, k)
        trials += 1
        best = None
        for r in range(1, len(sets) + 1):
            for fam in combinations(sets, r):
                u = 0
                for s in fam:
                    u |= s
                if u == full:
                    best = r
                    break
            if best is not None:
                break
        min_cover = best if best is not None else math.inf
        verdict = isinstance(sub.extend_monotone_subadditive(gadget), sub.Extendible)
        assert verdict == (min_cover > k), (m, sets, k)
    _stamp("criterion-7 set-cover-gadgets", started)


def test_criterion_8_convex():
    """500 full-dimensional instances in Q^1 and Q^2: the extension
    decision is "roof equals pin everywhere"; tilde equals the roof at
    interior points exactly; exterior secant bounds never exceed tilde and
    close under directed line search; the closed-form factor sits in the
    box-probe bisection bracket."""
    started = time.monotonic()
    rng = random.Random(808)
    for trial in range(500):
        m = rng.choice((1, 2))
        ch = _random_convex_instance(rng, m)
        violation = cx.extend_convex(ch)
        roofs_equal = all(cx.roof_value(ch, vec) == v for vec, v in ch.points)
        assert (violation is None) == roofs_equal

        vertices = cx.enumerate_dual_vertices(ch)
        if violation is None:
            # an extendible instance is reproduced by the canonical extension
            for vec, value in ch.points:
                assert max(v.value_at(vec) for v in vertices) == value
        for _ in range(100):
            x = _hull_point(rng, ch)
            tilde = max(v.value_at(x) for v in vertices)
            assert tilde == cx.roof_value(ch, x)

        x_out = _exterior_point(rng, ch)
        if x_out is not None:
            tilde = cx.eval_tilde(ch, x_out)
            assert tilde == max(v.value_at(x_out) for v in vertices)
            assert cx.roof_value(ch, x_out) is None
            for _ in range(6):
                bound = _random_secant_bound(rng, ch, x_out)
                if bound is not None:
                    assert bound <= tilde
            gap = _line_search_gap(ch, x_out, tilde, vertices)
            assert 0 <= gap < Q(1, 10**6)

        lo, hi = bisect_approx_convex(ch, TOL_2_40)
        alpha = cx.approx_convex(ch)
        assert lo <= alpha <= hi and hi - lo <= TOL_2_40
    _stamp("criterion-8 convex", started)


def _random_convex_instance(rng, m):
    while True:
        n = rng.randint(m + 1, m + 4)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(Q(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(m)))
        pts = sorted(pts)
        if cx.affine_dimension(pts) < m:
            continue
        return ConvexPartialFunction(
            m, tuple((p, Q(rng.randint(1, 10), rng.randint(1, 2))) for p in pts)
        )


def _hull_point(rng, ch):
    weights = [Q(rng.randint(0, 8)) for _ in ch.points]
    if sum(weights) == 0:
        weights[0] = Q(1)
    total = sum(weights, ZERO)
    return tuple(
        sum((w * vec[j] for w, (vec, _) in zip(weights, ch.points)), ZERO) / total
        for j in range(ch.m)
    )


def _exterior_point(rng, ch):
    center = _centroid(ch)
    for _ in range(40):
        vec, _v = ch.points[rng.randrange(len(ch.points))]
        t = Q(rng.randint(3, 9))
        x = tuple(c + t * (p - c) for c, p in zip(center, vec))
        if cx.roof_value(ch, x) is None:
            return x
    return None


def _centroid(ch):
    n = len(ch.points)
    return tuple(
        sum((vec[j] for vec, _ in ch.points), ZERO) / n for j in range(ch.m)
    )


def _random_secant_bound(rng, ch, x):
    """A feasible (lambda, y, z) triple with x = lambda y + (1-lambda) z
    never exceeds the canonical extension."""
    y = _hull_point(rng, ch)
    lam = Q(rng.randint(11, 60), 10)
    z = tuple((lam * yi - xi) / (lam - 1) for yi, xi in zip(y, x))
    gz = cx.roof_value(ch, z)
    if gz is None:
        return None
    gy = cx.roof_value(ch, y)
    return lam * gy + (1 - lam) * gz


def _line_search_gap(ch, x, tilde, vertices):
    """Directed search toward the maximizing vertex's tight face: points
    w_t = (1-delta) * (tight-face average) + delta * centroid with z
    receding from x make the secant bound approach tilde."""
    best_vertex = max(vertices, key=lambda v: v.value_at(x))
    tight_pts = [ch.points[i][0] for i in best_vertex.tight]
    k = len(tight_pts)
    w = tuple(sum((p[j] for p in tight_pts), ZERO) / k for j in range(ch.m))
    center = _centroid(ch)
    best = None
    for t in range(1, 70):
        delta = Q(1, 2**t)
        y = tuple((1 - delta) * wj + delta * cj for wj, cj in zip(w, center))
        eta = delta
        z = tuple(yj + eta * (yj - xj) for yj, xj in zip(y, x))
        if cx.roof_value(ch, z) is None:
            continue
        lam = (1 + eta) / eta
        bound = lam * cx.roof_value(ch, y) + (1 - lam) * cx.roof_value(ch, z)
        assert bound <= tilde
        if best is None or bound > best:
            best = bound
        if tilde - best < Q(1, 10**6):
            break
    assert best is not None, "line search never found a feasible secant"
    return tilde - best


# ---------------------------------------------------------------------------
# criterion 9: the testers


def _inclass_oracles(klass, rng, count):
    out = []
    for _ in range(count):
        m = rng.randint(3, 5)
        style = rng.randrange(3)
        if klass == "xos" or style == 0:
            k = rng.randint(1, 3)
            vectors = [
                tuple(Q(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(m))
                for _ in range(k)
            ]

            def fn(mask, vs=tuple(vectors)):
                return max(
                    (sum((w[e] for e in elements(mask)), ZERO) for w in vs),
                    default=ZERO,
                )

        elif klass == "subadditive-nonmonotone" and style == 1:
            weights = [Q(rng.randint(-2, 3)) for _ in range(m)]
            c = -sum((w for w in weights if w < 0), ZERO) + Q(rng.randint(0, 3))

            def fn(mask, c=c, ws=tuple(weights)):
                return c + sum((ws[e] for e in elements(mask)), ZERO)

        else:  # budget-additive: monotone subadditive
            weights = [Q(rng.randint(0, 5)) for _ in range(m)]
            cap = Q(rng.randint(1, 12))

            def fn(mask, cap=cap, ws=tuple(weights)):
                return min(cap, sum((ws[e] for e in elements(mask)), ZERO))

        out.append((m, fn))
    return out


def _planted_small(klass):
    """m=4 oracles that are 1/10-far, certified by exact distance."""
    m = 4
    if klass == "subadditive-nonmonotone":
        boosted = {mask_of([0, 1, 2]): Q(4), mask_of([0, 1, 2, 3]): Q(16)}
        values = [boosted.get(s, Q(1)) for s in range(16)]
    else:
        boosted = {mask_of([0, 1, 2]): Q(4), mask_of([0, 1, 3]): Q(4)}
        values = [
            Q(0) if s == 0 else boosted.get(s, Q(1)) for s in range(16)
        ]
    return orc.FullTable(m, tuple(values))


def _planted_large(klass):
    """Boost everything above half: every boosted set splits into two
    cheap halves, so violations are everywhere."""
    m = {"subadditive": 12, "xos": 10, "subadditive-nonmonotone": 16}[klass]

    def fn(mask):
        k = popcount(mask)
        if k == 0:
            return ZERO
        return Q(m) if k > m / 2 else Q(1)

    return m, fn


def _disjoint_structure_count(m, fn, needed):
    """Greedy packing of set-disjoint violating triples (A, B, T) with
    A u B = T and f(A)+f(B) < f(T); each forces its own repair, so k
    triples certify distance >= k / 2^m."""
    used = set()
    count = 0
    rng = random.Random(4242)
    half = m // 2
    targets = []
    for size in range(half + 1, m):
        targets.extend(
            mask_of(c) for c in combinations(range(m), size)
        )
        if len(targets) > 8 * needed:
            break
    rng.shuffle(targets)
    for t in targets:
        if count >= needed:
            break
        if t in used:
            continue
        els = list(elements(t))
        k = len(els)
        for _split in range(20):
            rng.shuffle(els)
            # any split with both pieces at most m/2 keeps both values low
            a_size = rng.randint(max(1, k - half), min(half, k - 1))
            a = mask_of(els[:a_size])
            b = t & ~a
            if a in used or b in used or a == b:
                continue
            if fn(a) + fn(b) < fn(t):
                used.update((t, a, b))
                count += 1
                break
    return count


TESTER_FNS = {
    "subadditive": ts.test_subadditive,
    "xos": ts.test_xos,
    "subadditive-nonmonotone": ts.test_nonmonotone_subadditive,
}
TESTER_VARIANT = {
    "subadditive": "onesided",
    "xos": "onesided",
    "subadditive-nonmonotone": "twosided",
}


def test_criterion_9_testers():
    """Completeness on 50 in-class oracles x 100 runs per class (zero
    rejections), >= 50% rejection on planted far oracles (farness by exact
    distance at m=4 and by disjoint-violation packing at m in 10..16),
    query counts within the class bounds. Under 15 minutes."""
    started = time.monotonic()
    eps = Fraction(1, 10)
    rng = random.Random(909)

    for klass, tester in TESTER_FNS.items():
        variant = TESTER_VARIANT[klass]
        for m, fn in _inclass_oracles(klass, rng, 50):
            bound = ts.query_bound(m, eps, variant)
            for seed in range(100):
                oracle = ts.FunctionOracle(m, fn)
                report = tester(oracle, eps, seed)
                assert report.verdict == "accept", (klass, m, seed)
                assert report.queries == oracle.query_count <= bound

        # small planted oracle, farness certified exactly
        table = _planted_small(klass)
        dist_class = {
            "subadditive": "monotone-subadditive",
            "xos": "xos",
            "subadditive-nonmonotone": "general-subadditive",
        }[klass]
        assert orc.distance_to_class(table, dist_class) >= eps
        bound = ts.query_bound(table.m, eps, variant)
        rejections = 0
        for seed in range(100):
            oracle = ts.FunctionOracle.from_table(table)
            report = tester(oracle, eps, seed)
            assert report.queries <= bound
            if report.verdict == "reject":
                rejections += 1
                assert report.witness.verify(ts.FunctionOracle.from_table(table))
        assert rejections >= 50, (klass, rejections)

        # large planted oracle, farness by disjoint violating structures
        m, fn = _planted_large(klass)
        needed = math.ceil(eps * (1 << m))
        assert _disjoint_structure_count(m, fn, needed) >= needed, klass
        bound = ts.query_bound(m, eps, variant)
        rejections = 0
        for seed in range(100):
            oracle = ts.FunctionOracle(m, fn)
            report = tester(oracle, eps, seed)
            assert report.queries <= bound
            if report.verdict == "reject":
                rejections += 1
                assert report.witness.verify(ts.FunctionOracle(m, fn))
        assert rejections >= 50, (klass, rejections)

    elapsed = time.monotonic() - started
    assert elapsed < 900
    _stamp("criterion-9 testers", started)


def test_criterion_10_fixing_properties():
    """500 random valid boolean certificates (at most 12 gates): unique
    fixed values, agreement with every satisfying assignment, monotone
    fixed functions, and the unfixed-to-1 completion satisfies the
    circuit. All via exhaustive enumeration."""
    from itertools import product

    from helpers import derivable_bits, enumerate_satisfying

    started = time.monotonic()
    rng = random.Random(1010)
    done = 0
    while done < 500:
        cert, h = orc.random_valid_square_certificate(rng.randint(2, 5), rng)
        bc = sm.square_to_boolean(cert)
        if len(bc.gates) > 12:
            continue
        done += 1
        nin = len(bc.input_ids())
        gate_ids = [g.gid for g in bc.gates]
        assignments = {}
        for inputs in product((0, 1), repeat=nin):
            fx = derivable_bits(bc, inputs)
            assert all(len(v) <= 1 for v in fx.values())  # fixed values are unique
            report = sm.fixing_algorithm(bc, inputs)
            assert set(report.fixed) == {g for g, v in fx.items() if v}
            for sol in enumerate_satisfying(bc, inputs):  # fixed bits agree with every solution
                for gid, bit in report.fixed.items():
                    assert sol[gid] == bit
            a = sm.fixed_functions_assignment(bc, inputs)
            assert sm.is_satisfying(bc, a)  # unfixed-to-1 satisfies the circuit
            assignments[inputs] = a
        for x in assignments:  # fixed functions are monotone
            for y in assignments:
                if x != y and all(p <= q for p, q in zip(x, y)):
                    for gid in gate_ids:
                        assert assignments[x][gid] <= assignments[y][gid]
    _stamp("criterion-10 fixing-properties", started)
