"""Sampling support, tester verdicts, witness soundness, query accounting."""

import math
import random
from fractions import Fraction

import pytest

from extendkit import testers as ts
from extendkit.errors import EpsilonOutOfRange, TooLarge
from extendkit.ground import Rational as Q, elements, popcount, submasks

EPS = Fraction(1, 4)


def modular_oracle(m):
    return ts.FunctionOracle(m, lambda mask: Q(popcount(mask)))


def budget_oracle(m, weights, cap):
    def fn(mask):
        total = sum((weights[e] for e in elements(mask)), Q(0))
        return min(total, cap)

    return ts.FunctionOracle(m, fn)


def xos_oracle(m, vectors):
    def fn(mask):
        best = Q(0)
        for w in vectors:
            v = sum((w[e] for e in elements(mask)), Q(0))
            if v > best:
                best = v
        return best

    return ts.FunctionOracle(m, fn)


def planted_oracle(m):
    """f = 1 on small sets, m on everything above half, 0 at the empty set."""

    def fn(mask):
        k = popcount(mask)
        if k == 0:
            return Q(0)
        return Q(m) if k > m / 2 else Q(1)

    return ts.FunctionOracle(m, fn)


def packed(values, target, available=None):
    """The cover kernels' arguments (vals, subs) for a dict of values:
    subs = submasks(target) and vals[p] the value at subs[p], or None where
    subs[p] is not in ``available`` (default: the dict's keys)."""
    subs = submasks(target)
    keep = values.keys() if available is None else available
    return [values[s] if s in keep else None for s in subs], subs


def test_epsilon_validation():
    with pytest.raises(EpsilonOutOfRange):
        ts.sample_M_lambda(4, 0, "onesided", random.Random(0))
    with pytest.raises(EpsilonOutOfRange):
        ts.sample_M_lambda(4, Fraction(3, 2), "onesided", random.Random(0))


@pytest.mark.parametrize(
    "tester", [ts.test_subadditive, ts.test_xos, ts.test_nonmonotone_subadditive]
)
def test_testers_refuse_more_than_24_elements(tester):
    oracle = ts.FunctionOracle(25, lambda mask: Q(0))
    with pytest.raises(TooLarge):
        tester(oracle, EPS, 1)
    assert oracle.query_count == 0
    # one element fewer runs
    assert tester(ts.FunctionOracle(24, lambda mask: Q(0)), Fraction(1, 2), 1).verdict == "accept"


def test_sample_support_onesided():
    rng = random.Random(1)
    kmin, kmax, lam = ts.layer_bounds(4, EPS, "onesided")
    assert kmin == 0 and kmax == 4  # bound 2 + lam*2 > 4
    for _ in range(2000):
        s = ts.sample_M_lambda(4, EPS, "onesided", rng)
        assert popcount(s) <= kmax


def test_sample_support_twosided():
    rng = random.Random(2)
    kmin, kmax, lam = ts.layer_bounds(16, EPS, "twosided")
    assert kmin == math.ceil(8 - lam * 4) and kmin == 2
    for _ in range(2000):
        s = ts.sample_M_lambda(16, EPS, "twosided", rng)
        assert kmin <= popcount(s) <= kmax


def test_sample_layer_frequencies_chi_square():
    """Layer counts over 10^5 draws against the exact restricted-binomial
    law, one chi-square statistic at the 3-sigma quantile."""
    m, draws = 8, 100_000
    rng = random.Random(42)
    kmin, kmax, _ = ts.layer_bounds(m, EPS, "onesided")
    weights = [math.comb(m, k) for k in range(kmin, kmax + 1)]
    total = sum(weights)
    counts = {k: 0 for k in range(kmin, kmax + 1)}
    for _ in range(draws):
        counts[popcount(ts.sample_M_lambda(m, EPS, "onesided", rng))] += 1
    chi2 = sum(
        (counts[k] - draws * w / total) ** 2 / (draws * w / total)
        for k, w in zip(range(kmin, kmax + 1), weights)
    )
    dof = len(weights) - 1
    # 3-sigma (p ~ 0.0027) quantile via Wilson-Hilferty approximation
    z = 3.0
    cut = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
    assert chi2 < cut


def test_subadditive_accepts_modular():
    for seed in range(10):
        report = ts.test_subadditive(modular_oracle(6), EPS, seed)
        assert report.verdict == "accept"
        assert report.iterations_run == 4 and report.seed == seed


def test_subadditive_rejects_planted():
    m = 10
    rejections = 0
    for seed in range(40):
        report = ts.test_subadditive(planted_oracle(m), Fraction(1, 10), seed)
        if report.verdict == "reject":
            rejections += 1
            assert report.witness.verify(planted_oracle(m))
    assert rejections >= 30


def test_subadditive_query_bound():
    m = 8
    bound = ts.query_bound(m, EPS, "onesided")
    for seed in range(10):
        oracle = modular_oracle(m)
        report = ts.test_subadditive(oracle, EPS, seed)
        assert report.queries == oracle.query_count
        assert report.queries <= bound


def test_xos_accepts_max_of_linear():
    rng = random.Random(7)
    for seed in range(8):
        vectors = [
            tuple(Q(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(6))
            for _ in range(3)
        ]
        report = ts.test_xos(xos_oracle(6, vectors), EPS, seed)
        assert report.verdict == "accept"


def test_xos_rejects_subadditive_but_not_xos_gadget():
    """Pairwise sets at 2, full set at 7/2, embedded at the top of a
    3-cube; rejection fires whenever the full set is drawn."""
    table = {
        0b000: Q(0),
        0b001: Q(2),
        0b010: Q(2),
        0b100: Q(2),
        0b011: Q(2),
        0b101: Q(2),
        0b110: Q(2),
        0b111: Q(7, 2),
    }
    oracle = ts.FunctionOracle(3, lambda s: table[s])
    rejected = 0
    # 10 iterations per run; the full set is drawn with prob 1-(7/8)^10
    for seed in range(30):
        report = ts.test_xos(
            ts.FunctionOracle(3, lambda s: table[s]), Fraction(1, 10), seed
        )
        if report.verdict == "reject":
            rejected += 1
            w = report.witness
            assert w.target == 0b111 and w.cost == 3
            assert w.verify(ts.FunctionOracle(3, lambda s: table[s]))
    assert rejected >= 15
    # the same function passes the plain subadditive tester every time
    for seed in range(10):
        assert ts.test_subadditive(oracle, EPS, seed).verdict == "accept"


def test_nonmonotone_accepts_subadditive():
    rng = random.Random(11)
    for seed in range(8):
        weights = [Q(rng.randint(-2, 3)) for _ in range(6)]
        base = sum((w for w in weights if w < 0), Q(0))
        c = -base + Q(rng.randint(0, 3))  # constant-plus-modular, f >= 0
        oracle = ts.FunctionOracle(
            6,
            lambda mask, c=c, ws=tuple(weights): c
            + sum((ws[e] for e in elements(mask)), Q(0)),
        )
        report = ts.test_nonmonotone_subadditive(oracle, EPS, seed)
        assert report.verdict == "accept"


def test_nonmonotone_rejects_boosted_upper_half():
    m = 12
    def fn(mask):
        k = popcount(mask)
        return Q(m) if k > m / 2 else Q(1)

    rejections = 0
    for seed in range(40):
        oracle = ts.FunctionOracle(m, fn)
        report = ts.test_nonmonotone_subadditive(oracle, Fraction(1, 10), seed)
        if report.verdict == "reject":
            rejections += 1
            assert report.witness.verify(ts.FunctionOracle(m, fn))
    assert rejections >= 30


def test_nonmonotone_queries_stay_in_band():
    m = 10
    kmin, kmax, _ = ts.layer_bounds(m, EPS, "twosided")
    seen = []
    oracle = ts.FunctionOracle(m, lambda s: (seen.append(s), Q(1))[1])
    report = ts.test_nonmonotone_subadditive(oracle, EPS, 5)
    assert report.verdict == "accept"
    assert all(kmin <= popcount(s) <= kmax for s in seen)
    assert report.queries <= ts.query_bound(m, EPS, "twosided")


def test_min_union_cover_matches_bruteforce():
    """The integer DP against Fraction brute force, on denominators 1-11
    (coprime 3, 5, 7, 11 among them, so the common denominator exceeds
    every single one) and on subfamilies of available sets."""
    from itertools import combinations

    rng = random.Random(19)
    for trial in range(80):
        t = rng.randint(1, 4)
        target = (1 << t) - 1
        values = {
            s: Q(rng.randint(0, 12), rng.choice((1, 2, 3, 5, 7, 11)))
            for s in range(1 << t)
        }
        available = set(values)
        if trial >= 40:  # some subsets are not available
            available = {s for s in values if rng.random() < 0.6}
        got = ts.min_union_cover(*packed(values, target, available))
        subsets = [s for s in range(1, 1 << t) if s in available]
        best = None
        for r in range(1, len(subsets) + 1):
            for fam in combinations(subsets, r):
                u = 0
                for s in fam:
                    u |= s
                if u == target:
                    c = sum((Fraction(values[s]) for s in fam), Fraction(0))
                    if best is None or c < best:
                        best = c
            if r >= t:
                break  # covers larger than t sets are never cheaper here
        if best is None:
            assert got is None
            continue
        assert got is not None and got[0] == best
        cost, cover = got
        u = 0
        for s in cover:
            assert s in available
            u |= s
        assert u == target
        assert sum((Fraction(values[s]) for s in cover), Fraction(0)) == best


def test_fractional_cover_min_matches_direct_lp():
    from extendkit import lp
    from extendkit.ground import ONE, ZERO

    rng = random.Random(29)
    for _ in range(30):
        t = rng.randint(1, 4)
        target = (1 << t) - 1
        values = {
            s: Q(rng.randint(0, 8), rng.choice((1, 2, 3, 5, 7, 11)))
            for s in range(1 << t)
        }
        got, weights = ts.fractional_cover_min(*packed(values, target))
        subs = [s for s in submasks(target) if s]
        cons = []
        for e in range(t):
            cons.append(
                lp.Constraint(
                    tuple(ONE if s >> e & 1 else ZERO for s in subs), ">=", ONE
                )
            )
        out = lp.solve(
            lp.ExactLP(
                tuple(f"a{s}" for s in subs),
                tuple(cons),
                (tuple(values[s] for s in subs), "min"),
                lower=(ZERO,) * len(subs),
            )
        )
        assert out.value == got
        cover = {e: Q(0) for e in range(t)}
        for s, w in weights:
            for e in elements(s):
                cover[e] += w
        assert all(c >= 1 for c in cover.values())
        assert sum((w * values[s] for s, w in weights), Q(0)) == got


def test_cover_checks_scale_with_integer_values():
    """On values times an integer L (here ints, as the testers read them)
    both cover checks return L times the cost, and the same cover or
    weights, as on the Rationals."""
    rng = random.Random(43)
    m = 6
    for trial in range(60):
        target = rng.randrange(1 << m)
        values = {
            s: Q(rng.randint(0, 12), rng.choice((1, 2, 3, 5, 7)))
            for s in submasks(target)
        }
        scale = math.lcm(*(v.denominator for v in values.values())) * rng.randint(1, 3)
        ints = {s: int(v * scale) for s, v in values.items()}
        available = set(values)
        if trial % 2:
            available = {s for s in values if rng.random() < 0.6}
        want = ts.min_union_cover(*packed(values, target, available))
        got = ts.min_union_cover(*packed(ints, target, available))
        if want is None:
            assert got is None
        else:
            assert got == (want[0] * scale, want[1])
        cost, weights = ts.fractional_cover_min(*packed(values, target))
        assert ts.fractional_cover_min(*packed(ints, target)) == (cost * scale, weights)


def _none_dp_cover(values, target, available):
    """min_union_cover over the target's footprints as it was written with
    None for a footprint no available set holds: the reference for the
    finite sentinel's costs, covers and tie-breaks."""
    if target == 0:
        return (values[0], (0,)) if 0 in available else None
    t = popcount(target)
    full = (1 << t) - 1
    psi, arg = [None] * (full + 1), [None] * (full + 1)
    for p, sub in enumerate(submasks(target)):
        if p and sub in available:
            psi[p], arg[p] = values[sub], sub
    for i in range(t):
        for p in range(full, -1, -1):
            q = p | 1 << i
            if q != p and psi[q] is not None and (psi[p] is None or psi[q] < psi[p]):
                psi[p], arg[p] = psi[q], arg[q]
    dp, par = [0] + [None] * full, [None] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        sub = rest
        while True:
            p = sub | low
            if psi[p] is not None and dp[rest ^ sub] is not None:
                cand = dp[rest ^ sub] + psi[p]
                if dp[mask] is None or cand < dp[mask]:
                    dp[mask], par[mask] = cand, p
            if not sub:
                break
            sub = (sub - 1) & rest
    if dp[full] is None:
        return None
    cover, mask = [], full
    while mask:
        cover.append(arg[par[mask]])
        mask ^= par[mask]
    return dp[full], tuple(cover)


def test_union_cover_sentinel_matches_none_reference():
    """Same cost and same cover as the None-based DP, ties included (small
    value ranges make many), on negative values too, where a cover may pay
    for one set twice."""
    rng = random.Random(47)
    for trial in range(300):
        m = rng.randint(1, 6)
        target = rng.randrange(1, 1 << m)
        lo = -3 if trial % 3 == 0 else 0
        values = {s: rng.randint(lo, 3) for s in range(1 << m) if s & ~target == 0}
        available = {s for s in values if rng.random() < 0.7}
        assert ts.min_union_cover(*packed(values, target, available)) == _none_dp_cover(
            values, target, available
        )


@pytest.mark.parametrize(
    "tester", [ts.test_subadditive, ts.test_xos, ts.test_nonmonotone_subadditive]
)
def test_subsets_enumerated_once_per_draw(tester, monkeypatch):
    """submasks(T) runs once per draw: the checks read the draw's one
    packed table and enumerate no subsets of their own."""
    calls = []

    def counted(mask):
        calls.append(mask)
        return submasks(mask)

    monkeypatch.setattr(ts, "submasks", counted)
    report = tester(modular_oracle(10), Fraction(1, 8), 3)
    assert report.verdict == "accept"
    assert len(calls) == report.iterations_run == 8


@pytest.mark.parametrize(
    "tester, variant",
    [
        (ts.test_subadditive, "onesided"),
        (ts.test_xos, "onesided"),
        (ts.test_nonmonotone_subadditive, "twosided"),
    ],
)
def test_each_draw_reads_its_subsets_from_kmin_up_once(tester, variant):
    """Each draw reads the subsets of T with at least kmin elements,
    ascending, each once: the reads are those lists for the draws the
    seeded sampler makes, in order."""
    m, seed = 16, 11
    kmin, _kmax, _ = ts.layer_bounds(m, EPS, variant)
    assert (kmin > 0) == (variant == "twosided")
    reads = []
    oracle = ts.FunctionOracle(m, lambda s: (reads.append(s), Q(popcount(s)))[1])
    report = tester(oracle, EPS, seed)
    assert report.verdict == "accept"
    draw, rng = ts.layer_sampler(m, EPS, variant), random.Random(seed)
    want = []
    for _ in range(report.iterations_run):
        want += [s for s in submasks(draw(rng)) if popcount(s) >= kmin]
    assert reads == want and report.queries == len(want)


def test_read_scaled_counts_one_query_per_set():
    from extendkit import oracle as orc

    literals = ["0", "1/2", "6/8", "3", "-0/3", "5/6", "2", "7/3"]
    table = orc.parse_full_table({"m": 3, "values": literals})
    for oracle in (
        ts.FunctionOracle.from_table(table),
        ts.FunctionOracle(3, [Fraction(x) for x in literals].__getitem__),
    ):
        ints, scale = oracle.read_scaled([7, 1, 2, 5])
        assert oracle.query_count == 4
        assert [Q(n, scale) for n in ints] == [Q(7, 3), Q(1, 2), Q(3, 4), Q(5, 6)]
        assert oracle.read_scaled([]) == ([], 1) and oracle.query_count == 4


def test_nonbad_sets_form_extendible_partial_function():
    """The tester analysis hinges on the non-bad part of M_lambda being
    extendible; check it exhaustively at m=4 for all three testers."""
    from extendkit import subadditive as sub
    from extendkit import xos
    from extendkit.ground import PartialSetFunction

    rng = random.Random(61)
    m = 4
    for _ in range(25):
        table = {s: Q(rng.randint(0, 6), rng.randint(1, 2)) for s in range(16)}

        def is_bad_monotone(t, fractional):
            subs = {s: table[s] for s in submasks(t)}
            if any(v > subs[t] for s, v in subs.items() if s != t):
                return True
            if fractional:
                cost, _ = ts.fractional_cover_min(*packed(subs, t))
                return cost < subs[t]
            hit = ts.min_union_cover(*packed(subs, t))
            return hit is not None and hit[0] < subs[t]

        kmin1, kmax1, _ = ts.layer_bounds(m, EPS, "onesided")
        mlam1 = [s for s in range(16) if popcount(s) <= kmax1]
        for fractional, decide in ((False, sub.extend_monotone_subadditive),
                                   (True, xos.extend_xos)):
            good = [s for s in mlam1 if not is_bad_monotone(s, fractional)]
            if not good:
                continue
            h = PartialSetFunction(m, tuple((s, table[s]) for s in good))
            out = decide(h)
            ok = isinstance(out, sub.Extendible) or isinstance(out, xos.XosExtendible)
            assert ok

        kmin2, kmax2, _ = ts.layer_bounds(m, EPS, "twosided")
        mlam2 = [s for s in range(16) if kmin2 <= popcount(s) <= kmax2]

        def is_bad_nonmono(t):
            qt = {s: table[s] for s in submasks(t) if kmin2 <= popcount(s) <= kmax2}
            hit = ts.min_union_cover(*packed(qt, t))
            return hit is not None and hit[0] < table[t]

        good = [s for s in mlam2 if not is_bad_nonmono(s)]
        if good:
            h = PartialSetFunction(m, tuple((s, table[s]) for s in good))
            assert isinstance(sub.extend_general_subadditive(h), sub.Extendible)
