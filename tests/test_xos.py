"""XOS roof LPs, extension decision, and optimal factor."""

import random

import pytest

from extendkit import lp, xos
from extendkit.errors import UnattainableFactor, ValueNotPositive
from extendkit.ground import PartialSetFunction, Rational as Q, mask_of


def psf(m, *pairs):
    return PartialSetFunction(m, tuple((mask_of(s), Q(v)) for s, v in pairs))


GADGET = psf(3, ([0, 1], 2), ([1, 2], 2), ([0, 2], 2), ([0, 1, 2], Q(7, 2)))


def test_roof_two_singletons():
    h = psf(2, ([0], 1), ([1], 1))
    value, _, _ = xos.eval_xos_roof(h, 0b11)
    assert value == 2


def test_roof_symmetric_half_weights():
    h = psf(3, ([0, 1], 2), ([1, 2], 2), ([0, 2], 2))
    value, weights, _ = xos.eval_xos_roof(h, 0b111)
    assert value == 3
    total = sum((w for _, w in weights), Q(0))
    assert total == Q(3, 2)


def test_roof_uncoverable():
    h = psf(2, ([0], 1))
    assert xos.eval_xos_roof(h, 0b10) is None


def _primal_roof(h, target):
    """The roof as the cover LP itself: min sum a_k f_k over a >= 0 with
    every element of ``target`` covered at least once; None when
    infeasible."""
    n = len(h.points)
    rows = tuple(
        lp.Constraint(tuple(Q(mask >> e & 1) for mask, _ in h.points), ">=", Q(1))
        for e in range(h.m)
        if target >> e & 1
    )
    out = lp.solve(
        lp.ExactLP(
            tuple(f"a{k}" for k in range(n)),
            rows,
            (tuple(v for _, v in h.points), "min"),
            lower=(Q(0),) * n,
        )
    )
    return out.value if isinstance(out, lp.Optimal) else None


def test_roof_matches_primal_cover_lp():
    """eval_xos_roof against the primal LP, on instances with duplicate
    footprints, sets reaching outside the target, the empty target and
    uncoverable targets: the value, a cover by the weights at that cost,
    and a dual vector that every defined set bounds and the target meets."""
    rng = random.Random(41)
    seen = {"duplicate": 0, "outside": 0, "empty": 0, "uncoverable": 0}
    for _ in range(300):
        m = rng.randint(1, 5)
        masks = rng.sample(range(1 << m), rng.randint(1, min(6, 1 << m)))
        h = PartialSetFunction(
            m, tuple((s, Q(rng.randint(0, 9), rng.choice((1, 2, 3, 5)))) for s in masks)
        )
        target = rng.randrange(1 << m)
        footprints = [s & target for s in h.masks if s & target]
        seen["duplicate"] += len(set(footprints)) < len(footprints)
        seen["outside"] += any(s & target and s & ~target for s in h.masks)
        seen["empty"] += target == 0
        ref = _primal_roof(h, target)
        got = xos.eval_xos_roof(h, target)
        if ref is None:
            seen["uncoverable"] += 1
            assert got is None
            continue
        value, weights, y = got
        assert value == ref
        values = h.as_dict()
        cover = {e: Q(0) for e in range(m) if target >> e & 1}
        for s, w in weights:
            assert s in values and w > 0
            for e in cover:
                cover[e] += w * (s >> e & 1)
        assert all(c >= 1 for c in cover.values())
        assert sum((w * values[s] for s, w in weights), Q(0)) == value
        assert len(y) == m and all(c >= 0 for c in y)
        assert all(y[e] == 0 for e in range(m) if not target >> e & 1)
        for s, v in h.points:
            assert sum((y[e] for e in range(m) if s >> e & 1), Q(0)) <= v
        assert sum(y, Q(0)) == value
    assert min(seen.values()) >= 10, seen


def test_extend_linear_function():
    h = psf(2, ([0], 1), ([1], 2), ([0, 1], 3))
    out = xos.extend_xos(h)
    assert isinstance(out, xos.XosExtendible)
    assert out.evaluate(0b01) == 1 and out.evaluate(0b10) == 2 and out.evaluate(0b11) == 3


def test_extend_gadget_not_extendible():
    out = xos.extend_xos(GADGET)
    assert isinstance(out, xos.XosNotExtendible)
    assert out.target == 0b111
    cost = sum((w * GADGET.as_dict()[mask] for mask, w in out.weights), Q(0))
    assert cost == 3  # weights 1/2 each
    assert out.check(GADGET)


def test_extend_gadget_with_smaller_top_value():
    h = psf(3, ([0, 1], 2), ([1, 2], 2), ([0, 2], 2), ([0, 1, 2], 3))
    out = xos.extend_xos(h)
    assert isinstance(out, xos.XosExtendible)
    assert out.check(h)


def test_extendible_reconstruction_is_exact_and_monotone():
    rng = random.Random(11)
    found = 0
    while found < 20:
        masks = rng.sample(range(1, 16), rng.randint(2, 5))
        h = PartialSetFunction(
            4, tuple((s, Q(rng.randint(0, 12), rng.randint(1, 3))) for s in masks)
        )
        out = xos.extend_xos(h)
        if not isinstance(out, xos.XosExtendible):
            continue
        found += 1
        assert out.check(h)
        for mask in range(16):  # monotone nonnegative by construction
            assert out.evaluate(mask) >= 0
            for e in range(4):
                if not mask >> e & 1:
                    assert out.evaluate(mask | 1 << e) >= out.evaluate(mask)


def test_empty_set_values():
    assert isinstance(xos.extend_xos(psf(2, ([], 0), ([0], 1))), xos.XosExtendible)
    out = xos.extend_xos(psf(2, ([], 1), ([0], 1)))
    assert isinstance(out, xos.XosNotExtendible)
    assert out.target == 0 and out.weights == ()


def test_approx_extendible_is_one():
    alpha, _ = xos.approx_xos(psf(2, ([0], 1), ([1], 2), ([0, 1], 3)))
    assert alpha == 1


def _assert_vectors_witness(h, alpha, vectors):
    """f_i <= max_k w_k . chi(T_i) <= alpha f_i at every defined T_i, with
    one nonnegative vector of width m per defined set."""
    assert len(vectors) == len(h.points)
    assert all(len(w) == h.m and all(c >= 0 for c in w) for w in vectors)
    for mask, value in h.points:
        g = max(sum((w[e] for e in range(h.m) if mask >> e & 1), Q(0)) for w in vectors)
        assert value <= g <= alpha * value


def test_approx_gadget():
    alpha, vectors = xos.approx_xos(GADGET)
    assert alpha == Q(7, 6)
    _assert_vectors_witness(GADGET, alpha, vectors)


def test_approx_matches_roof_ratio():
    rng = random.Random(23)
    for _ in range(40):
        masks = rng.sample(range(1, 16), rng.randint(2, 5))
        h = PartialSetFunction(
            4, tuple((s, Q(rng.randint(1, 12), rng.randint(1, 3))) for s in masks)
        )
        alpha, vectors = xos.approx_xos(h)
        best = Q(1)
        for mask, value in h.points:
            roof, _, _ = xos.eval_xos_roof(h, mask)
            if value / roof > best:
                best = value / roof
        assert alpha == best
        _assert_vectors_witness(h, alpha, vectors)


def test_approx_errors():
    with pytest.raises(ValueNotPositive):
        xos.approx_xos(psf(2, ([0], 0), ([1], 1)))
    with pytest.raises(UnattainableFactor):
        xos.approx_xos(psf(2, ([], 1), ([0], 1)))


def test_xos_extendible_implies_subadditive_extendible():
    from extendkit import subadditive as sub

    rng = random.Random(29)
    for _ in range(60):
        masks = rng.sample(range(1, 16), rng.randint(2, 5))
        h = PartialSetFunction(
            4, tuple((s, Q(rng.randint(0, 10), rng.randint(1, 3))) for s in masks)
        )
        if isinstance(xos.extend_xos(h), xos.XosExtendible):
            assert isinstance(
                sub.extend_monotone_subadditive(h), sub.Extendible
            )


def _cold_fractional_cover(footprints, values, t, start):
    """The reference: fractional_cover's row generation with a cold
    lp.solve of every generated row each round: (value, rows generated)."""
    names = tuple(f"b{i}" for i in range(t))

    def row(k):
        p = footprints[k]
        return lp.Constraint(tuple(p >> i & 1 for i in range(t)), "<=", values[k])

    generated = list(start)
    while True:
        out = lp.solve(
            lp.ExactLP(names, tuple(row(k) for k in generated), ((1,) * t, "max"),
                       lower=(0,) * t)
        )
        y = [out.assignment[name] for name in names]
        slack = [sum(y[i] for i in range(t) if p >> i & 1) - v
                 for p, v in zip(footprints, values)]
        worst = max(range(len(footprints)), key=lambda k: (slack[k], -k))
        if slack[worst] <= 0:
            return out.value, len(generated) - len(start)
        generated.append(worst)


def test_fractional_cover_matches_cold_row_generation():
    """On random footprint families, started from the singletons or from a
    few covering footprints: the value of the cold reference loop, weights
    that cover every element at that cost, and a point y that every
    footprint bounds and whose sum is the value."""
    rng = random.Random(1729)
    rounds = 0
    for _ in range(150):
        t = rng.randint(1, 5)
        pool = rng.sample(range(1, 1 << t), rng.randint(1, (1 << t) - 1))
        footprints = [1 << i for i in range(t)] + pool
        values = [rng.randint(0, 12) for _ in footprints]
        start = range(t) if rng.random() < 0.5 else [
            k for k, p in enumerate(footprints) if p == (1 << t) - 1 or k < t
        ]
        value, weights, y = xos.fractional_cover(footprints, values, t, start)
        ref, generated = _cold_fractional_cover(footprints, values, t, start)
        assert value == ref
        rounds += generated > 1
        cover = [Q(0)] * t
        for k, w in weights:
            assert w > 0
            for i in range(t):
                cover[i] += w * (footprints[k] >> i & 1)
        assert all(c >= 1 for c in cover)
        assert sum((w * values[k] for k, w in weights), Q(0)) == value
        assert all(c >= 0 for c in y) and sum(y, Q(0)) == value
        for p, v in zip(footprints, values):
            assert sum((y[i] for i in range(t) if p >> i & 1), Q(0)) <= v
    assert rounds >= 30


def test_fractional_cover_builds_one_tableau_and_no_cold_solve(monkeypatch):
    """Every generated row is added to one Session; lp.solve never runs."""
    sessions, adds = [], []

    class Counting(lp.Session):
        def __init__(self, problem):
            sessions.append(problem)
            super().__init__(problem)

        def add(self, con):
            adds.append(con)
            super().add(con)

    def no_solve(problem):
        raise AssertionError("fractional_cover called lp.solve")

    monkeypatch.setattr(lp, "Session", Counting)
    monkeypatch.setattr(lp, "solve", no_solve)
    rng = random.Random(5)
    t = 5
    for call in range(1, 21):
        footprints = list(range(1, 1 << t))
        values = [rng.randint(1, 9) * bin(p).count("1") for p in footprints]
        xos.fractional_cover(footprints, values, t, [(1 << i) - 1 for i in range(t)])
        assert len(sessions) == call
    assert len(adds) >= 20
