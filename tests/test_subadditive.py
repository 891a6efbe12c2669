"""Cover DP, subadditive extension decisions, exact factor, gadgets."""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from extendkit import subadditive as sub
from extendkit.errors import InternalError, ValueNotPositive
from extendkit.ground import (
    PartialSetFunction,
    Rational as Q,
    denominator_lcm,
    elements,
    mask_of,
    scaled_int,
    serialize,
)


def psf(m, *pairs):
    return PartialSetFunction(
        m, tuple((mask_of(s), Q(v)) for s, v in pairs)
    )


def test_min_cover_forced_singletons():
    h = psf(2, ([0], 1), ([1], 1))
    cost, cover = sub.min_cover_value(h, 0b11, sub.MONOTONE)
    assert cost == 2 and sorted(cover) == [0b01, 0b10]


def test_min_cover_overlapping_pair():
    h = psf(3, ([0, 1], 1), ([1, 2], 1))
    cost, _ = sub.min_cover_value(h, 0b111, sub.MONOTONE)
    assert cost == 2


def test_min_cover_uncoverable():
    h = psf(2, ([0], 1))
    assert sub.min_cover_value(h, 0b11, sub.MONOTONE) is None


def test_extend_monotone_additive():
    out = sub.extend_monotone_subadditive(psf(2, ([0], 1), ([1], 1), ([0, 1], 2)))
    assert isinstance(out, sub.Extendible)


def test_extend_monotone_gadget_violation():
    h = psf(3, ([0, 1], 1), ([1, 2], 1), ([0, 1, 2], 3))
    out = sub.extend_monotone_subadditive(h)
    assert isinstance(out, sub.NotExtendible)
    v = out.violation
    assert v.target == 0b111 and v.cover_sum == 2 and v.target_value == 3
    assert sorted(v.cover) == [0b011, 0b110]
    assert v.check(h)


def test_extend_monotone_three_singletons():
    out = sub.extend_monotone_subadditive(
        psf(3, ([0], 1), ([1], 1), ([2], 1), ([0, 1, 2], Q(5, 2)))
    )
    assert isinstance(out, sub.Extendible)


def test_extend_general_direct_union():
    h = psf(2, ([0], 1), ([1], 1), ([0, 1], 3))
    out = sub.extend_general_subadditive(h)
    assert isinstance(out, sub.NotExtendible)
    assert out.violation.cover_sum == 2
    assert out.violation.check(h, sub.EXACT_UNION)


def test_extend_general_union_of_overlapping():
    h = psf(3, ([0, 1], 1), ([1, 2], 1), ([0, 1, 2], 3))
    assert isinstance(sub.extend_general_subadditive(h), sub.NotExtendible)


def test_extend_general_no_binding_union():
    # {0} u {1,2} = {0,1,2} is undefined, so nothing binds {0,1}
    h = psf(3, ([0], 1), ([1, 2], 1), ([0, 1], 5))
    assert isinstance(sub.extend_general_subadditive(h), sub.Extendible)
    # but the monotone variant sees the cover {0},{1,2} of {0,1}
    assert isinstance(sub.extend_monotone_subadditive(h), sub.NotExtendible)


def test_approx_exact_is_one_iff_extendible():
    h = psf(2, ([0], 1), ([1], 1), ([0, 1], 2))
    alpha, _ = sub.approx_monotone_subadditive_exact(h)
    assert alpha == 1


def test_approx_exact_values():
    alpha, witness = sub.approx_monotone_subadditive_exact(
        psf(3, ([0], 1), ([1], 1), ([2], 1), ([0, 1, 2], 6))
    )
    assert alpha == 2 and witness.target == 0b111 and witness.cover_sum == 3

    alpha, _ = sub.approx_monotone_subadditive_exact(
        psf(3, ([0, 1], 1), ([1, 2], 1), ([0, 1, 2], 3))
    )
    assert alpha == Q(3, 2)


def test_approx_requires_positive():
    with pytest.raises(ValueNotPositive):
        sub.approx_monotone_subadditive_exact(psf(2, ([0], 0), ([1], 1)))


def test_approx_via_xos():
    h = psf(3, ([0, 1], 2), ([1, 2], 2), ([0, 2], 2), ([0, 1, 2], Q(7, 2)))
    assert sub.approx_subadditive_via_xos(h) == Q(7, 6)
    # the instance is subadditive-extendible, so the integral factor is 1
    alpha, _ = sub.approx_monotone_subadditive_exact(h)
    assert alpha == 1


def test_is_r_cover_free():
    fam = [mask_of([0]), mask_of([1]), mask_of([2])]
    ok, _ = sub.is_r_cover_free(fam, 2)
    assert ok
    fam = [mask_of([0, 1]), mask_of([1, 2]), mask_of([0, 2]), mask_of([0, 1, 2])]
    ok, witness = sub.is_r_cover_free(fam, 2)
    assert not ok
    target, combo = witness
    union = combo[0] | combo[1]
    assert target & ~union == 0


def test_cover_free_value_assignments_extend():
    """r-cover-free families extend for any values in [1, r+1]."""
    rng = random.Random(5)
    fam = [mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5]), mask_of([0, 2, 4])]
    ok, _ = sub.is_r_cover_free(fam, 2)
    assert ok
    for _ in range(1000):
        pairs = tuple(
            (mask, Q(rng.randint(4, 12), 4)) for mask in fam  # values in [1,3]
        )
        h = PartialSetFunction(6, pairs)
        assert isinstance(sub.extend_monotone_subadditive(h), sub.Extendible)


def test_gen_set_cover_gadget():
    # min cover of [3] by V is 2, so extendible exactly when k < 2
    h = sub.gen_set_cover_gadget(3, [[0, 1], [1, 2]], 1)
    assert isinstance(sub.extend_monotone_subadditive(h), sub.Extendible)
    h = sub.gen_set_cover_gadget(3, [[0, 1], [1, 2]], 2)
    assert isinstance(sub.extend_monotone_subadditive(h), sub.NotExtendible)
    h = sub.gen_set_cover_gadget(2, [[0], [1]], 1)
    assert isinstance(sub.extend_monotone_subadditive(h), sub.Extendible)
    h = sub.gen_set_cover_gadget(2, [[0], [1]], 2)
    assert isinstance(sub.extend_monotone_subadditive(h), sub.NotExtendible)


def test_gen_set_cover_gadget_rejects_full_set_in_family():
    from extendkit.errors import InfeasibleParameters

    with pytest.raises(InfeasibleParameters):
        sub.gen_set_cover_gadget(2, [[0, 1]], 0)


def test_scaling_invariance():
    rng = random.Random(17)
    for _ in range(50):
        masks = rng.sample(range(1, 16), rng.randint(2, 6))
        h = PartialSetFunction(
            4, tuple((s, Q(rng.randint(1, 20), rng.randint(1, 4))) for s in masks)
        )
        c = Q(rng.randint(1, 7), rng.randint(1, 7))
        hs = h.scaled(c)
        for mask, _ in h.points:
            cost, _ = sub.min_cover_value(h, mask, sub.MONOTONE)
            cost_s, _ = sub.min_cover_value(hs, mask, sub.MONOTONE)
            assert cost_s == c * cost
        a1, _ = sub.approx_monotone_subadditive_exact(h)
        a2, _ = sub.approx_monotone_subadditive_exact(hs)
        assert a1 == a2
        v1 = sub.extend_monotone_subadditive(h)
        v2 = sub.extend_monotone_subadditive(hs)
        assert type(v1) is type(v2)


def test_empty_set_positive_value_allowed():
    # monotone subadditive permits f(empty) > 0 as long as nothing defined
    # sits below it
    h = psf(2, ([], 1), ([0], 2), ([0, 1], 2))
    assert isinstance(sub.extend_monotone_subadditive(h), sub.Extendible)
    h = psf(2, ([], 3), ([0], 2))
    out = sub.extend_monotone_subadditive(h)
    assert isinstance(out, sub.NotExtendible)
    assert out.violation.target == 0


def _bruteforce_min_cover(points, target, variant):
    """Least Fraction sum over every nonempty subfamily of usable sets whose
    union covers target (monotone) or equals it (exact union)."""
    usable = [
        (mask, Fraction(v))
        for mask, v in points
        if variant == sub.MONOTONE or not mask & ~target
    ]
    best = None
    for r in range(1, len(usable) + 1):
        for fam in combinations(usable, r):
            union = 0
            for mask, _v in fam:
                union |= mask
            exact = variant == sub.MONOTONE or union == target
            if union & target == target and exact:
                cost = sum((v for _mask, v in fam), Fraction(0))
                if best is None or cost < best:
                    best = cost
    return best


@pytest.mark.parametrize("variant", [sub.MONOTONE, sub.EXACT_UNION])
def test_min_cover_value_matches_bruteforce_coprime_denominators(variant):
    """The integer DP against Fraction brute force, with denominators 3, 5,
    7 and 11, so the common denominator exceeds every single one."""
    rng = random.Random(41)
    wide = 0
    for _ in range(60):
        m = rng.randint(2, 4)
        masks = rng.sample(range(1 << m), rng.randint(1, min(7, 1 << m)))
        h = PartialSetFunction(
            m,
            tuple((s, Q(rng.randint(0, 12), rng.choice((3, 5, 7, 11)))) for s in masks),
        )
        wide += lcm(*(int(v.denominator) for _s, v in h.points)) > 11
        for target in {rng.randrange(1 << m), *masks}:
            want = _bruteforce_min_cover(h.points, target, variant)
            got = sub.min_cover_value(h, target, variant)
            if want is None:
                assert got is None
                continue
            cost, cover = got
            assert cost == want
            values = h.as_dict()
            assert sum((Fraction(values[c]) for c in cover), Fraction(0)) == want
            union = 0
            for c in cover:
                union |= c
            assert union & target == target
            if variant == sub.EXACT_UNION:
                assert union == target
    assert wide >= 30


def _element_min_cover(h, target, variant):
    """The cover DP over the target's element masks, with the kernel's
    tie-breaks: each step covers the lowest uncovered element with the
    first cheapest candidate in point order. The reference for the atom DP."""
    if target == 0:
        if variant == sub.EXACT_UNION:
            for mask, value in h.points:
                if mask == 0:
                    return value, (0,)
            return None
        best_mask, best = min(h.points, key=lambda p: (p[1], p[0]))
        return best, (best_mask,)
    scale = denominator_lcm(value for _mask, value in h.points)
    elems = elements(target)
    t = len(elems)
    pos = {e: i for i, e in enumerate(elems)}

    def pack(mask):
        p = 0
        for e in elements(mask & target):
            p |= 1 << pos[e]
        return p

    containing = [[] for _ in range(t)]
    for mask, value in h.points:
        if variant == sub.EXACT_UNION and mask & ~target:
            continue
        p = pack(mask)
        entry = (p, scaled_int(value, scale), mask)
        for i in range(t):
            if p >> i & 1:
                containing[i].append(entry)
    size = 1 << t
    dp = [None] * size
    dp[0] = 0
    choice = [None] * size
    for mask in range(1, size):
        best = None
        best_set = None
        for p, value, orig in containing[(mask & -mask).bit_length() - 1]:
            rest = dp[mask & ~p]
            if rest is None:
                continue
            cost = rest + value
            if best is None or cost < best:
                best = cost
                best_set = orig
        dp[mask] = best
        choice[mask] = best_set
    if dp[size - 1] is None:
        return None
    cover = []
    mask = size - 1
    while mask:
        orig = choice[mask]
        cover.append(orig)
        mask &= ~pack(orig)
    return Q(dp[size - 1], scale), tuple(cover)


def _atom_instance(rng):
    """Sets over at most 12 elements: unions of 3-5 atoms of a core, some
    with a piece of the rest of the ground set (so several sets share a
    footprint on a union of atoms), some inside the rest alone."""
    m = rng.randint(7, 12)
    ground = list(range(m))
    rng.shuffle(ground)
    k = rng.randint(3, 5)
    cut = rng.randint(k, m - 2)
    core, rest = ground[:cut], ground[cut:]
    atoms = [mask_of(core[j::k]) for j in range(k)]
    masks = set()
    for _ in range(rng.randint(3, 12)):
        s = sum(rng.sample(atoms, rng.randint(1, k)))
        roll = rng.random()
        if roll < 0.4:
            s |= mask_of(rng.sample(rest, rng.randint(1, len(rest))))
        elif roll < 0.55:
            s = mask_of(rng.sample(rest, rng.randint(1, len(rest))))
        masks.add(s)
    values = tuple((s, Q(rng.randint(0, 6), rng.choice((1, 2, 3)))) for s in masks)
    targets = {0, *masks, *(sum(rng.sample(atoms, rng.randint(1, k))) for _ in range(4))}
    return PartialSetFunction(m, values), targets


@pytest.mark.parametrize("variant", [sub.MONOTONE, sub.EXACT_UNION])
def test_atom_dp_matches_element_dp(variant):
    """The kernel returns the element-level DP's exact (cost, cover) tuple,
    on unions of 3-5 atoms with duplicate footprints (equal and unequal
    values), sets disjoint from the target, sets sticking out of it, and
    the empty target."""
    rng = random.Random(23)
    seen = {"equal": 0, "unequal": 0, "disjoint": 0, "sticking": 0, "empty": 0}
    for _ in range(150):
        h, targets = _atom_instance(rng)
        for target in targets:
            want = _element_min_cover(h, target, variant)
            assert sub.min_cover_value(h, target, variant) == want
            seen["empty"] += target == 0
            by_footprint = {}
            for mask, value in h.points:
                seen["disjoint"] += bool(target and not mask & target)
                seen["sticking"] += bool(mask & target and mask & ~target)
                if mask & target:
                    by_footprint.setdefault(mask & target, []).append(value)
            for vals in by_footprint.values():
                seen["equal"] += len(vals) > len(set(vals))
                seen["unequal"] += len(set(vals)) > 1
    assert min(seen.values()) >= 20, seen


def test_decide_raises_internal_error_on_corrupted_cover(monkeypatch, tmp_path):
    h = psf(2, ([0], 1), ([1], 1), ([0, 1], 3))
    # a cover that claims cost 0 for the target itself does not verify
    monkeypatch.setattr(sub, "min_cover_value", lambda h, t, variant: (Q(0), (t,)))
    with pytest.raises(InternalError):
        sub.extend_monotone_subadditive(h)
    monkeypatch.setattr(sub, "min_cover_value", lambda h, t, variant: None)
    with pytest.raises(InternalError):
        sub.extend_general_subadditive(h)

    path = tmp_path / "h.json"
    path.write_text(serialize(h))
    from extendkit import cli

    assert cli.main(["extend", "--class", "subadditive", "--input", str(path)]) == 2


def test_corrupted_cover_exits_2_under_python_O(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(serialize(psf(2, ([0], 1), ([1], 1), ([0, 1], 3))))
    code = (
        "import sys\n"
        "from extendkit import cli, subadditive\n"
        "subadditive.min_cover_value = lambda h, t, variant: None\n"
        "sys.exit(cli.main(['extend', '--class', 'subadditive', '--input', "
        f"{str(path)!r}]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True
    )
    assert out.returncode == 2 and out.stdout == ""
    assert "internal error" in out.stderr
