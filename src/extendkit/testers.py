"""Property testers for subadditive, XOS, and nonmonotone subadditive
functions over query oracles, with exact violation checks and query
accounting.

Each run draws ceil(1/eps) sets T from the middle-weighted slice M_lambda
of the cube. Per draw it enumerates the subsets of T once (the p-th subset
packs to p), reads the queried ones as one table of ints over a common
denominator, and every check reads that table by index; it rejects on an
exactly verified violation. lambda uses the natural logarithm in both
samplers: the two Chernoff arguments need e^{-lambda^2}, so sqrt(ln(4/eps))
is the proof-consistent reading of the two differing notations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import EpsilonOutOfRange, InternalError, TooLarge
from .ground import (
    PartialSetFunction,
    Rational,
    denominator_lcm,
    elements,
    scaled_int,
    submasks,
    to_jsonable,
)
from .subadditive import CoverViolation
from .xos import XosNotExtendible, fractional_cover

ONESIDED = "onesided"
TWOSIDED = "twosided"

# The most draws a run takes. A smaller eps is refused before the first
# draw: the run would not end in reasonable time, and below the smallest
# float float(eps) is 0, which layer_bounds divides by.
MAX_DRAWS = 1 << 16


class FunctionOracle:
    """Oracle access to f: 2^[m] -> Q_(>=0) with a monotone query counter
    (one increment per set that evaluate or read_scaled reads)."""

    def __init__(self, m: int, fn: Callable[[int], Rational]):
        self.m = m
        self._fn = fn
        self._scaled = self._scaled_rationals
        self.query_count = 0

    @classmethod
    def from_table(cls, table) -> "FunctionOracle":
        """Wrap a FullTable; read_scaled takes the int pairs straight from
        the table's literals."""
        oracle = cls(table.m, table.values.__getitem__)
        oracle._scaled = table.values.scaled
        return oracle

    def _scaled_rationals(self, masks) -> tuple[list[int], int]:
        values = list(map(self._fn, masks))
        scale = denominator_lcm(values)
        return [scaled_int(v, scale) for v in values], scale

    def evaluate(self, mask: int) -> Rational:
        self.query_count += 1
        return self._fn(mask)

    def read_scaled(self, masks) -> tuple[list[int], int]:
        """The values at the distinct ``masks`` as ints over the lcm of their
        denominators, in order: (ints, scale), each value being int / scale.
        One query per set."""
        self.query_count += len(masks)
        return self._scaled(masks)

    def restrict(self, masks) -> PartialSetFunction:
        """The oracle's values at ``masks``, as a partial function."""
        return PartialSetFunction(
            self.m, tuple((s, self.evaluate(s)) for s in dict.fromkeys(masks))
        )


def _as_rational(epsilon) -> Rational:
    if isinstance(epsilon, float):
        eps = Rational(str(epsilon))
    else:
        eps = Rational(epsilon)
    if not 0 < eps < 1:
        raise EpsilonOutOfRange(f"epsilon must lie in (0,1), got {epsilon}")
    return eps


def layer_bounds(m: int, epsilon, variant: str) -> tuple[int, int, float]:
    """(kmin, kmax, lambda) for M_lambda."""
    eps = _as_rational(epsilon)
    lam = math.sqrt(math.log(4 / float(eps)))
    hw = lam * math.sqrt(m)
    kmax = min(m, math.floor(m / 2 + hw))
    if variant == ONESIDED:
        kmin = 0
    elif variant == TWOSIDED:
        kmin = max(0, math.ceil(m / 2 - hw))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return kmin, kmax, lam


def sample_M_lambda(m: int, epsilon, variant: str, rng: random.Random) -> int:
    """Uniform draw from M_lambda = sets with kmin <= |S| <= kmax."""
    return layer_sampler(m, epsilon, variant)(rng)


def layer_sampler(m: int, epsilon, variant: str) -> Callable[[random.Random], int]:
    """sample_M_lambda as a function of the rng, with the layers and their
    weights computed once: a run makes up to 2^16 draws."""
    kmin, kmax, _ = layer_bounds(m, epsilon, variant)
    layers = [(k, math.comb(m, k)) for k in range(kmin, kmax + 1)]
    total = sum(w for _k, w in layers)
    ground = range(m)

    def draw(rng: random.Random) -> int:
        r = rng.randrange(total)
        for k, w in layers:
            if r < w:
                mask = 0
                for e in rng.sample(ground, k):
                    mask |= 1 << e
                return mask
            r -= w
        raise InternalError("internal error: the layer draw fell past the last layer")

    return draw


def query_bound(m: int, epsilon, variant: str) -> float:
    """The class bound on total queries: |Q(T)|/eps with |Q(T)| at most
    2^(m/2 + lambda sqrt(m)) (monotone testers) or the layer-restricted
    subset count (nonmonotone)."""
    eps = _as_rational(epsilon)
    kmin, kmax, lam = layer_bounds(m, epsilon, variant)
    if variant == ONESIDED:
        per_iter = 2.0 ** (m / 2 + lam * math.sqrt(m))
    else:
        per_iter = float(
            sum(math.comb(kmax, j) for j in range(kmin, kmax + 1))
        )
    return per_iter / float(eps)


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class MonotonicityWitness:
    target: int
    subset: int
    target_value: Rational
    subset_value: Rational

    def verify(self, oracle: FunctionOracle) -> bool:
        return (
            self.subset & ~self.target == 0
            and oracle.evaluate(self.target) == self.target_value
            and oracle.evaluate(self.subset) == self.subset_value
            and self.target_value < self.subset_value
        )

    def _to_jsonable(self):
        return {
            "target": list(elements(self.target)),
            "subset": list(elements(self.subset)),
            "target_value": str(self.target_value),
            "subset_value": str(self.subset_value),
        }


# the "kind" each rejection witness carries in a report; a cover is an
# exact-union one (CoverViolation.verify), a fractional cover an XOS
# refutation
_KINDS = {
    MonotonicityWitness: "monotonicity",
    CoverViolation: "cover",
    XosNotExtendible: "fractional-cover",
}


@dataclass(frozen=True)
class TesterReport:
    verdict: str  # "accept" | "reject"
    queries: int
    witness: Optional[object]
    iterations_run: int
    seed: Optional[int]

    def _to_jsonable(self):
        w = self.witness
        return {
            "verdict": self.verdict,
            "queries": self.queries,
            "iterations_run": self.iterations_run,
            "seed": self.seed,
            "witness": {"kind": _KINDS[type(w)], **to_jsonable(w)} if w else None,
        }


# ---------------------------------------------------------------------------
# exact per-target checks


def min_union_cover(vals, subs):
    """Minimum-cost family of queried subsets of the target ``subs[-1]``
    whose union is exactly the target: (cost, cover) or None.

    ``subs`` is submasks(target), so the p-th subset packs to p, and
    ``vals[p]`` is its value, or None where it was not queried.
    Superset-minimization first (covering already-covered elements is
    free), then a cover DP over the 3^|T| (footprint, remainder) pairs. It
    runs on the values as given, with no rescaling: the testers pass ints
    over a common denominator, on which the cost is that many times the
    rational one and the cover is the same.
    """
    full = len(subs) - 1
    if not full:
        # families have r >= 1 sets and every set is a subset of the
        # target; only the empty set itself can cover the empty target
        return None if vals[0] is None else (vals[0], (0,))
    t = full.bit_length()
    # A footprint no queried set holds costs ``none``: above twice the sum
    # of |psi| over all 2^t footprints, each at most the largest |value|.
    # A partition of the target into held footprints costs at most that sum
    # and one using an unheld footprint at least ``none`` minus it, so the
    # latter never ties or beats the former.
    held = [v for v in vals if v is not None]
    none = max(map(abs, held), default=0) * (2 << t) + 1
    # psi[p]: the cheapest queried set whose footprint is a superset of p;
    # the DP reads no psi[0], so the empty set's value is left in place
    psi = [none if v is None else v for v in vals]
    arg = [None if v is None else s for s, v in zip(subs, vals)]
    for i in range(t):
        bit = 1 << i
        for p in range(full, -1, -1):
            if p & bit:
                continue
            q = p | bit
            if psi[q] < psi[p]:
                psi[p] = psi[q]
                arg[p] = arg[q]

    dp: list = [0] * (full + 1)
    par: list = [0] * (full + 1)
    for mask in range(1, full + 1):
        # the footprints holding the lowest element of mask, in descending
        # order: low | every submask of the rest, from mask itself down
        low = mask & -mask
        rest = mask ^ low
        best = psi[mask]
        best_p = mask
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            cand = dp[rest ^ sub] + psi[sub | low]
            if cand < best:
                best = cand
                best_p = sub | low
        dp[mask] = best
        par[mask] = best_p
    cover = []
    mask = full
    while mask:
        p = par[mask]
        if arg[p] is None:
            return None  # the cheapest partition uses an unheld footprint
        cover.append(arg[p])
        mask ^= p
    return dp[full], tuple(cover)


def fractional_cover_min(vals, subs):
    """Optimal fractional cover of the target ``subs[-1]`` by its own
    nonempty subsets, ``subs`` and ``vals`` packed as in min_union_cover
    with every value present: (value, weights). Row generation from the
    singletons keeps the LP small although there are 2^|T| - 1 candidate
    sets. On values scaled by an integer the value scales with them and the
    weights are the same."""
    t = (len(subs) - 1).bit_length()
    value, weights, _y = fractional_cover(
        range(1, len(subs)), vals[1:], t, [(1 << i) - 1 for i in range(t)]
    )
    return value, tuple((subs[k + 1], w) for k, w in weights)


# ---------------------------------------------------------------------------
# the testers


def _run(oracle: FunctionOracle, epsilon, rng, variant: str, checks):
    """The testers' one loop: ceil(1/eps) draws of T from M_lambda, each
    with subs = submasks(T) (the p-th subset packs to p) and one oracle
    read of the subsets with at least kmin elements, as ints over a common
    denominator: vals[p], or None where subs[p] was not read. It rejects at
    the first witness one of ``checks(subs, vals, scale)`` returns. The
    checks compare those ints and form Rationals (int / scale) only for a
    witness."""
    eps = _as_rational(epsilon)
    if isinstance(rng, random.Random):
        seed = None
    else:
        seed = int(rng)
        rng = random.Random(seed)
    if oracle.m > 24:
        raise TooLarge("testers query subsets of the drawn set; m <= 24 only")
    iterations = math.ceil(1 / eps)
    if iterations > MAX_DRAWS:
        raise TooLarge(f"a tester run takes ceil(1/eps) draws; at most {MAX_DRAWS}")
    draw = layer_sampler(oracle.m, eps, variant)
    # T lies in the layers, so no subset of it is above kmax
    kmin = layer_bounds(oracle.m, eps, variant)[0]
    start = oracle.query_count
    for it in range(1, iterations + 1):
        subs = submasks(draw(rng))
        if kmin:
            read = [p for p in range(len(subs)) if p.bit_count() >= kmin]
            ints, scale = oracle.read_scaled([subs[p] for p in read])
            vals = [None] * len(subs)
            for p, v in zip(read, ints):
                vals[p] = v
        else:
            vals, scale = oracle.read_scaled(subs)
        for check in checks:
            w = check(subs, vals, scale)
            if w is not None:
                return TesterReport("reject", oracle.query_count - start, w, it, seed)
    return TesterReport("accept", oracle.query_count - start, None, iterations, seed)


def _monotonicity_violation(subs, vals, scale):
    ft = vals[-1]
    if max(vals) <= ft:
        return None
    for s, v in zip(subs, vals):
        if v > ft:
            return MonotonicityWitness(subs[-1], s, Rational(ft, scale), Rational(v, scale))
    return None


def _union_cover_violation(subs, vals, scale):
    hit = min_union_cover(vals, subs)
    if hit is not None and hit[0] < vals[-1]:
        return CoverViolation(
            subs[-1], hit[1], Rational(hit[0], scale), Rational(vals[-1], scale)
        )
    return None


def _fractional_cover_violation(subs, vals, scale):
    cost, weights = fractional_cover_min(vals, subs)
    if cost < vals[-1]:
        return XosNotExtendible(
            subs[-1], weights, cost / scale, Rational(vals[-1], scale)
        )
    return None


def test_subadditive(oracle: FunctionOracle, epsilon, rng) -> TesterReport:
    """Monotone subadditive tester: draw T from the one-sided M_lambda,
    query all subsets, reject on f(T) < f(T') for T' inside T or on an
    exact-union cover cheaper than f(T)."""
    return _run(
        oracle, epsilon, rng, ONESIDED, (_monotonicity_violation, _union_cover_violation)
    )


def test_xos(oracle: FunctionOracle, epsilon, rng) -> TesterReport:
    """XOS tester: like the subadditive tester but the cover check is the
    fractional-cover LP over the subsets of T."""
    return _run(
        oracle, epsilon, rng, ONESIDED, (_monotonicity_violation, _fractional_cover_violation)
    )


def test_nonmonotone_subadditive(oracle: FunctionOracle, epsilon, rng) -> TesterReport:
    """Nonmonotone subadditive tester: two-sided M_lambda, queries only
    Q(T) = subsets of T inside M_lambda, rejects only on exact-union
    covers by Q(T) members."""
    return _run(oracle, epsilon, rng, TWOSIDED, (_union_cover_violation,))
