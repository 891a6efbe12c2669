"""Monotone and nonmonotone subadditive extension: decision via minimum
covers, exact approximation factor, cover-free-family utilities, and the
set-cover hardness gadget as a test generator.

A partial function extends to a monotone subadditive function exactly when
every defined set T satisfies min-cover-cost(T) >= f(T), where covers are
families of defined sets whose union contains T. For the nonmonotone class
the family's union must equal T exactly.

The minimum cover is an exact DP over the Venn atoms of T: the pieces into
which the usable sets' footprints on T cut it. Its cost is 2^a(T)·n for
a(T) atoms and n defined sets, with a(T) <= |T|.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import InfeasibleParameters, InternalError
from .ground import PartialSetFunction, Rational, elements, mask_of
from .xos import approx_xos

MONOTONE = "monotone"
EXACT_UNION = "exact_union"


@dataclass(frozen=True)
class CoverViolation:
    """A family of defined sets covering ``target`` at total value
    ``cover_sum``: a refutation when that is below f(target) =
    ``target_value``, and the witness of the subadditive factor."""

    target: int
    cover: tuple[int, ...]
    cover_sum: Rational
    target_value: Rational

    def check(self, h: PartialSetFunction, variant: str = MONOTONE) -> bool:
        """Re-verify the violation from the partial function alone."""
        values = h.as_dict()
        if self.target not in values or any(c not in values for c in self.cover):
            return False
        union = 0
        total = Rational(0)
        for c in self.cover:
            union |= c
            total += values[c]
        if variant == MONOTONE:
            covered = union | self.target == union
        else:
            covered = union == self.target
        return (
            covered
            and total == self.cover_sum
            and values[self.target] == self.target_value
            and total < values[self.target]
        )

    def verify(self, oracle) -> bool:
        """The exact-union check() on the oracle's values at the sets the
        witness names; an exact union keeps every cover set inside the
        target."""
        return self.check(oracle.restrict((self.target, *self.cover)), EXACT_UNION)

    def _to_jsonable(self):
        return {
            "target": list(elements(self.target)),
            "cover": [list(elements(c)) for c in self.cover],
            "cover_sum": str(self.cover_sum),
            "target_value": str(self.target_value),
        }


@dataclass(frozen=True)
class Extendible:
    pass


@dataclass(frozen=True)
class NotExtendible:
    violation: CoverViolation


def min_cover_value(
    h: PartialSetFunction, target: int, variant: str = MONOTONE
) -> Optional[tuple[Rational, tuple[int, ...]]]:
    """Exact minimum cover cost of ``target`` by defined sets, with an
    optimal cover; None when no cover exists.

    monotone: families whose union contains target (only the part of each
    defined set inside target matters). exact_union: families of defined
    subsets of target whose union is exactly target.
    """
    if variant not in (MONOTONE, EXACT_UNION):
        raise ValueError(f"unknown variant {variant!r}")
    if target == 0:
        # covers need r >= 1 sets; for the empty target that is any single
        # defined set (monotone) or the empty set itself (exact union)
        if variant == EXACT_UNION:
            for mask, value in h.points:
                if mask == 0:
                    return value, (0,)
            return None
        best_mask, best = min(h.points, key=lambda p: (p[1], p[0]))
        return best, (best_mask,)
    # the DP runs on the values scaled to integers by their common
    # denominator scale; scaling by scale > 0 keeps every comparison.
    # Only the cheapest set per footprint on target can win (the earliest
    # on ties, as in point order); a set with no footprint, or one sticking
    # out of target under exact union, cannot be used.
    scale, ints = h.int_values
    cheapest: dict[int, int] = {}
    for k, (mask, _value) in enumerate(h.points):
        p = mask & target
        if p and (variant == MONOTONE or p == mask):
            j = cheapest.get(p)
            if j is None or ints[k] < ints[j]:
                cheapest[p] = k
    # the Venn atoms of target under the kept footprints, by lowest element
    # (once every element is an atom, no footprint splits one further)
    union = 0
    atoms = [target]
    t = target.bit_count()
    for p in cheapest:
        union |= p
        if len(atoms) < t:
            atoms = [part for a in atoms for part in (a & p, a & ~p) if part]
    if union != target:
        return None
    atoms.sort(key=lambda a: a & -a)
    index = {a & -a: i for i, a in enumerate(atoms)}
    # containing[i] lists the kept sets holding atom i, in point order, as
    # (complement of the atom mask of their footprint, scaled value, set)
    containing = [[] for _ in atoms]
    for k in sorted(cheapest.values()):
        mask = h.points[k][0]
        rest = mask & target
        inside = []
        packed = 0
        while rest:  # one step per atom of the footprint
            i = index[rest & -rest]
            inside.append(i)
            packed |= 1 << i
            rest &= ~atoms[i]
        entry = (~packed, ints[k], mask)
        for i in inside:
            containing[i].append(entry)

    # dp over unions of atoms; each step covers the lowest uncovered atom,
    # which holds the lowest uncovered element, so costs and tie-breaks are
    # those of the DP over element masks. Every atom lies in a kept set, so
    # every state has a cover.
    size = 1 << len(atoms)
    dp = [0] * size
    choice: list = [None] * size
    for state in range(1, size):
        best = None
        for entry in containing[(state & -state).bit_length() - 1]:
            cost = dp[state & entry[0]] + entry[1]
            if best is None or cost < best:
                best = cost
                choice[state] = entry
        dp[state] = best
    cover = []
    state = size - 1
    while state:
        rest, _value, mask = choice[state]
        cover.append(mask)
        state &= rest
    return Rational(dp[size - 1], scale), tuple(cover)


def _decide(h: PartialSetFunction, variant: str):
    h.require_nonnegative(
        "subadditive" if variant == MONOTONE else "subadditive-nonmonotone"
    )
    for target, value in h.points:
        result = min_cover_value(h, target, variant)
        if result is None:  # the self-cover always exists
            raise InternalError(
                "internal error: no cover found for the defined set "
                f"{sorted(elements(target))}"
            )
        cost, cover = result
        if cost < value:
            violation = CoverViolation(target, cover, cost, value)
            if not violation.check(h, variant):
                raise InternalError("internal error: cover violation does not verify")
            return NotExtendible(violation)
    return Extendible()


def extend_monotone_subadditive(h: PartialSetFunction):
    """Extendibility to a monotone subadditive function on 2^[m]."""
    return _decide(h, MONOTONE)


def extend_general_subadditive(h: PartialSetFunction):
    """Extendibility to a (not necessarily monotone) subadditive function."""
    return _decide(h, EXACT_UNION)


def approx_monotone_subadditive_exact(h: PartialSetFunction):
    """The optimal multiplicative factor alpha* for monotone subadditive
    extension, with the argmax target and its minimum cover as witness.

    alpha* = max over defined T of f(T) / min-cover-cost(T); the pointwise
    maximal monotone subadditive function below upper bounds alpha*f is the
    cover roof of those bounds, and the roof scales linearly with alpha.
    With no defined sets the factor is 1 and there is no witness (None).
    """
    h.require_positive("subadditive")
    if not h.points:
        return Rational(1), None
    best = Rational(1)
    best_target = h.points[0][0]
    best_cover: tuple[int, ...] = (best_target,)
    for target, value in h.points:
        cost, cover = min_cover_value(h, target, MONOTONE)  # self-cover exists
        ratio = value / cost
        if ratio > best:
            best, best_target, best_cover = ratio, target, cover
    values = h.as_dict()
    total = sum((values[c] for c in best_cover), Rational(0))
    return best, CoverViolation(best_target, best_cover, total, values[best_target])


def approx_subadditive_via_xos(h: PartialSetFunction) -> Rational:
    """Upper bound for the subadditive factor via the optimal XOS factor.

    Every XOS function is subadditive, and any subadditive function is
    within O(log m) of an XOS one, so alpha_sub <= alpha_xos <= O(log m)
    times alpha_sub.
    """
    h.require_positive("subadditive")
    alpha, _vectors = approx_xos(h)
    return alpha


def is_r_cover_free(family, r: int):
    """Exhaustive r-cover-freeness check; False comes with the witness
    (covered set, covering r-tuple). Exponential in r by design."""
    fam = list(family)
    if len(set(fam)) != len(fam):
        raise ValueError("family must consist of distinct sets")
    for idx, target in enumerate(fam):
        others = fam[:idx] + fam[idx + 1 :]
        for combo in combinations(others, r):
            union = 0
            for c in combo:
                union |= c
            if target & ~union == 0:
                return False, (target, combo)
    return True, None


def gen_set_cover_gadget(m: int, cover_sets, k: int) -> PartialSetFunction:
    """The coNP-hardness instance: each set of the cover family has value 1
    and the full ground set has value k+1. Extendible exactly when every
    cover of [m] needs more than k sets.

    The full ground set may not itself belong to the cover family (it
    would need two conflicting values), and k must be nonnegative."""
    full = (1 << m) - 1
    if k < 0:
        raise InfeasibleParameters("k must be >= 0")
    masks = [s if isinstance(s, int) else mask_of(s) for s in cover_sets]
    if full in masks:
        raise InfeasibleParameters("the full ground set cannot be a cover set")
    points = [(s, Rational(1)) for s in masks]
    points.append((full, Rational(k + 1)))
    return PartialSetFunction(m, tuple(points))
