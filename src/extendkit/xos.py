"""XOS (max-of-nonnegative-linear, equivalently fractionally subadditive)
extension: exact decision, the optimal approximation factor and roof
evaluation, all from one fractional-cover LP per defined set.

A partial function extends to an XOS function iff every defined set's
fractional cover by defined sets costs at least its own value. The dual of
the roof LP at T_i is a vector y_i >= 0, zero outside T_i, with
y_i . chi(T_k) <= f_k for every k and y_i . chi(T_i) = roof(T_i) <= f_i. So
alpha = max(1, max_i f_i / roof(T_i)) is the optimal factor, witnessed by
the vectors alpha * y_i; at alpha = 1 the y_i are the supporting vectors
of an exact extension.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lp
from .errors import InternalError, UnattainableFactor, ValueNotPositive
from .ground import ONE, ZERO, PartialSetFunction, Rational, elements


@dataclass(frozen=True)
class XosExtendible:
    """Supporting vectors w_i >= 0 with max_j w_j . chi(T_i) = w_i . chi(T_i) = f_i."""

    vectors: tuple[tuple[Rational, ...], ...]

    def evaluate(self, mask: int) -> Rational:
        best = ZERO
        for w in self.vectors:
            v = sum((w[e] for e in elements(mask)), ZERO)
            if v > best:
                best = v
        return best

    def check(self, h: PartialSetFunction) -> bool:
        if any(c < 0 for w in self.vectors for c in w):
            return False
        return all(self.evaluate(mask) == value for mask, value in h.points)

    def _to_jsonable(self):
        return {"vectors": [[str(c) for c in w] for w in self.vectors]}


@dataclass(frozen=True)
class XosNotExtendible:
    """A fractional cover of ``target`` by defined sets costing < f(target)."""

    target: int
    weights: tuple[tuple[int, Rational], ...]

    def check(self, h: PartialSetFunction) -> bool:
        values = h.as_dict()
        if self.target not in values:
            return False
        cost = ZERO
        coverage = {e: ZERO for e in elements(self.target)}
        for mask, w in self.weights:
            if mask not in values or w < 0:
                return False
            cost += w * values[mask]
            for e in elements(mask & self.target):
                coverage[e] += w
        return all(c >= 1 for c in coverage.values()) and cost < values[self.target]

    def _to_jsonable(self):
        return {
            "target": list(elements(self.target)),
            "weights": [
                {"set": list(elements(mask)), "weight": str(w)}
                for mask, w in self.weights
            ],
        }


def eval_xos_roof(h: PartialSetFunction, target: int):
    """Minimum cost of a fractional cover of ``target`` by defined sets:
    (value, optimal weights, optimal dual vector), or None when some element
    of ``target`` lies in no defined set.

    The dual vector y over [m] is zero outside ``target``, has
    y . chi(T_k) <= f_k for every defined T_k, and y . chi(target) = value.
    """
    h.require_nonnegative("xos")
    elems = elements(target)
    for e in elems:
        if not any(mask >> e & 1 for mask, _ in h.points):
            return None
    n = len(h.points)
    names = tuple(f"a{i}" for i in range(n))
    cons = []
    for e in elems:
        row = tuple(ONE if mask >> e & 1 else ZERO for mask, _ in h.points)
        cons.append(lp.Constraint(row, ">=", ONE))
    objective = (tuple(v for _, v in h.points), "min")
    out = lp.solve(
        lp.ExactLP(names, tuple(cons), objective, lower=(ZERO,) * n)
    )
    if not isinstance(out, lp.Optimal):
        raise InternalError("internal error: a coverable roof LP has no optimum")
    weights = tuple(
        (mask, out.assignment[f"a{i}"])
        for i, (mask, _) in enumerate(h.points)
        if out.assignment[f"a{i}"] != 0
    )
    # the multipliers of the element rows; the lower-bound rows follow them
    vector = [ZERO] * h.m
    for e, y in zip(elems, out.dual):
        vector[e] = y
    return out.value, weights, tuple(vector)


def extend_xos(h: PartialSetFunction):
    """Decide XOS extendibility: the minimizing fractional cover is the
    witness on the negative side; on the positive side the roof duals are
    the supporting vectors."""
    h.require_nonnegative("xos")
    vectors = []
    for target, value in h.points:
        roof = eval_xos_roof(h, target)
        if roof is None:
            raise InternalError("internal error: a defined set does not cover itself")
        cost, weights, vector = roof
        if cost < value:
            return _checked(XosNotExtendible(target, weights), h)
        vectors.append(vector)
    return _checked(XosExtendible(tuple(vectors)), h)


def approx_xos(h: PartialSetFunction):
    """Optimal alpha for approximate XOS extension, max(1, max_i f_i /
    roof(T_i)), plus the roof duals scaled by alpha as the vectors."""
    for mask, v in h.points:
        if v <= 0:
            raise ValueNotPositive(
                f"approximate XOS extension needs values > 0; "
                f"f({sorted(elements(mask))}) = {v}"
            )
        if mask == 0:
            raise UnattainableFactor(
                "the empty set carries a positive value but every XOS "
                "function is 0 there; no finite factor exists"
            )
    alpha = ONE
    duals = []
    for mask, value in h.points:
        roof, _weights, vector = eval_xos_roof(h, mask)
        alpha = max(alpha, value / roof)
        duals.append(vector)
    return alpha, tuple(tuple(alpha * y for y in w) for w in duals)


def _checked(witness, h: PartialSetFunction):
    if not witness.check(h):
        raise InternalError(f"internal error: {type(witness).__name__} does not verify")
    return witness
