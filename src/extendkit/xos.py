"""XOS (max-of-nonnegative-linear, equivalently fractionally subadditive)
extension: exact decision, the optimal approximation factor and roof
evaluation, all from one fractional-cover LP per defined set.

A partial function extends to an XOS function iff every defined set's
fractional cover by defined sets costs at least its own value.
fractional_cover() is the package's one fractional-cover LP (the XOS
tester runs it too). It solves the cover's dual: at T_i its duals are the
cover weights and its point is a vector y_i >= 0, zero outside T_i, with
y_i . chi(T_k) <= f_k for every k and y_i . chi(T_i) = roof(T_i) <= f_i. So
alpha = max(1, max_i f_i / roof(T_i)) is the optimal factor, witnessed by
the vectors alpha * y_i; at alpha = 1 the y_i are the supporting vectors
of an exact extension.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lp
from .errors import InternalError, TooLarge, UnattainableFactor
from .ground import (
    MAX_DENSE_M,
    ONE,
    ZERO,
    PartialSetFunction,
    Rational,
    elements,
)


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
    """A fractional cover of ``target`` by defined sets costing ``cost`` <
    f(target) = ``target_value``. Each set covers only its part inside the
    target, which is sound for any XOS refutation."""

    target: int
    weights: tuple[tuple[int, Rational], ...]
    cost: Rational
    target_value: Rational

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
        return (
            all(c >= 1 for c in coverage.values())
            and cost == self.cost
            and values[self.target] == self.target_value
            and cost < self.target_value
        )

    def verify(self, oracle) -> bool:
        """check() on the oracle's values at the sets the witness names."""
        masks = (self.target, *(s for s, _w in self.weights))
        return self.check(oracle.restrict(masks))

    def _to_jsonable(self):
        return {
            "target": list(elements(self.target)),
            "weights": [
                {"set": list(elements(mask)), "weight": str(w)}
                for mask, w in self.weights
            ],
            "cost": str(self.cost),
            "target_value": str(self.target_value),
        }


def fractional_cover(footprints, values, t: int, start):
    """Minimum cost of a fractional cover of the elements 0..t-1 by packed
    footprints, each a nonzero mask over them, with integer costs ``values``
    >= 0 in parallel, when every element lies in some footprint:
    (value, weights, y).

    The LP is the cover's dual: one variable y_i >= 0 per element, maximise
    sum y_i subject to y . chi(p) <= value, one row per footprint. One
    lp.Session starts from the footprints whose indices ``start`` lists;
    while some footprint is left out, each round adds the most violated one
    (the strict maximum of y . chi(p) - value, the first one on ties) to the
    session's optimal tableau, which re-optimises by dual simplex. The
    separation runs on the session's point, integers over the tableau
    denominator, through a table of y . chi(p) for all 2^t masks, so it is
    exact. The session's result is read out and certified once, at the end:
    its duals are the optimal weights, [(footprint index, weight)] for the
    nonzero ones in row order, and its point y has y . chi(p) <= value for
    every footprint and sum y = value.
    """
    if t == 0:
        return ZERO, (), ()
    names = tuple(f"b{i}" for i in range(t))

    def row(k):
        p = footprints[k]
        return lp.Constraint(tuple(p >> i & 1 for i in range(t)), "<=", values[k])

    generated = list(start)
    session = lp.Session(
        lp.ExactLP(names, tuple(row(k) for k in generated), ((1,) * t, "max"), lower=(0,) * t)
    )
    while len(generated) < len(footprints):
        beta, scale = session.point()
        sums = [0] * (1 << t)
        for p in range(1, 1 << t):
            low = p & -p
            sums[p] = sums[p ^ low] + beta[low.bit_length() - 1]
        worst, worst_k = 0, None
        for k, (p, v) in enumerate(zip(footprints, values)):
            slack = sums[p] - v * scale
            if slack > worst:
                worst, worst_k = slack, k
        if worst_k is None:
            break
        generated.append(worst_k)
        session.add(row(worst_k))
    out = session.result()
    if not isinstance(out, lp.Optimal):
        raise InternalError("internal error: the fractional-cover LP has no optimum")
    y = tuple(out.assignment[name] for name in names)
    # the lower-bound rows' multipliers follow the footprint rows'
    weights = tuple((k, w) for k, w in zip(generated, out.dual) if w != 0)
    return out.value, weights, y


def eval_xos_roof(h: PartialSetFunction, target: int):
    """Minimum cost of a fractional cover of ``target`` by defined sets:
    (value, optimal weights, optimal dual vector), or None when some element
    of ``target`` lies in no defined set.

    The dual vector y over [m] is zero outside ``target``, has
    y . chi(T_k) <= f_k for every defined T_k, and y . chi(target) = value.
    The LP runs on the values times L (h.int_values), which scales its
    value and y by L and leaves its pivots and weights as they are.
    """
    h.require_nonnegative("xos")
    if h.m > MAX_DENSE_M:
        raise TooLarge(f"XOS vectors are dense over [m]; m <= {MAX_DENSE_M} only")
    elems = elements(target)
    scale, ints = h.int_values
    masks, footprints, values = [], [], []
    covered = 0
    for mask, v in zip(h.masks, ints):
        p = 0
        for i, e in enumerate(elems):
            if mask >> e & 1:
                p |= 1 << i
        if p:
            masks.append(mask)
            footprints.append(p)
            values.append(v)
            covered |= p
    if covered != (1 << len(elems)) - 1:
        return None
    value, weights, y = fractional_cover(
        footprints, values, len(elems), range(len(footprints))
    )
    vector = [ZERO] * h.m
    for e, v in zip(elems, y):
        vector[e] = v / scale
    return value / scale, tuple((masks[k], w) for k, w in weights), tuple(vector)


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
            return _checked(XosNotExtendible(target, weights, cost, value), h)
        vectors.append(vector)
    return _checked(XosExtendible(tuple(vectors)), h)


def approx_xos(h: PartialSetFunction):
    """Optimal alpha for approximate XOS extension, max(1, max_i f_i /
    roof(T_i)), plus the roof duals scaled by alpha as the vectors."""
    h.require_positive("xos")
    if 0 in h.masks:
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
