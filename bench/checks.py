"""Output checks that share no code with extendkit.

Every checker takes the parsed stdout document of one CLI call plus the
facts the generator fixed when it built the instance, and raises
CheckFailed on the first property the output breaks. Arithmetic is exact
(fractions.Fraction on bitmask sets); nothing here imports the program.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as Q


class CheckFailed(Exception):
    pass


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# shared set algebra and parsing


def els(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(indices) -> int:
    expect(isinstance(indices, list), f"set must be a list, got {indices!r}")
    mask = 0
    for i in indices:
        expect(isinstance(i, int) and not isinstance(i, bool) and i >= 0, f"bad index {i!r}")
        mask |= 1 << i
    return mask


def rat(text) -> Q:
    expect(isinstance(text, str), f"rational must be a string, got {text!r}")
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise CheckFailed(f"not a rational: {text!r}") from None


def lattice_closure(family) -> set[int]:
    """Smallest family containing ``family`` closed under | and &."""
    closed = set(family)
    frontier = list(closed)
    while frontier:
        fresh = []
        members = list(closed)
        for x in frontier:
            for y in members:
                for z in (x | y, x & y):
                    if z not in closed:
                        closed.add(z)
                        fresh.append(z)
        frontier = fresh
    return closed


def interval_family(family) -> list[int]:
    """Closure members sandwiched between two members of ``family``."""
    return sorted(
        s
        for s in lattice_closure(family)
        if any(t & ~s == 0 for t in family) and any(s & ~t == 0 for t in family)
    )


def venn_atoms(m: int, family) -> int:
    """Number of classes of elements that lie in exactly the same sets."""
    return len({tuple(s >> e & 1 for s in family) for e in range(m)})


def rank(rows) -> int:
    """Exact rank by Gaussian elimination over Q."""
    rows = [list(r) for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# determinism, verdicts and factors


def check_same_stdout(reference: list[str], got: list[str], label: str) -> None:
    """Equal argv, inputs and seed must give byte-identical stdout."""
    expect(len(got) == len(reference), f"{label}: {len(got)} outputs for {len(reference)} calls")
    for i, (want, have) in enumerate(zip(reference, got)):
        expect(want == have, f"{label}: stdout of call {i} differs")


def check_verdict(doc, code: int, extendible: bool) -> None:
    want = "extendible" if extendible else "not_extendible"
    expect(doc.get("verdict") == want, f"verdict {doc.get('verdict')!r}, truth {want!r}")
    expect(code == (0 if extendible else 1), f"exit code {code} for verdict {want}")


def check_alpha(doc, code: int, extendible: bool, lower_bound=None, exact=None) -> Q:
    """alpha >= 1, alpha == 1 exactly on extendible instances, alpha at
    least the planted violation's bound, and equal to a brute-force value
    where one was computed."""
    expect(code == 0, f"approx exit code {code}")
    alpha = rat(doc.get("alpha"))
    expect(alpha >= 1, f"alpha {alpha} < 1")
    expect((alpha == 1) == extendible, f"alpha {alpha} but extendible={extendible}")
    if lower_bound is not None:
        expect(alpha >= lower_bound, f"alpha {alpha} below planted bound {lower_bound}")
    if exact is not None:
        expect(alpha == exact, f"alpha {alpha}, brute force gives {exact}")
    return alpha


# ---------------------------------------------------------------------------
# submodular


def certificate_sets(cert) -> list[tuple[int, int, int]]:
    """(a, b, count) per tuple, with the count validated."""
    expect(isinstance(cert.get("tuples"), list) and cert["tuples"], "empty certificate")
    out = []
    for t in cert["tuples"]:
        k = t.get("count")
        expect(isinstance(k, int) and not isinstance(k, bool) and k > 0, f"bad count {k!r}")
        out.append((mask_of(t.get("a")), mask_of(t.get("b")), k))
    return out


def check_square_certificate(cert, m: int, values: dict) -> int:
    """Balance (undefined sets appear as often in the middle as on top or
    bottom) and a positive weighted sum of defined values; returns the
    certificate size."""
    expect(cert.get("m") == m, f"certificate m={cert.get('m')!r}, instance m={m}")
    balance: dict[int, int] = {}
    size = 0
    for a, b, k in certificate_sets(cert):
        for s in (a, b):
            balance[s] = balance.get(s, 0) - k
        for s in (a | b, a & b):
            balance[s] = balance.get(s, 0) + k
        size += k
    for s, d in balance.items():
        expect(d == 0 or s in values, f"undefined set {els(s)} out of balance by {d}")
    total = sum((values[s] * d for s, d in balance.items() if s in values), Q(0))
    expect(total > 0, f"weighted sum {total} is not positive")
    return size


def check_certificate_in_closure(cert, closure: set) -> None:
    for a, b, _k in certificate_sets(cert):
        for s in (a, b, a | b, a & b):
            expect(s in closure, f"set {els(s)} lies outside the lattice closure")


def check_family_values(doc, values: dict) -> None:
    """Pins hold and every submodularity inequality among family sets holds."""
    fam_doc = doc.get("family_values")
    expect(isinstance(fam_doc, dict), "extendible submodular output lacks family_values")
    fam = {}
    for key, v in fam_doc.items():
        fam[mask_of(json.loads(key))] = rat(v)
    for s, v in values.items():
        expect(s in fam, f"defined set {els(s)} missing from the family")
        expect(fam[s] == v, f"pin broken at {els(s)}: {fam[s]} != {v}")
    sets = list(fam)
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            u, n = a | b, a & b
            if u in fam and n in fam:
                expect(
                    fam[a] + fam[b] >= fam[u] + fam[n],
                    f"submodularity broken on {els(a)}, {els(b)}",
                )


# ---------------------------------------------------------------------------
# XOS


def xos_value(vectors, mask: int) -> Q:
    return max((sum((w[e] for e in els(mask)), Q(0)) for w in vectors), default=Q(0))


def parse_vectors(raw, m: int) -> list[list[Q]]:
    expect(isinstance(raw, list) and raw, "no vectors")
    vecs = []
    for w in raw:
        expect(isinstance(w, list) and len(w) == m, f"vector of wrong width: {w!r}")
        vec = [rat(c) for c in w]
        expect(all(c >= 0 for c in vec), f"negative vector entry in {w!r}")
        vecs.append(vec)
    return vecs


def check_xos_vectors(raw, m: int, values: dict, alpha=Q(1)) -> None:
    """f_i <= max_j w_j . chi(T_i) <= alpha f_i at every defined set."""
    vecs = parse_vectors(raw, m)
    for s, v in values.items():
        got = xos_value(vecs, s)
        expect(v <= got <= alpha * v, f"vectors give {got} at {els(s)}, pin {v}, alpha {alpha}")


def check_fractional_cover(weights_doc, target: int, values: dict) -> Q:
    """Weights on defined sets covering every element of ``target`` at
    least once; returns their cost."""
    expect(isinstance(weights_doc, list), "weights must be a list")
    cover = {e: Q(0) for e in els(target)}
    cost = Q(0)
    for entry in weights_doc:
        s = mask_of(entry.get("set"))
        w = rat(entry.get("weight"))
        expect(s in values, f"cover set {els(s)} is not defined")
        expect(w >= 0, f"negative weight {w}")
        cost += w * values[s]
        for e in els(s & target):
            cover[e] += w
    expect(all(c >= 1 for c in cover.values()), "fractional cover leaves an element short")
    return cost


def check_xos_refutation(witness, values: dict) -> None:
    target = mask_of(witness.get("target"))
    expect(target in values, f"target {els(target)} is not defined")
    cost = check_fractional_cover(witness.get("weights"), target, values)
    expect(cost < values[target], f"cover cost {cost} not below f(target) {values[target]}")


# ---------------------------------------------------------------------------
# subadditive


def check_cover_witness(w, values: dict, exact_union: bool) -> tuple[int, Q]:
    """Defined cover sets whose union contains (monotone) or equals
    (nonmonotone) the target, with the stated sums; returns (target, sum)."""
    target = mask_of(w.get("target"))
    expect(target in values, f"target {els(target)} is not defined")
    cover = [mask_of(c) for c in w.get("cover", [])]
    expect(cover, "empty cover")
    union = 0
    total = Q(0)
    for c in cover:
        expect(c in values, f"cover set {els(c)} is not defined")
        union |= c
        total += values[c]
    if exact_union:
        expect(union == target, "cover union differs from the target")
    else:
        expect(target & ~union == 0, "cover union misses part of the target")
    expect(rat(w.get("cover_sum")) == total, f"cover_sum {w.get('cover_sum')} != {total}")
    expect(rat(w.get("target_value")) == values[target], "target_value differs from f(target)")
    return target, total


def brute_min_covers(values: dict, exact_union: bool) -> dict[int, Q]:
    """Minimum cover cost of every defined set, by enumerating every
    nonempty subfamily of defined sets (a family whose union equals t
    holds only subsets of t)."""
    unions = [(0, Q(0))]
    for s in values:
        unions += [(u | s, c + values[s]) for u, c in unions]
    unions = unions[1:]
    return {
        t: min(c for u, c in unions if (u == t if exact_union else t & ~u == 0))
        for t in values
    }


# ---------------------------------------------------------------------------
# convex


def dot(a, b) -> Q:
    return sum((x * y for x, y in zip(a, b)), Q(0))


def parse_vertices(doc, m: int) -> list[tuple[list[Q], Q, list[int]]]:
    raw = doc.get("vertices")
    expect(isinstance(raw, list) and raw, "no vertices")
    out = []
    for v in raw:
        y = [rat(c) for c in v.get("y", [])]
        expect(len(y) == m, f"vertex y of width {len(y)}, expected {m}")
        out.append((y, rat(v.get("mu")), v.get("tight")))
    return out


def check_vertices(doc, points, pieces) -> list[tuple[list[Q], Q]]:
    """Every vertex is feasible for T_i . y + mu <= f_i, lists exactly its
    tight rows, and those rows have rank m+1; every planted affine piece
    is among the vertices. Returns the (y, mu) pairs."""
    m = len(points[0][0])
    verts = parse_vertices(doc, m)
    seen = set()
    for y, mu, tight in verts:
        key = (tuple(y), mu)
        expect(key not in seen, f"vertex {key} listed twice")
        seen.add(key)
        lhs = [dot(x, y) + mu for x, _ in points]
        for i, ((_x, f), v) in enumerate(zip(points, lhs)):
            expect(v <= f, f"vertex infeasible at point {i}: {v} > {f}")
        exact = [i for i, ((_x, f), v) in enumerate(zip(points, lhs)) if v == f]
        expect(tight == exact, f"tight list {tight} but rows {exact} are tight")
        expect(
            rank([list(points[i][0]) + [Q(1)] for i in exact]) == m + 1,
            f"tight rows {exact} have rank below {m + 1}",
        )
    for y, mu in pieces:
        expect((tuple(y), mu) in seen, f"planted affine piece {y}, {mu} is not a vertex")
    return [(y, mu) for y, mu, _ in verts]


def tilde_from_vertices(verts, x) -> Q:
    return max(dot(x, y) + mu for y, mu in verts)


def check_roof_value(doc, lower: Q, upper: Q) -> Q:
    expect(doc.get("status") == "ok", f"roof status {doc.get('status')!r}")
    v = rat(doc.get("value"))
    expect(lower <= v <= upper, f"roof {v} outside [{lower}, {upper}]")
    return v


def check_convex_violation(witness, points, index: int, lower: Q, upper: Q) -> None:
    expect(witness.get("index") == index, f"violation at {witness.get('index')}, planted {index}")
    x, f = points[index]
    expect([rat(c) for c in witness.get("x", [])] == list(x), "violation point differs")
    expect(rat(witness.get("value")) == f, "violation value differs from the pin")
    roof = rat(witness.get("roof"))
    expect(lower <= roof <= upper and roof < f, f"violation roof {roof} out of range")


# ---------------------------------------------------------------------------
# testers


def tester_kmax(m: int, eps: Q) -> int:
    return min(m, math.floor(m / 2 + math.sqrt(math.log(4 / float(eps))) * math.sqrt(m)))


def check_tester_witness(w, table, klass: str) -> None:
    kind = w.get("kind")
    target = mask_of(w.get("target"))
    ft = table[target]
    expect(rat(w.get("target_value")) == ft, "witness target_value differs from the table")
    if kind == "monotonicity":
        expect(klass != "subadditive-nonmonotone", "monotonicity witness from a nonmonotone tester")
        sub = mask_of(w.get("subset"))
        expect(sub & ~target == 0 and sub != target, "subset is not a proper subset")
        expect(rat(w.get("subset_value")) == table[sub], "subset_value differs from the table")
        expect(ft < table[sub], "monotonicity witness does not violate monotonicity")
    elif kind == "cover":
        expect(klass != "xos", "integral cover witness from the XOS tester")
        cover = [mask_of(c) for c in w.get("cover", [])]
        expect(cover, "empty cover")
        union = 0
        for c in cover:
            expect(c & ~target == 0, f"cover set {els(c)} leaves the target")
            union |= c
        expect(union == target, "cover union differs from the target")
        total = sum((table[c] for c in cover), Q(0))
        expect(rat(w.get("cover_sum")) == total, "cover_sum differs from the table")
        expect(total < ft, "cover is not cheaper than the target")
    elif kind == "fractional-cover":
        expect(klass == "xos", "fractional cover witness from a subadditive tester")
        cover = {e: Q(0) for e in els(target)}
        total = Q(0)
        for entry in w.get("weights", []):
            s = mask_of(entry.get("set"))
            wt = rat(entry.get("weight"))
            expect(wt >= 0 and s & ~target == 0, "bad fractional cover entry")
            total += wt * table[s]
            for e in els(s):
                cover[e] += wt
        expect(all(c >= 1 for c in cover.values()), "fractional cover leaves an element short")
        expect(rat(w.get("cost")) == total, "fractional cover cost differs from the table")
        expect(total < ft, "fractional cover is not cheaper than the target")
    else:
        raise CheckFailed(f"unknown witness kind {kind!r}")


def check_tester_run(doc, code: int, table, m: int, klass: str, eps: Q, seed: int,
                     trials: int, in_class: bool) -> None:
    """One-sided error on in-class tables, at least half the trials
    rejecting on certified-far tables, witnesses that re-verify, and
    queries within iterations x 2^kmax."""
    reports = doc.get("reports")
    expect(doc.get("trials") == trials and isinstance(reports, list) and len(reports) == trials,
           "trial count differs")
    expect(doc.get("seed") == seed, "seed differs")
    rejections = sum(1 for r in reports if r.get("verdict") == "reject")
    expect(doc.get("rejections") == rejections, "rejection count differs from the reports")
    expect(code == (1 if rejections else 0), f"exit code {code} with {rejections} rejections")
    iterations = math.ceil(1 / eps)
    kmax = tester_kmax(m, eps)
    for i, r in enumerate(reports):
        expect(r.get("seed") == seed + i, "trial seed differs")
        it = r.get("iterations_run")
        expect(isinstance(it, int) and 1 <= it <= iterations, f"iterations_run {it!r}")
        expect(0 < r.get("queries", -1) <= it * 2 ** kmax, f"queries {r.get('queries')} out of bound")
        if r.get("verdict") == "reject":
            expect(not in_class, "in-class table rejected: the testers' error is one-sided")
            check_tester_witness(r.get("witness") or {}, table, klass)
        else:
            expect(r.get("verdict") == "accept" and r.get("witness") is None, "bad accept report")
            expect(it == iterations, "accept before the last iteration")
    if not in_class:
        expect(2 * rejections >= trials, f"far table rejected in {rejections}/{trials} trials")
