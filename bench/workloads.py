"""Seeded input generators for the four workloads.

Each generator draws its instances from ``random.Random`` seeded by the
benchmark seed alone; nothing here calls extendkit, so a change to the
program (its own generators included) cannot change a workload. Each
instance carries the facts fixed while building it (the truth of the
verdict, a lower bound on the factor, the sampled in-class function),
and each CLI call carries a closure that checks its output against them.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from itertools import combinations
from typing import Callable, Optional

import checks as ck
from checks import els

EPS = Q(1, 10)
TESTER_CLASSES = ("subadditive", "xos", "subadditive-nonmonotone")


@dataclass
class Call:
    key: str  # unique within a round
    argv: list[str]
    check: Callable[[dict, int, dict], None]  # (stdout doc, exit code, docs by key)
    save_as: Optional[str] = None  # stdout is written here after the call


@dataclass
class Workload:
    files: dict[str, str] = field(default_factory=dict)  # path -> content
    calls: list[Call] = field(default_factory=list)
    facts: dict = field(default_factory=dict)  # make-up, for the README


def _set_doc(m: int, values: dict) -> str:
    pts = [{"set": els(s), "value": str(v)} for s, v in sorted(values.items())]
    return json.dumps({"m": m, "points": pts})


def _sum(xs) -> Q:
    return sum(xs, Q(0))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# in-class set functions


def budget_additive(rng, m: int):
    """min(B, sum of weights): monotone submodular, hence XOS and subadditive."""
    w = [Q(rng.randint(1, 9), rng.randint(1, 2)) for _ in range(m)]
    budget = _sum(w) * Q(rng.randint(5, 8), 10)
    return lambda s: min(budget, _sum(w[e] for e in els(s)))


def max_of_linear(rng, m: int, k: int):
    """Max of k nonnegative linear functions: XOS."""
    vecs = [[Q(rng.randint(0, 6)) for _ in range(m)] for _ in range(k)]
    return lambda s: max(_sum(v[e] for e in els(s)) for v in vecs)


def shifted_linear(rng, m: int):
    """c + w(S) with some w_e < 0 and c >= -sum of negative weights:
    nonnegative, subadditive, and not monotone."""
    w = [Q(rng.randint(-3, 5)) for _ in range(m)]
    c = -_sum(x for x in w if x < 0) + rng.randint(1, 3)
    return lambda s: c + _sum(w[e] for e in els(s))


def plant_cheap_cover(rng, values: dict, pool, size=None) -> tuple[int, int, int]:
    """Pick defined A, B with T = A|B different from both (with T as close
    to ``size`` elements as the pool allows, when given), and price T
    above f(A)+f(B): the cover {A, B} refutes every subadditive and XOS
    extension. Returns (T, A, B)."""
    pairs = [(a, b) for a, b in combinations(pool, 2) if a | b not in (a, b)]
    if size is not None:
        gap = min(abs((a | b).bit_count() - size) for a, b in pairs)
        pairs = [(a, b) for a, b in pairs if abs((a | b).bit_count() - size) == gap]
    a, b = rng.choice(pairs)
    t = a | b
    values[t] = values[a] + values[b] + Q(rng.randint(1, 4), rng.randint(1, 2))
    return t, a, b


# ---------------------------------------------------------------------------
# lattice-lp: submodular and XOS LPs


def _family_rows(fam) -> int:
    """Submodularity rows of the family LP: incomparable pairs whose
    union and intersection stay in the family."""
    fs = set(fam)
    return sum(
        1
        for i, a in enumerate(fam)
        for b in fam[i + 1 :]
        if a & ~b and b & ~a and a | b in fs and a & b in fs
    )


def _submodular_instance(rng, m: int, fam_size: int, rows: int, planted: bool):
    """Budget-additive samples (or a planted violated square) whose
    interval family has ``fam_size`` sets and about ``rows`` submodularity
    rows: the LP's cost grows steeply with both."""
    while True:
        f = budget_additive(rng, m)
        masks = set(rng.sample(range(1, 1 << m), rng.randint(6, 9)))
        square = None
        if planted:
            pairs = [
                (a, b)
                for a, b in combinations(sorted(masks), 2)
                if a & b and a & ~b and b & ~a
            ]
            if not pairs:
                continue
            square = rng.choice(pairs)
            masks |= {square[0] | square[1], square[0] & square[1]}
        fam = ck.interval_family(masks)
        comparable = any(a & ~b == 0 for a in masks for b in masks if a != b)
        if comparable and len(fam) == fam_size and abs(_family_rows(fam) - rows) <= 2:
            break
    values = {s: f(s) for s in masks}
    lower = None
    if square:
        a, b = square
        u, n = a | b, a & b
        values[u] = values[a] + values[b] - values[n] + Q(rng.randint(1, 4), 2)
        lower = (values[u] + values[n]) / (values[a] + values[b])
    return values, fam, lower


def _xos_instance(rng, m: int, n: int, planted: bool):
    f = max_of_linear(rng, m, rng.randint(2, 3))
    masks = [s for s in range(1, 1 << m) if f(s) > 0]
    while True:
        values = {s: f(s) for s in rng.sample(masks, n)}
        if not planted:
            return values, f, None, rng.choice(sorted(values)), None
        if any(a | b not in (a, b) for a, b in combinations(values, 2)):
            break  # a chain offers no cover to plant
    t, a, b = plant_cheap_cover(rng, values, sorted(values))
    cover = values[a] + values[b]
    return values, f, values[t] / cover, t, cover


def lattice_lp(seed: int, work: str) -> Workload:
    rng = _rng("lattice-lp", seed)
    wl = Workload()
    fams, xos_shapes = [], []
    for i in range(12):
        m = 5 + i % 4
        planted = i % 2 == 1
        fam_size = 14 + i // 2
        rows = {14: 10, 15: 11, 16: 17, 17: 16, 18: 20, 19: 25, 20: 27, 21: 35}[fam_size]
        values, fam, lower = _submodular_instance(rng, m, fam_size, rows, planted)
        fams.append((m, len(fam), _family_rows(fam)))
        path = os.path.join(work, f"sub{i}.json")
        wl.files[path] = _set_doc(m, values)
        closure = ck.lattice_closure(values)
        ext = not planted

        def c_extend(doc, code, _o, values=values, ext=ext, m=m):
            ck.check_verdict(doc, code, ext)
            if ext:
                ck.check_family_values(doc, values)
            else:
                ck.check_square_certificate(doc.get("certificate", {}), m, values)

        def c_approx(doc, code, _o, ext=ext, lower=lower):
            ck.check_alpha(doc, code, ext, lower)

        def c_certify(doc, code, _o, values=values, ext=ext, m=m):
            if ext:
                ck.check_verdict(doc, code, True)
            else:
                ck.expect(code == 1, f"certify exit code {code}")
                ck.check_square_certificate(doc, m, values)

        wl.calls += [
            Call(f"sub{i}.extend", ["extend", "--class", "submodular", "--input", path], c_extend),
            Call(f"sub{i}.approx", ["approx", "--class", "submodular", "--input", path], c_approx),
        ]
        cert_path = os.path.join(work, f"sub{i}.cert.json")
        wl.calls.append(
            Call(f"sub{i}.certify", ["certify", "--input", path], c_certify,
                 save_as=None if ext else cert_path)
        )
        if not ext:

            def c_rewrite(doc, code, outs, values=values, m=m, closure=closure, i=i):
                ck.expect(code == 0, f"rewrite-cert exit code {code}")
                size = ck.check_square_certificate(doc, m, values)
                ck.check_certificate_in_closure(doc, closure)
                given = sum(k for _a, _b, k in ck.certificate_sets(outs[f"sub{i}.certify"]))
                ck.expect(doc.get("sizes") == {"input": given, "output": size},
                          f"sizes {doc.get('sizes')} != input {given}, output {size}")

            wl.calls.append(
                Call(f"sub{i}.rewrite",
                     ["rewrite-cert", "--cert", cert_path, "--input", path], c_rewrite)
            )
    for i in range(20):
        m = 5 + i % 4
        planted = i % 2 == 1
        values, f, lower, at, upper = _xos_instance(rng, m, 4 + i % 3, planted)
        xos_shapes.append((m, len(values)))
        path = os.path.join(work, f"xos{i}.json")
        wl.files[path] = _set_doc(m, values)
        ext = not planted

        def c_extend(doc, code, _o, values=values, ext=ext, m=m):
            ck.check_verdict(doc, code, ext)
            if ext:
                ck.check_xos_vectors(doc.get("vectors"), m, values)
            else:
                ck.check_xos_refutation(doc.get("witness", {}), values)

        def c_approx(doc, code, _o, values=values, ext=ext, m=m, lower=lower):
            alpha = ck.check_alpha(doc, code, ext, lower)
            ck.check_xos_vectors(doc.get("vectors"), m, values, alpha)

        # The roof at a defined set is at least the sampled XOS function
        # there (every fractional cover of S costs >= g(S)); on an in-class
        # instance it equals the pin, on a planted one it is at most the
        # planted cover's cost.
        def c_eval(doc, code, _o, values=values, at=at, f=f, upper=upper):
            ck.expect(code == 0 and doc.get("status") == "ok", "xos-roof failed")
            cost = ck.check_fractional_cover(doc.get("weights"), at, values)
            value = ck.rat(doc.get("value"))
            ck.expect(cost == value, f"roof {value} but its weights cost {cost}")
            ck.expect(value >= f(at), f"roof {value} below the sampled XOS value {f(at)}")
            if upper is None:
                ck.expect(value == values[at], f"roof {value} differs from the pin")
            else:
                ck.expect(value <= upper, f"roof {value} above the planted cover {upper}")

        wl.calls += [
            Call(f"xos{i}.extend", ["extend", "--class", "xos", "--input", path], c_extend),
            Call(f"xos{i}.approx", ["approx", "--class", "xos", "--input", path], c_approx),
            Call(f"xos{i}.eval",
                 ["eval", "--class", "xos-roof", "--at", json.dumps(els(at)), "--input", path],
                 c_eval),
        ]
    wl.facts = {"submodular (m, family, rows)": fams, "xos (m, n)": xos_shapes}
    return wl


# ---------------------------------------------------------------------------
# cover-wide: subadditive cover DPs, no LP


def _wide_sets(rng, m: int, n: int) -> set[int]:
    masks: set[int] = set()
    while len(masks) < n:
        masks.add(sum(1 << e for e in rng.sample(range(m), 3 + len(masks) % 4)))
    return masks


def _atom_sets(rng, m: int, n: int, covered: int) -> set[int]:
    """Unions of a few atoms covering ``covered`` elements of the ground
    set: far fewer Venn atoms than elements."""
    k = 4 + n % 2
    ground = rng.sample(range(m), covered)
    atoms = [sum(1 << e for e in ground[j::k]) for j in range(k)]
    masks = {sum(atoms), atoms[0], atoms[1]}
    while len(masks) < n:
        masks.add(sum(rng.sample(atoms, 1 + len(masks) % (k - 1))))
    return masks


def cover_wide(seed: int, work: str) -> Workload:
    rng = _rng("cover-wide", seed)
    wl = Workload()
    atoms_below_m = 0
    shapes = []
    count = 34
    for i in range(count):
        m = 14 + i * 3 % 7
        wide = i % 2 == 0
        n = 20 + i * 7 % 31 if wide else 4 + i // 2 % 5
        masks = _wide_sets(rng, m, n) if wide else _atom_sets(rng, m, n, 10 + i // 2 % 3)
        f = budget_additive(rng, m) if i % 4 < 2 else max_of_linear(rng, m, 2)
        values = {s: f(s) for s in masks}
        if any(v <= 0 for v in values.values()):
            values = {s: v + 1 for s, v in values.items()}  # keep factors defined
        planted = i % 4 in (1, 2)
        lower = None
        if planted:
            t, a, b = plant_cheap_cover(rng, values, sorted(values), 9 if wide else None)
            lower = values[t] / (values[a] + values[b])
        atoms = ck.venn_atoms(m, values)
        atoms_below_m += atoms < m
        shapes.append((m, len(values), atoms))
        small = len(values) <= 12
        best = {
            exact: ck.brute_min_covers(values, exact) if small else None
            for exact in (False, True)
        }
        path = os.path.join(work, f"cover{i}.json")
        wl.files[path] = _set_doc(m, values)
        ext = not planted

        for exact in (False, True):
            if small and all(best[exact][t] >= v for t, v in values.items()) != ext:
                raise RuntimeError(f"cover instance {i}: brute force contradicts the plant")

        def c_extend(doc, code, _o, values=values, ext=ext, best=best, exact=False):
            best = best[exact]
            ck.check_verdict(doc, code, ext)
            if not ext:
                t, total = ck.check_cover_witness(doc.get("witness", {}), values, exact)
                ck.expect(total < values[t], "cover is not cheaper than the target")
                ck.expect(best is None or total == best[t], "cover is not a minimum cover")

        def c_approx(doc, code, _o, values=values, ext=ext, best=best, lower=lower):
            exact = None
            if best[False] is not None:
                exact = max(values[t] / c for t, c in best[False].items())
            alpha = ck.check_alpha(doc, code, ext, lower, exact)
            t, total = ck.check_cover_witness(doc.get("witness", {}), values, False)
            ck.expect(alpha == values[t] / total, "alpha differs from its witness ratio")

        wl.calls += [
            Call(f"cover{i}.mono", ["extend", "--class", "subadditive", "--input", path], c_extend),
            Call(f"cover{i}.exact",
                 ["extend", "--class", "subadditive-nonmonotone", "--input", path],
                 lambda d, c, o, fn=c_extend: fn(d, c, o, exact=True)),
            Call(f"cover{i}.approx", ["approx", "--class", "subadditive", "--input", path],
                 c_approx),
        ]
    wl.facts = {"shapes": shapes, "atoms_below_m": atoms_below_m, "instances": count}
    return wl


# ---------------------------------------------------------------------------
# testers: full oracle tables


def _far_packing(m: int, table, rng) -> int:
    """Greedy packing of violating triples (T, A, B), no set used twice,
    with A|B = T and f(A)+f(B) < f(T). Each needs its own repaired entry,
    so k triples certify distance >= k / 2^m from every subadditive (hence
    every XOS) function. A and B may overlap; both have at most m/2
    elements."""
    needed = math.ceil(EPS * (1 << m))
    used: set[int] = set()
    count = 0
    targets = [s for s in range(1 << m) if m // 2 < s.bit_count() <= m // 2 + 2]
    rng.shuffle(targets)
    for t in targets:
        if t in used:
            continue
        members = els(t)
        for _ in range(8):
            rng.shuffle(members)
            cut = rng.randint(len(members) - m // 2, m // 2)
            a = sum(1 << e for e in members[:cut])
            b = t & ~a | sum(1 << e for e in rng.sample(members[:cut], m // 2 - len(members) + cut))
            if a not in used and b not in used and table[a] + table[b] < table[t]:
                used |= {t, a, b}
                count += 1
                break
        if count >= needed:
            return count
    return count


def testers(seed: int, work: str) -> Workload:
    rng = _rng("testers", seed)
    wl = Workload()
    makeup = []
    sizes = [10] * 20 + [11, 12, 13, 14, 10]
    for i, m in enumerate(sizes):
        kind = ("budget-additive", "max-of-linear", "shifted-linear", "planted")[i % 4]
        if kind == "shifted-linear":
            f = shifted_linear(rng, m)
        elif kind == "max-of-linear":
            f = max_of_linear(rng, m, rng.randint(2, 3))
        else:
            f = budget_additive(rng, m)
        table = [f(s) for s in range(1 << m)]
        if kind == "planted":
            # raise the two layers just above m/2: every raised set splits
            # into two cheap halves, and larger sets see a raised subset
            boost = 2 * max(table) + 1
            table = [
                v + boost if m // 2 < s.bit_count() <= m // 2 + 2 else v
                for s, v in enumerate(table)
            ]
            packed = _far_packing(m, table, rng)
            if packed < math.ceil(EPS * (1 << m)):
                raise RuntimeError(f"planted table {i} is not certified far ({packed})")
        makeup.append((m, kind))
        path = os.path.join(work, f"table{i}.json")
        wl.files[path] = json.dumps({"m": m, "values": [str(v) for v in table]})
        # budget-additive tables are submodular, hence in all three classes,
        # and max-of-linear ones XOS; the shifted linear ones are only
        # subadditive, so only the nonmonotone tester sees them
        if kind == "shifted-linear":
            klasses = ["subadditive-nonmonotone"] * 4
        else:
            klasses = [*TESTER_CLASSES, TESTER_CLASSES[i % 3]]
        for j, klass in enumerate(klasses):
            trials = 2
            # The tester's own seed is fixed per call: which sets a trial
            # draws depends on it alone, and a draw of t elements costs up
            # to 3^t, so a seeded draw would swing the round time by a
            # factor. The tables, and every value the tester sees, come
            # from --seed.
            tseed = 1000 + 10 * (4 * i + j)

            def c_test(doc, code, _o, table=table, m=m, klass=klass, tseed=tseed,
                       trials=trials, in_class=kind != "planted"):
                ck.check_tester_run(doc, code, table, m, klass, EPS, tseed, trials, in_class)

            wl.calls.append(
                Call(f"table{i}.{j}",
                     ["test", "--class", klass, "--oracle", path, "--epsilon", str(EPS),
                      "--seed", str(tseed), "--trials", str(trials), "--jobs", "1"],
                     c_test)
            )
    wl.facts = {"tables": makeup}
    return wl


# ---------------------------------------------------------------------------
# convex-vertices: roofs and dual vertices


def _convex_instance(rng, m: int, k: int, extra: int, planted: bool):
    """g(x) = C + max_k (2 c_k . x - |c_k|^2): tangent planes of |x|^2 at
    k centres. Each piece is active at its centre and at the centre plus
    e_i / 2, m+1 affinely independent points, so each piece is a vertex
    of the dual polyhedron and the canonical extension dominates g."""
    while True:
        centres = [tuple(rng.randint(-5, 5) for _ in range(m)) for _ in range(k)]
        if len(set(centres)) == k and all(
            sum((a - b) ** 2 for a, b in zip(c, d)) >= 4
            for c, d in combinations(centres, 2)
        ):
            break
    tangents = [([2 * Q(c) for c in ctr], -Q(sum(c * c for c in ctr))) for ctr in centres]

    def g0(x):
        return max(ck.dot(x, y) + mu for y, mu in tangents)

    pts = set()
    for ctr in centres:
        base = tuple(Q(c) for c in ctr)
        pts.add(base)
        for i in range(m):
            pts.add(tuple(c + (Q(1, 2) if j == i else 0) for j, c in enumerate(base)))
    while len(pts) < k * (m + 1) + extra:
        pts.add(tuple(Q(rng.randint(-10, 10), 2) for _ in range(m)))
    shift = max(Q(0), 1 - min(g0(x) for x in pts)) + rng.randint(0, 3)
    pieces = [(y, mu + shift) for y, mu in tangents]

    def g(x):
        return g0(x) + shift

    pts = sorted(pts)

    def combination(count):
        """A point with explicit convex weights over ``count`` points."""
        chosen = rng.sample(pts, count)
        lam = [Q(rng.randint(1, 5)) for _ in chosen]
        lam = [x / _sum(lam) for x in lam]
        x = tuple(_sum(l * p[j] for l, p in zip(lam, chosen)) for j in range(m))
        return x, lam, chosen

    values = {x: g(x) for x in pts}
    plant = None
    if planted:
        while True:
            x, lam, chosen = combination(2)
            if x not in values:
                break
        upper = _sum(l * values[p] for l, p in zip(lam, chosen))
        values[x] = upper + Q(rng.randint(1, 6), 2)
        plant = (x, upper)
    points = sorted(values.items())
    inside = []  # (x, the explicit combination's value at x)
    for _ in range(ROOF_POINTS):
        x, lam, chosen = combination(3)
        inside.append((x, _sum(l * values[p] for l, p in zip(lam, chosen))))
    far = tuple(max(p[j] for p in values) + 1 + rng.randint(0, 3) if j == 0
                else Q(rng.randint(-12, 12), 2) for j in range(m))
    return points, pieces, g, plant, inside, far


ROOF_POINTS = 6


def convex_vertices(seed: int, work: str) -> Workload:
    rng = _rng("convex-vertices", seed)
    wl = Workload()
    shapes = []
    # (dimension, affine pieces, extra points, planted, --audit)
    slots = [
        (2, 3, 4, False, False), (2, 3, 3, True, True),
        (3, 2, 3, False, False), (3, 2, 2, True, False),
        (4, 2, 0, False, False), (5, 2, 0, False, False),
        (2, 4, 1, True, False), (2, 3, 2, False, False),
        (3, 2, 1, True, False), (2, 4, 0, False, False),
        (3, 2, 0, True, False),
    ]
    for i, (m, k, extra, planted, audit) in enumerate(slots):
        points, pieces, g, plant, inside, far = _convex_instance(rng, m, k, extra, planted)
        n = len(points)
        shapes.append((m, n, math.comb(n, m + 1)))
        doc = {"dim": m, "points": [{"x": [str(c) for c in x], "value": str(v)} for x, v in points]}
        path = os.path.join(work, f"convex{i}.json")
        wl.files[path] = json.dumps(doc)
        ext = not planted
        index = None
        lower = None
        if plant:
            index = [x for x, _ in points].index(plant[0])
            lower = dict(points)[plant[0]] / plant[1]

        def c_extend(doc, code, _o, ext=ext, points=points, index=index, plant=plant, g=g):
            ck.check_verdict(doc, code, ext)
            if not ext:
                ck.check_convex_violation(doc.get("witness", {}), points, index,
                                          g(plant[0]), plant[1])

        def c_approx(doc, code, _o, ext=ext, lower=lower):
            ck.check_alpha(doc, code, ext, lower)

        def c_roof(x, upper, g=g):
            def check(doc, code, _o):
                ck.expect(code == 0, "convex-roof failed")
                ck.check_roof_value(doc, g(x), upper)

            return check

        def c_vertices(doc, code, _o, points=points, pieces=pieces):
            ck.expect(code == 0, "vertices failed")
            ck.check_vertices(doc, points, pieces)

        # One canonical-extension call per instance, alternating a point
        # inside the hull (where it equals the roof) and one outside (where
        # it is at least g); both equal the maximum over the listed vertices.
        x_tilde = inside[0][0] if i % 2 == 0 else far

        def c_tilde(doc, code, outs, i=i, x=x_tilde, g=g, points=points, pieces=pieces):
            ck.expect(code == 0 and doc.get("status") == "ok", "convex-tilde failed")
            value = ck.rat(doc.get("value"))
            if i % 2 == 0:
                roof = ck.rat(outs[f"convex{i}.roof0"].get("value"))
                ck.expect(value == roof, f"tilde {value} != roof {roof} inside the hull")
            else:
                ck.expect(value >= g(x), f"tilde {value} below the sampled function {g(x)}")
            verts = ck.check_vertices(outs[f"convex{i}.vertices"], points, pieces)
            ck.expect(value == ck.tilde_from_vertices(verts, x),
                      "tilde differs from the max over the listed vertices")

        def at(x):
            return json.dumps([str(c) for c in x])

        approx = ["approx", "--class", "convex", "--input", path] + (["--audit"] if audit else [])
        wl.calls += [
            Call(f"convex{i}.extend", ["extend", "--class", "convex", "--input", path], c_extend),
            Call(f"convex{i}.approx", approx, c_approx),
        ]
        wl.calls += [
            Call(f"convex{i}.roof{j}",
                 ["eval", "--class", "convex-roof", "--at", at(x), "--input", path],
                 c_roof(x, upper))
            for j, (x, upper) in enumerate(inside)
        ]
        wl.calls += [
            Call(f"convex{i}.vertices", ["vertices", "--input", path], c_vertices),
            Call(f"convex{i}.tilde",
                 ["eval", "--class", "convex-tilde", "--at", at(x_tilde), "--input", path],
                 c_tilde),
        ]
    wl.facts = {"shapes": shapes}
    return wl


WORKLOADS = {
    "lattice-lp": lattice_lp,
    "cover-wide": cover_wide,
    "testers": testers,
    "convex-vertices": convex_vertices,
}


if __name__ == "__main__":
    import sys

    # the make-up of each workload for one seed: python3 bench/workloads.py 1
    for name, make in WORKLOADS.items():
        wl = make(int(sys.argv[1]) if len(sys.argv) > 1 else 1, "out")
        print(name, len(wl.calls), "calls per round", wl.facts)
