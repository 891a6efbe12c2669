"""Each output checker accepts a correct output and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py

The correct outputs are worked by hand on instances small enough to
check on paper; each corruption is the kind of slip a broken solver would
make: a certificate count changed, a vector entry perturbed, a cover set
dropped, a vertex moved, a factor or verdict wrong.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction as Q

import pytest

import checks as ck
from checks import CheckFailed


def fails(fn, *args, **kw):
    with pytest.raises(CheckFailed):
        fn(*args, **kw)


def m_(*els):
    return ck.mask_of(list(els))


# ---------------------------------------------------------------------------
# verdicts, factors, determinism


def test_verdict():
    ck.check_verdict({"verdict": "extendible"}, 0, True)
    ck.check_verdict({"verdict": "not_extendible"}, 1, False)
    fails(ck.check_verdict, {"verdict": "extendible"}, 0, False)
    fails(ck.check_verdict, {"verdict": "not_extendible"}, 0, False)


def test_alpha():
    ck.check_alpha({"alpha": "3/2"}, 0, False, lower_bound=Q(5, 4), exact=Q(3, 2))
    ck.check_alpha({"alpha": "1"}, 0, True)
    fails(ck.check_alpha, {"alpha": "1"}, 0, False)  # refuted yet alpha 1
    fails(ck.check_alpha, {"alpha": "2"}, 0, True)  # extendible yet alpha > 1
    fails(ck.check_alpha, {"alpha": "1/2"}, 0, False)
    fails(ck.check_alpha, {"alpha": "6/5"}, 0, False, lower_bound=Q(5, 4))
    fails(ck.check_alpha, {"alpha": "7/5"}, 0, False, exact=Q(3, 2))


def test_same_stdout():
    ck.check_same_stdout(["a\n", "b\n"], ["a\n", "b\n"], "replay")
    fails(ck.check_same_stdout, ["a\n", "b\n"], ["a\n", "c\n"], "replay")
    fails(ck.check_same_stdout, ["a\n", "b\n"], ["a\n"], "replay")


# ---------------------------------------------------------------------------
# submodular

# f(0)=f(1)=f(2)=1, f({})=0, f(012)=4; {01} is undefined
SQ_VALUES = {0: Q(0), m_(0): Q(1), m_(1): Q(1), m_(2): Q(1), m_(0, 1, 2): Q(4)}
SQ_CERT = {
    "m": 3,
    "tuples": [
        {"a": [0], "b": [1], "count": 1},  # top {01}, bottom {}
        {"a": [0, 1], "b": [2], "count": 1},  # {01} back in the middle
    ],
}


def test_square_certificate():
    assert ck.check_square_certificate(SQ_CERT, 3, SQ_VALUES) == 2
    bad = copy.deepcopy(SQ_CERT)
    bad["tuples"][0]["count"] = 2  # {01} out of balance
    fails(ck.check_square_certificate, bad, 3, SQ_VALUES)
    cheap = {**SQ_VALUES, m_(0, 1, 2): Q(3)}  # weighted sum 0
    fails(ck.check_square_certificate, SQ_CERT, 3, cheap)
    fails(ck.check_square_certificate, dict(SQ_CERT, tuples=[]), 3, SQ_VALUES)
    fails(ck.check_square_certificate, dict(SQ_CERT, m=4), 3, SQ_VALUES)


def test_certificate_in_closure():
    closure = ck.lattice_closure(SQ_VALUES)
    assert m_(0, 1) in closure and m_(1, 2) in closure
    ck.check_certificate_in_closure(SQ_CERT, closure)
    moved = copy.deepcopy(SQ_CERT)
    moved["tuples"][1]["b"] = [3]  # {3} is outside the closure
    fails(ck.check_certificate_in_closure, moved, closure)


def test_family_values():
    pins = {m_(0): Q(1), m_(1): Q(1), m_(0, 1): Q(2)}
    fam = {"[]": "0", "[0]": "1", "[1]": "1", "[0, 1]": "2"}
    ck.check_family_values({"family_values": fam}, pins)
    fails(ck.check_family_values, {"family_values": dict(fam, **{"[0, 1]": "3"})}, pins)
    fails(ck.check_family_values, {"family_values": dict(fam, **{"[]": "1"})}, pins)
    missing = {k: v for k, v in fam.items() if k != "[1]"}
    fails(ck.check_family_values, {"family_values": missing}, pins)


# ---------------------------------------------------------------------------
# XOS

XOS_VALUES = {m_(0): Q(1), m_(1): Q(2), m_(0, 1): Q(3)}


def test_xos_vectors():
    ck.check_xos_vectors([["1", "2"]], 2, XOS_VALUES)
    ck.check_xos_vectors([["1", "2"], ["0", "1"]], 2, XOS_VALUES)
    fails(ck.check_xos_vectors, [["1", "5/2"]], 2, XOS_VALUES)  # entry perturbed
    fails(ck.check_xos_vectors, [["-1", "2"], ["1", "2"]], 2, XOS_VALUES)
    fails(ck.check_xos_vectors, [["1"]], 2, XOS_VALUES)
    # approx: within [f, alpha f] passes, beyond it fails
    ck.check_xos_vectors([["2", "2"]], 2, XOS_VALUES, Q(2))
    fails(ck.check_xos_vectors, [["3", "2"]], 2, XOS_VALUES, Q(2))


def test_xos_refutation():
    values = {m_(0): Q(1), m_(1): Q(1), m_(0, 1): Q(3)}
    w = {"target": [0, 1], "weights": [{"set": [0], "weight": "1"}, {"set": [1], "weight": "1"}]}
    ck.check_xos_refutation(w, values)
    dropped = dict(w, weights=w["weights"][:1])
    fails(ck.check_xos_refutation, dropped, values)
    halved = copy.deepcopy(w)
    halved["weights"][1]["weight"] = "1/2"
    fails(ck.check_xos_refutation, halved, values)
    fails(ck.check_xos_refutation, w, {**values, m_(0, 1): Q(2)})


# ---------------------------------------------------------------------------
# subadditive


def test_cover_witness():
    values = {m_(0): Q(1), m_(1): Q(1), m_(0, 1): Q(3)}
    w = {"target": [0, 1], "cover": [[0], [1]], "cover_sum": "2", "target_value": "3"}
    assert ck.check_cover_witness(w, values, exact_union=True) == (m_(0, 1), Q(2))
    fails(ck.check_cover_witness, dict(w, cover=[[0]], cover_sum="1"), values, False)
    fails(ck.check_cover_witness, dict(w, cover_sum="5/2"), values, False)
    fails(ck.check_cover_witness, dict(w, target_value="2"), values, False)
    fails(ck.check_cover_witness, dict(w, cover=[[0], [2]]), values, False)
    # a superset covers for the monotone class but not for the exact union
    sup = {m_(0): Q(1), m_(0, 1, 2): Q(1), m_(0, 1): Q(3)}
    ws = {"target": [0, 1], "cover": [[0, 1, 2]], "cover_sum": "1", "target_value": "3"}
    ck.check_cover_witness(ws, sup, exact_union=False)
    fails(ck.check_cover_witness, ws, sup, True)


def test_brute_min_covers():
    values = {m_(0): Q(1), m_(1): Q(1), m_(0, 1): Q(3), m_(0, 1, 2): Q(5, 2)}
    assert ck.brute_min_covers(values, exact_union=False)[m_(0, 1)] == 2
    assert ck.brute_min_covers(values, exact_union=True)[m_(0, 1, 2)] == Q(5, 2)
    assert ck.brute_min_covers({m_(0, 1): Q(3), m_(0, 1, 2): Q(1)}, False)[m_(0, 1)] == 1


# ---------------------------------------------------------------------------
# convex: g(x) = max(0, x - 1) sampled at 0, 1, 2

LINE = [((Q(0),), Q(0)), ((Q(1),), Q(0)), ((Q(2),), Q(1))]
PIECES = [([Q(0)], Q(0)), ([Q(1)], Q(-1))]
VERTS = {
    "vertices": [
        {"y": ["0"], "mu": "0", "tight": [0, 1]},
        {"y": ["1"], "mu": "-1", "tight": [1, 2]},
    ]
}


def test_vertices():
    verts = ck.check_vertices(VERTS, LINE, PIECES)
    assert ck.tilde_from_vertices(verts, (Q(3),)) == 2
    moved = copy.deepcopy(VERTS)
    moved["vertices"][0]["mu"] = "1/2"  # infeasible at x = 0
    fails(ck.check_vertices, moved, LINE, PIECES)
    slack = copy.deepcopy(VERTS)
    slack["vertices"][0]["mu"] = "-1/2"  # feasible, but nothing is tight
    slack["vertices"][0]["tight"] = []
    fails(ck.check_vertices, slack, LINE, [])
    wrong_tight = copy.deepcopy(VERTS)
    wrong_tight["vertices"][1]["tight"] = [2]
    fails(ck.check_vertices, wrong_tight, LINE, PIECES)
    dropped = {"vertices": VERTS["vertices"][:1]}
    fails(ck.check_vertices, dropped, LINE, PIECES)
    twice = {"vertices": VERTS["vertices"] + VERTS["vertices"][:1]}
    fails(ck.check_vertices, twice, LINE, PIECES)


def test_rank():
    assert ck.rank([[Q(1), Q(2)], [Q(2), Q(4)]]) == 1
    assert ck.rank([[Q(1), Q(1)], [Q(2), Q(1)]]) == 2


def test_roof_and_violation():
    assert ck.check_roof_value({"status": "ok", "value": "1/2"}, Q(0), Q(1)) == Q(1, 2)
    fails(ck.check_roof_value, {"status": "ok", "value": "3/2"}, Q(0), Q(1))
    fails(ck.check_roof_value, {"status": "outside_hull", "value": None}, Q(0), Q(1))
    pts = [((Q(0),), Q(0)), ((Q(1),), Q(5)), ((Q(2),), Q(2))]  # x=1 raised above 1
    w = {"index": 1, "x": ["1"], "value": "5", "roof": "1"}
    ck.check_convex_violation(w, pts, 1, Q(0), Q(1))
    fails(ck.check_convex_violation, dict(w, index=2), pts, 1, Q(0), Q(1))
    fails(ck.check_convex_violation, dict(w, roof="3/2"), pts, 1, Q(0), Q(1))
    fails(ck.check_convex_violation, dict(w, value="4"), pts, 1, Q(0), Q(1))


# ---------------------------------------------------------------------------
# testers: m = 2, f({0,1}) = 3 above f({0}) + f({1}) = 2

TABLE = [Q(0), Q(1), Q(1), Q(3)]
COVER = {"kind": "cover", "target": [0, 1], "cover": [[0], [1]], "cover_sum": "2",
         "target_value": "3"}


def test_tester_witnesses():
    ck.check_tester_witness(COVER, TABLE, "subadditive")
    fails(ck.check_tester_witness, dict(COVER, cover=[[0]]), TABLE, "subadditive")
    fails(ck.check_tester_witness, dict(COVER, cover_sum="1"), TABLE, "subadditive")
    fails(ck.check_tester_witness, dict(COVER, target_value="2"), TABLE, "subadditive")
    fails(ck.check_tester_witness, COVER, TABLE, "xos")
    frac = {"kind": "fractional-cover", "target": [0, 1], "cost": "2", "target_value": "3",
            "weights": [{"set": [0], "weight": "1"}, {"set": [1], "weight": "1"}]}
    ck.check_tester_witness(frac, TABLE, "xos")
    short = copy.deepcopy(frac)
    short["weights"][0]["weight"] = "1/2"
    short["cost"] = "3/2"
    fails(ck.check_tester_witness, short, TABLE, "xos")
    mono = {"kind": "monotonicity", "target": [0, 1], "subset": [0], "target_value": "1",
            "subset_value": "2"}
    down = [Q(0), Q(2), Q(1), Q(1)]
    ck.check_tester_witness(mono, down, "subadditive")
    fails(ck.check_tester_witness, dict(mono, subset=[0, 1], subset_value="1"), down, "xos")
    fails(ck.check_tester_witness, mono, down, "subadditive-nonmonotone")
    fails(ck.check_tester_witness, mono, TABLE, "subadditive")  # the table disagrees


def _report(verdict, witness=None, seed=7, iterations=10, queries=40):
    return {"verdict": verdict, "queries": queries, "iterations_run": iterations,
            "seed": seed, "witness": witness}


def test_tester_run():
    eps = Q(1, 10)
    good = {"trials": 2, "rejections": 0, "seed": 7,
            "reports": [_report("accept"), _report("accept", seed=8)]}
    ck.check_tester_run(good, 0, TABLE, 2, "subadditive", eps, 7, 2, in_class=True)
    rejected = copy.deepcopy(good)
    rejected["reports"][1] = _report("reject", COVER, seed=8, iterations=1, queries=4)
    rejected["rejections"] = 1
    # the testers' error is one-sided: an in-class table is never rejected
    fails(ck.check_tester_run, rejected, 1, TABLE, 2, "subadditive", eps, 7, 2, True)
    ck.check_tester_run(rejected, 1, TABLE, 2, "subadditive", eps, 7, 2, in_class=False)
    # a far table accepted in most trials, too many queries, a miscount
    fails(ck.check_tester_run, good, 0, TABLE, 2, "subadditive", eps, 7, 2, False)
    over = copy.deepcopy(good)
    over["reports"][0]["queries"] = 10 * 4 + 1
    fails(ck.check_tester_run, over, 0, TABLE, 2, "subadditive", eps, 7, 2, True)
    fails(ck.check_tester_run, dict(rejected, rejections=2), 1, TABLE, 2, "subadditive",
          eps, 7, 2, False)
    early = copy.deepcopy(good)
    early["reports"][0]["iterations_run"] = 3
    fails(ck.check_tester_run, early, 0, TABLE, 2, "subadditive", eps, 7, 2, True)


def test_json_keys_roundtrip():
    # family_values keys are JSON arrays as the CLI prints them
    assert ck.mask_of(json.loads("[0, 2]")) == 5
