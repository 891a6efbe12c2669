"""Lattice machinery, the family LP, and square certificates."""

import pytest

from extendkit import submodular as sm
from extendkit.errors import (
    ClosureCapExceeded,
    IncompleteAssignment,
    ValueNotPositive,
    WitnessInvalid,
)
from extendkit.ground import PartialSetFunction, Rational as Q, mask_of, serialize
from extendkit.submodular import parse_square_certificate, square


def psf(m, *pairs):
    return PartialSetFunction(m, tuple((mask_of(s), Q(v)) for s, v in pairs))


def masks(*sets):
    return [mask_of(s) for s in sets]


def test_lattice_closure_two_singletons():
    out = sm.lattice_closure(masks([0], [1]))
    assert out == frozenset(masks([0], [1], [0, 1], []))


def test_lattice_closure_already_closed():
    fam = masks([], [0], [1, 2], [0, 1, 2])
    assert sm.lattice_closure(fam) == frozenset(fam)


def test_lattice_closure_chain():
    fam = masks([0], [0, 1], [0, 1, 2])
    assert sm.lattice_closure(fam) == frozenset(fam)


def test_lattice_closure_cap():
    fam = [1 << i for i in range(6)]
    with pytest.raises(ClosureCapExceeded) as exc:
        sm.lattice_closure(fam, cap=10)
    assert exc.value.size_so_far == 11


def test_interval_family_antichain():
    fam = masks([0, 1], [1, 2], [0, 2])
    assert sm.interval_family(fam) == tuple(sorted(fam, key=lambda s: s))


def test_interval_family_closed_diamond():
    fam = masks([], [0], [1, 2], [0, 1, 2])
    assert set(sm.interval_family(fam)) == set(fam)


def test_interval_family_drops_unsandwiched():
    fam = masks([0], [1], [0, 1, 2])
    out = set(sm.interval_family(fam))
    assert out == set(masks([0], [1], [0, 1], [0, 1, 2]))


def test_is_antichain():
    assert sm.is_antichain(masks([0, 1], [1, 2], [0, 2]))
    assert not sm.is_antichain(masks([0], [0, 1]))
    assert sm.is_antichain([])
    assert sm.is_antichain(masks([0]))


def test_extend_cube_violation():
    h = psf(2, ([], 0), ([0], 0), ([1], 0), ([0, 1], 1))
    out = sm.extend_submodular(h)
    assert out.kind == "not_extendible"
    cert = out.certificate
    assert sm.verify_square_certificate(cert, h)
    assert cert.tuples == ((square(0b01, 0b10), 1),)


def test_extend_antichain_shortcut():
    h = psf(2, ([0], 17), ([1], -3))
    out = sm.extend_submodular(h)
    assert out.kind == "antichain" and out.extendible


def test_extend_diamond_violation():
    h = psf(3, ([], 0), ([0], 0), ([1, 2], 0), ([0, 1, 2], 1))
    out = sm.extend_submodular(h)
    assert out.kind == "not_extendible"
    assert out.certificate.tuples == ((square(0b001, 0b110), 1),)
    assert sm.verify_square_certificate(out.certificate, h)


def test_extend_feasible_values_are_submodular_on_family():
    h = psf(3, ([0], 1), ([0, 1], 2), ([0, 1, 2], Q(5, 2)))
    out = sm.extend_submodular(h)
    assert out.kind == "extendible"
    w = out.values
    fam = set(out.family)
    for a in fam:
        for b in fam:
            if a | b in fam and a & b in fam:
                assert w[a] + w[b] >= w[a | b] + w[a & b]
    for mask, value in h.points:
        assert w[mask] == value


def test_approx_submodular():
    h = psf(2, ([], 1), ([0], 1), ([1], 1), ([0, 1], 4))
    assert sm.approx_submodular(h) == Q(5, 2)
    assert sm.approx_submodular(h.scaled(Q(7))) == Q(5, 2)
    h2 = psf(2, ([0], 1), ([1], 1), ([0, 1], 2))
    assert sm.approx_submodular(h2) == 1
    with pytest.raises(ValueNotPositive):
        sm.approx_submodular(psf(2, ([0], 0), ([1], 1)))


def test_verify_square_certificate_cases():
    h = psf(2, ([], 0), ([0], 0), ([1], 0), ([0, 1], 1))
    cert = sm.SquareCertificate(2, ((square(0b01, 0b10), 1),), h)
    assert sm.verify_square_certificate(cert, h)
    h0 = psf(2, ([], 0), ([0], 0), ([1], 0), ([0, 1], 0))
    assert not sm.verify_square_certificate(cert, h0)


def test_certificate_serialization_roundtrip():
    h = psf(2, ([], 0), ([0], 0), ([1], 0), ([0, 1], 1))
    cert = sm.SquareCertificate(
        2, ((square(0b01, 0b10), 2), (square(0b01, 0b10), 1)), h
    )
    assert cert.tuples[0][1] == 3  # multiplicities merge
    doc = serialize(cert)
    back = parse_square_certificate(doc, h)
    assert back.tuples == cert.tuples and back.m == cert.m


def test_refuting_square():
    h = psf(2, ([], 0), ([0], 0), ([1], 0), ([0, 1], 1))
    cert = sm.SquareCertificate(2, ((square(0b01, 0b10), 1),), h)
    f = {0b00: Q(0), 0b01: Q(0), 0b10: Q(0), 0b11: Q(1)}
    t = sm.refuting_square(cert, f)
    assert t is not None and t.a == 0b01 and t.top == 0b11
    modular = {0b00: Q(0), 0b01: Q(1), 0b10: Q(1), 0b11: Q(2)}
    assert sm.refuting_square(cert, modular) is None
    with pytest.raises(IncompleteAssignment):
        sm.refuting_square(cert, {0b01: Q(0)})


def test_extract_scaling_merges_denominators():
    # two violated squares forcing fractional multipliers is hard to stage
    # directly; instead check the lcm arithmetic through a 3-element chain
    # violation whose witness is integral, then the multiplicity semantics.
    h = psf(2, ([], 0), ([0], 0), ([1], 0), ([0, 1], 1))
    out = sm.extend_submodular(h)
    assert out.certificate.size() == 1


DIAMOND_H = psf(3, ([], 0), ([0], 0), ([1, 2], 0), ([0, 1, 2], 1))
DIAMOND_CERT = sm.SquareCertificate(
    3,
    ((square(0b001, 0b010), 1), (square(0b011, 0b110), 1)),
    DIAMOND_H,
)


def test_diamond_certificate_verifies():
    assert sm.verify_square_certificate(DIAMOND_CERT, DIAMOND_H)
    counts = DIAMOND_CERT.counts()
    assert counts[0b010] == (1, 1) and counts[0b011] == (1, 1)  # intermediates


def test_diamond_square_to_boolean_structure():
    bc = sm.square_to_boolean(DIAMOND_CERT)
    assert len(bc.input_ids()) == 2
    assert len(bc.output_ids()) == 2
    assert len(bc.intermediate_ids()) == 2
    creators = dict(zip((g.gid for g in bc.gates), bc.creators))
    im_creators = sorted(creators[g] for g in bc.intermediate_ids())
    assert im_creators == [0b010, 0b011]  # {b} and {a,b}


def test_diamond_roundtrip_counts_match():
    bc = sm.square_to_boolean(DIAMOND_CERT)
    back = sm.boolean_to_square(bc)
    assert sm.verify_square_certificate(back, DIAMOND_H)
    c1, c2 = DIAMOND_CERT.counts(), back.counts()
    for mask, _v in DIAMOND_H.points:
        m1, tb1 = c1.get(mask, (0, 0))
        m2, tb2 = c2.get(mask, (0, 0))
        assert tb1 - m1 == tb2 - m2


def test_diamond_lattice_rewrite():
    out = sm.lattice_rewrite(DIAMOND_CERT, DIAMOND_H)
    assert sm.verify_square_certificate(out, DIAMOND_H)
    allowed = set(masks([], [0], [1, 2], [0, 1, 2]))
    assert set(out.involved_sets()) <= allowed
    assert (square(0b001, 0b110), 1) in out.tuples  # ({a},{b,c},{a,b,c},{})


def test_rewrite_stays_in_closure_when_already_inside():
    h = psf(2, ([], 0), ([0], 0), ([1], 0), ([0, 1], 1))
    cert = sm.SquareCertificate(2, ((square(0b01, 0b10), 1),), h)
    out = sm.lattice_rewrite(cert, h)
    assert sm.verify_square_certificate(out, h)
    closure = sm.lattice_closure(h.masks)
    assert set(out.involved_sets()) <= closure


# --- a four-square certificate sharing one intermediate hub set ------------
# one intermediate set Z appearing twice as a middle (squares 1 and 3) and
# twice as a top/bottom (top of square 4, bottom of square 2)

Z = mask_of([0, 1, 2])
HUB_XS = [
    mask_of(s)
    for s in ([3, 4, 5], [0, 1, 2, 3], [0, 1, 2, 4], [1, 5], [0, 2], [1, 2])
]
HUB_SQUARES = (
    (square(Z, HUB_XS[0]), 1),          # tops/bottoms {0..5}, {}
    (square(HUB_XS[1], HUB_XS[2]), 1),  # top {0,1,2,3,4}, bottom Z
    (square(HUB_XS[3], Z), 1),          # top {0,1,2,5}, bottom {1}
    (square(HUB_XS[4], HUB_XS[5]), 1),  # top Z, bottom {2}
)


def hub_cert():
    ys = set()
    for t, _ in HUB_SQUARES:
        ys.update((t.top, t.bottom))
    ys.discard(Z)
    points = [(x, Q(0)) for x in HUB_XS] + [(y, Q(1)) for y in sorted(ys)]
    h = PartialSetFunction(6, tuple(points))
    return sm.SquareCertificate(6, HUB_SQUARES, h), h


def test_hub_six_six_two_gate_structure():
    cert, h = hub_cert()
    assert sm.verify_square_certificate(cert, h)
    counts = cert.counts()
    assert counts[Z] == (2, 2)
    bc = sm.square_to_boolean(cert)
    assert len(bc.input_ids()) == 6
    assert len(bc.output_ids()) == 6
    assert len(bc.intermediate_ids()) == 2
    creators = dict(zip((g.gid for g in bc.gates), bc.creators))
    assert all(creators[g] == Z for g in bc.intermediate_ids())
    back = sm.boolean_to_square(bc)
    assert sm.verify_square_certificate(back, h)


def test_hub_circuit_golden():
    """The hub certificate's circuit, gate for gate: pins the merge order
    (smallest creator in lex order first, each creator's inputs paired
    with its outputs in creation order)."""
    bc = sm.square_to_boolean(hub_cert()[0])
    assert [(g.gid, g.op, g.role) for g in bc.gates] == (
        [(i, "input", "ip") for i in range(6)]
        + [(6, "or", "op"), (7, "and", "op"), (8, "or", "op"), (9, "and", "op")]
        + [(10, "or", "op"), (11, "and", "op"), (12, "and", "im"), (13, "or", "im")]
    )
    assert bc.edges == (
        (0, 6), (0, 7), (1, 8), (1, 9), (2, 10), (2, 12), (3, 10), (3, 12),
        (4, 11), (4, 13), (5, 11), (5, 13), (12, 6), (12, 7), (13, 8), (13, 9),
    )
    assert bc.creators == (34, 56, 15, 23, 5, 6, 39, 2, 63, 0, 31, 4, 7, 7)


def test_merges_run_in_lex_order_of_creators():
    """Intermediate gates are numbered in merge order, so their creators
    come in lex order."""
    import random

    from extendkit.ground import lex_key
    from extendkit.oracle import random_valid_square_certificate

    rng = random.Random(7)
    for _ in range(200):
        cert, _h = random_valid_square_certificate(rng.randint(2, 6), rng)
        bc = sm.square_to_boolean(cert)
        creator = dict(zip((g.gid for g in bc.gates), bc.creators))
        merged = [creator[g] for g in bc.intermediate_ids()]
        assert merged == sorted(merged, key=lex_key)


def test_square_tuple_invariants():
    t = square(0b011, 0b110)
    assert t.top == 0b111 and t.bottom == 0b010
    with pytest.raises(Exception):
        sm.SquareTuple(0b01, 0b10, 0b11, 0b01)


def test_square_to_boolean_requires_verifying_cert():
    h = psf(2, ([], 0), ([0], 0), ([1], 0), ([0, 1], 0))
    cert = sm.SquareCertificate(2, ((square(0b01, 0b10), 1),), h)
    with pytest.raises(WitnessInvalid):
        sm.square_to_boolean(cert)


def test_rewrite_random_certificates_sweep():
    """200 random valid certificates: rewriting preserves validity and
    lands every involved set in the interval family of the defined sets
    (lattice-closure membership in particular)."""
    import random

    from extendkit.oracle import random_valid_square_certificate

    rng = random.Random(5150)
    for _ in range(200):
        cert, h = random_valid_square_certificate(rng.randint(2, 5), rng)
        out = sm.lattice_rewrite(cert, h)
        assert sm.verify_square_certificate(out, h)
        closure = sm.lattice_closure(h.masks, 100_000)
        fam = set(sm.interval_family(h.masks, 100_000))
        involved = set(out.involved_sets())
        assert involved <= closure and involved <= fam
        # the rewrite preserves top/bottom-minus-middle counts at pins
        before, after = cert.counts(), out.counts()
        for mask, _v in h.points:
            b0, b1 = before.get(mask, (0, 0))
            a0, a1 = after.get(mask, (0, 0))
            assert b1 - b0 == a1 - a0


def test_roundtrip_random_certificates():
    """boolean_to_square(square_to_boolean(c)) verifies whenever c does,
    with identical per-set count differences."""
    import random

    from extendkit.oracle import random_valid_square_certificate

    rng = random.Random(2501)
    for _ in range(100):
        cert, h = random_valid_square_certificate(rng.randint(2, 5), rng)
        back = sm.boolean_to_square(sm.square_to_boolean(cert))
        assert sm.verify_square_certificate(back, h)
        c1, c2 = cert.counts(), back.counts()
        for s in set(c1) | set(c2):
            m1, t1 = c1.get(s, (0, 0))
            m2, t2 = c2.get(s, (0, 0))
            assert t1 - m1 == t2 - m2


def test_refuting_square_finds_violation_in_every_extension():
    """A valid certificate refutes every total assignment extending the
    pins, whatever values the intermediate sets take; modular assignments
    refute nothing against count-balanced tuples."""
    import random

    from extendkit.ground import Rational, popcount
    from extendkit.oracle import random_valid_square_certificate

    rng = random.Random(3131)
    for _ in range(80):
        cert, h = random_valid_square_certificate(rng.randint(2, 5), rng)
        pinned = h.as_dict()
        for _trial in range(10):
            assignment = {
                s: pinned.get(s, Rational(rng.randint(-8, 8), rng.randint(1, 3)))
                for s in cert.involved_sets()
            }
            t = sm.refuting_square(cert, assignment)
            assert t is not None
            assert (
                assignment[t.a] + assignment[t.b]
                < assignment[t.top] + assignment[t.bottom]
            )


def test_refuting_square_none_for_modular_assignment():
    from extendkit.ground import Rational, popcount

    h = psf(2, ([], 0), ([0], 0), ([1], 0), ([0, 1], 1))
    cert = sm.SquareCertificate(2, ((square(0b01, 0b10), 1),), h)
    modular = {s: Rational(3 * popcount(s)) for s in cert.involved_sets()}
    assert sm.refuting_square(cert, modular) is None


# --- the previous pipeline, kept as references ------------------------------


def reference_extract(h, witness, problem):
    """The extractor that decoded submodularity rows from the LP itself:
    the w<mask> variable names and the +1, +1, -1, -1 coefficient
    pattern."""
    from extendkit import lp
    from extendkit.ground import denominator_lcm, scaled_int

    if not lp.verify_farkas(problem, witness):
        raise WitnessInvalid("witness does not verify against the LP")
    var_mask = {
        i: int(name[1:]) for i, name in enumerate(problem.variables) if name.startswith("w")
    }
    pairs = []
    for row, lam in zip(problem.constraints, witness.multipliers):
        if row.relation != ">=" or row.rhs != 0 or lam == 0:
            continue
        pos = [var_mask[j] for j, c in enumerate(row.coeffs) if c == 1]
        neg = [var_mask[j] for j, c in enumerate(row.coeffs) if c == -1]
        if len(pos) != 2 or len(neg) != 2:
            continue
        a, b = pos
        if {a | b, a & b} != set(neg):
            raise WitnessInvalid("unrecognized row pattern in the family LP")
        if lam < 0:
            raise WitnessInvalid("negative multiplier on a submodularity row")
        pairs.append(((a, b), lam))
    if not pairs:
        raise WitnessInvalid("witness places no weight on submodularity rows")
    scale = denominator_lcm(lam for _, lam in pairs)
    tuples = [
        (square(a, b), scaled_int(lam, scale)) for (a, b), lam in pairs if a != b
    ]
    cert = sm.SquareCertificate(h.m, tuple(tuples), context=h)
    if not sm.verify_square_certificate(cert, h):
        raise WitnessInvalid("extracted certificate fails verification")
    return cert


def reference_square_to_boolean(cert):
    """Square-to-circuit by gate rewiring: four gates per unit of count,
    then one merge at a time, each merge rewiring the lists of the merged
    gates' neighbours."""
    from extendkit.errors import MergeStuck
    from extendkit.ground import elements, is_subset, lex_key

    h = cert.context
    if h is None:
        raise WitnessInvalid("certificate carries no partial-function context")
    if not sm.verify_square_certificate(cert, h):
        raise WitnessInvalid("certificate does not verify")
    nxt = 0
    op_of, creator, is_input, ins, outs = {}, {}, {}, {}, {}

    def new_gate(op, c, srcs):
        nonlocal nxt
        gid = nxt
        nxt += 1
        op_of[gid], creator[gid], is_input[gid] = op, c, op == "input"
        ins[gid], outs[gid] = list(srcs), []
        for s in srcs:
            outs[s].append(gid)
        return gid

    for t, k in cert.tuples:
        if t.a == t.b or is_subset(t.a, t.b) or is_subset(t.b, t.a):
            continue
        for _ in range(k):
            g1 = new_gate("input", t.a, ())
            g2 = new_gate("input", t.b, ())
            new_gate("or", t.top, (g1, g2))
            new_gate("and", t.bottom, (g1, g2))
    if not op_of:
        raise MergeStuck("certificate holds only trivial or comparable squares")
    by_creator = {}
    for gid in op_of:
        by_creator.setdefault(creator[gid], ([], []))[0 if is_input[gid] else 1].append(gid)
    alive = set(op_of)
    for c in sorted(by_creator, key=lex_key):
        for g_in, g_out in zip(*by_creator[c]):
            g3 = new_gate(op_of[g_out], creator[g_in], ())
            ins[g3] = list(ins[g_out])
            outs[g3] = list(outs[g_in])
            for u in ins[g3]:
                outs[u] = [g3 if x == g_out else x for x in outs[u]]
            for v in outs[g3]:
                ins[v] = [g3 if x == g_in else x for x in ins[v]]
            alive -= {g_in, g_out}
            alive.add(g3)
    defined = set(h.masks)
    for gid in alive:
        if (is_input[gid] or not outs[gid]) and creator[gid] not in defined:
            raise MergeStuck(
                f"unmergeable terminal gate maps to undefined set "
                f"{sorted(elements(creator[gid]))}"
            )
    inputs_l = sorted(g for g in alive if is_input[g])
    outputs_l = sorted(g for g in alive if not is_input[g] and not outs[g])
    inters_l = sorted(g for g in alive if not is_input[g] and outs[g])
    order = inputs_l + outputs_l + inters_l
    remap = {old: new for new, old in enumerate(order)}
    gates = tuple(
        sm.Gate(remap[old], op_of[old], "ip" if is_input[old] else ("im" if outs[old] else "op"))
        for old in order
    )
    edges = tuple(sorted((remap[u], remap[v]) for u in alive for v in outs[u]))
    creators = tuple(creator[old] for old in order)
    bc = sm.BooleanCircuitCertificate(cert.m, gates, edges, creators, h)
    bc.validate()
    return bc


def reference_boolean_to_square(bc):
    """Circuit-to-square by splitting every intermediate gate into a new
    input plus an output first, then grouping gates by input pair."""
    from extendkit.errors import MalformedCircuit

    bc.validate()
    ins = {g: list(v) for g, v in bc.in_edges().items()}
    outs = {g: list(v) for g, v in bc.out_edges().items()}
    op_of = {g.gid: g.op for g in bc.gates}
    creator = dict(zip((g.gid for g in bc.gates), bc.creators))
    nxt = max(op_of) + 1 if op_of else 0
    for g in [g.gid for g in bc.gates if g.role == "im"]:
        gin = nxt
        nxt += 1
        op_of[gin], creator[gin], ins[gin], outs[gin] = "input", creator[g], [], outs[g]
        for v in outs[g]:
            ins[v] = [gin if x == g else x for x in ins[v]]
        outs[g] = []
    pair_gates = {}
    for g, op in op_of.items():
        if op != "input":
            pair_gates.setdefault(frozenset(ins[g]), {})[op] = g
    tuples = []
    for srcs, by_op in pair_gates.items():
        if set(by_op) != {"and", "or"}:
            raise MalformedCircuit("input pair lacks its AND/OR partner")
        u, v = sorted(srcs)
        sq = square(creator[u], creator[v])
        if creator[by_op["or"]] != sq.top or creator[by_op["and"]] != sq.bottom:
            raise MalformedCircuit("component creators violate the set algebra")
        tuples.append((sq, 1))
    cert = sm.SquareCertificate(bc.m, tuple(tuples), bc.context)
    if bc.context is not None and not sm.verify_square_certificate(cert, bc.context):
        raise MalformedCircuit("converted certificate does not verify")
    return cert


def seeded_certificates(seed, count):
    """``count`` verifying certificates: 70% random_valid_square_certificate
    at m 2-6, 30% extracted from refuted random instances at m 4-5."""
    import random

    from extendkit.oracle import random_partial_function, random_valid_square_certificate

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if rng.random() < 0.7:
            out.append(random_valid_square_certificate(rng.randint(2, 6), rng))
            continue
        h = random_partial_function(rng.randint(4, 5), rng.randint(6, 10), (0, 6), rng)
        res = sm.extend_submodular(h)
        if not res.extendible:
            out.append((res.certificate, h))
    return out


def circuit_tuple(bc):
    return bc.gates, bc.edges, bc.creators


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_circuit_pipeline_matches_the_rewiring_reference(seed, monkeypatch):
    """The one-pass circuit equals the rewired one gate for gate; reading
    squares back without the split, and the rewrite built on both, give
    the references' certificates."""
    cases = seeded_certificates(seed, 120)
    expected = []
    for cert, h in cases:
        bc = reference_square_to_boolean(cert)
        expected.append((circuit_tuple(bc), reference_boolean_to_square(bc).tuples))
    for (cert, h), (circuit, back) in zip(cases, expected):
        bc = sm.square_to_boolean(cert)
        assert circuit_tuple(bc) == circuit
        assert sm.boolean_to_square(bc).tuples == back
    rewritten = [sm.lattice_rewrite(cert, h).tuples for cert, h in cases]
    monkeypatch.setattr(sm, "square_to_boolean", reference_square_to_boolean)
    monkeypatch.setattr(sm, "boolean_to_square", reference_boolean_to_square)
    assert rewritten == [sm.lattice_rewrite(cert, h).tuples for cert, h in cases]


def test_extractor_matches_the_pattern_decoding_reference(monkeypatch):
    """On refuted random instances, extend_submodular's certificate is the
    one the pattern-decoding extractor reads off the same witness."""
    import random

    from extendkit.oracle import random_partial_function

    extract = sm.extract_square_certificate
    seen = []

    def both(h, witness, problem, pairs):
        cert = extract(h, witness, problem, pairs)
        seen.append(cert.tuples == reference_extract(h, witness, problem).tuples)
        return cert

    monkeypatch.setattr(sm, "extract_square_certificate", both)
    rng = random.Random(4)
    refuted = 0
    while refuted < 150:
        h = random_partial_function(rng.randint(4, 6), rng.randint(6, 10), (0, 6), rng)
        refuted += not sm.extend_submodular(h).extendible
    assert len(seen) == refuted and all(seen)


# --- pipeline checks that well-formed certificates never reach ---------------


def _loop_circuit_with(points):
    """helpers.loop_pair_circuit's gates, edges and creators over another
    partial function."""
    from helpers import loop_pair_circuit

    bc = loop_pair_circuit()
    h = PartialSetFunction(3, tuple((mask_of(s), Q(v)) for s, v in points))
    return sm.BooleanCircuitCertificate(bc.m, bc.gates, bc.edges, bc.creators, h)


def test_validate_rejects_a_weighting_that_is_not_positive():
    from extendkit.errors import MalformedCircuit

    bc = _loop_circuit_with([([], 0), ([0], 1), ([1, 2], 0), ([0, 1, 2], 1)])
    with pytest.raises(MalformedCircuit, match="weighting is not positive"):
        bc.validate()


def test_validate_rejects_a_terminal_gate_on_an_undefined_set():
    from extendkit.errors import MalformedCircuit

    # the input gate with creator {0} has no value; the weighting is positive
    bc = _loop_circuit_with([([], 0), ([1, 2], 0), ([0, 1, 2], 1)])
    with pytest.raises(MalformedCircuit, match="gate 0 .* maps to an undefined set"):
        bc.validate()


def test_square_to_boolean_refuses_only_comparable_squares(monkeypatch):
    """Comparable squares never verify (their weighting is 0), so the
    MergeStuck guard is reached only past a verification that passes."""
    from extendkit.errors import MergeStuck

    h = psf(2, ([], 0), ([0], 0), ([0, 1], 1))
    cert = sm.SquareCertificate(2, ((square(0b01, 0b11), 2), (square(0b01, 0b01), 1)), h)
    monkeypatch.setattr(sm, "verify_square_certificate", lambda _c, _h: True)
    with pytest.raises(MergeStuck, match="only trivial or comparable squares"):
        sm.square_to_boolean(cert)
