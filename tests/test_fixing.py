"""Fixing on cyclic AND/OR circuits: golden circuits, the fixing lemmas,
and agreement with the independent derivability fixpoint."""

import random
from itertools import product

import pytest

from extendkit import submodular as sm
from extendkit.errors import IncompleteAssignment
from extendkit.oracle import random_valid_square_certificate

from helpers import derivable_bits, enumerate_satisfying, loop_pair_circuit


def test_loop_circuit_fixing_inputs_01():
    bc = loop_pair_circuit()
    report = sm.fixing_algorithm(bc, (0, 1))
    y1, y2 = bc.output_ids()
    z1, z2 = bc.intermediate_ids()
    assert report.bit(y1) == 0
    assert report.bit(y2) == 1
    assert z1 in report.unfixed and z2 in report.unfixed


def test_loop_circuit_both_satisfying_assignments_exist():
    bc = loop_pair_circuit()
    sols = enumerate_satisfying(bc, (0, 1))
    y1, y2 = bc.output_ids()
    z1, z2 = bc.intermediate_ids()
    assert len(sols) == 2  # the all-low and all-high cycle completions
    assert {tuple(sorted(s.items())) for s in sols} == {
        tuple(sorted({0: 0, 1: 1, y1: 0, y2: 1, z1: 0, z2: 0}.items())),
        tuple(sorted({0: 0, 1: 1, y1: 0, y2: 1, z1: 1, z2: 1}.items())),
    }


def test_loop_circuit_fixed_functions_assignment():
    bc = loop_pair_circuit()
    a = sm.fixed_functions_assignment(bc, (0, 1))
    x1, x2 = bc.input_ids()
    y1, y2 = bc.output_ids()
    z1, z2 = bc.intermediate_ids()
    assert (a[x1], a[x2], a[y1], a[y2], a[z1], a[z2]) == (0, 1, 0, 1, 1, 1)
    assert sm.is_satisfying(bc, a)


def test_all_ones_inputs_fix_everything_to_one_in_assignment():
    bc = loop_pair_circuit()
    a = sm.fixed_functions_assignment(bc, (1, 1))
    assert all(v == 1 for v in a.values())
    assert sm.is_satisfying(bc, a)


def test_acyclic_or_gate():
    # a single square gives an acyclic 4-gate circuit
    cert, h = _one_square()
    bc = sm.square_to_boolean(cert)
    or_gate = next(g.gid for g in bc.gates if g.op == "or")
    and_gate = next(g.gid for g in bc.gates if g.op == "and")
    report = sm.fixing_algorithm(bc, (1, 0))
    assert report.bit(or_gate) == 1
    assert report.bit(and_gate) == 0


def _one_square():
    from extendkit.ground import PartialSetFunction, Rational as Q

    h = PartialSetFunction(
        2, ((0, Q(0)), (0b01, Q(0)), (0b10, Q(0)), (0b11, Q(1)))
    )
    cert = sm.SquareCertificate(2, ((sm.square(0b01, 0b10), 1),), h)
    return cert, h


def test_bad_input_width():
    bc = loop_pair_circuit()
    with pytest.raises(IncompleteAssignment):
        sm.fixing_algorithm(bc, (0,))
    with pytest.raises(IncompleteAssignment):
        sm.fixing_algorithm(bc, (0, 2))


def test_random_certificates_fixing_lemmas():
    """Unique fixed values, agreement with every satisfying assignment,
    monotone fixed functions, and the unfixed-to-1 completion, on random
    valid boolean certificates."""
    rng = random.Random(97)
    for _ in range(120):
        cert, h = random_valid_square_certificate(rng.randint(2, 4), rng)
        bc = sm.square_to_boolean(cert)
        nin = len(bc.input_ids())
        if nin > 5:
            continue
        gate_ids = [g.gid for g in bc.gates]
        fix_bits = {}
        for inputs in product((0, 1), repeat=nin):
            fx = derivable_bits(bc, inputs)
            # fixed values are unique
            assert all(len(v) <= 1 for v in fx.values())
            report = sm.fixing_algorithm(bc, inputs)
            # the report matches derivability exactly
            assert set(report.fixed) == {g for g, v in fx.items() if v}
            for gid, bit in report.fixed.items():
                assert fx[gid] == {bit}
            assert set(bc.output_ids()) <= set(report.fixed)
            # fixed gates agree with every satisfying assignment
            for sol in enumerate_satisfying(bc, inputs):
                for gid, bits in fx.items():
                    for b in bits:
                        assert sol[gid] == b
            # the unfixed-to-1 completion satisfies every gate
            a = sm.fixed_functions_assignment(bc, inputs)
            assert sm.is_satisfying(bc, a)
            fix_bits[inputs] = a
        # fixed functions are monotone
        for x in fix_bits:
            for y in fix_bits:
                if all(a <= b for a, b in zip(x, y)):
                    for gid in gate_ids:
                        assert fix_bits[x][gid] <= fix_bits[y][gid]


def test_lattice_rewrite_matches_coordinatewise_derivability():
    """The rewrite equals one built from the reference fixpoint run once
    per coordinate: a gate's new creator holds coordinate i unless the
    gate is derivably 0 there."""
    rng = random.Random(4242)
    for _ in range(150):
        cert, h = random_valid_square_certificate(rng.randint(2, 6), rng)
        bc = sm.square_to_boolean(cert)
        creator = dict(zip((g.gid for g in bc.gates), bc.creators))
        ips = bc.input_ids()
        ref = {g.gid: 0 for g in bc.gates}
        for i in range(bc.m):
            fx = derivable_bits(bc, tuple((creator[x] >> i) & 1 for x in ips))
            for gid, bits in fx.items():
                if bits != {0}:
                    ref[gid] |= 1 << i
        bc2 = sm.BooleanCircuitCertificate(
            bc.m, bc.gates, bc.edges, tuple(ref[g.gid] for g in bc.gates), h
        )
        assert sm.lattice_rewrite(cert, h) == sm.boolean_to_square(bc2)
