"""Shared test oracles: independent derivability fixpoint and exhaustive
satisfying-assignment enumeration for boolean certificates."""

from itertools import product

from extendkit.ground import PartialSetFunction, Rational as Q, mask_of
from extendkit.submodular import (
    BooleanCircuitCertificate,
    Gate,
    SquareCertificate,
    is_satisfying,
    square,
)


def derivable_bits(bc, inputs):
    """Least fixpoint of the proof-tree derivability rules: per gate, the
    set of bits witnessed by some finite proof tree, one coordinate at a
    time. Independent of the package's bit-parallel fixpoint."""
    fx = {g.gid: set() for g in bc.gates}
    for x, bit in zip(bc.input_ids(), inputs):
        fx[x].add(bit)
    ins = bc.in_edges()
    changed = True
    while changed:
        changed = False
        for g in bc.gates:
            if g.op == "input":
                continue
            u, v = ins[g.gid]
            want = set()
            if g.op == "and":
                if 0 in fx[u] or 0 in fx[v]:
                    want.add(0)
                if 1 in fx[u] and 1 in fx[v]:
                    want.add(1)
            else:
                if 1 in fx[u] or 1 in fx[v]:
                    want.add(1)
                if 0 in fx[u] and 0 in fx[v]:
                    want.add(0)
            if not want <= fx[g.gid]:
                fx[g.gid] |= want
                changed = True
    return fx


def enumerate_satisfying(bc, inputs):
    """All satisfying assignments extending the given input bits. Output
    gates are forced by their feeders, so the enumeration only ranges over
    intermediate-gate bits."""
    ims = bc.intermediate_ids()
    ops = {g.gid: g.op for g in bc.gates}
    ins = bc.in_edges()
    base = dict(zip(bc.input_ids(), inputs))
    out = []
    for bits in product((0, 1), repeat=len(ims)):
        a = dict(base)
        a.update(zip(ims, bits))
        ok = True
        for g in ims:
            u, v = ins[g]
            want = a[u] & a[v] if ops[g] == "and" else a[u] | a[v]
            if a[g] != want:
                ok = False
                break
        if not ok:
            continue
        for g in bc.output_ids():
            u, v = ins[g]
            a[g] = a[u] & a[v] if ops[g] == "and" else a[u] | a[v]
        assert is_satisfying(bc, a)
        out.append(a)
    return out


def loop_pair_circuit():
    """The two-input cyclic circuit with an AND/OR pair on a loop:
    y1 = x1 & z1, z2 = x1 | z1, z1 = z2 & x2, y2 = z2 | x2,
    creators from the diamond {(),(a),(b,c),(a,b,c)} with values 0,0,0,1."""
    h = PartialSetFunction(
        3,
        (
            (0, Q(0)),
            (mask_of([0]), Q(0)),
            (mask_of([1, 2]), Q(0)),
            (mask_of([0, 1, 2]), Q(1)),
        ),
    )
    gates = (
        Gate(0, "input", "ip"),  # x1, creator {a}
        Gate(1, "input", "ip"),  # x2, creator {b,c}
        Gate(2, "and", "op"),    # y1, creator {}
        Gate(3, "or", "op"),     # y2, creator {a,b,c}
        Gate(4, "and", "im"),    # z1, creator {b}
        Gate(5, "or", "im"),     # z2, creator {a,b}
    )
    edges = ((4, 2), (0, 2), (4, 5), (0, 5), (5, 4), (1, 4), (5, 3), (1, 3))
    creators = (
        mask_of([0]),
        mask_of([1, 2]),
        0,
        mask_of([0, 1, 2]),
        mask_of([1]),
        mask_of([0, 1]),
    )
    bc = BooleanCircuitCertificate(3, gates, edges, creators, h)
    bc.validate()
    return bc


def diamond_certificate():
    h = PartialSetFunction(
        3,
        (
            (0, Q(0)),
            (mask_of([0]), Q(0)),
            (mask_of([1, 2]), Q(0)),
            (mask_of([0, 1, 2]), Q(1)),
        ),
    )
    cert = SquareCertificate(
        3, ((square(0b001, 0b010), 1), (square(0b011, 0b110), 1)), h
    )
    return cert, h
