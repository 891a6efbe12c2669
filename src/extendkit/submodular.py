"""Submodular extension over the interval family of the lattice closure,
square certificates of non-extendibility, their boolean-circuit form,
fixing for cyclic monotone circuits (one least fixpoint of the fixing
rules on bitmasks, one bit per coordinate), and certificate rewriting
into the lattice closure by one fixing run over all m coordinates.

Square certificates: a multiset of tuples ({A,B}, A|B, A&B) such that
every set appearing unequally often as a middle point and as a
top/bottom point must be a defined set (balance), and the defined values
weighted by
(top/bottom count - middle count) sum to a positive number. A partial
function extends to a submodular function iff no square certificate
exists; certificates fall out of the Farkas witness of the extension LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import lp
from .errors import (
    ClosureCapExceeded,
    IncompleteAssignment,
    InternalError,
    MalformedCircuit,
    MalformedDocument,
    MergeStuck,
    TooLarge,
    WitnessInvalid,
)
from .ground import (
    MAX_DENSE_M,
    ONE,
    ZERO,
    PartialSetFunction,
    Rational,
    elements,
    is_json_int,
    is_subset,
    json_document,
    lex_key,
    scaled_ints,
)

DEFAULT_CLOSURE_CAP = 50_000
MAX_REWRITE_SIZE = 1 << 14  # certificate size (sum of counts) lattice_rewrite takes


# ---------------------------------------------------------------------------
# lattice closure and the interval family


def lattice_closure(family, cap: int = DEFAULT_CLOSURE_CAP) -> frozenset[int]:
    """Minimal superfamily closed under union and intersection, by
    saturation; refuses (with the partial size) once past ``cap``."""
    seeds = list(dict.fromkeys(family))
    if not seeds:
        raise ValueError("family must be nonempty")
    accepted: list[int] = []
    seen: set[int] = set()
    pending = list(reversed(seeds))
    while pending:
        x = pending.pop()
        if x in seen:
            continue
        seen.add(x)
        if len(seen) > cap:
            raise ClosureCapExceeded(len(seen), cap)
        for y in accepted:
            u, n = x | y, x & y
            if u not in seen:
                pending.append(u)
            if n not in seen:
                pending.append(n)
        accepted.append(x)
    return frozenset(seen)


def interval_family(family, cap: int = DEFAULT_CLOSURE_CAP) -> tuple[int, ...]:
    """Lattice closure filtered to sets sandwiched between two members of
    the original family, sorted canonically."""
    fam = list(dict.fromkeys(family))
    closure = lattice_closure(fam, cap)
    kept = [
        s
        for s in closure
        if any(is_subset(s, t) for t in fam) and any(is_subset(t, s) for t in fam)
    ]
    return tuple(sorted(kept, key=lex_key))


def is_antichain(family) -> bool:
    fam = list(family)
    for i, a in enumerate(fam):
        for b in fam[i + 1 :]:
            if is_subset(a, b) or is_subset(b, a):
                return False
    return True


# ---------------------------------------------------------------------------
# square certificates


@dataclass(frozen=True)
class SquareTuple:
    a: int
    b: int
    top: int
    bottom: int

    def __post_init__(self):
        if self.top != self.a | self.b or self.bottom != self.a & self.b:
            raise MalformedDocument("square tuple must have top=a|b, bottom=a&b")


def square(a: int, b: int) -> SquareTuple:
    if lex_key(b) < lex_key(a):
        a, b = b, a
    return SquareTuple(a, b, a | b, a & b)


@dataclass(frozen=True)
class SquareCertificate:
    """Multiset of square tuples with multiplicities, optionally carrying
    the partial function it refutes."""

    m: int
    tuples: tuple[tuple[SquareTuple, int], ...]
    context: Optional[PartialSetFunction] = None

    def __post_init__(self):
        merged: dict[SquareTuple, int] = {}
        for t, k in self.tuples:
            if k <= 0:
                raise MalformedDocument("tuple multiplicities must be positive")
            merged[t] = merged.get(t, 0) + k
        normal = tuple(
            sorted(merged.items(), key=lambda e: (lex_key(e[0].a), lex_key(e[0].b)))
        )
        object.__setattr__(self, "tuples", normal)

    def counts(self) -> dict[int, tuple[int, int]]:
        """Per involved set: (times a middle point, times a top/bottom)."""
        out: dict[int, list[int]] = {}
        for t, k in self.tuples:
            for s in (t.a, t.b):
                out.setdefault(s, [0, 0])[0] += k
            for s in (t.top, t.bottom):
                out.setdefault(s, [0, 0])[1] += k
        return {s: (mc, tbc) for s, (mc, tbc) in out.items()}

    def involved_sets(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts(), key=lex_key))

    def size(self) -> int:
        return sum(k for _, k in self.tuples)

    def _to_jsonable(self):
        return {
            "m": self.m,
            "tuples": [
                {"a": list(elements(t.a)), "b": list(elements(t.b)), "count": k}
                for t, k in self.tuples
            ],
        }


def parse_square_certificate(data, context: PartialSetFunction | None = None):
    """Load the certificate JSON ({"m":..., "tuples":[{"a":...,"b":...,
    "count":...}]}); top and bottom points are recomputed."""
    doc = json_document(data)
    if not isinstance(doc, dict) or not isinstance(doc.get("tuples"), list):
        raise MalformedDocument('certificate document needs a "tuples" array')
    m = doc.get("m", context.m if context is not None else None)
    if not is_json_int(m):
        raise MalformedDocument('certificate document needs an integer "m"')
    tuples = []
    for entry in doc["tuples"]:
        if not isinstance(entry, dict) or "a" not in entry or "b" not in entry:
            raise MalformedDocument(f"tuple entry must have 'a' and 'b': {entry!r}")
        for key in ("a", "b"):
            arr = entry[key]
            if not isinstance(arr, list) or not all(is_json_int(i) for i in arr):
                raise MalformedDocument(
                    f"'{key}' must be an array of integers: {arr!r}"
                )
            if any(i < 0 or i >= m for i in arr) or len(set(arr)) != len(arr):
                raise MalformedDocument(
                    f"'{key}' must list distinct indices in [0,{m}): {arr!r}"
                )
        count = entry.get("count", 1)
        if not is_json_int(count):
            raise MalformedDocument(f"'count' must be an integer: {count!r}")
        a = sum(1 << i for i in entry["a"])
        b = sum(1 << i for i in entry["b"])
        tuples.append((square(a, b), count))
    return SquareCertificate(m, tuple(tuples), context)


def verify_square_certificate(cert: SquareCertificate, h: PartialSetFunction) -> bool:
    """Exact check of the balance and positivity properties against the
    partial function."""
    if not cert.tuples:
        return False
    defined = h.as_dict()
    counts = cert.counts()
    for s, (mc, tbc) in counts.items():
        if mc != tbc and s not in defined:
            return False  # undefined set out of balance
    total = ZERO
    for s, value in defined.items():
        mc, tbc = counts.get(s, (0, 0))
        total += value * (tbc - mc)
    return total > 0  # weighted positivity


def refuting_square(cert: SquareCertificate, assignment) -> Optional[SquareTuple]:
    """A tuple with F(A)+F(B) < F(top)+F(bottom) under the given total
    assignment on the involved sets; None when no tuple is violated."""
    for s in cert.involved_sets():
        if s not in assignment:
            raise IncompleteAssignment(
                f"assignment missing involved set {sorted(elements(s))}"
            )
    for t, _k in cert.tuples:
        if assignment[t.a] + assignment[t.b] < assignment[t.top] + assignment[t.bottom]:
            return t
    return None


# ---------------------------------------------------------------------------
# the interval-family LP


@dataclass(frozen=True)
class SubmodularResult:
    kind: str  # "extendible" | "antichain" | "not_extendible"
    values: Optional[dict[int, Rational]] = None  # on the family, when extendible
    certificate: Optional[SquareCertificate] = None
    family: tuple[int, ...] = ()

    @property
    def extendible(self) -> bool:
        return self.kind != "not_extendible"


def _family_lp(h: PartialSetFunction, fam: tuple[int, ...], *, boxes: bool):
    """LP over one variable per family set: submodularity rows for pairs
    whose union and intersection stay in the family, plus value pins
    (equality) or [f_i, alpha f_i] boxes with a minimized alpha. Returns
    the LP and ``pairs``, the (a, b) of each submodularity row in row
    order (those rows come first)."""
    fam_index = {s: i for i, s in enumerate(fam)}
    nf = len(fam)
    nv = nf + (1 if boxes else 0)
    names = tuple(f"w{s}" for s in fam) + (("alpha",) if boxes else ())
    cons = []
    pairs = []
    for i, a in enumerate(fam):
        for b in fam[i + 1 :]:
            if is_subset(a, b) or is_subset(b, a):
                continue
            u, n = a | b, a & b
            if u not in fam_index or n not in fam_index:
                continue
            row = [ZERO] * nv
            row[fam_index[a]] += ONE
            row[fam_index[b]] += ONE
            row[fam_index[u]] -= ONE
            row[fam_index[n]] -= ONE
            cons.append(lp.Constraint(tuple(row), ">=", ZERO))
            pairs.append((a, b))
    for mask, value in h.points:
        row = [ZERO] * nv
        row[fam_index[mask]] = ONE
        if boxes:
            cons.append(lp.Constraint(tuple(row), ">=", value))
            row = list(row)
            row[-1] = -value
            cons.append(lp.Constraint(tuple(row), "<=", ZERO))
        else:
            cons.append(lp.Constraint(tuple(row), "=", value))
    objective = None
    lower = None
    if boxes:
        objective = ((ZERO,) * nf + (ONE,), "min")
        lower = (None,) * nf + (ONE,)
    return lp.ExactLP(names, tuple(cons), objective, lower=lower), pairs


def extend_submodular(
    h: PartialSetFunction, cap: int = DEFAULT_CLOSURE_CAP
) -> SubmodularResult:
    """Decide submodular extendibility. Antichains extend immediately; in
    general feasibility over the interval family settles the whole cube,
    and infeasibility converts into a verified square certificate."""
    masks = h.masks
    if is_antichain(masks):
        return SubmodularResult("antichain", values=h.as_dict(), family=tuple(
            sorted(masks, key=lex_key)
        ))
    fam = interval_family(masks, cap)
    problem, pairs = _family_lp(h, fam, boxes=False)
    out = lp.solve(problem)
    if isinstance(out, lp.Feasible):
        values = {s: out.assignment[f"w{s}"] for s in fam}
        return SubmodularResult("extendible", values=values, family=fam)
    if not isinstance(out, lp.Infeasible):
        raise InternalError("internal error: the family LP is neither feasible nor infeasible")
    cert = extract_square_certificate(h, out.witness, problem, pairs)
    return SubmodularResult("not_extendible", certificate=cert, family=fam)


def approx_submodular(h: PartialSetFunction, cap: int = DEFAULT_CLOSURE_CAP):
    """Minimal alpha with a submodular f obeying f_i <= f(T_i) <= alpha f_i,
    via the interval-family LP with box constraints."""
    h.require_positive("submodular")
    masks = h.masks
    fam = (
        tuple(sorted(masks, key=lex_key))
        if is_antichain(masks)
        else interval_family(masks, cap)
    )
    out = lp.solve(_family_lp(h, fam, boxes=True)[0])
    if not isinstance(out, lp.Optimal):
        raise InternalError("internal error: the box LP has no optimum")
    return out.value


def extract_square_certificate(
    h: PartialSetFunction, witness: lp.FarkasWitness, problem: lp.ExactLP, pairs
) -> SquareCertificate:
    """Turn a Farkas witness of the family LP into a square certificate:
    the multipliers on the submodularity rows (the first ``len(pairs)``
    rows, one per (a, b) of ``pairs``), scaled to integers by one lcm,
    become tuple multiplicities; the pin-row multipliers supply the
    positive weighting implicitly. verify_farkas rejects a negative
    multiplier on an inequality row."""
    if not lp.verify_farkas(problem, witness):
        raise WitnessInvalid("witness does not verify against the LP")
    used = [(ab, lam) for ab, lam in zip(pairs, witness.multipliers) if lam]
    if not used:
        raise WitnessInvalid("witness places no weight on submodularity rows")
    mults, _scale = scaled_ints([lam for _, lam in used])
    tuples = tuple((square(a, b), k) for ((a, b), _), k in zip(used, mults))
    cert = SquareCertificate(h.m, tuples, context=h)
    if not verify_square_certificate(cert, h):
        raise WitnessInvalid("extracted certificate fails verification")
    return cert


# ---------------------------------------------------------------------------
# boolean certificates


@dataclass(frozen=True)
class Gate:
    gid: int
    op: str  # "input" | "and" | "or"
    role: str  # "ip" | "im" | "op"


@dataclass(frozen=True)
class BooleanCircuitCertificate:
    """A cyclic AND/OR circuit with a creator map, Farkas-equivalent to a
    square certificate.

    Structural invariants (validated): inputs have indegree 0 and
    outdegree 2, outputs indegree 2 and outdegree 0, intermediates 2 and
    2; the and-gates' input pairs coincide with the or-gates' input pairs
    (so every non-output gate feeds exactly one AND and one OR through the
    same sibling); creators respect the gate logic coordinatewise (each
    coordinate of the creator map is a satisfying assignment); input and
    output gates map into the defined sets; and the defined values
    weighted by (output-gate count - input-gate count) sum positive.
    """

    m: int
    gates: tuple[Gate, ...]
    edges: tuple[tuple[int, int], ...]
    creators: tuple[int, ...]
    context: Optional[PartialSetFunction] = None

    def __post_init__(self):
        object.__setattr__(self, "_in", None)
        object.__setattr__(self, "_out", None)

    def in_edges(self) -> dict[int, tuple[int, ...]]:
        if self._in is None:
            ins = {g.gid: [] for g in self.gates}
            for u, v in self.edges:
                ins[v].append(u)
            object.__setattr__(
                self, "_in", {k: tuple(v) for k, v in ins.items()}
            )
        return self._in

    def out_edges(self) -> dict[int, tuple[int, ...]]:
        if self._out is None:
            outs = {g.gid: [] for g in self.gates}
            for u, v in self.edges:
                outs[u].append(v)
            object.__setattr__(
                self, "_out", {k: tuple(v) for k, v in outs.items()}
            )
        return self._out

    def input_ids(self) -> tuple[int, ...]:
        return tuple(g.gid for g in self.gates if g.role == "ip")

    def output_ids(self) -> tuple[int, ...]:
        return tuple(g.gid for g in self.gates if g.role == "op")

    def intermediate_ids(self) -> tuple[int, ...]:
        return tuple(g.gid for g in self.gates if g.role == "im")

    def validate(self) -> None:
        ins, outs = self.in_edges(), self.out_edges()
        ids = [g.gid for g in self.gates]
        if len(set(ids)) != len(ids):
            raise MalformedCircuit("duplicate gate ids")
        if len(self.creators) != len(self.gates):
            raise MalformedCircuit("creator map must cover every gate")
        and_pairs: list[frozenset[int]] = []
        or_pairs: list[frozenset[int]] = []
        for g in self.gates:
            ind, outd = len(ins[g.gid]), len(outs[g.gid])
            if g.role == "ip":
                if g.op != "input" or ind != 0 or outd != 2:
                    raise MalformedCircuit(f"bad input gate {g.gid}")
            elif g.role == "op":
                if g.op not in ("and", "or") or ind != 2 or outd != 0:
                    raise MalformedCircuit(f"bad output gate {g.gid}")
            else:
                if g.op not in ("and", "or") or ind != 2 or outd != 2:
                    raise MalformedCircuit(f"bad intermediate gate {g.gid}")
            if g.op in ("and", "or"):
                pair = frozenset(ins[g.gid])
                if len(pair) != 2:
                    raise MalformedCircuit(f"gate {g.gid} fed twice by one gate")
                (and_pairs if g.op == "and" else or_pairs).append(pair)
        if sorted(and_pairs, key=sorted) != sorted(or_pairs, key=sorted):
            raise MalformedCircuit(
                "and-gates' input pairs must match or-gates' input pairs"
            )
        creator = dict(zip(ids, self.creators))
        for s in self.creators:
            if s >> self.m:
                raise MalformedCircuit("creator outside the ground set")
        for g in self.gates:
            if g.op == "and":
                u, v = ins[g.gid]
                if creator[g.gid] != creator[u] & creator[v]:
                    raise MalformedCircuit(
                        f"creator of AND gate {g.gid} is not the intersection"
                    )
            elif g.op == "or":
                u, v = ins[g.gid]
                if creator[g.gid] != creator[u] | creator[v]:
                    raise MalformedCircuit(
                        f"creator of OR gate {g.gid} is not the union"
                    )
        if self.context is not None:
            defined = self.context.as_dict()
            net: dict[int, int] = {}  # output gates minus input gates, per creator
            for g in self.gates:
                if g.role == "im":
                    continue
                c = creator[g.gid]
                if c not in defined:
                    raise MalformedCircuit(
                        f"gate {g.gid} (role {g.role}) maps to an undefined set"
                    )
                net[c] = net.get(c, 0) + (1 if g.role == "op" else -1)
            total = sum((defined[c] * k for c, k in net.items()), ZERO)
            if not total > 0:
                raise MalformedCircuit("defined-value weighting is not positive")


def square_to_boolean(cert: SquareCertificate) -> BooleanCircuitCertificate:
    """Per unit of count, four gates: the inputs a and b, an output OR
    (creator = union) and an output AND (creator = intersection), each
    input wired to both outputs. Then, creators in lex order, each
    creator's inputs are zipped with its outputs in creation order, and
    each pair merges into the next intermediate gate: the circuit is the
    original edges with their endpoints renamed.

    Trivial and comparable squares contribute equally to middle and
    top/bottom counts, so they are dropped before conversion (they would
    merge into self-loops)."""
    h = cert.context
    if h is None:
        raise WitnessInvalid("certificate carries no partial-function context")
    if not verify_square_certificate(cert, h):
        raise WitnessInvalid("certificate does not verify")

    units = [
        t
        for t, k in cert.tuples
        if not (is_subset(t.a, t.b) or is_subset(t.b, t.a))
        for _ in range(k)
    ]
    if not units:
        raise MergeStuck("certificate holds only trivial or comparable squares")
    # gate 4u + r of unit u: r = 0, 1 the inputs, r = 2 the OR, r = 3 the AND
    ops = ("input", "input", "or", "and")
    creator = [c for t in units for c in (t.a, t.b, t.top, t.bottom)]
    by_creator: dict[int, tuple[list[int], list[int]]] = {}
    for g, c in enumerate(creator):
        by_creator.setdefault(c, ([], []))[g & 2 != 0].append(g)
    merges = [p for c in sorted(by_creator, key=lex_key) for p in zip(*by_creator[c])]
    merged = {g for p in merges for g in p}

    # reindex in the canonical order: inputs, then outputs, then intermediates
    terminals = [g for g in range(len(creator)) if g not in merged]
    terminals.sort(key=lambda g: g & 2)  # stable: creation order within a role
    defined = set(h.masks)
    for g in terminals:
        if creator[g] not in defined:
            raise MergeStuck(
                f"unmergeable terminal gate maps to undefined set "
                f"{sorted(elements(creator[g]))}"
            )
    new_id = {g: i for i, g in enumerate(terminals)}
    gates = [Gate(i, ops[g & 3], "op" if g & 2 else "ip") for i, g in enumerate(terminals)]
    creators = [creator[g] for g in terminals]
    for i, (g_in, g_out) in enumerate(merges, len(terminals)):
        new_id[g_in] = new_id[g_out] = i
        gates.append(Gate(i, ops[g_out & 3], "im"))
        creators.append(creator[g_in])
    edges = sorted(
        (new_id[4 * u + i], new_id[4 * u + o])
        for u in range(len(units))
        for i in (0, 1)
        for o in (2, 3)
    )
    bc = BooleanCircuitCertificate(cert.m, tuple(gates), tuple(edges), tuple(creators), h)
    bc.validate()
    return bc


def boolean_to_square(bc: BooleanCircuitCertificate) -> SquareCertificate:
    """Read one square off each AND/OR pair of gates that share their two
    feeders."""
    bc.validate()
    ins = bc.in_edges()
    creator = dict(zip((g.gid for g in bc.gates), bc.creators))
    pair_gates: dict[frozenset[int], dict[str, int]] = {}
    for g in bc.gates:
        if g.op != "input":
            pair_gates.setdefault(frozenset(ins[g.gid]), {})[g.op] = g.gid
    tuples: list[tuple[SquareTuple, int]] = []
    for srcs, by_op in pair_gates.items():
        if set(by_op) != {"and", "or"}:
            raise MalformedCircuit("input pair lacks its AND/OR partner")
        u, v = srcs
        sq = square(creator[u], creator[v])
        if creator[by_op["or"]] != sq.top or creator[by_op["and"]] != sq.bottom:
            raise MalformedCircuit("component creators violate the set algebra")
        tuples.append((sq, 1))
    cert = SquareCertificate(bc.m, tuple(tuples), bc.context)
    if bc.context is not None and not verify_square_certificate(cert, bc.context):
        raise MalformedCircuit("converted certificate does not verify")
    return cert


# ---------------------------------------------------------------------------
# fixing


@dataclass(frozen=True)
class FixReport:
    """Per-gate result of fixing: the bit of every fixed gate, and the
    gates that the inputs leave unfixed."""

    fixed: dict[int, int]
    unfixed: frozenset[int]

    def bit(self, gid: int) -> Optional[int]:
        return self.fixed.get(gid)


def _fix(bc: BooleanCircuitCertificate, ones, zeros):
    """Least fixpoint of the fixing rules on bitmasks, one bit per
    coordinate: AND is 0 from one child and 1 from both, OR is 1 from one
    child and 0 from both. ``ones``/``zeros`` map each input gate to the
    coordinates where it is 1/0; returns (one, zero), the same maps for
    every gate. Raises InternalError when a gate is fixed to both bits or
    an output gate is unfixed on some coordinate."""
    one = {g.gid: 0 for g in bc.gates}
    zero = dict(one)
    one.update(ones)
    zero.update(zeros)
    full = 0
    for x in ones:
        full |= one[x] | zero[x]
    ins, outs = bc.in_edges(), bc.out_edges()
    is_and = {g.gid: g.op == "and" for g in bc.gates}
    pending = [g.gid for g in reversed(bc.gates) if g.op != "input"]
    queued = set(pending)
    while pending:
        g = pending.pop()
        queued.discard(g)
        u, v = ins[g]
        if is_and[g]:
            o, z = one[u] & one[v], zero[u] | zero[v]
        else:
            o, z = one[u] | one[v], zero[u] & zero[v]
        if o != one[g] or z != zero[g]:
            one[g], zero[g] = o, z
            for w in outs[g]:
                if w not in queued:
                    queued.add(w)
                    pending.append(w)
    for g in bc.gates:
        if one[g.gid] & zero[g.gid]:
            raise InternalError(f"internal error: gate {g.gid} is fixed to both bits")
        if g.role == "op" and one[g.gid] | zero[g.gid] != full:
            raise InternalError("internal error: fixing left an output gate unfixed")
    return one, zero


def fixing_algorithm(bc: BooleanCircuitCertificate, inputs) -> FixReport:
    """Fix the gates forced by one bit per input gate, in input-id order:
    the least fixpoint of the fixing rules, so Fixed/Unfixed is fixedness
    itself (which makes the fixed-functions assignment monotone in the
    inputs). Every output gate ends up fixed."""
    ips = bc.input_ids()
    if len(inputs) != len(ips):
        raise IncompleteAssignment(
            f"{len(inputs)} input bits for {len(ips)} input gates"
        )
    if any(b not in (0, 1) for b in inputs):
        raise IncompleteAssignment("input bits must be 0 or 1")
    one, zero = _fix(
        bc, dict(zip(ips, inputs)), {x: 1 - b for x, b in zip(ips, inputs)}
    )
    fixed = {g.gid: one[g.gid] for g in bc.gates if one[g.gid] | zero[g.gid]}
    unfixed = frozenset(g.gid for g in bc.gates if g.gid not in fixed)
    return FixReport(fixed, unfixed)


def fixed_functions_assignment(bc: BooleanCircuitCertificate, inputs) -> dict[int, int]:
    """Fixed gates take their fixed bit, unfixed gates take 1; always a
    satisfying assignment of the circuit."""
    report = fixing_algorithm(bc, inputs)
    out = {}
    for g in bc.gates:
        bit = report.bit(g.gid)
        out[g.gid] = 1 if bit is None else bit
    return out


def is_satisfying(bc: BooleanCircuitCertificate, assignment: dict[int, int]) -> bool:
    ins = bc.in_edges()
    for g in bc.gates:
        if g.op == "and":
            u, v = ins[g.gid]
            if assignment[g.gid] != (assignment[u] & assignment[v]):
                return False
        elif g.op == "or":
            u, v = ins[g.gid]
            if assignment[g.gid] != (assignment[u] | assignment[v]):
                return False
    return True


# ---------------------------------------------------------------------------
# lattice rewriting


def lattice_rewrite(cert: SquareCertificate, h: PartialSetFunction) -> SquareCertificate:
    """Rewrite a certificate so every involved set lives in the lattice
    closure (indeed in the interval family) of the defined sets: convert
    to a boolean certificate, fix its gates on all m coordinates at once
    with the input creators as inputs, give each gate the coordinates it
    is not fixed to 0 (unfixed gates take 1), convert back."""
    if cert.m > MAX_DENSE_M:
        raise TooLarge(f"the rewrite fixes m-bit masks; m <= {MAX_DENSE_M} only")
    if cert.size() > MAX_REWRITE_SIZE:
        raise TooLarge(
            "the rewrite builds four gates per unit of count; "
            f"certificate size <= {MAX_REWRITE_SIZE} only"
        )
    if cert.context is None:
        cert = SquareCertificate(cert.m, cert.tuples, h)
    if not verify_square_certificate(cert, h):
        raise WitnessInvalid("certificate does not verify")
    bc = square_to_boolean(cert)
    full = (1 << bc.m) - 1
    inputs = {g.gid: c for g, c in zip(bc.gates, bc.creators) if g.role == "ip"}
    _one, zero = _fix(bc, inputs, {x: full & ~c for x, c in inputs.items()})
    new_creators = tuple(full & ~zero[g.gid] for g in bc.gates)
    for g, old, new in zip(bc.gates, bc.creators, new_creators):
        if g.role in ("ip", "op") and new != old:
            raise InternalError("internal error: the rewrite moved a defined-set gate")
    bc2 = BooleanCircuitCertificate(bc.m, bc.gates, bc.edges, new_creators, h)
    return boolean_to_square(bc2)
