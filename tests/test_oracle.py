"""Full-domain LP oracles, distance-to-class, and generators."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extendkit import cli
from extendkit import oracle as orc
from extendkit import submodular as sm
from extendkit import testers as ts
from extendkit.errors import MalformedDocument, MalformedRational, TooLarge
from extendkit.ground import (
    PartialSetFunction,
    Rational as Q,
    mask_of,
    popcount,
    rational_pair,
    serialize,
)


def psf(m, *pairs):
    return PartialSetFunction(m, tuple((mask_of(s), Q(v)) for s, v in pairs))


CUBE_VIOLATION = psf(2, ([], 0), ([0], 0), ([1], 0), ([0, 1], 1))


def test_full_domain_submodular_cube():
    assert not orc.full_domain_extend(CUBE_VIOLATION, "submodular")
    ok = psf(2, ([], 0), ([0], 1), ([1], 1), ([0, 1], 1))
    assert orc.full_domain_extend(ok, "submodular")


def test_full_domain_monotone_subadditive_cube():
    assert not orc.full_domain_extend(CUBE_VIOLATION, "monotone-subadditive")


def test_full_domain_antichain_submodular_random_values():
    rng = random.Random(51)
    fam = orc.random_antichain(3, 3, rng)
    for _ in range(100):
        h = PartialSetFunction(
            3, tuple((s, orc.random_rational(rng, -10, 10)) for s in fam)
        )
        assert orc.full_domain_extend(h, "submodular")


def test_full_domain_too_large():
    h = psf(6, ([0], 1))
    with pytest.raises(TooLarge):
        orc.full_domain_extend(h, "submodular")
    h5 = psf(5, ([0], 1))
    with pytest.raises(TooLarge):
        orc.full_domain_extend(h5, "monotone-subadditive")


def test_full_domain_negative_values_for_nonnegative_class():
    h = psf(2, ([0], -1))
    assert not orc.full_domain_extend(h, "monotone-subadditive")
    assert not orc.full_domain_extend(h, "xos")


def test_distance_in_class_table():
    table = orc.FullTable(2, (Q(0), Q(1), Q(1), Q(2)))
    assert orc.distance_to_class(table, "monotone-subadditive") == 0
    assert orc.distance_to_class(table, "submodular") == 0


def test_distance_one_repair():
    table = orc.FullTable(2, (Q(0), Q(0), Q(0), Q(1)))
    assert orc.distance_to_class(table, "monotone-subadditive") == Q(1, 4)


def test_distance_two_disjoint_violations():
    # f == 1 except two boosted triples; each needs its own repair
    m = 4
    values = [Q(1)] * 16
    values[0] = Q(0)
    values[mask_of([0, 1, 2])] = Q(4)
    values[mask_of([0, 1, 3])] = Q(4)
    table = orc.FullTable(m, tuple(values))
    assert orc.distance_to_class(table, "monotone-subadditive") == Q(2, 16)


def test_table_roundtrip():
    table = orc.FullTable(2, (Q(0), Q(1, 2), Q(1), Q(2)))
    assert orc.parse_full_table(serialize(table)) == table


def test_parsed_table_reads_each_literal_once():
    text = '{"m":2,"values":["-0","+3/4","6/8","007"]}'
    table = orc.parse_full_table(text)
    assert list(table.values) == [Q(0), Q(3, 4), Q(3, 4), Q(7)]
    assert table.values[1] is table.values[1]  # built once, then kept
    assert table == orc.FullTable(2, (Q(0), Q(3, 4), Q(3, 4), Q(7)))
    assert not table.values.has_negative()
    assert orc.parse_full_table('{"m":1,"values":["0","-1/3"]}').values.has_negative()


@pytest.mark.parametrize(
    "bad", ["x", "5\n", "٣", "1/0", " 1", 1, None, "", "1\n2", "1/00", "--1", 2.5]
)
def test_malformed_table_entry_anywhere_is_rejected(tmp_path, bad):
    """The scan's error is rational_pair's, whether the literal comes
    first, in the middle or last, and ``test`` exits 2 on it."""
    with pytest.raises(MalformedRational) as want:
        rational_pair(bad)
    for index in (0, 5, 7):
        values = ["1"] * 8
        values[index] = bad
        with pytest.raises(MalformedRational) as got:
            orc.parse_full_table(json.dumps({"m": 3, "values": values}))
        assert str(got.value) == str(want.value)
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"m": 3, "values": values}))
        argv = ["test", "--class", "xos", "--oracle", str(path), "--epsilon", "1/4"]
        assert cli.main(argv) == 2


# table entries for the scan: short texts over the characters that make or
# break a literal, valid literals, and values that are not strings
_entries = st.one_of(
    st.text(alphabet="0123456789+-/\n ٣", max_size=5),
    st.from_regex(r"[+-]?[0-9]{1,3}(/[0-9]{1,2})?", fullmatch=True),
    st.integers(-3, 9),
    st.floats(allow_nan=False),
    st.none(),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(_entries, min_size=1 << m, max_size=1 << m))))
def test_literal_scan_agrees_with_rational_pair(case):
    """The one-pass scan of parse_full_table accepts exactly the tables
    whose every entry rational_pair() accepts, raises the same error as
    rational_pair() on the first entry it refuses, and reads the same
    values and the same sign."""
    m, values = case
    try:
        pairs = [rational_pair(v) for v in values]
    except MalformedRational as exc:
        with pytest.raises(MalformedRational) as got:
            orc.parse_full_table({"m": m, "values": values})
        assert str(got.value) == str(exc)
        return
    table = orc.parse_full_table({"m": m, "values": values})
    assert list(table.values) == [Q(p, q) for p, q in pairs]
    assert table.values.has_negative() == any(p < 0 for p, _q in pairs)
    ints, scale = table.values.scaled(range(1 << m))
    assert [Q(n, scale) for n in ints] == [Q(p, q) for p, q in pairs]


def test_empty_and_zero_tables():
    with pytest.raises(MalformedDocument, match="needs 1 entries, got 0"):
        orc.parse_full_table({"m": 0, "values": []})
    for zeros in (["-0", "-0/3"], ["-00/5", "0"], ["+0", "-000"]):
        assert not orc.parse_full_table({"m": 1, "values": zeros}).values.has_negative()
    assert orc.parse_full_table({"m": 1, "values": ["0", "-01/3"]}).values.has_negative()


def test_table_scan_memory_stays_near_json_loads():
    """Parsing a decoded 2^16-entry table peaks below twice what json.loads
    of its text does: the scan keeps constant state, where a match of a
    repeated group over the joined literals keeps state per entry."""
    values = [f"{i % 97}/{i % 5 + 1}" if i % 3 else str(i % 89) for i in range(1 << 16)]
    text = json.dumps({"m": 16, "values": values})
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        doc = json.loads(text)
        load_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        table = orc.parse_full_table(doc)
        parse_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(table.values) == 1 << 16
    assert parse_peak < 2 * load_peak, (parse_peak, load_peak)


def _random_table(rng, m):
    """Mostly monotone values with a few dips and unreduced fractions, as
    the literals a table file would carry."""
    literals = []
    for s in range(1 << m):
        den = rng.randint(1, 4)
        num = den * popcount(s) * 2 + rng.randint(-1, 2) * den
        if rng.random() < 0.05:
            num = max(0, num - 5 * den)
        literals.append(f"{max(num, 0)}/{den}" if den > 1 else f"+{max(num, 0)}")
    return literals


@pytest.mark.parametrize("tester", [ts.test_subadditive, ts.test_xos, ts.test_nonmonotone_subadditive])
def test_tester_reports_on_parsed_and_rational_tables_agree(tester):
    rng = random.Random(2024)
    verdicts = set()
    for trial in range(12):
        m = rng.randint(3, 7)
        literals = _random_table(rng, m)
        parsed = orc.parse_full_table(json.dumps({"m": m, "values": literals}))
        rationals = tuple(Fraction(x) for x in literals)
        for eps, seed in ((Fraction(1, 4), trial), (Fraction(1, 10), 100 + trial)):
            got = tester(ts.FunctionOracle.from_table(parsed), eps, seed)
            want = tester(ts.FunctionOracle(m, rationals.__getitem__), eps, seed)
            assert got == want
            assert serialize(got) == serialize(want)
            verdicts.add(got.verdict)
    assert verdicts == {"accept", "reject"}


def test_random_antichain_is_antichain():
    rng = random.Random(77)
    for _ in range(50):
        fam = orc.random_antichain(6, 10, rng)
        assert len(fam) == 10 and sm.is_antichain(fam)


def test_random_partial_function_ranges():
    rng = random.Random(88)
    for _ in range(50):
        h = orc.random_partial_function(4, 6, (0, 10), rng)
        assert len(h.points) == 6
        assert all(0 <= v <= 10 for _, v in h.points)
        hp = orc.random_partial_function(4, 6, (0, 10), rng, positive=True)
        assert all(v > 0 for _, v in hp.points)


def test_random_square_certificates_verify():
    rng = random.Random(99)
    for _ in range(100):
        cert, h = orc.random_valid_square_certificate(rng.randint(2, 5), rng)
        assert sm.verify_square_certificate(cert, h)


def test_oracle_agrees_with_cover_characterization_smoke():
    from extendkit import subadditive as sub

    rng = random.Random(123)
    for _ in range(60):
        m = rng.randint(2, 4)
        n = rng.randint(1, min(6, (1 << m) - 1))
        h = orc.random_partial_function(m, n, (0, 6), rng)
        fast = isinstance(sub.extend_monotone_subadditive(h), sub.Extendible)
        slow = orc.full_domain_extend(h, "monotone-subadditive")
        assert fast == slow
