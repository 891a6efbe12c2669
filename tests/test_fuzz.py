"""Bounded fuzzing of the input contract: whatever the document or argv,
``cli.main`` exits 0, 1, 2 or 3 and prints no traceback.

Every command is fuzzed. Every call runs in this process,
and none starts a process pool (``test`` runs with ``--jobs 1``). Sizes
are bounded (m <= 6 for set functions, dimension <= 3 with at most 6
convex points, m <= 4 for tester tables, small ``gen`` parameters, plus
the values just past each cap), so every example finishes well inside
the hypothesis deadline.
"""

import contextlib
import io
import json
import random

from hypothesis import HealthCheck, event, given, settings, strategies as st

from extendkit import cli
from extendkit.cli import MAX_GEN_N
from extendkit.ground import MAX_DENSE_M, to_jsonable
from extendkit.oracle import CLASSES, _MAX_M, random_valid_square_certificate
from extendkit.submodular import MAX_REWRITE_SIZE

FUZZ = settings(
    max_examples=150,
    deadline=2000,
    suppress_health_check=[HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
literals = st.builds(
    lambda p, q, form: form.format(p=p, q=q),
    st.integers(-3, 9),
    st.integers(0, 5),
    st.sampled_from(["{p}", "{p}/{q}", "+{p}/{q}", " {p}", "{p}.0"]),
)
fuzzed_points = st.fixed_dictionaries(
    {
        "set": st.lists(st.integers(-1, 7), max_size=4) | json_values,
        "value": literals | json_values,
    }
)


def well_formed(m):
    point = st.fixed_dictionaries(
        {
            "set": st.lists(st.integers(0, m - 1), max_size=m, unique=True).map(sorted),
            "value": st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 5)),
        }
    )
    return st.fixed_dictionaries(
        {"m": st.just(m), "points": st.lists(point, max_size=8, unique_by=lambda p: str(p["set"]))}
    )


# half the documents parse (so the solvers run), the rest break a field
documents = st.one_of(
    st.integers(1, 6).flatmap(well_formed),
    st.fixed_dictionaries(
        {
            "m": st.integers(1, 6) | json_values,
            "points": st.lists(fuzzed_points | json_values, max_size=8),
        }
    ),
    json_values,
)


def run_main(argv):
    """(exit code, stderr) of one in-process call; argparse's own exits
    count as the exit codes they carry."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_contract(code, stderr):
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (code, stderr)
    assert "Traceback" not in stderr, stderr
    assert "internal error" not in stderr, stderr


def write(tmp_path_factory, name, doc, raw=None):
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_text(json.dumps(doc) if raw is None else raw, encoding="utf-8")
    return str(path)


raw_text = st.one_of(st.none(), st.none(), st.none(), st.text(max_size=20))


@settings(FUZZ, max_examples=300)  # four classes: 150 examples per two of them
@given(
    doc=documents,
    raw=raw_text,
    command=st.sampled_from(["extend", "approx"]),
    klass=st.sampled_from(["subadditive", "subadditive-nonmonotone", "xos", "submodular"]),
    extra=st.just([])
    | st.lists(st.sampled_from(["--audit", "--debug-lp", "--cap", "3", "-1", "x"]), max_size=2),
)
def test_set_function_commands_keep_the_exit_contract(
    tmp_path_factory, doc, raw, command, klass, extra
):
    path = write(tmp_path_factory, "doc.json", doc, raw)
    assert_contract(*run_main([command, "--class", klass, "--input", path, *extra]))


@FUZZ
@given(
    # m one past the class's cap reaches the exit-3 refusal; the submodular
    # LP has only free variables
    case=st.sampled_from(CLASSES).flatmap(
        lambda k: st.tuples(st.just(k), documents | well_formed(_MAX_M[k] + 1))
    ),
    raw=raw_text,
)
def test_oracle_keeps_the_exit_contract(tmp_path_factory, case, raw):
    klass, doc = case
    path = write(tmp_path_factory, "doc.json", doc, raw)
    assert_contract(*run_main(["oracle", "--class", klass, "--input", path]))


small = st.integers(-2, 8).map(str)
gen_options = st.fixed_dictionaries(
    {"--m": st.integers(1, 8).map(str) | small | st.sampled_from([str(MAX_DENSE_M + 1), "x"])},
    optional={
        "--n": small | st.just(str(MAX_GEN_N + 1)),
        "--lo": st.integers(-5, 5).map(str),
        "--hi": st.integers(-5, 5).map(str),
        "--seed": st.integers(0, 9).map(str) | st.just("x"),
    },
)


@FUZZ
@given(
    kind=st.sampled_from(["partial", "antichain", "cert"] * 3 + ["other"]),
    options=gen_options,
    positive=st.booleans(),
)
def test_gen_keeps_the_exit_contract(kind, options, positive):
    argv = ["gen", "--kind", kind, *(x for kv in options.items() for x in kv)]
    assert_contract(*run_main(argv + ["--positive"] * positive))


at_arguments = st.one_of(
    st.lists(st.integers(-1, 7), max_size=4).map(json.dumps),
    st.lists(literals, max_size=4).map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=6),
)


@FUZZ
@given(doc=documents, raw=raw_text, at=at_arguments)
def test_eval_xos_roof_keeps_the_exit_contract(tmp_path_factory, doc, raw, at):
    path = write(tmp_path_factory, "doc.json", doc, raw)
    assert_contract(*run_main(["eval", "--class", "xos-roof", "--at", at, "--input", path]))


clean_literals = st.builds("{}/{}".format, st.integers(-3, 9), st.integers(1, 4))


def well_formed_convex(m):
    point = st.fixed_dictionaries(
        {
            "x": st.lists(clean_literals, min_size=m, max_size=m),
            "value": clean_literals,
        }
    )
    return st.fixed_dictionaries({"dim": st.just(m), "points": st.lists(point, max_size=6)})


convex_documents = st.one_of(
    st.integers(1, 3).flatmap(well_formed_convex),
    st.fixed_dictionaries(
        {
            "dim": st.integers(-1, 3) | json_values,
            "points": st.lists(
                st.fixed_dictionaries(
                    {
                        "x": st.lists(literals, max_size=3) | json_values,
                        "value": literals | json_values,
                    }
                )
                | json_values,
                max_size=6,
            ),
        }
    ),
    json_values,
)


@FUZZ
@given(
    doc=convex_documents,
    raw=raw_text,
    argv=st.one_of(
        st.just(["extend", "--class", "convex"]),
        st.sampled_from([[], ["--audit"]]).map(lambda a: ["approx", "--class", "convex", *a]),
        st.tuples(st.sampled_from(["convex-roof", "convex-tilde"]), at_arguments).map(
            lambda ka: ["eval", "--class", ka[0], "--at", ka[1]]
        ),
        st.just(["vertices"]),
    ),
)
def test_convex_commands_keep_the_exit_contract(tmp_path_factory, doc, raw, argv):
    path = write(tmp_path_factory, "doc.json", doc, raw)
    assert_contract(*run_main([*argv, "--input", path]))


def well_formed_certificate(m):
    subset = st.lists(st.integers(0, m - 1), max_size=m, unique=True)
    entry = st.fixed_dictionaries(
        {"a": subset, "b": subset},
        optional={"count": st.integers(-1, 3) | st.just(MAX_REWRITE_SIZE + 1)},
    )
    return st.fixed_dictionaries({"m": st.just(m), "tuples": st.lists(entry, max_size=4)})


certificates = st.one_of(
    st.integers(1, 5).flatmap(well_formed_certificate),
    st.fixed_dictionaries(
        {"tuples": st.lists(json_values, max_size=3) | json_values},
        optional={"m": st.integers(-1, 5) | json_values},
    ),
    json_values,
)


def generated_pair(m, seed, count):
    """A verifying certificate and the function it refutes, from the
    generator behind ``gen --kind cert``, with one count replaced."""
    cert, h = random_valid_square_certificate(m, random.Random(seed))
    cert_doc = to_jsonable(cert)
    if count is not None:
        cert_doc["tuples"][0]["count"] = count
    return to_jsonable(h), cert_doc


certificate_pairs = st.one_of(
    st.tuples(documents, certificates),
    st.builds(
        generated_pair,
        st.integers(2, 5),
        st.integers(0, 1 << 16),
        st.none() | st.integers(-1, 3) | st.just(MAX_REWRITE_SIZE + 1),
    ),
)


@FUZZ
@given(
    pair=certificate_pairs,
    raw=raw_text,
    command=st.sampled_from(["verify-cert", "rewrite-cert"]),
)
def test_certificate_commands_keep_the_exit_contract(tmp_path_factory, pair, raw, command):
    doc, cert = pair
    path = write(tmp_path_factory, "doc.json", doc)
    cert_path = write(tmp_path_factory, "cert.json", cert, raw)
    assert_contract(*run_main([command, "--input", path, "--cert", cert_path]))


def well_formed_table(m):
    values = st.lists(st.integers(0, 9).map(str), min_size=1 << m, max_size=1 << m)
    return st.fixed_dictionaries({"m": st.just(m), "values": values})


tables = st.one_of(
    st.integers(0, 4).flatmap(well_formed_table),
    st.fixed_dictionaries(
        {
            "m": st.integers(-1, 3) | json_values,
            "values": st.lists(literals | json_values, max_size=8),
        }
    ),
    json_values,
)


@FUZZ
@given(
    table=tables,
    raw=raw_text,
    klass=st.sampled_from(["subadditive", "xos", "subadditive-nonmonotone"]),
    epsilon=st.sampled_from(["1/2", "1/3", "1/8", "1", "0", "2", "-1/2", "1/0", "x"]),
    options=st.fixed_dictionaries(
        {},
        optional={
            "--seed": st.integers(0, 9).map(str) | st.just("x"),
            "--trials": st.sampled_from(["1", "2", "0", "x"]),
        },
    ),
)
def test_testers_keep_the_exit_contract(tmp_path_factory, table, raw, klass, epsilon, options):
    path = write(tmp_path_factory, "table.json", table, raw)
    argv = ["test", "--class", klass, "--oracle", path, "--epsilon", epsilon, "--jobs", "1"]
    assert_contract(*run_main(argv + [x for kv in options.items() for x in kv]))
