"""Bounded fuzzing of the input contract: whatever the document or argv,
``cli.main`` exits 0, 1, 2 or 3 and prints no traceback.

Every call runs in this process. None of the fuzzed commands starts a
process pool (only ``test --jobs`` above 1 would). Sizes are bounded
(m <= 6 where m is an integer, at most 8 points, small ``gen`` parameters
plus the values just past each cap), so every example finishes well
inside the hypothesis deadline.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, event, given, settings, strategies as st

from extendkit import cli
from extendkit.cli import MAX_GEN_N
from extendkit.ground import MAX_DENSE_M

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


@FUZZ
@given(
    doc=documents,
    raw=st.one_of(st.none(), st.none(), st.none(), st.text(max_size=20)),
    command=st.sampled_from(["extend", "approx"]),
    klass=st.sampled_from(["subadditive", "subadditive-nonmonotone"]),
    extra=st.just([])
    | st.lists(st.sampled_from(["--audit", "--debug-lp", "--cap", "3", "-1", "x"]), max_size=2),
)
def test_subadditive_commands_keep_the_exit_contract(tmp_path_factory, doc, raw, command, klass, extra):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc) if raw is None else raw, encoding="utf-8")
    assert_contract(*run_main([command, "--class", klass, "--input", str(path), *extra]))


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
