"""CLI surface: exit codes, JSON output, determinism, witness re-verification."""

import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "extendkit"]

LINEAR_XOS = '{"m":2,"points":[{"set":[0],"value":"1"},{"set":[1],"value":"2"},{"set":[0,1],"value":"3"}]}'
CUBE_VIOLATION = (
    '{"m":2,"points":[{"set":[],"value":"0"},{"set":[0],"value":"0"},'
    '{"set":[1],"value":"0"},{"set":[0,1],"value":"1"}]}'
)
KINK = '{"dim":1,"points":[{"x":["0"],"value":"0"},{"x":["1"],"value":"2"},{"x":["2"],"value":"2"}]}'
KINK_POSITIVE = '{"dim":1,"points":[{"x":["0"],"value":"1"},{"x":["1"],"value":"2"},{"x":["2"],"value":"2"}]}'
MODULAR_TABLE = '{"m":3,"values":["0","1","1","2","1","2","2","3"]}'


def run(args, **kw):
    return subprocess.run(CMD + args, capture_output=True, text=True, **kw)


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, doc in [
        ("lin.json", LINEAR_XOS),
        ("cube.json", CUBE_VIOLATION),
        ("kink.json", KINK),
        ("kinkpos.json", KINK_POSITIVE),
        ("modular.json", MODULAR_TABLE),
    ]:
        p = tmp_path / name
        p.write_text(doc)
        paths[name] = str(p)
    return paths


def test_extend_xos_linear(files):
    out = run(["extend", "--class", "xos", "--input", files["lin.json"]])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["verdict"] == "extendible" and "vectors" in doc


def test_extend_submodular_cube_violation(files):
    out = run(["extend", "--class", "submodular", "--input", files["cube.json"]])
    assert out.returncode == 1
    doc = json.loads(out.stdout)
    assert doc["verdict"] == "not_extendible"
    assert doc["certificate"]["tuples"] == [{"a": [0], "b": [1], "count": 1}]


def test_certify_verify_rewrite_pipeline(files, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    out = run(
        ["certify", "--input", files["cube.json"], "--out", cert_path]
    )
    assert out.returncode == 1
    out = run(
        ["verify-cert", "--cert", cert_path, "--input", files["cube.json"]]
    )
    assert out.returncode == 0 and json.loads(out.stdout)["valid"] is True
    out = run(
        ["rewrite-cert", "--cert", cert_path, "--input", files["cube.json"]]
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["sizes"]["input"] >= 1 and doc["tuples"]


def test_verify_cert_rejects_wrong_values(files, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    cert_path_file = tmp_path / "cert.json"
    cert_path_file.write_text('{"m":2,"tuples":[{"a":[0],"b":[1],"count":1}]}')
    zero = tmp_path / "zero.json"
    zero.write_text(
        '{"m":2,"points":[{"set":[],"value":"0"},{"set":[0],"value":"0"},'
        '{"set":[1],"value":"0"},{"set":[0,1],"value":"0"}]}'
    )
    out = run(["verify-cert", "--cert", cert_path, "--input", str(zero)])
    assert out.returncode == 1 and json.loads(out.stdout)["valid"] is False


def test_tester_accept_exit_zero(files):
    out = run(
        [
            "test",
            "--class",
            "subadditive",
            "--oracle",
            files["modular.json"],
            "--epsilon",
            "1/4",
            "--seed",
            "7",
        ]
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["verdict"] == "accept" and doc["queries"] >= 1 and doc["seed"] == 7


def test_deterministic_stdout(files):
    args = [
        "test",
        "--class",
        "xos",
        "--oracle",
        files["modular.json"],
        "--epsilon",
        "1/4",
        "--seed",
        "42",
        "--trials",
        "3",
    ]
    a, b = run(args), run(args)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_eval_roofs(files):
    out = run(
        ["eval", "--class", "xos-roof", "--at", "[0,1]", "--input", files["lin.json"]]
    )
    assert out.returncode == 0 and json.loads(out.stdout)["value"] == "3"
    out = run(
        ["eval", "--class", "convex-roof", "--at", '["1"]', "--input", files["kink.json"]]
    )
    assert out.returncode == 0 and json.loads(out.stdout)["value"] == "1"
    out = run(
        ["eval", "--class", "convex-roof", "--at", '["3"]', "--input", files["kink.json"]]
    )
    assert json.loads(out.stdout)["status"] == "outside_hull"
    out = run(
        ["eval", "--class", "convex-tilde", "--at", '["3"]', "--input", files["kink.json"]]
    )
    assert json.loads(out.stdout)["value"] == "3"


def test_vertices(files):
    out = run(["vertices", "--input", files["kink.json"]])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["vertices"] == [{"y": ["1"], "mu": "0", "tight": [0, 2]}]


def test_approx_commands(files):
    out = run(
        ["approx", "--class", "convex", "--input", files["kinkpos.json"], "--audit"]
    )
    assert out.returncode == 0 and json.loads(out.stdout)["alpha"] == "4/3"
    out = run(["approx", "--class", "xos", "--input", files["lin.json"]])
    assert out.returncode == 0 and json.loads(out.stdout)["alpha"] == "1"


def test_oracle_command(files):
    out = run(
        ["oracle", "--class", "monotone-subadditive", "--input", files["cube.json"]]
    )
    assert out.returncode == 1 and json.loads(out.stdout)["extendible"] is False


def test_gen_commands():
    out = run(["gen", "--kind", "antichain", "--m", "4", "--n", "3", "--seed", "5"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert len(doc["points"]) == 3
    out2 = run(["gen", "--kind", "antichain", "--m", "4", "--n", "3", "--seed", "5"])
    assert out.stdout == out2.stdout  # seeded generation is reproducible
    out = run(["gen", "--kind", "cert", "--m", "3", "--seed", "9"])
    assert out.returncode == 0 and "certificate" in json.loads(out.stdout)


def test_usage_errors(files, tmp_path):
    out = run(["extend", "--class", "xos", "--input", str(tmp_path / "missing.json")])
    assert out.returncode == 2 and out.stdout == ""
    bad = tmp_path / "bad.json"
    bad.write_text('{"m":2,"points":[{"set":[0],"value":"x"}]}')
    out = run(["extend", "--class", "xos", "--input", str(bad)])
    assert out.returncode == 2
    neg = tmp_path / "neg.json"
    neg.write_text('{"m":2,"points":[{"set":[0],"value":"-1"}]}')
    out = run(["extend", "--class", "xos", "--input", str(neg)])
    assert out.returncode == 2
    out = run(["extend", "--class", "submodular", "--input", str(neg)])
    assert out.returncode == 0  # negative values are legal for submodular


def test_cap_exit_code(files, tmp_path):
    # six disjoint singletons blow a tiny closure cap
    doc = {
        "m": 6,
        "points": [{"set": [i], "value": "1"} for i in range(6)]
        + [{"set": list(range(6)), "value": "1"}],
    }
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(doc))
    out = run(
        ["extend", "--class", "submodular", "--input", str(p), "--cap", "10"]
    )
    assert out.returncode == 3 and out.stdout == ""


def test_version():
    out = run(["--version"])
    assert out.returncode == 0 and "schema" in out.stdout


def test_emitted_witnesses_reverify(files, tmp_path):
    """Whatever lands on stdout with exit 1 must check out against the
    input via the matching verification routine."""
    from extendkit.ground import mask_of, parse_partial_function, parse_rational
    from extendkit.subadditive import CoverViolation

    gadget = tmp_path / "gadget.json"
    gadget.write_text(
        '{"m":3,"points":[{"set":[0,1],"value":"1"},{"set":[1,2],"value":"1"},'
        '{"set":[0,1,2],"value":"3"}]}'
    )
    out = run(["extend", "--class", "subadditive", "--input", str(gadget)])
    assert out.returncode == 1
    doc = json.loads(out.stdout)["witness"]
    h = parse_partial_function(gadget.read_text())
    violation = CoverViolation(
        mask_of(doc["target"]),
        tuple(mask_of(c) for c in doc["cover"]),
        parse_rational(doc["cover_sum"]),
        parse_rational(doc["target_value"]),
    )
    assert violation.check(h)

    out = run(["extend", "--class", "xos", "--input", str(gadget)])
    assert out.returncode == 1
    wdoc = json.loads(out.stdout)["witness"]
    from extendkit.xos import XosNotExtendible

    witness = XosNotExtendible(
        mask_of(wdoc["target"]),
        tuple(
            (mask_of(e["set"]), parse_rational(e["weight"]))
            for e in wdoc["weights"]
        ),
        parse_rational(wdoc["cost"]),
        parse_rational(wdoc["target_value"]),
    )
    assert witness.check(h)


def test_trials_jobs_byte_identical(files):
    base = [
        "test",
        "--class",
        "subadditive",
        "--oracle",
        files["modular.json"],
        "--epsilon",
        "1/4",
        "--seed",
        "11",
        "--trials",
        "4",
    ]
    serial = run(base + ["--jobs", "1"])
    parallel = run(base + ["--jobs", "2"])
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout


def test_debug_lp_does_not_leak_into_later_calls(files, capsys):
    from extendkit import cli

    argv = ["extend", "--class", "submodular", "--input", files["cube.json"]]
    assert cli.main(argv + ["--debug-lp"]) == 1
    assert "[lp] pivot enter=" in capsys.readouterr().err
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == ""


def test_debug_lp_has_no_environment_switch(files):
    """--debug-lp is the one switch for the pivot trace."""
    import os

    argv = ["extend", "--class", "submodular", "--input", files["cube.json"]]
    out = run(argv, env={**os.environ, "EXTENDKIT_DEBUG_LP": "1"})
    assert out.returncode == 1 and out.stderr == ""


def test_refutation_unchanged_under_python_O(files):
    argv = ["extend", "--class", "submodular", "--input", files["cube.json"]]
    plain = run(argv)
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "extendkit"] + argv, capture_output=True, text=True
    )
    assert plain.returncode == optimized.returncode == 1
    assert optimized.stdout == plain.stdout
    assert json.loads(optimized.stdout)["verdict"] == "not_extendible"


def test_approx_subadditive_empty_instance(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"m":2,"points":[]}')
    out = run(["approx", "--class", "subadditive", "--input", str(path)])
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"alpha": "1", "witness": None}


@pytest.mark.parametrize(
    "doc",
    [
        '{"m":3,"points":[{"set":[false,true],"value":"1"}]}',
        '{"m":true,"points":[{"set":[0],"value":"1"}]}',
        '{"dim":true,"points":[{"x":["0"],"value":"1"}]}',
    ],
)
def test_json_booleans_are_not_integers(tmp_path, doc):
    path = tmp_path / "bool.json"
    path.write_text(doc)
    klass = "convex" if '"dim"' in doc else "subadditive"
    out = run(["extend", "--class", klass, "--input", str(path)])
    assert out.returncode == 2 and out.stdout == ""
    assert "input error" in out.stderr and "Traceback" not in out.stderr


def test_certificate_booleans_are_not_integers(files, tmp_path):
    for cert in (
        '{"m":true,"tuples":[{"a":[0],"b":[1],"count":1}]}',
        '{"m":2,"tuples":[{"a":[false],"b":[1],"count":1}]}',
        '{"m":2,"tuples":[{"a":["x"],"b":[1],"count":1}]}',
    ):
        path = tmp_path / "cert.json"
        path.write_text(cert)
        out = run(["verify-cert", "--input", files["cube.json"], "--cert", str(path)])
        assert out.returncode == 2 and out.stdout == ""
        assert "Traceback" not in out.stderr


def test_jobs_below_one_is_a_usage_error(files):
    out = run(
        ["test", "--class", "subadditive", "--oracle", files["modular.json"],
         "--epsilon", "1/4", "--trials", "2", "--jobs", "0"]
    )
    assert out.returncode == 2 and out.stdout == ""


def test_pool_size_clamps_jobs():
    from extendkit.cli import _pool_size

    assert _pool_size(10**6, 4, 2) == 2  # the CPUs
    assert _pool_size(10**6, 3, 64) == 3  # the trials
    assert _pool_size(2, 8, 64) == 2
    assert _pool_size(8, 8, None) == 1  # os.cpu_count() may not know


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_trials_below_one_is_a_usage_error(files, trials):
    out = run(
        ["test", "--class", "subadditive", "--oracle", files["modular.json"],
         "--epsilon", "1/4", "--trials", trials]
    )
    assert out.returncode == 2 and out.stdout == ""


@pytest.mark.parametrize(
    "doc",
    [
        '{"m":"2","values":["0","1","1","2"]}',
        '{"m":true,"values":["0","1"]}',
        '{"m":-1,"values":[]}',
        '{"m":2,"values":5}',
        '{"m":2,"values":{"0":"1"}}',
        '{"m":2,"values":["0","1","1","x"]}',
        '{"m":2,"values":["0","1","1","5\\n"]}',
        '{"m":2,"values":["0","1","1","\\u0663"]}',
    ],
)
def test_malformed_oracle_table_is_an_input_error(tmp_path, doc):
    path = tmp_path / "table.json"
    path.write_text(doc)
    out = run(["test", "--class", "xos", "--oracle", str(path), "--epsilon", "1/4"])
    assert out.returncode == 2 and out.stdout == ""
    assert "input error" in out.stderr and "Traceback" not in out.stderr


def test_gen_cert_needs_two_elements():
    """m < 2 has no incomparable pair; a timeout turns a hang into a failure."""
    for m in ("1", "0"):
        out = run(["gen", "--kind", "cert", "--m", m], timeout=60)
        assert out.returncode == 2 and out.stdout == ""
        assert "Traceback" not in out.stderr


def test_epsilon_zero_denominator_is_an_input_error(files):
    out = run(
        ["test", "--class", "xos", "--oracle", files["modular.json"], "--epsilon", "1/0"]
    )
    assert out.returncode == 2 and out.stdout == ""
    assert "input error" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("eps", [" 1/10", "0.1", "1e-1", "1_0/100", "\u0661/\u0663"])
def test_epsilon_takes_a_rational_literal_only(files, eps, capsys):
    """--epsilon follows the rational-literal grammar of the input
    documents: no whitespace, decimals, exponents, underscores or
    non-ASCII digits."""
    from extendkit import cli

    code = cli.main(
        ["test", "--class", "xos", "--oracle", files["modular.json"], "--epsilon", eps]
    )
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("input error:")


@pytest.mark.parametrize(
    "cert",
    [
        '{"m":2,"tuples":5}',
        '{"m":2,"tuples":[{"a":[0],"b":[1],"count":1.7}]}',
        '{"m":2,"tuples":[{"a":[0],"b":[1],"count":true}]}',
        '{"m":2,"tuples":[{"a":[0],"b":[5],"count":1}]}',
        '{"m":2,"tuples":[{"a":[-1],"b":[1],"count":1}]}',
        '{"m":2,"tuples":[{"a":[0,0],"b":[1],"count":1}]}',
    ],
)
def test_malformed_certificate_is_an_input_error(files, tmp_path, cert):
    path = tmp_path / "cert.json"
    path.write_text(cert)
    out = run(["verify-cert", "--input", files["cube.json"], "--cert", str(path)])
    assert out.returncode == 2 and out.stdout == ""
    assert "input error" in out.stderr and "Traceback" not in out.stderr


# ---------------------------------------------------------------------------
# the parser is built once per process; dispatch is by command name

WIDE = {
    "m": 6,
    "points": [{"set": [i], "value": "1"} for i in range(6)]
    + [{"set": list(range(6)), "value": "1"}],
}


def test_replaced_command_takes_effect_after_the_parser_is_built(files, monkeypatch, capsys):
    from extendkit import cli

    argv = ["extend", "--class", "xos", "--input", files["lin.json"]]
    assert cli.main(argv) == 0  # the parser exists from here on
    seen = []
    monkeypatch.setattr(cli, "cmd_extend", lambda args: seen.append(args.klass) or 7)
    assert cli.main(argv) == 7 and seen == ["xos"]


def test_parser_is_built_once_per_process(files, monkeypatch, capsys):
    from extendkit import cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    calls = [
        (["extend", "--class", "xos", "--input", files["lin.json"]], 0),
        (["approx", "--class", "convex", "--input", files["kinkpos.json"]], 0),
        (["eval", "--class", "convex-roof", "--input", files["kink.json"], "--at", '["1"]'], 0),
        (["vertices", "--input", files["kink.json"]], 0),
        (["test", "--class", "xos", "--oracle", files["modular.json"], "--epsilon", "1/4"], 0),
        (["extend", "--class", "submodular", "--input", files["cube.json"]], 1),
    ]
    for argv, code in calls:
        assert cli.main(argv) == code, argv
    assert built == [1]


def test_flags_do_not_carry_into_the_next_call(tmp_path, monkeypatch, capsys):
    from extendkit import cli, lp, submodular

    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE))
    argv = ["extend", "--class", "submodular", "--input", str(path)]
    assert cli.main(argv + ["--cap", "5", "--debug-lp"]) == 3
    assert "resource cap" in capsys.readouterr().err
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    seen = []
    monkeypatch.setattr(cli, "cmd_extend", lambda args: seen.append(args) or 0)
    cli.main(argv + ["--cap", "5", "--debug-lp"])
    cli.main(argv)
    assert (seen[0].cap, seen[0].debug_lp) == (5, True)
    assert (seen[1].cap, seen[1].debug_lp) == (submodular.DEFAULT_CLOSURE_CAP, False)
    assert lp.DEBUG is False


def test_build_parser_still_parses_on_its_own():
    from extendkit import cli

    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    args = parser.parse_args(["verify-cert", "--input", "h.json", "--cert", "c.json"])
    assert (args.command, args.input, args.cert) == ("verify-cert", "h.json", "c.json")
    args = parser.parse_args(["extend", "--class", "xos", "--input", "h.json"])
    assert (args.command, args.klass, args.debug_lp) == ("extend", "xos", False)


# ---------------------------------------------------------------------------
# oracle tables


def _test_table(tmp_path, capsys, values):
    from extendkit import cli

    path = tmp_path / "table.json"
    path.write_text(json.dumps({"m": 3, "values": values}))
    code = cli.main(["test", "--class", "subadditive", "--oracle", str(path), "--epsilon", "1/4"])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("zero", ["-0", "-0/3", "+0", "0/7"])
def test_signed_zero_is_not_negative(tmp_path, capsys, zero):
    values = [zero, "1", "1", "2", "1", "2", "2", "3"]
    code, out, _err = _test_table(tmp_path, capsys, values)
    assert code == 0 and json.loads(out)["verdict"] == "accept"


def test_negative_entry_is_an_input_error(tmp_path, capsys):
    values = ["0", "1", "1", "2", "-1/3", "2", "2", "3"]
    code, out, err = _test_table(tmp_path, capsys, values)
    assert code == 2 and out == ""
    assert "tester oracles must be nonnegative" in err


# ---------------------------------------------------------------------------
# a ground set too large to enumerate


def _limited_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "points, klass, code, verdict",
    [
        ([], "subadditive", 0, "extendible"),
        ([], "xos", 0, "extendible"),
        ([({0}, "1"), ({5}, "2"), ({0, 5}, "4")], "subadditive", 1, "not_extendible"),
        ([({0}, "1"), ({5}, "2"), ({0, 5}, "2")], "xos", 3, None),
    ],
)
def test_huge_ground_set_is_answered_or_capped(tmp_path, points, klass, code, verdict):
    """m = 10^11 must not allocate 2^m bits: a correct answer or a resource
    cap, in a subprocess with 1 GiB of address space and a time limit."""
    doc = {
        "m": 100_000_000_000,
        "points": [{"set": sorted(s), "value": v} for s, v in points],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = run(
        ["extend", "--class", klass, "--input", str(path)],
        timeout=60,
        preexec_fn=_limited_memory,
    )
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
    if verdict is None:
        assert out.stdout == "" and out.stderr.startswith("resource cap:")
    else:
        assert json.loads(out.stdout)["verdict"] == verdict


@pytest.mark.parametrize("m", [63, 100_000_000_000])
def test_large_m_gen_and_rewrite_are_answered_or_capped(tmp_path, m):
    """gen past the 62-element draw and rewrite-cert exit 0 or 3 (a cap
    past 2^16 elements) without a traceback, in a subprocess with 1 GiB of
    address space and a time limit."""
    for kind in ("partial", "antichain", "cert"):
        out = run(["gen", "--kind", kind, "--m", str(m)], timeout=60,
                  preexec_fn=_limited_memory)
        assert out.returncode == (0 if m == 63 else 3), out.stderr
        assert "Traceback" not in out.stderr
        if m == 63:
            assert json.loads(out.stdout)
    # one square {0}, {1} over a function that breaks submodularity there
    cert, inst = tmp_path / "cert.json", tmp_path / "inst.json"
    cert.write_text(json.dumps({"m": m, "tuples": [{"a": [0], "b": [1], "count": 1}]}))
    values = [([], "0"), ([0], "1"), ([1], "1"), ([0, 1], "3")]
    inst.write_text(json.dumps(
        {"m": m, "points": [{"set": s, "value": v} for s, v in values]}
    ))
    out = run(["rewrite-cert", "--cert", str(cert), "--input", str(inst)],
              timeout=60, preexec_fn=_limited_memory)
    assert out.returncode == (0 if m == 63 else 3), out.stderr
    assert "Traceback" not in out.stderr
    if m == 63:
        assert json.loads(out.stdout)["sizes"] == {"input": 1, "output": 1}


# ---------------------------------------------------------------------------
# size caps and the last handler


def test_rewrite_cert_size_cap(files, tmp_path):
    """One square with a large count: the rewrite is linear in the count
    up to 2^14 and refused past it, before a gate is built."""
    cert = tmp_path / "cert.json"
    for count, code in ((3000, 0), ((1 << 14) + 1, 3)):
        cert.write_text(json.dumps({"m": 2, "tuples": [{"a": [0], "b": [1], "count": count}]}))
        out = run(["rewrite-cert", "--input", files["cube.json"], "--cert", str(cert)],
                  timeout=60)
        assert out.returncode == code, out.stderr
        assert "Traceback" not in out.stderr
    assert out.stdout == "" and out.stderr.startswith("resource cap:")


@pytest.mark.parametrize("zeros", [300, 400])
def test_tiny_epsilon_is_capped(files, zeros):
    """ceil(1/eps) draws past 2^16 are refused before the first draw (at
    1/10^400, float(eps) is 0)."""
    eps = "1/1" + "0" * zeros
    out = run(["test", "--class", "xos", "--oracle", files["modular.json"], "--epsilon", eps],
              timeout=60)
    assert out.returncode == 3 and out.stdout == ""
    assert out.stderr.startswith("resource cap:") and "Traceback" not in out.stderr


def test_gen_n_is_capped():
    out = run(["gen", "--kind", "antichain", "--m", "63", "--n", "5000"], timeout=60)
    assert out.returncode == 3 and out.stdout == ""
    assert out.stderr.startswith("resource cap:") and "Traceback" not in out.stderr


def test_gen_antichain_honours_positive(capsys):
    """Without --positive this draw holds two values of "0"; with it every
    value is redrawn until it is above 0."""
    from extendkit import cli
    from extendkit.ground import parse_rational

    def values(extra):
        argv = ["gen", "--kind", "antichain", "--m", "4", "--n", "4", "--lo", "0",
                "--hi", "1", "--seed", "3"]
        assert cli.main(argv + extra) == 0
        doc = json.loads(capsys.readouterr().out)
        return [parse_rational(p["value"]) for p in doc["points"]]

    assert values([]).count(0) == 2
    positive = values(["--positive"])
    assert len(positive) == 4 and min(positive) > 0


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "-1"],
        ["--lo", "5", "--hi", "1"],
        ["--m", "-1"],
        ["--positive", "--hi", "0"],  # drew values forever, none of them positive
    ],
)
def test_bad_gen_parameters_are_input_errors(args):
    argv = ["gen", "--kind", "partial", "--m", "3"] + args
    out = run(argv, timeout=60)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("input error:") and "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "data, argv",
    [
        (b'{"dim":2,"points":[]}', ["vertices"]),
        (b"\xff\xfe", ["extend", "--class", "xos"]),
    ],
)
def test_empty_and_undecodable_inputs_are_input_errors(tmp_path, data, argv):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    out = run(argv + ["--input", str(path)])
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("input error:") and "Traceback" not in out.stderr


@pytest.mark.parametrize("exc", [KeyError, ValueError])
def test_unexpected_exception_is_an_internal_error(files, monkeypatch, capsys, exc):
    """A bug surfaces as exit 2 with one line, never as exit 1 (refuted)
    and never as an input error."""
    from extendkit import cli

    def broken(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_vertices", broken)
    assert cli.main(["vertices", "--input", files["kink.json"]]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("internal error:")
    assert "Traceback" not in out.err and "boom" in out.err
