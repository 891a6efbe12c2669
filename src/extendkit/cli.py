"""The extendkit command line: every operation behind one binary with
JSON on stdout, diagnostics on stderr, reproducible seeds, and the exit
contract 0 = extendible/accept/valid, 1 = refuted (witness attached),
2 = usage or input error, 3 = resource cap."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import SCHEMA_VERSION, convex, lp, oracle, subadditive, submodular, testers, xos
from .errors import (
    CertificateError,
    ExtendkitError,
    InputError,
    ResourceCapError,
    TooLarge,
)
from .ground import (
    MAX_DENSE_M,
    ConvexPartialFunction,
    PartialSetFunction,
    Rational,
    elements,
    is_json_int,
    parse_partial_function,
    parse_rational,
    to_jsonable,
)

DEFAULT_SEED = 20240917

# The most sets `gen` draws; the antichain generator checks each draw
# against every set picked so far.
MAX_GEN_N = 1 << 12

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

EXTEND_CLASSES = ("subadditive", "subadditive-nonmonotone", "xos", "submodular", "convex")
APPROX_CLASSES = ("subadditive", "xos", "submodular", "convex")
EVAL_CLASSES = ("xos-roof", "convex-roof", "convex-tilde")
TEST_CLASSES = ("subadditive", "xos", "subadditive-nonmonotone")


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_set_function(path: str, klass: str | None = None) -> PartialSetFunction:
    h = parse_partial_function(_read(path), klass)
    if not isinstance(h, PartialSetFunction):
        raise InputError(f"{path} holds a convex instance; a set function is needed")
    return h


def _load_convex(path: str) -> ConvexPartialFunction:
    h = parse_partial_function(_read(path))
    if not isinstance(h, ConvexPartialFunction):
        raise InputError(f"{path} holds a set function; a convex instance is needed")
    return h


def _write_or_emit(doc, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        _emit(doc)


# ---------------------------------------------------------------------------
# subcommands


def cmd_extend(args) -> int:
    klass = args.klass
    if klass == "convex":
        ch = _load_convex(args.input)
        violation = convex.extend_convex(ch)
        if violation is None:
            _emit({"verdict": "extendible"})
            return EXIT_OK
        _emit({"verdict": "not_extendible", "witness": to_jsonable(violation)})
        return EXIT_REFUTED
    h = _load_set_function(args.input, klass if klass != "submodular" else None)
    if klass == "subadditive":
        out = subadditive.extend_monotone_subadditive(h)
    elif klass == "subadditive-nonmonotone":
        out = subadditive.extend_general_subadditive(h)
    elif klass == "xos":
        w = xos.extend_xos(h)
        if isinstance(w, xos.XosExtendible):
            _emit({"verdict": "extendible", "vectors": to_jsonable(w)["vectors"]})
            return EXIT_OK
        _emit({"verdict": "not_extendible", "witness": to_jsonable(w)})
        return EXIT_REFUTED
    else:
        res = submodular.extend_submodular(h, args.cap)
        if res.extendible:
            doc = {"verdict": "extendible", "kind": res.kind}
            doc["family_values"] = {
                json.dumps(list(elements(s))): str(v)
                for s, v in sorted(res.values.items())
            }
            _emit(doc)
            return EXIT_OK
        _emit(
            {
                "verdict": "not_extendible",
                "certificate": to_jsonable(res.certificate),
            }
        )
        return EXIT_REFUTED
    if isinstance(out, subadditive.Extendible):
        _emit({"verdict": "extendible"})
        return EXIT_OK
    _emit({"verdict": "not_extendible", "witness": to_jsonable(out.violation)})
    return EXIT_REFUTED


def cmd_approx(args) -> int:
    klass = args.klass
    if klass == "convex":
        alpha = convex.approx_convex(_load_convex(args.input), audit=args.audit)
        _emit({"alpha": str(alpha)})
        return EXIT_OK
    h = _load_set_function(args.input, klass if klass != "submodular" else None)
    if klass == "subadditive":
        alpha, witness = subadditive.approx_monotone_subadditive_exact(h)
        _emit({"alpha": str(alpha), "witness": to_jsonable(witness)})
    elif klass == "xos":
        alpha, vectors = xos.approx_xos(h)
        _emit(
            {
                "alpha": str(alpha),
                "vectors": [[str(c) for c in w] for w in vectors],
            }
        )
    else:
        alpha = submodular.approx_submodular(h, args.cap)
        _emit({"alpha": str(alpha)})
    return EXIT_OK


def _parse_at_set(text: str, m: int) -> int:
    doc = json.loads(text)
    if not isinstance(doc, list) or not all(is_json_int(i) for i in doc):
        raise InputError(f"--at must be a JSON array of element indices, got {text!r}")
    if any(i < 0 or i >= m for i in doc):
        raise InputError(f"--at indices must lie in [0,{m})")
    mask = 0
    for i in doc:
        mask |= 1 << i
    return mask


def _parse_at_vector(text: str, m: int):
    doc = json.loads(text)
    if not isinstance(doc, list) or len(doc) != m:
        raise InputError(f"--at must be a JSON array of {m} rationals")
    return tuple(parse_rational(str(c)) for c in doc)


def cmd_eval(args) -> int:
    if args.klass == "xos-roof":
        h = _load_set_function(args.input, "xos")
        mask = _parse_at_set(args.at, h.m)
        out = xos.eval_xos_roof(h, mask)
        if out is None:
            _emit({"status": "uncoverable", "value": None})
            return EXIT_OK
        value, weights, _vector = out
        _emit(
            {
                "status": "ok",
                "value": str(value),
                "weights": [
                    {"set": list(elements(s)), "weight": str(w)} for s, w in weights
                ],
            }
        )
        return EXIT_OK
    ch = _load_convex(args.input)
    x = _parse_at_vector(args.at, ch.m)
    if args.klass == "convex-roof":
        value = convex.roof_value(ch, x)
        if value is None:
            _emit({"status": "outside_hull", "value": None})
        else:
            _emit({"status": "ok", "value": str(value)})
        return EXIT_OK
    value, _vertices = convex.eval_tilde(ch, x)
    _emit({"status": "ok", "value": str(value)})
    return EXIT_OK


def cmd_certify(args) -> int:
    h = _load_set_function(args.input)
    res = submodular.extend_submodular(h, args.cap)
    if res.extendible:
        _emit({"verdict": "extendible", "kind": res.kind})
        return EXIT_OK
    _write_or_emit(to_jsonable(res.certificate), args.out)
    if args.out:
        _emit({"verdict": "not_extendible", "certificate_path": args.out})
    return EXIT_REFUTED


def cmd_verify_cert(args) -> int:
    h = _load_set_function(args.input)
    cert = submodular.parse_square_certificate(_read(args.cert), h)
    ok = submodular.verify_square_certificate(cert, h)
    _emit({"valid": bool(ok)})
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_rewrite_cert(args) -> int:
    h = _load_set_function(args.input)
    cert = submodular.parse_square_certificate(_read(args.cert), h)
    try:
        rewritten = submodular.lattice_rewrite(cert, h)
    except CertificateError as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        _emit({"valid": False})
        return EXIT_REFUTED
    doc = to_jsonable(rewritten)
    doc["sizes"] = {"input": cert.size(), "output": rewritten.size()}
    _write_or_emit(doc, args.out)
    return EXIT_OK


def cmd_vertices(args) -> int:
    ch = _load_convex(args.input)
    verts = convex.enumerate_dual_vertices(ch)
    _emit({"vertices": [to_jsonable(v) for v in verts]})
    return EXIT_OK


_TESTERS = {
    "subadditive": testers.test_subadditive,
    "xos": testers.test_xos,
    "subadditive-nonmonotone": testers.test_nonmonotone_subadditive,
}


def _trial(table, klass: str, eps: Rational, seed: int):
    fn = _TESTERS[klass]
    report = fn(testers.FunctionOracle.from_table(table), eps, seed)
    return to_jsonable(report)


def _run_trial(table_path: str, klass: str, eps_str: str, seed: int):
    """One trial in a worker process, which parses the table itself."""
    table = oracle.parse_full_table(_read(table_path))
    return _trial(table, klass, Rational(eps_str), seed)


def _pool_size(jobs: int, trials: int, cpus: int | None) -> int:
    """Worker processes for ``test --jobs``: no more than the trials to run
    or the CPUs to run them on (``cpus`` as os.cpu_count() gives it)."""
    return min(jobs, trials, cpus or 1)


def cmd_test(args) -> int:
    try:
        eps = Rational(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--epsilon must be a rational, got {args.epsilon!r}") from None
    table = oracle.parse_full_table(_read(args.oracle))
    if table.values.has_negative():
        raise InputError("tester oracles must be nonnegative")
    fn = _TESTERS[args.klass]
    if args.trials == 1:
        report = fn(testers.FunctionOracle.from_table(table), eps, args.seed)
        _emit(to_jsonable(report))
        return EXIT_OK if report.verdict == "accept" else EXIT_REFUTED
    seeds = [args.seed + i for i in range(args.trials)]
    jobs = _pool_size(args.jobs, args.trials, os.cpu_count())
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            reports = pool.starmap(
                _run_trial,
                [(args.oracle, args.klass, str(eps), s) for s in seeds],
            )
    else:
        reports = [_trial(table, args.klass, eps, s) for s in seeds]
    rejections = sum(1 for r in reports if r["verdict"] == "reject")
    _emit(
        {
            "trials": args.trials,
            "rejections": rejections,
            "seed": args.seed,
            "reports": reports,
        }
    )
    return EXIT_REFUTED if rejections else EXIT_OK


def cmd_oracle(args) -> int:
    h = _load_set_function(args.input)
    ok = oracle.full_domain_extend(h, args.klass)
    _emit({"extendible": bool(ok)})
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_gen(args) -> int:
    import random as _random

    if args.m > MAX_DENSE_M:
        raise TooLarge(f"generators draw sets over [m]; m <= {MAX_DENSE_M} only")
    if args.n > MAX_GEN_N:
        raise TooLarge(f"generators draw --n sets; n <= {MAX_GEN_N} only")
    if args.m < 1 or args.n < 0 or args.lo > args.hi:
        raise InputError("--m must be positive, --n nonnegative and --lo at most --hi")
    if args.positive and args.hi <= 0:
        raise InputError("--positive needs --hi above 0")
    rng = _random.Random(args.seed)
    if args.kind == "partial":
        h = oracle.random_partial_function(
            args.m, args.n, (args.lo, args.hi), rng, positive=args.positive
        )
        _emit(to_jsonable(h))
    elif args.kind == "antichain":
        fam = oracle.random_antichain(args.m, args.n, rng)
        values = [oracle.random_value(rng, args.lo, args.hi, args.positive) for _ in fam]
        _emit(to_jsonable(PartialSetFunction(args.m, tuple(zip(fam, values)))))
    else:
        cert, h = oracle.random_valid_square_certificate(args.m, rng)
        _emit({"certificate": to_jsonable(cert), "function": to_jsonable(h)})
    return EXIT_OK


# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="extendkit",
        description="exact extension decisions, factors, and certificates "
        "for subadditive, XOS, submodular, and convex partial functions",
    )
    p.add_argument(
        "--version", action="version", version=f"extendkit schema {SCHEMA_VERSION}"
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, cap=False):
        sp.add_argument("--input", required=True, help="instance JSON path")
        sp.add_argument(
            "--debug-lp", action="store_true", help="dump simplex pivots to stderr"
        )
        if cap:
            sp.add_argument(
                "--cap",
                type=int,
                default=submodular.DEFAULT_CLOSURE_CAP,
                help="lattice-closure size cap",
            )

    sp = sub.add_parser("extend", help="decide extendibility")
    sp.add_argument("--class", dest="klass", required=True, choices=EXTEND_CLASSES)
    common(sp, cap=True)

    sp = sub.add_parser("approx", help="optimal multiplicative factor")
    sp.add_argument("--class", dest="klass", required=True, choices=APPROX_CLASSES)
    sp.add_argument(
        "--audit",
        action="store_true",
        help="cross-check the convex closed form against the bisection path",
    )
    common(sp, cap=True)

    sp = sub.add_parser("eval", help="evaluate a roof or the canonical extension")
    sp.add_argument("--class", dest="klass", required=True, choices=EVAL_CLASSES)
    sp.add_argument("--at", required=True, help="JSON point, e.g. [0,2] or [\"1/2\"]")
    common(sp)

    sp = sub.add_parser("certify", help="extract a submodular non-extension certificate")
    sp.add_argument("--out", help="write the certificate JSON here")
    common(sp, cap=True)

    sp = sub.add_parser("verify-cert", help="check a square certificate")
    sp.add_argument("--cert", required=True)
    common(sp)

    sp = sub.add_parser("rewrite-cert", help="rewrite a certificate into the closure")
    sp.add_argument("--cert", required=True)
    sp.add_argument("--out")
    common(sp)

    sp = sub.add_parser("vertices", help="enumerate dual-polyhedron vertices")
    common(sp)

    sp = sub.add_parser("test", help="run a property tester against an oracle table")
    sp.add_argument("--class", dest="klass", required=True, choices=TEST_CLASSES)
    sp.add_argument("--oracle", required=True, help="full table JSON path")
    sp.add_argument("--epsilon", required=True)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--trials", type=_positive_int, default=1)
    sp.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for --trials (at most the trials and the CPUs)",
    )

    sp = sub.add_parser("oracle", help="full-domain LP ground truth (small m)")
    sp.add_argument("--class", dest="klass", required=True, choices=oracle.CLASSES)
    common(sp)

    sp = sub.add_parser("gen", help="random instances")
    sp.add_argument("--kind", required=True, choices=("partial", "antichain", "cert"))
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--lo", type=int, default=0)
    sp.add_argument("--hi", type=int, default=10)
    sp.add_argument("--positive", action="store_true")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call to main."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so that a replaced cmd_* takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    debug_before = lp.DEBUG
    if getattr(args, "debug_lp", False):
        lp.DEBUG = True
    try:
        return command(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except ExtendkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # anything else is a bug; it must not exit 1, which means "refuted"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        lp.DEBUG = debug_before


if __name__ == "__main__":
    sys.exit(main())
