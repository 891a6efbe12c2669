"""Spans and counters around extendkit's public functions, installed from
the benchmark's side.

Tracer.install() replaces each traced function with a wrapper in the
namespace its callers look it up in: the module attribute for calls made
through the module or from inside it, and cli's own names (and its
tester table) where cli imported a function by name. A span records
(name, layer, start, end, parent). A layer's time is self time: the span
minus the spans of other layers nested in it; the cli spans are reported
inclusive, one per subcommand.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

# per-layer metric -> unit; the order is the order of the report
METRICS = {
    "cli.extend_s": "s",
    "cli.approx_s": "s",
    "cli.eval_s": "s",
    "cli.certify_s": "s",
    "cli.rewrite_cert_s": "s",
    "cli.vertices_s": "s",
    "cli.test_s": "s",
    "ground.parse_calls": "count",
    "ground.parse_s": "s",
    "lp.solve_calls": "count",
    "lp.solve_s": "s",
    "lp.rows": "count",
    "lp.cols": "count",
    "lp.nonzeros": "count",
    "lp.max_rows": "count",
    "lp.infeasible_calls": "count",
    "lp.verify_farkas_s": "s",
    "subadditive.min_cover_calls": "count",
    "subadditive.min_cover_s": "s",
    "subadditive.dp_states": "count",
    "xos.roof_calls": "count",
    "xos.roof_s": "s",
    "xos.extend_s": "s",
    "xos.approx_s": "s",
    "submodular.closure_sets": "count",
    "submodular.family_sets": "count",
    "submodular.interval_family_s": "s",
    "submodular.extract_cert_s": "s",
    "submodular.cert_tuples": "count",
    "submodular.rewrite_s": "s",
    "submodular.fixing_calls": "count",
    "convex.roof_calls": "count",
    "convex.roof_s": "s",
    "convex.bisect_probes": "count",
    "convex.vertex_enum_s": "s",
    "convex.vertex_candidates": "count",
    "convex.vertices": "count",
    "testers.iterations": "count",
    "testers.queries": "count",
    "testers.union_cover_calls": "count",
    "testers.union_cover_s": "s",
    "testers.fractional_cover_calls": "count",
    "testers.fractional_cover_s": "s",
    "testers.table_parse_calls": "count",
    "testers.table_parse_s": "s",
}


def _lp_shape(c, args, _kw, result):
    problem = args[0]
    rows = len(problem.constraints)
    c["lp.rows"] += rows
    c["lp.cols"] += len(problem.variables)
    c["lp.nonzeros"] += sum(1 for row in problem.constraints for a in row.coeffs if a)
    c["lp.max_rows"] = max(c["lp.max_rows"], rows)
    if type(result).__name__ == "Infeasible":
        c["lp.infeasible_calls"] += 1


def _dp_states(c, args, kw, _result):
    target = args[1] if len(args) > 1 else kw["target"]
    c["subadditive.dp_states"] += 1 << target.bit_count()


def _vertices(c, args, _kw, result):
    ch = args[0]
    c["convex.vertex_candidates"] += math.comb(len(ch.points), ch.m + 1)
    c["convex.vertices"] += len(result)


def _tester_report(c, _args, _kw, report):
    c["testers.iterations"] += report.iterations_run
    c["testers.queries"] += report.queries


def _size_into(name):
    def count(c, _args, _kw, result):
        c[name] += len(result)

    return count


def _cert_tuples(c, _args, _kw, cert):
    c["submodular.cert_tuples"] += len(cert.tuples)


def plan(ek):
    """(namespace, attribute, layer, time metric, call-count metric,
    counter callback, inclusive) for every traced function; ``ek`` maps
    module names to the imported extendkit modules."""
    cli, lp, sub, xos, sm, cvx, ts, orc = (
        ek[k]
        for k in ("cli", "lp", "subadditive", "xos", "submodular", "convex", "testers", "oracle")
    )
    rows = [
        (cli, "cmd_extend", "cli", "cli.extend_s", None, None, True),
        (cli, "cmd_approx", "cli", "cli.approx_s", None, None, True),
        (cli, "cmd_eval", "cli", "cli.eval_s", None, None, True),
        (cli, "cmd_certify", "cli", "cli.certify_s", None, None, True),
        (cli, "cmd_rewrite_cert", "cli", "cli.rewrite_cert_s", None, None, True),
        (cli, "cmd_vertices", "cli", "cli.vertices_s", None, None, True),
        (cli, "cmd_test", "cli", "cli.test_s", None, None, True),
        (cli, "parse_partial_function", "ground", "ground.parse_s", "ground.parse_calls", None, False),
        (orc, "parse_full_table", "oracle", "testers.table_parse_s", "testers.table_parse_calls", None, False),
        (lp, "solve", "lp", "lp.solve_s", "lp.solve_calls", _lp_shape, False),
        (lp, "verify_farkas", "lp", "lp.verify_farkas_s", None, None, False),
        (sub, "min_cover_value", "subadditive", "subadditive.min_cover_s",
         "subadditive.min_cover_calls", _dp_states, False),
        (xos, "eval_xos_roof", "xos", "xos.roof_s", "xos.roof_calls", None, False),
        (xos, "extend_xos", "xos", "xos.extend_s", None, None, False),
        (xos, "approx_xos", "xos", "xos.approx_s", None, None, False),
        (sm, "lattice_closure", "submodular", None, None, _size_into("submodular.closure_sets"), False),
        (sm, "interval_family", "submodular", "submodular.interval_family_s", None,
         _size_into("submodular.family_sets"), False),
        (sm, "extract_square_certificate", "submodular", "submodular.extract_cert_s", None,
         _cert_tuples, False),
        (sm, "lattice_rewrite", "submodular", "submodular.rewrite_s", None, None, False),
        (sm, "fixing_algorithm", "submodular", None, "submodular.fixing_calls", None, False),
        (cvx, "roof_value", "convex", "convex.roof_s", "convex.roof_calls", None, False),
        (cvx, "feasible_at_alpha", "convex", None, "convex.bisect_probes", None, False),
        (cvx, "enumerate_dual_vertices", "convex", "convex.vertex_enum_s", None, _vertices, False),
        (ts, "min_union_cover", "testers", "testers.union_cover_s",
         "testers.union_cover_calls", None, False),
        (ts, "fractional_cover_min", "testers", "testers.fractional_cover_s",
         "testers.fractional_cover_calls", None, False),
    ]
    # cli dispatches the testers through a table it built at import time
    for klass in list(cli._TESTERS):
        rows.append((cli._TESTERS, klass, "testers", None, None, _tester_report, False))
    return rows


class Tracer:
    def __init__(self, ek):
        self.plan = plan(ek)
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.counters: defaultdict = defaultdict(int)
        self._times: dict[int, tuple] = {}  # span index -> (metric, inclusive)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for ns, attr, layer, t_metric, n_metric, on_result, inclusive in self.plan:
            is_dict = isinstance(ns, dict)
            fn = ns[attr] if is_dict else getattr(ns, attr)
            wrapper = self._wrap(fn, attr, layer, t_metric, n_metric, on_result, inclusive)
            self._saved.append((ns, attr, fn, is_dict))
            if is_dict:
                ns[attr] = wrapper
            else:
                setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn, is_dict in reversed(self._saved):
            if is_dict:
                ns[attr] = fn
            else:
                setattr(ns, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, layer, t_metric, n_metric, on_result, inclusive):
        spans, stack, counters, times = self.spans, self._stack, self.counters, self._times

        def traced(*args, **kw):
            idx = len(spans)
            spans.append([name, layer, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kw)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if n_metric:
                counters[n_metric] += 1
            if t_metric:
                times[idx] = (t_metric, inclusive)
            if on_result:
                on_result(counters, args, kw, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._times.clear()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric for the spans and counters so far."""
        spans = self.spans
        foreign = [0.0] * len(spans)  # time in nested spans of other layers
        for idx in range(len(spans) - 1, -1, -1):
            name, layer, start, end, parent = spans[idx]
            if parent is not None:
                dur = end - start
                foreign[parent] += dur if spans[parent][1] != layer else foreign[idx]
        out = {k: 0 for k in METRICS}
        out.update(self.counters)
        for idx, (metric, inclusive) in self._times.items():
            _n, _l, start, end, _p = spans[idx]
            out[metric] += (end - start) - (0.0 if inclusive else foreign[idx])
        return {k: out[k] for k in METRICS}
