#!/usr/bin/env python3
"""Digest of everything a source tree prints on the benchmark's calls.

    python3 tools/stdout_digest.py TREE SEEDS

TREE is a checkout of this repository (its ``src/`` and ``bench/``); SEEDS
is a list such as ``1-3`` or ``1,2,5``. For each workload in
``bench/workloads.py`` (imported from TREE, read-only) and each seed, the
workload's inputs are written to a temporary directory and every call of
one round is driven through TREE's ``extendkit.cli.main`` in this process,
in order, writing each ``save_as`` file as the benchmark does. One line per
workload and seed gives the call count, the sha256 of every call's (key,
exit code, stdout), and the sha256 of every call's (key, exit code, stderr)
from a second pass with ``--debug-lp`` added wherever the command accepts
it, and ``extendkit.lp.DEBUG`` set around the call where it does not
(``test``), so the second column changes exactly when some simplex pivot
does. The ``pivot-lines`` column is the sha256 of every call's (key,
``[lp] pivot`` lines with their ``ratio=`` field stripped) from that pass,
so a change that only rescales right-hand sides, and with them the ratios,
shows equal pivots there. The last column counts the ``[lp] pivot`` lines,
so a change that alters pivots shows by how many.

Two trees that print the same lines behave the same on the benchmark.
Paths in argv are relative to the temporary directory, so the digests do
not depend on where it is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def debug_commands(cli) -> set[str]:
    """The subcommands whose parser takes --debug-lp."""
    sub = next(a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
    return {name for name, sp in sub.choices.items() if "--debug-lp" in sp._option_string_actions}


def run_pass(cli, lp, calls, debug: set[str] | None) -> tuple[str, int, int, str]:
    """(sha256 over the calls, call count, pivot lines, sha256 over the
    pivot lines without their ratios). With ``debug``, --debug-lp is added
    to those commands, lp.DEBUG is set around the others, and stderr is
    digested instead of stdout."""
    h = hashlib.sha256()
    hp = hashlib.sha256()
    pivots = 0
    for call in calls:
        argv = list(call.argv)
        if debug is not None and argv[0] in debug:
            argv.append("--debug-lp")
        out, err = io.StringIO(), io.StringIO()
        # cli.main restores the lp.DEBUG it found, so set it outside the call
        lp.DEBUG = debug is not None and argv[0] not in debug
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            finally:
                lp.DEBUG = False
        if call.save_as:
            with open(call.save_as, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        text = out.getvalue() if debug is None else err.getvalue()
        pivots += text.count("[lp] pivot ")
        lines = re.findall(r"^\[lp\] pivot .*?(?= ratio=|$)", text, re.M)
        for part in (call.key, str(code), text):
            h.update(part.encode())
            h.update(b"\0")
        for part in (call.key, *lines):
            hp.update(part.encode())
            hp.update(b"\0")
    return h.hexdigest(), len(calls), pivots, hp.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", help="repository checkout to run")
    ap.add_argument("seeds", type=parse_seeds, help="e.g. 1-3 or 1,2,5")
    args = ap.parse_args(argv)

    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    from extendkit import cli, lp
    from workloads import WORKLOADS

    debug = debug_commands(cli)
    total = 0
    home = os.getcwd()
    for name, make in WORKLOADS.items():
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(prefix="digest-") as work:
                os.chdir(work)
                try:
                    wl = make(seed, ".")
                    for path, text in wl.files.items():
                        with open(path, "w", encoding="utf-8") as fh:
                            fh.write(text)
                    stdout, n, _p, _l = run_pass(cli, lp, wl.calls, None)
                    stderr, _n, pivots, lines = run_pass(cli, lp, wl.calls, debug)
                finally:
                    os.chdir(home)
            total += n
            print(
                f"{name} seed={seed} calls={n} stdout={stdout} debug-lp={stderr} "
                f"pivot-lines={lines} pivots={pivots}"
            )
    print(f"total calls={total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
