"""Traced in-process run of one workload: per-layer spans and counts.

Started by ``run.py --trace 1`` with ``PYTHONPATH`` pointing at the source
tree.  It runs the workload's commands through ``relbox.cli.cli`` in this
process, alternating untraced passes (the overhead baseline) with traced
passes, until ``--seconds`` have passed (at least one of each).  A traced
pass wraps the public functions named in ``SPANS`` from the outside; the
package itself is not modified.  A wrapped name that no longer exists is
reported as absent and its metrics read 0.

Spans (id, parent, op, name, start, end) of the last traced pass are kept
in memory and written as gzipped TSV when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

import workloads as wl

CLI_SPAN = "cli.invoke"

# (span name, module, attribute) of each wrapped function.  Wrapping replaces
# every binding of the function object inside the relbox package, so calls
# through ``from .x import f`` names are traced too.
SPANS = (
    ("spectra.enumerate_levels", "relbox.spectra", "enumerate_levels"),
    ("spectra.level_1d", "relbox.spectra", "level_1d"),
    ("spectra.level_3d", "relbox.spectra", "level_3d"),
    ("rootfind.dirac_1d", "relbox.rootfind", "dirac_wavenumber_1d"),
    ("rootfind.dirac_3d", "relbox.rootfind", "dirac_wavenumbers_3d"),
    ("rootfind.scalar", "relbox.rootfind", "solve_bracketed"),
    ("fields.sample", "relbox.fields", "BoxState.sample"),
    ("fields.normalization_check", "relbox.fields", "normalization_check"),
    ("fields.stationarity_residual", "relbox.fields", "stationarity_residual"),
    ("core.mode_amplitudes", "relbox.core", "mode_amplitudes"),
)

# Spans whose return value is a sequence whose length is counted.
COUNT_RETURNED = {"spectra.enumerate_levels"}


class Trace:
    """Spans of one pass, with per-name calls, self time and returned items."""

    def __init__(self):
        self.names = [CLI_SPAN] + [name for name, _, _ in SPANS]
        kinds = len(self.names)
        self.calls = [0] * kinds
        self.self_s = [0.0] * kinds
        self.returned = [0] * kinds
        self.child_calls: dict[tuple[int, int], int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_kind = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # open spans: [id, kind, child seconds]
        self.next_id = 0
        self.op = -1
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn):
        kind = self.names.index(name)
        count_returned = name in COUNT_RETURNED
        stack = self.stack
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            self.next_id += 1
            frame = [self.next_id, kind, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[kind] += 1
                self.self_s[kind] += duration - frame[2]
                parent_id = -1
                if stack:
                    parent = stack[-1]
                    parent[2] += duration
                    parent_id = parent[0]
                    edge = (parent[1], kind)
                    self.child_calls[edge] = self.child_calls.get(edge, 0) + 1
                self._record(frame[0], parent_id, kind, start, end)
            if count_returned:
                self.returned[kind] += len(result)
            return result

        return traced

    def _record(self, span_id, parent_id, kind, start, end):
        self.span_id.append(span_id)
        self.span_parent.append(parent_id)
        self.span_op.append(self.op)
        self.span_kind.append(kind)
        self.span_start.append(start - self.origin)
        self.span_end.append(end - self.origin)

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def self_time(self, *names: str) -> float:
        return sum(self.self_s[self.names.index(n)] for n in names)

    def direct_calls(self, parent: str, child: str) -> int:
        edge = (self.names.index(parent), self.names.index(child))
        return self.child_calls.get(edge, 0)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_id)):
                out.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                    f"{self.names[self.span_kind[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\n"
                )


def install(trace: Trace) -> tuple[list, list[str]]:
    """Wrap every function in SPANS; returns (undo list, absent span names)."""
    undo, absent = [], []
    for name, module_name, attr in SPANS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(name)
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            absent.append(name)
            continue
        wrapper = trace.wrap(name, original)
        if path:  # a method: patch the class
            undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "relbox" or mod_name.startswith("relbox.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return undo, absent


def uninstall(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def invoke(cli, args) -> tuple[bytes, str | None]:
    """Run one CLI command in-process; (stdout bytes, failure reason or None)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(args=list(args), prog_name="relbox", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return b"", f"exit code {exc.code}"
    except Exception as exc:  # a crashing command is a failed operation
        return b"", f"{type(exc).__name__}: {exc}"
    return buf.getvalue().encode(), None


def run_pass(cli, ops, trace: Trace | None):
    """(seconds inside the commands, output bytes, failure reasons)."""
    call = invoke if trace is None else trace.wrap(CLI_SPAN, invoke)
    elapsed, out_bytes, failures = 0.0, 0, []
    for index, op in enumerate(ops):
        if trace is not None:
            trace.op = index
        start = time.perf_counter()
        out, reason = call(cli, op.args)
        elapsed += time.perf_counter() - start
        out_bytes += len(out)
        failure = op.failure(out, reason)
        if failure is not None:
            failures.append(failure)
    return elapsed, out_bytes, failures


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: Trace, points: int, out_bytes: int) -> dict[str, float]:
    t = trace
    solved = t.count("spectra.level_1d") + t.count("spectra.level_3d")
    returned = t.returned[t.names.index("spectra.enumerate_levels")]
    amplitudes = t.count("core.mode_amplitudes")
    return {
        "rootfind.scalar.calls": t.count("rootfind.scalar"),
        "rootfind.scalar.self_s": t.self_time("rootfind.scalar"),
        "rootfind.dirac_1d.calls": t.count("rootfind.dirac_1d"),
        "rootfind.dirac_1d.self_s": t.self_time("rootfind.dirac_1d"),
        "rootfind.dirac_3d.calls": t.count("rootfind.dirac_3d"),
        "rootfind.dirac_3d.self_s": t.self_time("rootfind.dirac_3d"),
        "rootfind.scalar_per_3d_solve": ratio(
            t.direct_calls("rootfind.dirac_3d", "rootfind.scalar"),
            t.count("rootfind.dirac_3d"),
        ),
        "spectra.enumerate.self_s": t.self_time(
            "spectra.enumerate_levels", "spectra.level_1d", "spectra.level_3d"
        ),
        "spectra.levels_solved": solved,
        "spectra.levels_returned": returned,
        "spectra.solve_yield": ratio(returned, solved),
        "fields.sample.calls": t.count("fields.sample"),
        "fields.sample.self_s": t.self_time("fields.sample"),
        "fields.quadrature.self_s": t.self_time(
            "fields.normalization_check", "fields.stationarity_residual"
        ),
        "fields.points": points,
        "core.mode_amplitudes.calls": amplitudes,
        "core.mode_amplitudes_per_point": ratio(amplitudes, points),
        "cli.self_s": t.self_time(CLI_SPAN),
        "cli.out_bytes": out_bytes,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    from relbox.cli import cli

    ops = wl.build(args.workload, args.seed)
    points = sum(op.points for op in ops)
    untraced, traced, failures = [], [], []
    absent: list[str] = []
    start = time.perf_counter()
    while True:
        elapsed, _, failed = run_pass(cli, ops, None)
        untraced.append(elapsed)
        failures += failed
        trace = Trace()
        undo, absent = install(trace)
        try:
            elapsed, out_bytes, failed = run_pass(cli, ops, trace)
        finally:
            uninstall(undo)
        traced.append((elapsed, layer_metrics(trace, points, out_bytes)))
        failures += failed
        if time.perf_counter() - start >= args.seconds:
            break

    metrics = {
        name: statistics.median(m[name] for _, m in traced) for name in traced[0][1]
    }
    base = statistics.median(untraced)
    metrics["trace.overhead_frac"] = ratio(
        statistics.median(e for e, _ in traced) - base, base
    )
    trace.write(args.spans)
    args.result.write_text(json.dumps({
        "metrics": metrics,
        "absent": absent,
        "attempted": len(ops) * (len(untraced) + len(traced)),
        "failed": len(failures),
        "failures": failures,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "untraced_pass_s": untraced,
        "traced_pass_s": [e for e, _ in traced],
    }, indent=1))


if __name__ == "__main__":
    main()
