"""relbox benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root (standard library only; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload count --seed 0 --seconds 25 --trace 0

Untraced (``--trace 0``): one client runs the workload's relbox commands as
fresh processes in a closed loop, each starting only after the previous one
exits.  A pass is one run of every command; passes repeat until
``--seconds`` have passed (at least MIN_PASSES).  Before each pass, fresh
processes that only ``import relbox.cli`` time process set-up.  Metrics:
``wall_s`` (each command's median wall time over the passes, summed over
the workload's commands, so a slow spell of the machine during one process
is voted out), ``setup_s`` (median over set-up probes), ``peak_rss_mb``
(median over passes of the largest max-RSS of any process, from wait4).

Traced (``--trace 1``): cumulative ``-X importtime`` of the relbox modules,
one subprocess pass for child CPU time, then ``trace.py`` runs the same
commands in-process with spans around each layer's public functions.

Every command's output is checked (see ``workloads.py``); a non-zero exit or
a failed check counts as a failed operation.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics that BENCHMARK.json
lists for the mode.  Provenance and the full result go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import procs
import workloads as wl

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

MIN_PASSES = 2
# Hard cap on one run: children still running then are killed and count as
# failed, so a badly regressed program still yields a result in time.
DEADLINE_S = 150.0
PROBES_PER_PASS = 2
IMPORTTIME_PROBES = 3
IMPORTTIME_MODULES = {
    "setup.import.rootfind_s": "relbox.rootfind",
    "setup.import.fields_s": "relbox.fields",
    "setup.import.cli_s": "relbox.cli",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def preflight(env: dict) -> None:
    """Refuse to run unless relbox is imported from this checkout's sources."""
    package = ROOT / "src" / "relbox"
    if not (package / "cli.py").is_file():
        fail(f"no relbox sources under {ROOT / 'src'}; run from the repository root")
    found = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util as u; s = u.find_spec('relbox'); print(s.origin if s else '')"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=False,
    ).stdout.strip()
    if Path(found).resolve().parent != package.resolve():
        fail(f"relbox resolves to {found!r}, not to {package}")


class Runner:
    """Runs relbox child processes and checks what they print."""

    def __init__(self, env: dict):
        self.env = env
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv, tag):
        out, err = OUT / f"{tag}.out", OUT / f"{tag}.err"
        timeout = max(0.0, self.deadline - time.perf_counter())
        return procs.run(argv, self.env, ROOT, out, err, timeout), out, err

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def setup_probe(self) -> float:
        done, _, err = self.spawn([sys.executable, "-c", "import relbox.cli"], "setup")
        if done.returncode != 0:
            fail(f"importing relbox.cli failed:\n{err.read_text()[-2000:]}", 3)
        return done.wall_s

    def import_times(self) -> dict[str, float]:
        """Cumulative import seconds of each module in IMPORTTIME_MODULES."""
        argv = [sys.executable, "-X", "importtime", "-c", "import relbox.cli"]
        done, _, err = self.spawn(argv, "importtime")
        if done.returncode != 0:
            fail(f"importing relbox.cli failed:\n{err.read_text()[-2000:]}", 3)
        cumulative = {}
        for line in err.read_text().splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cum, module = line.split("|")
                if cum.strip().isdigit():
                    cumulative[module.strip()] = int(cum) * 1e-6
        return {name: cumulative.get(mod, 0.0) for name, mod in IMPORTTIME_MODULES.items()}

    def run_pass(self, ops) -> dict:
        walls, cpu, peak = [], 0.0, 0.0
        for index, op in enumerate(ops):
            done, out, err = self.spawn(procs.relbox_argv(op.args), f"op{index}")
            walls.append(done.wall_s)
            cpu += done.cpu_s
            peak = max(peak, done.max_rss_mb)
            self.attempted += 1
            if done.returncode == 0:
                failure = op.failure(out.read_bytes())
            else:
                last = (err.read_text().strip().splitlines() or [""])[-1]
                failure = op.failure(b"", f"exit code {done.returncode}: {last}")
            if failure is not None:
                self.failures.append(failure)
        return {"op_wall_s": walls, "cpu_s": cpu, "peak_rss_mb": peak}


def untraced(runner: Runner, ops, seconds: float):
    runner.setup_probe()  # warm-up: bytecode cache and page cache
    setup, passes = [], []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES or time.perf_counter() - start < seconds) \
            and not runner.expired():
        setup += [runner.setup_probe() for _ in range(PROBES_PER_PASS)]
        passes.append(runner.run_pass(ops))
    metrics = {
        "wall_s": sum(map(statistics.median, zip(*(p["op_wall_s"] for p in passes)))),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"wall_s": f"sum of per-command medians over {len(passes)} passes",
               "setup_s": f"median of {len(setup)} probes",
               "peak_rss_mb": f"median of {len(passes)} passes"}
    detail = {"passes": passes, "setup_probes_s": setup}
    return metrics, samples, detail


def traced(runner: Runner, ops, workload: str, seed: int, seconds: float):
    start = time.perf_counter()
    probes = [runner.import_times() for _ in range(IMPORTTIME_PROBES)]
    metrics = {name: statistics.median(p[name] for p in probes) for name in IMPORTTIME_MODULES}
    absent = [name for name in IMPORTTIME_MODULES if not any(p[name] for p in probes)]
    metrics["process.cpu_s"] = runner.run_pass(ops)["cpu_s"]

    stem = f"{workload}-seed{seed}"
    result_path = OUT / f"trace-{stem}.json"
    argv = [sys.executable, str(HERE / "trace.py"), "--workload", workload,
            "--seed", str(seed),
            "--seconds", f"{max(0.0, seconds - (time.perf_counter() - start)):.3f}",
            "--spans", str(OUT / f"spans-{stem}.tsv.gz"), "--result", str(result_path)]
    result_path.unlink(missing_ok=True)
    done, _, err = runner.spawn(argv, "trace")
    if done.returncode != 0 or not result_path.is_file():
        fail(f"traced run failed:\n{err.read_text()[-2000:]}", 3)
    result = json.loads(result_path.read_text())
    metrics.update(result["metrics"])
    runner.attempted += result["attempted"]
    runner.failures += result["failures"]
    absent += result["absent"]
    n_traced, n_untraced = result["passes"]["traced"], result["passes"]["untraced"]
    samples = {name: f"median of {n_traced} traced passes" for name in result["metrics"]}
    samples.update({name: f"median of {IMPORTTIME_PROBES} probes" for name in IMPORTTIME_MODULES})
    samples["process.cpu_s"] = "1 pass of child processes"
    samples["trace.overhead_frac"] = f"{n_traced} traced vs {n_untraced} untraced passes"
    return metrics, samples, {"absent": absent, "trace": result}


def provenance(env: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if (ROOT / ".git").exists():
        git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False).stdout.strip() or None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "threads": {k: env[k] for k in procs.THREAD_ENV},
        "loop": "closed, 1 client, one relbox process at a time",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = procs.child_env(ROOT)
    preflight(env)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)

    runner = Runner(env)
    ops = wl.build(args.workload, args.seed)
    if args.trace:
        values, samples, detail = traced(runner, ops, args.workload, args.seed, args.seconds)
    else:
        values, samples, detail = untraced(runner, ops, args.seconds)
    if set(values) != set(declared):
        fail(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json", 3)

    prov = provenance(env)
    failed = len(runner.failures)
    mode = "traced" if args.trace else "untraced"
    print(f"relbox benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} mode={mode}; {len(ops)} commands per pass")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {declared[name]:6s} ({samples[name]})")
    print(f"  {'error_rate':32s} {failed / runner.attempted:14.6g} "
          f"({failed} failed of {runner.attempted} commands)")
    for reason in runner.failures[:10]:
        print(f"  FAILED {reason}")
    if detail.get("absent"):
        print(f"  absent spans: {', '.join(detail['absent'])}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, mode=mode,
                  samples=samples, failures=runner.failures, provenance=prov, detail=detail)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
