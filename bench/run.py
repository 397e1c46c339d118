"""Benchmark of the mutagame CLI: run/sweep wall time, throughput, peak RSS,
set-up and analyze time, with every output checked.

    python3 bench/run.py --workload mutable_run --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` times CLI commands as child processes, one at a time, and
prints the end-to-end metrics. ``--trace 1`` runs the same commands in this
process with the package's functions wrapped by ``tracer.py`` and prints the
per-layer metrics. The last line of standard output is the JSON result;
the lines before it report samples, checks, output hashes and the
environment. Inputs and outputs live under ``bench/_work``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import yaml

from checks import (
    OUTPUT_FILES,
    check_analyze,
    check_fixed_noisy,
    check_grim_sweep,
    check_run,
    output_hashes,
)
from workloads import SWEEP_VALUES, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

COMMAND_TIMEOUT_S = 120.0
SMOKE_SEED = 1
SMOKE_REPLICAS = 20

END_TO_END_UNITS = {
    "wall_s": "s",
    "replica_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "analyze_s": "s",
    "success_rate": "ratio",
}


@dataclass
class Completed:
    ok: bool
    wall_s: float
    peak_rss_mb: float
    stdout: str


class Ledger:
    """Counts attempted and failed commands, and keeps every check finding."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.findings: list[tuple[str, bool, str]] = []

    def command(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, findings) -> bool:
        self.findings.extend(findings)
        return all(ok for _, ok, _ in findings)


def child_env() -> dict[str, str]:
    """Default thread count, and bytecode caching as after a normal install,
    so set-up times imports rather than compiling src/ on every start."""
    drop = {"MUTAGAME_THREADS", "PYTHONDONTWRITEBYTECODE"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args: list[str], work: Path) -> Completed:
    """Run one CLI command as a child; wall time from spawn to exit, and the
    child's own peak RSS from wait4."""
    with open(work / "stdout.txt", "w+", encoding="utf-8") as out, \
            open(work / "stderr.txt", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "mutagame.cli", *args],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err,
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            sys.stderr.write(f"command {args[0]} exited {proc.returncode}: {err.read()}\n")
        return Completed(proc.returncode == 0, wall, usage.ru_maxrss / 1024.0, out.read())


def prepare(workload: Workload, seed: int, replicas: int, work: Path) -> tuple[Path, dict]:
    """Write the workload's scenario file for this seed; return its path and document."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def preset(name: str) -> dict:
        path = work / f"preset_{name}.yaml"
        if not run_cli(["preset", name, "--out", str(path)], work).ok:
            raise RuntimeError(f"mutagame preset {name} failed")
        return yaml.safe_load(path.read_text(encoding="utf-8"))

    doc = workload.document(seed, replicas, preset)
    scenario = work / f"{workload.name}.yaml"
    scenario.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return scenario, doc


def check_outputs(workload: Workload, out_dir: Path, doc: dict) -> list[tuple[str, bool, str]]:
    if workload.sweep:
        return check_grim_sweep(out_dir, doc, SWEEP_VALUES)
    findings = check_run(out_dir, doc)
    if doc["game"]["lottery_mode"]:
        findings += check_fixed_noisy(out_dir, doc)
    return findings


def clear_outputs(out_dir: Path) -> None:
    for name in OUTPUT_FILES:
        (out_dir / name).unlink(missing_ok=True)


def measure(workload: Workload, seed: int, seconds: float, replicas: int,
            work: Path) -> tuple[dict, dict, Ledger]:
    """Untraced run: child processes only, so this process stays small and
    cannot raise a child's peak RSS."""
    ledger = Ledger()
    scenario, doc = prepare(workload, seed, replicas, work)
    out_dir = work / "out"
    # Untimed warm-up: fills the page cache and writes the package's bytecode.
    run_cli(["validate", str(scenario)], work)

    # Machine noise comes in bursts of seconds, so set-up, analyze and the
    # workload command take turns across the whole window.
    setup, analyze, reps, hashes = [], [], [], []
    start = time.perf_counter()
    while True:
        done = run_cli(["validate", str(scenario)], work)
        ledger.command(done.ok and done.stdout.strip() == "OK")
        setup.append(done.wall_s)
        done = run_cli(["analyze", str(scenario)], work)
        ledger.command(done.ok and ledger.check(check_analyze(done.stdout, workload.verdict)))
        analyze.append(done.wall_s)
        clear_outputs(out_dir)
        done = run_cli(workload.command(scenario, out_dir), work)
        reps.append(done)
        hashes.append(output_hashes(out_dir) if done.ok else {})
        if time.perf_counter() - start >= seconds:
            break
    good = [i for i, rep in enumerate(reps) if rep.ok]
    if not good:
        raise RuntimeError(f"every {workload.name} command failed")
    reference = hashes[good[0]]
    outputs_ok = ledger.check(check_outputs(workload, out_dir, doc))
    ledger.findings.append(("identical outputs across repetitions",
                            all(hashes[i] == reference for i in good), f"{len(good)} runs"))
    for rep, rep_hashes in zip(reps, hashes):
        ledger.command(rep.ok and outputs_ok and rep_hashes == reference)

    walls = [reps[i].wall_s for i in good]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "replica_rounds_per_s": workload.replica_rounds(replicas) / wall,
        "peak_rss_mb": statistics.median(reps[i].peak_rss_mb for i in good),
        "setup_s": statistics.median(setup),
        "analyze_s": statistics.median(analyze),
        "success_rate": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    samples = {
        "wall_s": walls,
        "peak_rss_mb": [reps[i].peak_rss_mb for i in good],
        "setup_s": setup,
        "analyze_s": analyze,
        "output_sha256": reference,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, samples, ledger


def import_package():
    """Import the package from this checkout's src/, nothing installed elsewhere."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("MUTAGAME_THREADS", None)  # one thread: spans nest on one stack
    from mutagame import cli, equilibrium, simulate

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported mutagame from {cli.__file__}, not {SRC}")
    return {"cli": cli, "simulate": simulate, "equilibrium": equilibrium}


def invoke(cli, argv: list[str]) -> tuple[bool, str]:
    """Call the CLI's main in this process; capture what it prints."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # report and count the failure, keep measuring
        traceback.print_exc()
        return False, out.getvalue()
    return code == 0, out.getvalue()


def measure_traced(workload: Workload, seed: int, seconds: float, replicas: int,
                   work: Path) -> tuple[dict, dict, Ledger]:
    """Pairs of an untraced and a traced in-process run of the workload
    command plus `analyze`; per-layer times are medians over the pairs."""
    import tracer

    modules = import_package()
    cli = modules["cli"]
    ledger = Ledger()
    scenario, doc = prepare(workload, seed, replicas, work)
    plain_out, traced_out = work / "out", work / "traced_out"
    analyze = ["analyze", str(scenario)]

    def run_once(out_dir: Path, span) -> float:
        """Workload command then `analyze`, each under a cli.main span."""
        clear_outputs(out_dir)
        start = time.perf_counter()
        with span(tracer.ROOT_LABEL):
            with span(tracer.COMMAND_LABEL):
                run_ok, _ = invoke(cli, workload.command(scenario, out_dir))
            with span(tracer.COMMAND_LABEL):
                analyze_ok, text = invoke(cli, analyze)
        wall = time.perf_counter() - start
        if not run_ok:
            raise RuntimeError(f"in-process {workload.name} command failed")
        ledger.command(analyze_ok and ledger.check(check_analyze(text, workload.verdict)))
        return wall

    untraced, traced, totals, pair_hashes = [], [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_once(plain_out, lambda _: contextlib.nullcontext()))
        spans = tracer.Tracer()
        saved = spans.install(modules)
        try:
            traced.append(run_once(traced_out, spans.span))
        finally:
            tracer.restore(saved)
        totals.append(spans.totals())
        pair_hashes.append((output_hashes(plain_out), output_hashes(traced_out)))
        if time.perf_counter() - start >= seconds:
            break
    spans.save(work / "spans.npz")

    last = totals[-1]
    root = last[tracer.ROOT_LABEL]["busy_s"]
    self_sum = sum(entry["self_s"] for entry in last.values())
    reference = pair_hashes[0][0]
    checks_ok = all([
        ledger.check(check_outputs(workload, traced_out, doc)),
        ledger.check([
            ("tracing leaves outputs unchanged",
             all(plain == reference and wrapped == reference for plain, wrapped in pair_hashes),
             f"{len(pair_hashes)} pairs"),
            ("span self times sum to the root span", abs(self_sum - root) <= 1e-6 * root,
             f"{self_sum:.6f} s vs {root:.6f} s"),
            ("call counts repeat",
             all({k: v["calls"] for k, v in t.items()} == {k: v["calls"] for k, v in last.items()}
                 for t in totals),
             f"{len(totals)} traced runs"),
        ]),
    ])
    for _ in range(2 * len(totals)):
        ledger.command(checks_ok)

    metrics = {}
    for label in tracer.LABELS:
        metrics[f"{label}.calls"] = (last.get(label, {"calls": 0})["calls"], "count")
        for kind in ("busy_s", "self_s"):
            value = statistics.median(t.get(label, {kind: 0.0})[kind] for t in totals)
            metrics[f"{label}.{kind}"] = (value, "s")
    trace_csv = traced_out / "trace.csv"
    metrics["cli.trace_csv_bytes"] = (trace_csv.stat().st_size if trace_csv.is_file() else 0,
                                      "bytes")
    draws = sum(last.get(label, {"calls": 0})["calls"] for label in tracer.DRAW_LABELS)
    metrics["simulate.draws_per_round"] = (draws / workload.replica_rounds(replicas),
                                           "draws/round")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    samples = {"untraced_s": untraced, "traced_s": traced, "output_sha256": reference}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, samples, ledger


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "mutagame_threads": "unset",
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, replicas: int | None = None,
            work_root: Path = WORK) -> dict:
    """Measure one workload, print the report, and return the JSON result."""
    workload = WORKLOADS[name]
    replicas = replicas or workload.replicas
    work = work_root / name / ("traced" if trace else "untraced")
    if trace:
        metrics, samples, ledger = measure_traced(workload, seed, seconds, replicas, work)
    else:
        metrics, samples, ledger = measure(workload, seed, seconds, replicas, work)
    result = {
        "correct": ledger.failed == 0 and all(ok for _, ok, _ in ledger.findings),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    report = {"workload": name, "seed": seed, "replicas": replicas, "trace": trace,
              "environment": environment(), "samples": samples,
              "checks": [list(f) for f in ledger.findings], "result": result}
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"workload {name}  seed {seed}  replicas {replicas}  trace {int(trace)}")
    for key, value in report["environment"].items():
        print(f"env {key} {value}")
    for key, value in samples.items():
        print(f"samples {key} {value}")
    for check, ok, detail in ledger.findings:
        print(f"check {'PASS' if ok else 'FAIL'} {check}: {detail}")
    for key, metric in metrics.items():
        print(f"metric {key} {metric['value']} {metric['unit']}")
    return result


def smoke() -> int:
    """Every workload, untraced and traced, at a tiny replica count; the printed
    metric names and units must be exactly those in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            result = run_one(name, SMOKE_SEED, 0.0, trace, SMOKE_REPLICAS, WORK / "smoke")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {int(trace)}: metrics differ from BENCHMARK.json "
                                f"{key}: {sorted(set(got) ^ set(want))}")
            if not result["correct"]:
                problems.append(f"{name} trace {int(trace)}: incorrect result")
    for problem in problems:
        print(f"smoke FAIL {problem}")
    print("smoke", "FAIL" if problems else "OK")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the metric names")
    args = parser.parse_args()
    if not (SRC / "mutagame" / "__init__.py").is_file():
        print(f"error: no mutagame package under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
