"""Cold-CLI benchmark of linksec on three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation is a fresh interpreter running the public ``linksec`` CLI
from ``src/``, one child process at a time, so every invocation pays for
imports and cold caches as a CLI user does.

``--trace 0`` runs the workload back to back for S seconds, with set-up
samples (a fresh interpreter that imports ``linksec.cli`` and parses the
workload's config) before each invocation.  It reports the median
``wall_s``, ``setup_s`` and ``peak_rss_mb`` and the share of correct rows,
``ok_frac``.

``--trace 1`` alternates traced invocations (tracer.py, spans around each
layer) with untraced ones for S seconds and reports per-layer metrics
(layers.py); the two kinds of invocation give the tracing overhead.  The
spans of every traced pass are written to
``.bench_out/spans-<workload>-seed<N>.jsonl`` when the run ends.

Outputs are checked outside the timed region (workloads.py).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (rows) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from workloads import WORKLOADS, derive_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
CLI_CODE = "import sys; from linksec.cli import main; sys.exit(main())"
TRACER = str(Path(__file__).resolve().parent / "tracer.py")

RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PER_INVOCATION = 2
MIN_PLAIN = 3
MIN_TRACED = 2


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


def spawn(argv: list[str], cwd: Path, deadline: float) -> Invocation:
    """Run one child to completion; wall time and its own peak RSS.

    ``os.wait4`` gives the resource usage of exactly this child.  A child
    still running at ``deadline`` is killed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "stdout.txt", "w+", encoding="utf-8") as out, \
            open(cwd / "stderr.txt", "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode, text)


def read_records(workload, inv: Invocation, cwd: Path) -> dict:
    if inv.returncode != 0:
        return {}
    try:
        return workload.read(cwd, inv.stdout)
    except (OSError, ValueError, KeyError):
        return {}


def setup_sample(argv: list[str], cwd: Path, deadline: float) -> float:
    inv = spawn(argv, cwd, deadline)
    if inv.returncode != 0:
        sys.exit(f"error: set-up failed with exit code {inv.returncode}; "
                 f"see {cwd / 'stderr.txt'}")
    return inv.wall_s


@dataclass
class Run:
    setup: list[float] = field(default_factory=list)
    plain: list[Invocation] = field(default_factory=list)
    traced: list[Invocation] = field(default_factory=list)
    passes: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    selftest_ok: bool = False


def run_loop(workload, tmp: Path, seed: int, seconds: float, deadline: float, trace: bool) -> Run:
    """Invoke the CLI back to back for ``seconds``; check every output.

    Untraced runs take ``SETUP_PER_INVOCATION`` set-up samples before each
    invocation, so both metrics see the same stretch of machine time.
    Traced runs alternate traced and untraced invocations.  The loop stops
    before a cycle that would end after ``seconds``, once the minimum
    counts are met.  One set-up run first, not reported, fills the
    bytecode and file caches.
    """
    setup_cwd = tmp / "setup"
    setup_cwd.mkdir()
    workload.prepare(setup_cwd, derive_seed(seed, workload.name, "setup"))
    setup_argv = [sys.executable, "-c", workload.setup_code(setup_cwd)]
    setup_sample(setup_argv, setup_cwd, deadline)
    run = Run()
    start = time.perf_counter()
    i = 0
    while True:
        cycle_start = time.perf_counter()
        kind_traced = trace and i % 2 == 0
        if not trace:
            run.setup += [setup_sample(setup_argv, setup_cwd, deadline)
                          for _ in range(SETUP_PER_INVOCATION)]
        cwd = tmp / f"inv{i}"
        cwd.mkdir()
        args = workload.prepare(cwd, derive_seed(seed, workload.name, i))
        if kind_traced:
            argv = [sys.executable, TRACER, str(cwd / "spans.json"), "--", *args]
        else:
            argv = [sys.executable, "-c", CLI_CODE, *args]
        inv = spawn(argv, cwd, deadline)
        (run.traced if kind_traced else run.plain).append(inv)
        records = read_records(workload, inv, cwd)
        bad = workload.failures(records)
        run.attempted += workload.rows
        run.failed += bad
        if i == 0:
            # The checker must count one corrupted row as one more failure.
            run.selftest_ok = (bool(records)
                               and workload.failures(workload.corrupt(records)) == bad + 1)
        if kind_traced and inv.returncode == 0:
            with open(cwd / "spans.json", encoding="utf-8") as fh:
                run.passes.append(json.load(fh))
        i += 1
        now = time.perf_counter()
        cycle = now - cycle_start
        if now + cycle > deadline:
            break
        if trace:
            enough = len(run.traced) >= MIN_TRACED and len(run.plain) >= 1
        else:
            enough = len(run.plain) >= MIN_PLAIN
        if enough and now - start + cycle > seconds:
            break
    return run


def write_spans(path: Path, workload: str, passes: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"columns": ["workload", "pass", "span", "name", "start_ns",
                                         "end_ns", "parent", "note"]}) + "\n")
        for k, record in enumerate(passes):
            for j, span in enumerate(record["spans"]):
                fh.write(json.dumps([workload, k, j, *span], separators=(",", ":")) + "\n")


def compare_counts(workload: str, metrics: dict) -> list[str]:
    """Differences between this run's counts and the recorded baseline."""
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            recorded = json.load(fh)["workloads"][workload]["counts"]
    except (OSError, KeyError, ValueError):
        return ["no recorded counts"]
    return [
        f"{name}: {metrics[name]} (recorded {recorded.get(name)})"
        for name in layers.COUNTS
        if metrics[name] != recorded.get(name)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "linksec" / "cli.py").is_file():
        print(f"error: no linksec sources at {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        run = run_loop(workload, tmp, args.seed, args.seconds, deadline, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = run.failed == 0 and run.selftest_ok
    print(f"workload {workload.name}  seed {args.seed}  rows attempted {run.attempted}  "
          f"failed {run.failed}  failed_frac {run.failed / run.attempted:.6g} fraction")
    print(f"self-test (one corrupted row counted as failed): {'ok' if run.selftest_ok else 'FAILED'}")
    if args.trace:
        if not run.passes:
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        metrics, counts_repeat = layers.summarize(
            run.passes, [t.wall_s for t in run.traced], [p.wall_s for p in run.plain])
        correct = correct and counts_repeat
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_spans(spans_path, workload.name, run.passes)
        print(f"traced passes {len(run.passes)}, untraced {len(run.plain)}; spans in {spans_path}")
        print(f"counts repeat across passes: {'yes' if counts_repeat else 'NO'}")
        diffs = compare_counts(workload.name, metrics)
        print("counts against bench/baseline.json: " + ("match" if not diffs else "; ".join(diffs)))
        print(f"pass time not in {'/'.join(layers.ANALYTIC_LEAVES)} self time: "
              f"{metrics['trace.unattributed_frac']:.4f} "
              f"(tracing overhead {metrics['trace.overhead_frac']:.4f})")
        for name, unit, _ in layers.PER_LAYER:
            print(f"  {name:38} {metrics[name]:.6g} {unit}")
        units = layers.UNITS
    else:
        walls = [p.wall_s for p in run.plain]
        rss = [p.peak_rss_mb for p in run.plain]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(run.setup),
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": 1.0 - run.failed / run.attempted,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}
        for name, values in (("wall_s", walls), ("setup_s", run.setup), ("peak_rss_mb", rss)):
            print(f"  {name:12} {metrics[name]:.4f} {units[name]:3} median of {len(values)}: "
                  + " ".join(f"{v:.4f}" for v in values))
        print(f"  ok_frac      {metrics['ok_frac']:.6g} fraction")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
