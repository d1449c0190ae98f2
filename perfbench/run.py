"""Benchmark of the ``qwalk`` command line, end to end.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload run2d_cross --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each operation is one ``qwalk`` command in a fresh child process
(``child.py``), which imports the package from ``./src``.  After one
discarded warm-up operation per workload, operations run one at a time,
round-robin over the chosen workloads, for ``--seconds`` per workload:
whole rounds, as many as are expected to fit.  Every operation's outputs are checked (``workloads.py``); an
operation that exits non-zero or fails a check counts as failed, and a
failed check also makes ``correct`` false.

``--trace 0`` reports the medians of the end-to-end metrics.  With
``--trace 1`` a round is an untraced operation, one under the timing
tracer and one under the memory tracer (``spans.py``), and the run reports
the medians of the per-layer metrics; ``trace.overhead_s`` is the median
wall time under the timing tracer minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the machine fingerprint.  Per-operation records are kept under
``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
CHILD_TIMEOUT_S = 60


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, root: Path, workload, seed: int):
        self.root = root
        self.workload = workload
        self.work = root / ".perfbench_work" / workload.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.argv = workload.prepare(seed, self.work)
        self.samples: list[dict] = []
        self.layers: list[dict] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def operation(self, trace: str | None = None, counted: bool = True) -> dict | None:
        """One ``qwalk`` command in a fresh child; its sample if it passed.

        ``trace`` is None, ``"spans"`` or ``"memory"`` (see ``child.py``).
        """
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        spans = self.work / f"{trace}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), str(self.root), str(result),
            f"{trace}:{spans}" if trace else "-", "--", *self.argv,
        ]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            error = None if proc.returncode == 0 else proc.stderr.strip()[-2000:]
        except subprocess.TimeoutExpired:
            error = f"timed out after {CHILD_TIMEOUT_S} s"
        sample = None
        if error is None:
            sample = json.loads(result.read_text(encoding="utf-8"))
            if sample["rc"] != 0:
                error = f"qwalk exited {sample['rc']}: {proc.stderr.strip()[-2000:]}"
        if not counted:
            if error:
                print(f"{self.workload.name} warm-up: {error}", file=sys.stderr)
            return None
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"{self.workload.name}: {error}", file=sys.stderr)
            return None
        problems = self.workload.check(out)
        if problems:
            self.failed += 1
            self.problems += problems
            print(f"{self.workload.name}: " + "; ".join(problems[:5]), file=sys.stderr)
            return None
        sample["setup_s"] = sample.pop("imported_monotonic") - spawned
        if trace:
            sample["spans"] = json.loads(spans.read_text(encoding="utf-8"))
        return sample

    def round(self, traced: bool) -> None:
        """One untraced operation; when ``traced``, also one under each tracer."""
        sample = self.operation()
        if sample is not None:
            self.samples.append(sample)
        if traced:
            timing, memory = self.operation("spans"), self.operation("memory")
            if timing is not None and memory is not None:
                self.layers.append(layer_metrics(timing["spans"], memory["spans"]))

    def end_to_end(self) -> dict[str, dict]:
        return {
            name: {"value": statistics.median(s[name] for s in self.samples), "unit": unit}
            for name, unit in END_TO_END.items()
        }

    def per_layer(self, units: dict[str, str]) -> dict[str, dict]:
        values = {
            name: statistics.median(layers[name] for layers in self.layers)
            for name in self.layers[0]
        }
        plain_wall = statistics.median(s["wall_s"] for s in self.samples)
        values["trace.overhead_s"] = values.pop("trace.main_s") - plain_wall
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qwalk" / "cli.py").is_file():
        print(f"error: {root} has no src/qwalk; run from the repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = per_layer_units() if args.trace else {}
    runners = [Runner(root, WORKLOADS[name](), args.seed) for name in names]

    for runner in runners:
        runner.operation(counted=False)
    # Whole rounds only, and no round that is expected to end past the
    # time budget, except the first.
    budget = args.seconds * len(runners)
    start = time.monotonic()
    rounds = 0
    while True:
        for runner in runners:
            runner.round(traced=bool(args.trace))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > budget:
            break

    fp = fingerprint()
    metrics: dict[str, dict] = {}
    for runner in runners:
        prefix = "" if len(runners) == 1 else f"{runner.workload.name}."
        if runner.samples and (runner.layers or not args.trace):
            found = runner.per_layer(units) if args.trace else runner.end_to_end()
            metrics.update({prefix + k: v for k, v in found.items()})
        record = {
            "workload": runner.workload.name,
            "seed": args.seed,
            "argv": runner.argv,
            "fingerprint": fp,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "problems": runner.problems,
            "samples": runner.samples,
            "layers": runner.layers,
        }
        (runner.work / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8"
        )
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:14.6g} {m['unit']}")
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    print(f"attempted={attempted} failed={failed}")
    expected = len(runners) * (len(units) if args.trace else len(END_TO_END))
    if len(metrics) != expected:
        print("error: no operation succeeded on some workload", file=sys.stderr)
        return 2
    print(json.dumps({"fingerprint": fp}))
    print(
        json.dumps(
            {
                "correct": not any(r.problems for r in runners),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
