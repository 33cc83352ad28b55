#!/usr/bin/env python3
"""Benchmark of the entwined CLI experiments.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every experiment runs in a fresh child
process (``child.py``) that imports the package from the checkout's ``src``,
once with ``--threads 1`` and once with ``--threads 2``; rounds repeat until
``--seconds`` have passed.  Each child's outputs are checked: exit status,
manifest sha256s against the files, byte identity across thread counts, and
the workload's accuracy bound.  A check that fails marks that child's run
as failed.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` each round runs the experiment untraced, then traced at
one and at two threads, and the per-layer metrics are reported from the
spans and counts of the traced children.  Timings never enter the
experiments' output directories.

A table of the metrics goes to standard output, followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Run records (seed,
generated command lines, machine context, every sample and, when traced,
the spans) go to ``.bench_out/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS, load_calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0  # the whole benchmark must end within 180 s
THREADS = (1, 2)
ACCOUNTING_TOLERANCE = 0.01  # share of the traced run time


@dataclass
class Sample:
    """One child run: its timings, the checks it failed and, if traced, its trace."""

    threads: int
    traced: bool
    outs: list[Path]
    problems: list[str] = field(default_factory=list)
    report: dict | None = None
    output_bytes: int = 0
    result_error: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def record(self) -> dict:
        out = {"threads": self.threads, "traced": self.traced, "problems": self.problems}
        if self.report:
            out.update(self.report)
        return out


def _tree(dirs: list[Path]) -> dict[str, str]:
    """sha256 of every file under ``dirs``, keyed by command index and name."""
    return {f"{i}/{p.relative_to(d)}": hashlib.sha256(p.read_bytes()).hexdigest()
            for i, d in enumerate(dirs) for p in sorted(d.rglob("*")) if p.is_file()}


def _manifest_problems(out: Path) -> list[str]:
    path = out / "manifest.json"
    if not path.is_file():
        return [f"{out.name}: no manifest.json"]
    listed = json.loads(path.read_text())["artifacts"]
    on_disk = {p.name for p in out.iterdir() if p.is_file()} - {"manifest.json"}
    problems = []
    if set(listed) != on_disk:
        problems.append(f"{out.name}: manifest lists {sorted(listed)}, directory has {sorted(on_disk)}")
    for name, entry in listed.items():
        data = (out / name).read_bytes() if (out / name).is_file() else b""
        if hashlib.sha256(data).hexdigest() != entry["sha256"] or len(data) != entry["bytes"]:
            problems.append(f"{out.name}: {name} does not match its manifest entry")
    return problems


class Bench:
    """Runs children of the checkout at ``root``; their outputs go under ``out``."""

    def __init__(self, root: Path, out: Path, deadline: float):
        self.root = root
        self.out = out
        self.deadline = deadline
        self.calibration = load_calibration(root)
        self.runs = 0

    def child(self, commands: list[list[str]], threads: int, traced: bool, workload) -> Sample:
        self.runs += 1
        base = self.out / "runs" / f"{self.runs:04d}-t{threads}{'-traced' if traced else ''}"
        shutil.rmtree(base, ignore_errors=True)
        outs = [base / f"cmd{i:02d}" for i in range(len(commands))]
        spec = {"src": str(self.root / "src"), "trace": traced,
                "commands": [c + ["--threads", str(threads), "--out", str(o)]
                             for c, o in zip(commands, outs)]}
        sample = Sample(threads, traced, outs)
        spec["spawned"] = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  cwd=self.root, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sample.problems.append("child timed out")
            return sample
        if proc.returncode != 0:
            sample.problems.append(f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return sample
        try:
            sample.report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            sample.problems.append(f"child printed no report: {proc.stdout[-400:]!r}")
            return sample
        if any(sample.report["codes"]):
            sample.problems.append(f"CLI exit codes {sample.report['codes']}: {proc.stderr.strip()[-400:]}")
            return sample
        for out in outs:
            sample.problems += _manifest_problems(out)
        try:
            sample.problems += workload.check(outs, self.calibration)
            sample.result_error = workload.result_error(outs)
        except (OSError, ValueError, KeyError) as exc:
            sample.problems.append(f"cannot read result: {exc!r}")
        sample.output_bytes = sum(p.stat().st_size for d in outs for p in d.rglob("*") if p.is_file())
        return sample

    def round(self, workload, commands, plan, reference: dict) -> list[Sample]:
        """Run the children of one round and compare their outputs byte for byte
        with ``reference``, the files of the workload's first good run."""
        samples = [self.child(commands, threads, traced, workload) for threads, traced in plan]
        for s in samples:
            if not s.ok:
                continue
            tree = _tree(s.outs)
            if not reference:
                reference.update(tree)
            elif tree != reference:
                s.problems.append("outputs differ from the first run's outputs")
        for s in samples:
            shutil.rmtree(s.outs[0].parent, ignore_errors=True)
        return samples


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(samples: list[Sample]) -> tuple[dict, dict]:
    """Metric values and sample counts of an untraced run."""
    timed = [s for s in samples if s.report]
    by = {t: [s.report for s in timed if s.threads == t] for t in THREADS}
    values = {
        "run_s": _median(r["run_s"] for r in by[1]),
        "run_s.t2": _median(r["run_s"] for r in by[2]),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in by[1]),
        "peak_rss_mb.t2": _median(r["peak_rss_mb"] for r in by[2]),
        "setup_s": _median(s.report["setup_s"] for s in timed),
        "failed_frac": sum(not s.ok for s in samples) / len(samples),
    }
    counts = {"run_s": len(by[1]), "run_s.t2": len(by[2]), "peak_rss_mb": len(by[1]),
              "peak_rss_mb.t2": len(by[2]), "setup_s": len(timed), "failed_frac": len(samples)}
    errors = [s.result_error for s in samples if s.ok]
    if errors:
        values["result_error"] = _median(errors)
        counts["result_error"] = len(errors)
    return values, counts


def per_layer(rounds: list[list[Sample]]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from rounds of (untraced t1, traced t1, traced t2)."""
    per_round, problems, counts_seen = [], [], []
    for plain, t1, t2 in rounds:
        if not (plain.ok and t1.ok and t2.ok):
            continue
        spans1 = [tracing.Span(*s) for s in t1.report["spans"]]
        spans2 = [tracing.Span(*s) for s in t2.report["spans"]]
        values = tracing.bucket_self_times(spans1)
        run_s = t1.report["run_s"]
        accounted = sum(values.values())
        if abs(accounted - run_s) > ACCOUNTING_TOLERANCE * run_s:
            problems.append(f"layer self times sum to {accounted!r} s, traced run took {run_s!r} s")
        values["density.accumulate_s.t2"] = tracing.bucket_self_times(spans2)["density.accumulate_s"]
        values["propagator.write_region_s"] = tracing.inclusive_time(spans1, "propagator.write_region")
        values["propagator.write_region_s.t2"] = tracing.inclusive_time(spans2, "propagator.write_region")
        rays = [seconds for _, seconds in tracing.ray_times(spans1)]
        values["propagator.ray_s"] = _median(rays)
        values["propagator.ray_s.max"] = max(rays, default=0.0)
        busy: dict[int, float] = {}
        for thread, seconds in tracing.ray_times(spans2):
            busy[thread] = busy.get(thread, 0.0) + seconds
        values["propagator.imbalance_s.t2"] = (max(busy.values()) - min(busy.values())) if busy else 0.0
        counts = t1.report["counts"]
        counts_seen.append(counts)
        values.update(counts)
        accumulate_s = values["density.accumulate_s"]
        values["density.incidences_per_s"] = counts["density.incidences"] / accumulate_s if accumulate_s else 0.0
        values["cli.output_bytes"] = plain.output_bytes
        values["trace.run_s"] = run_s
        values["trace.overhead_s"] = run_s - plain.report["run_s"]
        per_round.append(values)
    if any(c != counts_seen[0] for c in counts_seen):
        problems.append("operation counts differ between rounds")
    if not per_round:
        return {}, {}, problems
    names = per_round[0]
    return ({k: _median(v[k] for v in per_round) for k in names},
            dict.fromkeys(names, len(per_round)), problems)


def machine() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "last_level_cache": caches[max(caches)] if caches else None,
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def run_workload(bench: Bench, name: str, seed: int, seconds: float, trace: bool, units: dict):
    workload = WORKLOADS[name]
    commands = workload.commands(seed)
    context = machine()
    # untraced children alternate thread counts so both see the same machine;
    # a traced round keeps its untraced twin beside it for trace.overhead_s
    if trace:
        plans = [[(1, False), (1, True), (2, True)]]
    else:
        plans = [[(t, False)] for t in THREADS]
    reference: dict = {}
    rounds: list[list[Sample]] = []
    took = [0.0] * len(plans)  # last duration of each kind of round
    started = time.monotonic()
    for i in itertools.count():
        kind = i % len(plans)
        round_start = time.monotonic()
        rounds.append(bench.round(workload, commands, plans[kind], reference))
        now = time.monotonic()
        took[kind] = now - round_start
        upcoming = took[(i + 1) % len(plans)]
        if i + 1 >= len(plans) and (now - started + upcoming > seconds
                                    or now + upcoming > bench.deadline):
            break
    flat = [s for r in rounds for s in r]
    extra_problems: list[str] = []
    if trace:
        values, counts, extra_problems = per_layer(rounds)
    else:
        values, counts = end_to_end(flat)

    failed = sum(not s.ok for s in flat)
    correct = failed == 0 and not extra_problems and bool(values)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  rounds {len(rounds)}  "
          f"children {len(flat)}  failed {failed}")
    for problem in [p for s in flat for p in s.problems] + extra_problems:
        print(f"  FAILED CHECK: {problem}")
    units = {**units, "result_error": workload.error_unit, "failed_frac": "ratio"}
    for metric, value in values.items():
        print(f"  {metric:32s} {value:>16.6g} {units[metric]:12s} (n={counts[metric]})")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "commands": commands, "machine": context,
              "numpy": next((s.report["numpy"] for s in flat if s.report), None),
              "metrics": values, "samples": [s.record() for s in flat],
              "problems": extra_problems}
    (bench.out / "records").mkdir(parents=True, exist_ok=True)
    path = bench.out / "records" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  run record: {path}")
    return correct, len(flat), failed, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/entwined/__init__.py",
                           "tests/fixtures/calibration.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not an entwined checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    bench = Bench(ROOT, ROOT / ".bench_out", time.monotonic() + TIME_LIMIT_S * len(names))

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, values = run_workload(bench, name, args.seed, args.seconds,
                                             bool(args.trace), units)
        correct &= ok and all(m["name"] in values for m in wanted)
        attempted += tried
        failed += bad
        prefix = "" if len(names) == 1 else f"{name}/"
        for m in wanted:
            if m["name"] in values:
                metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
