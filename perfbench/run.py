"""densevoc benchmark: CLI workloads end to end, with a traced run for layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload track-long --seed 0 --seconds 25 --trace 0

The workload's inputs are made from ``--seed``; then, for ``--seconds``, one
client runs the workload's command in a fresh process at a time and waits for
it (a closed loop). Every operation's output is checked. The last line of
standard output is the result JSON; the line before it holds the exact facts
(host, work size, output hashes, per-operation samples) that let runs on two
commits be checked as the same work.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates plain
and traced operations and reports the per-layer metrics of the traced ones,
plus the throughput that tracing costs. Metric names and units come from
``BENCHMARK.json``; ``perfbench/README.md`` says what each one means.
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

import checks
from workloads import WORKLOADS, make_records, workload_facts, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
MIN_OPS = 3  # per kind (plain, traced), even when --seconds has run out
OP_TIMEOUT_S = 50
LAST_START_S = 110  # no operation starts later, so the run ends within 180 s
MB = float(1 << 20)
PROBE_REF_S = 0.1  # the probe's duration on the reference host at full speed (see probe.py)


def host_facts() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                caches[f"l{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Bench:
    """One run: the workload's inputs, its operations and their checks."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.stats_path = work / "op_stats.json"
        self.gt_path = work / "gt.json"
        self.pred_path = work / "pred.json"
        if workload.command == "synth":
            # The records synth must write; the files themselves come from the program.
            self.gts, self.preds = make_records(workload, seed)
            self.facts = None  # the dataset size is known once the program wrote it
            self.argv = workload.synth_argv(seed, str(self.gt_path), str(self.pred_path))
            self.outputs = [self.gt_path, self.pred_path]
        else:
            self.gts, self.preds = write_inputs(workload, seed, str(self.gt_path), str(self.pred_path))
            self.facts = workload_facts(self.gts, self.preds, [self.gt_path, self.pred_path])
            report = work / "report.json"
            self.argv = [workload.command, str(self.gt_path), str(self.pred_path), "--out", str(report)]
            self.outputs = [report]
            if workload.command == "eval-chota":
                self.argv += ["--cap-metrics", "meteor,cider", "--jobs", "1"]
                self.outputs.append(work / "report.json.summary")
        self.frames = sum(r.num_frames for r in self.gts)
        self.reference: dict | None = None  # output hashes of the fully checked operation
        self.failures: list[str] = []

    def _full_check(self, hashes: dict) -> None:
        if self.workload.command == "synth":
            checks.check_synth_files(self.gt_path, self.pred_path, self.gts, self.preds)
            self.facts = workload_facts(self.gts, self.preds, self.outputs)
        elif self.workload.command == "eval-chota":
            checks.check_chota_report(self.outputs[0], self.facts)
        else:
            checks.check_apm_report(self.outputs[0], self.facts)
        if self.seed == DEFAULT_SEED:
            pinned = json.loads((HERE / "pinned.json").read_text())
            checks.check_pinned(hashes, pinned.get(self.workload.name))

    def run_op(self, traced: bool) -> dict | None:
        """Run one operation; returns its timings, or None when it failed."""
        for path in self.outputs + [self.stats_path]:
            path.unlink(missing_ok=True)
        loads = 0 if self.workload.command == "synth" else 2
        cmd = [sys.executable, str(HERE / "child.py"), str(self.stats_path), str(SRC),
               "1" if traced else "0", str(loads), "--", *self.argv]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.work, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(f"timed out after {OP_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self._fail(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
        stats = json.loads(self.stats_path.read_text())
        if len(stats["load_returns"]) != loads:
            return self._fail(f"expected {loads} formats.load_dataset calls, saw {len(stats['load_returns'])}")
        setup_end = stats["load_returns"][-1] if loads else stats["import_end"]
        try:
            hashes = {path.name: checks.sha256(path) for path in self.outputs}
            if self.reference is None:
                self._full_check(hashes)
                self.reference = hashes
            elif hashes != self.reference:
                raise checks.CheckFailed(f"outputs {hashes} differ from the checked {self.reference}")
        except (checks.CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
            return self._fail(f"output check: {exc}")
        # Host slowdown from the probes right after setup and right after the work.
        before, after = (p / PROBE_REF_S for p in stats["probe_s"])
        raw_setup_s = setup_end - spawned
        raw_fps = self.frames / (stats["end"] - stats["work_start"])
        return {
            "traced": traced,
            "slowdown": (before * after) ** 0.5,
            "raw_setup_s": raw_setup_s,
            "raw_frames_per_s": raw_fps,
            "setup_s": raw_setup_s / before,
            "frames_per_s": raw_fps * (before * after) ** 0.5,
            "import_s": stats["import_s"],
            "peak_rss_mb": stats["maxrss_kb"] * 1024 / MB,
            "layers": stats["layers"],
        }

    def _fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"operation failed: {reason}", file=sys.stderr)
        return None


def layer_metrics(op: dict) -> dict:
    """Per-layer metrics of one traced operation, seconds scaled like setup_s."""
    layers, slowdown = op["layers"], op["slowdown"]

    def rate(name):
        s = layers[name]["s"]
        return layers[name]["bytes"] / MB / s * slowdown if s > 0 else 0.0

    meteor = layers["capmetrics.meteor_lite"]
    out = {
        "setup.import_s": op["import_s"] / slowdown,
        "formats.load_dataset.mb_per_s": rate("formats.load_dataset"),
        "formats.save_dataset.mb_per_s": rate("formats.save_dataset"),
        "capmetrics.meteor_lite.unique_ratio": meteor["distinct"] / meteor["calls"] if meteor["calls"] else 0.0,
    }
    for name, layer in layers.items():
        out[f"{name}.calls"] = layer["calls"]
        out[f"{name}.s"] = layer["s"] / slowdown
        out[f"{name}.self_s"] = layer["self_s"] / slowdown
    return out


def median(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops) if ops else 0.0


def metric_values(ops: list, trace: bool) -> dict:
    done = [op for _, op in ops if op is not None]
    plain = [op for op in done if not op["traced"]]
    if not trace:
        return {
            "setup_s": median(plain, "setup_s"),
            "frames_per_s": median(plain, "frames_per_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
            "ok_frac": len(done) / len(ops),
        }
    traced = [op for op in done if op["traced"]]
    if not traced:
        return {}
    per_op = [layer_metrics(op) for op in traced]
    values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    untraced = median(plain, "frames_per_s")
    values["trace.overhead_frac"] = 1.0 - median(traced, "frames_per_s") / untraced if untraced else 0.0
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (SRC / "densevoc" / "__init__.py").is_file():
        print(f"error: no densevoc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        ops: list[tuple[bool, dict | None]] = []
        loop_start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            ops.append((traced, bench.run_op(traced)))
            traced_n = sum(1 for t, _ in ops if t)
            enough = len(ops) - traced_n >= MIN_OPS and (not args.trace or traced_n >= MIN_OPS)
            now = time.monotonic()
            if now - started >= LAST_START_S or (now - loop_start >= args.seconds and enough):
                break
        loop_s = time.monotonic() - loop_start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    values = metric_values(ops, bool(args.trace))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if values and missing:
        raise SystemExit(f"BENCHMARK.json names metrics this benchmark does not compute: {missing}")
    plain = [op for t, op in ops if op is not None and not t]
    facts = {
        "host": host_facts(),
        "workload": dict(bench.facts or {}, name=args.workload, seed=args.seed,
                         command=bench.workload.command),
        "outputs_sha256": bench.reference,
        "ops": {
            "attempted": len(ops),
            "traced": sum(1 for t, _ in ops if t),
            "loop_s": round(loop_s, 3),
            "host_slowdown": [round(op["slowdown"], 4) for op in plain],
            "raw_setup_s": [round(op["raw_setup_s"], 4) for op in plain],
            "raw_frames_per_s": [round(op["raw_frames_per_s"], 1) for op in plain],
            "frames_per_s": [round(op["frames_per_s"], 1) for op in plain],
        },
        "failures": bench.failures,
    }
    print(json.dumps({"facts": facts}))
    failed = len(bench.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
