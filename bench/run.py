"""Time-to-verdict benchmark for twistedops.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere; it uses the ``src/`` next to this directory.

Load model: one closed loop with a single caller.  Each repetition is a
fresh child interpreter (``bench/child.py``) that imports the package,
builds the algebra, runs the workload and judges every verdict against
the references in ``bench/refs.py``; the next one starts only after the
previous one has ended.  Nothing runs in parallel.

``--trace 0`` first times several set-up-only children, then repeats the
workload while another repetition is expected to end within
``--seconds`` (at least one).  It reports the end-to-end metrics:

* ``verdict_s``: median time from the first check call to the last
  verdict, scaled to a reference core speed by ``bench/speed.py``
  because on a shared host the speed of a core swings within seconds;
  the median raw wall time is in the meta line;
* ``setup_s``: median time from spawning the interpreter to the first
  check call, over all set-up samples of the run, scaled the same way;
* ``peak_rss_mb``: median peak resident memory of a repetition.

``--trace 1`` runs one untraced repetition and two traced ones (see
``bench/layers.py``) and reports the per-layer metrics.  The two traced
repetitions must agree on every count, or the run is not correct.
The spans of the last traced run of each workload are written to
``bench/out/``.

``--smoke`` runs the same harness on sym:2 and a lab degree of 3.

The last stdout line is the result object; the line before it, starting
with ``meta``, records the machine, the source tree, sample counts and
the share of wrong verdicts.
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from child import WORKLOADS  # noqa: E402
from layers import DISTINCT_SHARE, SUCCESS_SHARE, TRACED  # noqa: E402

SETUP_SAMPLES = 12  # half before the repetitions, half after
RUN_BUDGET_S = 170.0  # every run ends well inside the 180 s a run may take

# suite checks whose report time is a per-layer metric; the structure
# checks of validate_structure take under a millisecond and are covered
# by the jordan.validate_structure span
REPORTED_CHECKS = (
    "power-associativity", "inverse-triple", "triple-shift", "triple-fundamental",
    "derivative-identities-at-points", "w-bracket", "idempotent-bracket",
    "double-commutator", "critical-values", "w-conjugation", "delta-antimap",
    "fourier-consistency", "closure", "module-stability", "lowest-weight",
)

UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


class BenchError(Exception):
    pass


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _, _, fields in TRACED:
        for field in fields:
            units[f"{name}.{field}"] = UNITS[field]
    units[SUCCESS_SHARE + ".success_share"] = "share"
    units[DISTINCT_SHARE + ".distinct_share"] = "share"
    for check in REPORTED_CHECKS:
        units[f"verify.{check}.ms"] = "ms"
    units["trace.overhead_share"] = "share"
    return units


END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Spawns children one at a time and keeps the run inside its budget."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = time.perf_counter()

    def child(self, mode: str, spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(BENCH / "child.py"), self.workload, str(self.seed), mode]
        if self.smoke:
            cmd.append("--smoke")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("time budget spent before the next repetition")
        env = dict(os.environ, PYTHONHASHSEED="0")
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                                  cwd=ROOT, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} repetition did not end within the run budget")
        ended = time.perf_counter()
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} repetition exited with {proc.returncode}")
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except json.JSONDecodeError:
            raise BenchError(f"{mode} repetition printed no result")
        out["setup_wall_s"] = out["ready"] - spawned
        out["setup_s"] = (out["setup_wall_s"] - out["setup_probe_s"]) * out["setup_factor"]
        out["process_s"] = ended - spawned
        return out


def measure(runner: Runner, seconds: int) -> tuple[dict, dict, list[dict]]:
    """Untraced run: set-up samples, then the closed loop of repetitions."""
    runner.child("setup")  # writes bytecode caches; a CLI user starts warm
    setups = [runner.child("setup") for _ in range(SETUP_SAMPLES // 2)]
    reps: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        reps.append(runner.child("run"))
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.median(r["process_s"] for r in reps) > seconds:
            break
    setups += [runner.child("setup") for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    setups += reps
    metrics = {
        "verdict_s": statistics.median(r["verdict_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in reps) / 1024,
    }
    info = {
        "samples": {"verdict_s": len(reps), "setup_s": len(setups), "peak_rss_mb": len(reps)},
        "verdict_wall_s": statistics.median(r["verdict_wall_s"] for r in reps),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in setups),
        "probe_share": statistics.median(r["probe_s"] / r["verdict_wall_s"] for r in reps),
    }
    return metrics, info, reps


def layer_metrics(runner: Runner) -> tuple[dict, dict, list[dict]]:
    """Traced run: one untraced repetition, two traced ones.

    The two traced repetitions must agree on every count and share; each
    comparison is one more verdict in the result."""
    base = runner.child("run")
    out_dir = BENCH / "out"
    traced = [
        runner.child("trace", out_dir / f"{runner.workload}-{k}.spans.gz")
        for k in (1, 2)
    ]
    first, second = traced
    mismatches = []
    values: dict[str, float] = {}
    for name, _, _, _, fields in TRACED:
        a, b = first["layers"][name], second["layers"][name]
        if a["calls"] != b["calls"]:
            mismatches.append(f"{name}.calls: {a['calls']} vs {b['calls']}")
        for field in fields:
            values[f"{name}.{field}"] = (a[field] + b[field]) / 2 if field != "calls" else a["calls"]
    for key in (SUCCESS_SHARE + ".success_share", DISTINCT_SHARE + ".distinct_share"):
        if first["ratios"][key] != second["ratios"][key]:
            mismatches.append(f"{key}: {first['ratios'][key]} vs {second['ratios'][key]}")
        values[key] = first["ratios"][key]
    for check in REPORTED_CHECKS:
        values[f"verify.{check}.ms"] = base["checks_ms"].get(check, 0)
    traced_s = statistics.mean(t["verdict_wall_s"] for t in traced)
    values["trace.overhead_share"] = traced_s / (base["verdict_wall_s"] - base["probe_s"]) - 1
    info = {"samples": {"traced": 2, "untraced": 1}, "spans": first["spans"]}
    determinism = {"attempted": len(TRACED) + 2, "wrong": mismatches}
    return values, info, [base, *traced, determinism]


def metadata(args, info: dict, reps: list[dict]) -> dict:
    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    attempted = sum(r["attempted"] for r in reps)
    wrong = [w for r in reps for w in r["wrong"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        **info,
        "wrong_verdict_share": len(wrong) / attempted if attempted else None,
        "wrong_verdicts": wrong[:20],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs: sym:2, lab degree 3")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twistedops" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no twistedops sources under {ROOT / 'src'}\n")
        return 2
    runner = Runner(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            values, info, reps = layer_metrics(runner)
            units = per_layer_units()
        else:
            values, info, reps = measure(runner, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1

    meta = metadata(args, info, reps)
    failed = sum(len(r["wrong"]) for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
