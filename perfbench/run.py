"""End-to-end benchmark of the gray-box simulator.

    python3 perfbench/run.py --workload arena-1024 --seed 1 --seconds 30 --trace 0

Runs one workload (see ``perfbench/README.md``) repeatedly for about
``--seconds`` seconds, checks every simulated output against the
committed reference in ``perfbench/reference/``, and prints one JSON
object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics, medians over the repetitions:
  ``wall_s``, ``setup_s``, ``sim_syscalls_per_s`` and ``peak_rss_mb``;
  times are scaled to a reference host speed (``calibrate``).
* ``--trace 1``: one untraced repetition, then traced ones; the
  per-layer self times and counts (means over the traced repetitions)
  with ``untraced_s`` and ``trace_overhead``.

A seed with no committed reference is checked for agreement between the
repetitions instead, and its digests are printed.  ``--write-reference``
records the current outputs as the reference for ``--seed``.

Exit status: 0 when every output matched, 1 on a mismatch or failure,
2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

#: Repetitions run even past ``--seconds``: the medians need several,
#: and a seed without a reference needs two runs that can be compared.
MIN_REPS = 3

#: Host-speed calibration: a fixed pure-Python loop is timed right before
#: and right after every repetition, and the repetition's times are scaled
#: by ``REFERENCE_CALIBRATION_S / <its mean>``.  On a shared VM the host's
#: speed drifts by 20-30 % over minutes; the loop tracks most of that (see
#: README.md, "Steadiness").  Raw times are printed per repetition.
CALIBRATION_LOOPS = 1_000_000
REFERENCE_CALIBRATION_S = 0.1


def parse_args(argv: List[str], workloads: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this seed's outputs as the reference")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ======================================================================
# Provenance
# ======================================================================
def provenance(workload: Any, seed: int) -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            # A checkout without .git must not report an enclosing repository.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": source_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "config_sha256": workload.config_hash(),
    }


def source_hash() -> str:
    """Content hash of the simulator's source, for checkouts without git."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ======================================================================
# References
# ======================================================================
def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str, seed: int) -> Optional[Dict[str, Any]]:
    path = reference_path(name)
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def write_reference(workload: Any, seed: int, record: Dict[str, Any]) -> None:
    from workloads import CHECKED

    path = reference_path(workload.name)
    data = json.loads(path.read_text()) if path.exists() else {"workload": workload.name, "seeds": {}}
    data["config_sha256"] = workload.config_hash()
    data["seeds"][str(seed)] = {key: record[key] for key in CHECKED}
    if seed == workload.default_seed:
        data["default_seed"] = seed
        data["rows"] = record["rows"]
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(dumps_reference(data))


def dumps_reference(data: Dict[str, Any]) -> str:
    """JSON with one line per seed and per row, so diffs stay readable."""
    def block(items: List[str], open_: str, close: str) -> str:
        return open_ + "\n" + ",\n".join(items) + "\n" + close

    compact = {"sort_keys": True, "separators": (",", ":")}
    fields = []
    for key in sorted(data):
        value = data[key]
        if key == "rows":
            body = block([json.dumps(row, **compact) for row in value], "[", "]")
        elif key == "seeds":
            body = block(
                [f"{json.dumps(k)}:{json.dumps(v, **compact)}" for k, v in sorted(value.items())],
                "{", "}",
            )
        else:
            body = json.dumps(value, **compact)
        fields.append(f"{json.dumps(key)}:{body}")
    return block(fields, "{", "}") + "\n"


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - t0


# ======================================================================
# One repetition
# ======================================================================
class Rep:
    """One timed run of the workload and what it produced."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.setup_s = 0.0
        self.calibration_s = 0.0
        self.record: Dict[str, Any] = {}
        self.error: Optional[str] = None
        self.layers: Dict[str, float] = {}

    @property
    def scale(self) -> float:
        """Factor from this repetition's host speed to the reference speed."""
        return REFERENCE_CALIBRATION_S / self.calibration_s

    @property
    def throughput(self) -> float:
        busy_s = (self.wall_s - self.setup_s) * self.scale
        return self.record["sim_syscalls_after_setup"] / busy_s


def run_rep(
    workload: Any,
    seed: int,
    check: Callable[[Dict[str, Any]], List[str]],
    traced: bool,
) -> Tuple[Rep, List[str]]:
    """Run, collect and check the workload once, timing all three.

    Instruments are installed before the clock starts and removed after
    it stops; the trial cache must be off.
    """
    from instrument import LAYER_SYSCALLS, MachineProbe, Patcher, Tracer, per_layer_metrics
    from repro.experiments import runner
    from workloads import outputs

    config = runner.configured()
    if config.use_cache or config.jobs != 1:
        raise SystemExit("perfbench: refusing to run with the trial cache on or jobs > 1")
    runner.drain_stats()
    rep = Rep()
    patcher = Patcher()
    probe = MachineProbe()
    probe.install(patcher)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install(patcher, LAYER_SYSCALLS)
    gc.collect()
    calibration = calibrate()
    mismatches: List[str] = []

    def body() -> None:
        result = workload.run(seed)
        if any(stats.cached for stats in runner.drain_stats()):
            raise RuntimeError("a trial was served from the trial cache")
        probe.finish()
        rep.record = outputs(result, probe.trial_values, probe.syscalls, probe.syscalls_after_setup)
        mismatches.extend(check(rep.record))

    t0 = time.perf_counter_ns()
    try:
        if tracer is None:
            body()
        else:
            tracer.run_root(body)
    except Exception:  # the workload raised: every operation failed
        rep.error = traceback.format_exc()
    finally:
        wall_ns = time.perf_counter_ns() - t0
        patcher.restore()
    gc.collect()
    rep.calibration_s = (calibration + calibrate()) / 2
    rep.wall_s = wall_ns / 1e9
    rep.setup_s = probe.setup_ns / 1e9
    if tracer is not None and rep.error is None:
        rep.layers = per_layer_metrics(tracer, probe)
    return rep, mismatches


# ======================================================================
# Main
# ======================================================================
def main(argv: List[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from workloads import WORKLOADS, compare
        from repro.experiments import runner
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    reference = None if args.write_reference else load_reference(workload.name, seed)
    print(json.dumps({"provenance": provenance(workload, seed)}), flush=True)

    first: List[Dict[str, Any]] = []

    def check(record: Dict[str, Any]) -> List[str]:
        if reference is not None:
            return compare(record, reference)
        if not first:
            first.append(record)
            return []
        return compare(record, first[0])

    deadline = time.perf_counter() + args.seconds
    reps: List[Rep] = []
    traced: List[Rep] = []
    failed = attempted = 0
    with runner.configuration(jobs=1, use_cache=False):
        while True:
            # With --trace 1 the first repetition is the untraced baseline.
            trace_now = args.trace == 1 and bool(reps)
            rep, mismatches = run_rep(workload, seed, check, trace_now)
            (traced if trace_now else reps).append(rep)
            # Operations of this repetition, as far as they are known.
            ops = len((rep.record or reference or {"ops": [None]})["ops"])
            attempted += ops
            if rep.error is not None:
                print(rep.error, file=sys.stderr)
                failed += ops
                break
            failed += len(mismatches)
            for line in mismatches[:20]:
                print(f"mismatch: {line}", file=sys.stderr)
            print(json.dumps({
                "rep": len(reps) + len(traced), "traced": trace_now,
                "wall_s": round(rep.wall_s, 4), "setup_s": round(rep.setup_s, 4),
                "calibration_s": round(rep.calibration_s, 5),
                "mismatches": len(mismatches),
            }), flush=True)
            if args.write_reference:
                if len(reps) == 2:
                    break
            elif args.trace == 0:
                typical = statistics.median(r.wall_s for r in reps)
                if len(reps) >= MIN_REPS and time.perf_counter() + typical > deadline:
                    break
            elif traced:
                typical = statistics.median(r.wall_s for r in traced)
                if time.perf_counter() + typical > deadline:
                    break

    errored = any(r.error is not None for r in reps + traced)
    correct = failed == 0 and not errored
    if reference is None and correct:
        digests = {k: first[0][k] for k in ("stream_digest", "rows_sha256", "sim_syscalls", "sim_syscalls_after_setup")}
        print(json.dumps({"unreferenced_seed": seed, "digests": digests}), flush=True)
    if args.write_reference:
        if not correct:
            print("perfbench: repetitions disagree; reference not written", file=sys.stderr)
        else:
            write_reference(workload, seed, reps[0].record)
            print(f"perfbench: wrote {reference_path(workload.name)} seed {seed}", file=sys.stderr)

    metrics: Dict[str, Dict[str, Any]] = {}
    if not errored:
        metrics = end_to_end(reps) if args.trace == 0 else traced_metrics(reps[0], traced)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def end_to_end(reps: List[Rep]) -> Dict[str, Dict[str, Any]]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": statistics.median(r.wall_s * r.scale for r in reps), "unit": "s"},
        "setup_s": {"value": statistics.median(r.setup_s * r.scale for r in reps), "unit": "s"},
        "sim_syscalls_per_s": {
            "value": statistics.median(r.throughput for r in reps), "unit": "1/s",
        },
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def traced_metrics(untraced: Rep, traced: List[Rep]) -> Dict[str, Dict[str, Any]]:
    from instrument import PER_LAYER

    overhead = statistics.fmean(r.wall_s * r.scale for r in traced) / (
        untraced.wall_s * untraced.scale
    )
    return {
        name: {
            "value": overhead if name == "trace_overhead"
            else statistics.fmean(r.layers[name] for r in traced),
            "unit": unit,
        }
        for name, unit in PER_LAYER
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
