"""Arena scalability: per-step cost and determinism as N grows 1 → 1024.

Unlike the figure benchmarks (which reproduce the paper), this suite
times the multi-tenant arena (:mod:`repro.sim.arena`) — the quantity the
resumable-client refactor exists to bound:

* **per-step dispatch cost** — host nanoseconds per kernel step with
  the arena interleaving N clients, for N ∈ {1, 64, 1024} (smoke stops
  at 64).  The grant path is a binary heap plus O(1) park/wake, so the
  cost of a step must not grow with the number of tenants; the gate
  allows 3× headroom over N=1 before failing.
* **fixed-seed digests** — the sha256 obs-stream digest of every sized
  run (:func:`repro.obs.export.stream_digest`).  Simulated time has no
  host dependence, so the digest for a given (N, seed, mix, policy) is
  a machine-independent constant; ``--check`` fails if any digest
  drifts from the committed baseline — the determinism pin for "same
  seed ⇒ byte-identical obs stream".

Run standalone to (re)generate the tracked baseline::

    PYTHONPATH=src python benchmarks/bench_arena.py             # full
    PYTHONPATH=src python benchmarks/bench_arena.py --smoke     # quick
    PYTHONPATH=src python benchmarks/bench_arena.py --smoke \
        --check BENCH_arena.json      # CI regression gate

Results land in ``BENCH_arena.json`` at the repo root (override with
``--output``).  ``--check`` gates the per-step growth ratio absolutely
(machine-independent headroom, not a throughput ratchet) and the
digests exactly; only Ns present in both runs are compared, so a smoke
check against the committed full baseline still pins N=1 and N=64.

Under pytest this module contributes smoke tests asserting the same
two properties at N=64.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.arena import (
    ARENA_SEED,
    DEFAULT_MIX,
    _setup_machine,
    arena_config,
    build_specs,
)
from repro.obs.export import stream_digest
from repro.sim import Kernel
from repro.sim.arena import Arena, make_policy

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_arena.json"

FULL_NS = (1, 64, 1024)
SMOKE_NS = (1, 64)

#: Per-step cost at the largest N may be at most this multiple of the
#: per-step cost at N=1.  The interleaver's per-grant work is O(log N)
#: (one heap pop/push), so the measured ratio sits near 1; 3× is the
#: acceptance headroom before "scales to N tenants" is considered broken.
STEP_COST_CEILING = 3.0

#: Each N is rerun until its timed run phases add up to at least this
#: many seconds, and ns/step is total time over total steps.  The N=1
#: arena retires 60 steps in a few milliseconds, so a single shot (or a
#: best-of-a-few) is timer noise next to a multi-second N=1024 run.
MIN_TIMED_S = 0.5

#: At least this many runs per N, so the determinism check always has
#: two digests to compare.
MIN_REPS = 2


def _run_arena_timed(n: int, seed: int = ARENA_SEED) -> Tuple[float, int, str]:
    """One arena run; returns (run-phase seconds, steps, digest).

    Machine setup (file creation, cache flush) happens outside the timed
    region — the gate is about the interleaver's dispatch cost, not
    mkfs.
    """
    config = arena_config()
    specs = build_specs(n, seed, config, DEFAULT_MIX)
    kernel = Kernel(config, event_capacity=max(100_000, 512 * n))
    _setup_machine(kernel, specs)
    arena = Arena(kernel, policy=make_policy("round-robin"), seed=seed)
    for spec in specs:
        arena.add_client(
            spec.name,
            lambda client, _spec=spec: _spec.body(client, kernel, True),
            kind=spec.kind,
            weight=spec.weight,
            quantum=spec.quantum,
        )
    t0 = time.perf_counter()
    arena.run()
    elapsed = time.perf_counter() - t0
    digest = stream_digest(kernel.obs.dump_records())
    return elapsed, arena.total_steps, digest


def bench_arena_size(n: int) -> Dict:
    """Per-step cost at one N over >= ``MIN_TIMED_S`` of runs, plus the digest."""
    total_s = 0.0
    total_steps = 0
    reps = 0
    digests = set()
    while reps < MIN_REPS or total_s < MIN_TIMED_S:
        elapsed, steps, digest = _run_arena_timed(n)
        digests.add(digest)
        total_s += elapsed
        total_steps += steps
        reps += 1
    return {
        "n": n,
        "steps": steps,
        "repetitions": reps,
        "ns_per_step": round(total_s * 1e9 / max(total_steps, 1), 1),
        "digest": digest,
        # Every repetition reruns the same seed; a run-to-run digest
        # split means nondeterminism and is gated even without --check.
        "deterministic": len(digests) == 1,
    }


def run_suite(smoke: bool = False) -> Dict:
    sizes = SMOKE_NS if smoke else FULL_NS
    by_n = {str(n): bench_arena_size(n) for n in sizes}
    smallest = by_n[str(sizes[0])]
    largest = by_n[str(sizes[-1])]
    ratio = largest["ns_per_step"] / max(smallest["ns_per_step"], 1e-9)
    return {
        "schema": 1,
        "smoke": smoke,
        "python": platform.python_version(),
        "seed": ARENA_SEED,
        "mix": DEFAULT_MIX,
        "results": {
            "by_n": by_n,
            "step_cost_ratio": {
                "n_small": sizes[0],
                "n_large": sizes[-1],
                "ratio": round(ratio, 3),
                "ceiling": STEP_COST_CEILING,
            },
        },
    }


def check_regression(current: Dict, baseline: Dict) -> List[str]:
    failures: List[str] = []
    ratio = current["results"]["step_cost_ratio"]
    if ratio["ratio"] > STEP_COST_CEILING:
        failures.append(
            f"per-step cost at N={ratio['n_large']} is {ratio['ratio']:.2f}x "
            f"N={ratio['n_small']} (ceiling {STEP_COST_CEILING}x)"
        )
    for entry in current["results"]["by_n"].values():
        if not entry["deterministic"]:
            failures.append(
                f"N={entry['n']}: digest varied across repetitions"
            )
    base_by_n = baseline.get("results", {}).get("by_n", {})
    if current.get("seed") == baseline.get("seed") and \
            current.get("mix") == baseline.get("mix"):
        for key, entry in current["results"]["by_n"].items():
            base = base_by_n.get(key)
            if base is None:
                continue
            if entry["digest"] != base["digest"]:
                failures.append(
                    f"N={entry['n']}: obs digest {entry['digest'][:16]}... "
                    f"!= baseline {base['digest'][:16]}... "
                    "(fixed-seed stream changed)"
                )
            if entry["steps"] != base["steps"]:
                failures.append(
                    f"N={entry['n']}: {entry['steps']} steps "
                    f"!= baseline {base['steps']} (schedule changed)"
                )
    return failures


def delta_table(current: Dict, baseline: Dict) -> str:
    rows = []
    base_by_n = baseline.get("results", {}).get("by_n", {})
    for key, entry in sorted(
        current["results"]["by_n"].items(), key=lambda kv: int(kv[0])
    ):
        base = base_by_n.get(key, {})
        rows.append(
            f"  N={entry['n']:>5}: {base.get('ns_per_step', '-'):>10} -> "
            f"{entry['ns_per_step']:>10} ns/step   "
            f"digest {'==' if entry['digest'] == base.get('digest') else '!='} baseline"
        )
    return "\n".join(rows)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="stop the sweep at N=64")
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"result file (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--check", type=Path, default=None, metavar="BASELINE",
        help="gate step-cost growth and fixed-seed digests against a baseline JSON",
    )
    args = parser.parse_args(argv)

    current = run_suite(smoke=args.smoke)
    for key, entry in current["results"]["by_n"].items():
        print(f"N={key}: {json.dumps(entry)}")
    print(f"step_cost_ratio: {json.dumps(current['results']['step_cost_ratio'])}")

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        failures = check_regression(current, baseline)
        print("\nbaseline -> current:")
        print(delta_table(current, baseline))
        if args.output.resolve() != args.check.resolve():
            args.output.write_text(json.dumps(current, indent=2) + "\n")
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("regression check passed")
        return 0

    args.output.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# pytest smoke tests: the acceptance targets
# ----------------------------------------------------------------------
def test_arena_step_cost_scales():
    small = bench_arena_size(1)
    large = bench_arena_size(64)
    assert small["deterministic"] and large["deterministic"]
    ratio = large["ns_per_step"] / max(small["ns_per_step"], 1e-9)
    assert ratio <= STEP_COST_CEILING, (
        f"per-step cost grew {ratio:.2f}x from N=1 to N=64 "
        f"(ceiling {STEP_COST_CEILING}x)"
    )


def test_arena_digest_matches_committed_baseline():
    if not DEFAULT_OUTPUT.exists():
        import pytest

        pytest.skip("no committed BENCH_arena.json")
    baseline = json.loads(DEFAULT_OUTPUT.read_text())
    entry = baseline["results"]["by_n"].get("64")
    if entry is None:
        import pytest

        pytest.skip("baseline has no N=64 entry")
    _elapsed, steps, digest = _run_arena_timed(64)
    assert digest == entry["digest"], "fixed-seed obs stream changed at N=64"
    assert steps == entry["steps"], "arena schedule changed at N=64"


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
