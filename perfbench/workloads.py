"""The benchmark's workloads, each a call into a public experiment API.

Every workload runs with the trial cache off and ``jobs=1`` in this one
process and thread.  Each is closed-loop: a simulated process issues its
next syscall only when the previous one has completed, because that is
how the kernel's scheduler drives process bodies.

One *operation* is one trial of a sweep, or one client of the arena; the
output check compares operations one by one against the committed
reference.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.experiments import ablations, arena, figures, robustness


@dataclass(frozen=True)
class Workload:
    name: str
    module: Any
    driver: str
    default_seed: int
    params: Dict[str, Any] = field(default_factory=dict)

    def run(self, seed: int) -> Any:
        return getattr(self.module, self.driver)(seed=seed, **self.params)

    def config(self) -> Dict[str, Any]:
        """What the workload runs: driver, arguments and driver defaults."""
        fn = getattr(self.module, self.driver)
        defaults = {
            name: param.default
            for name, param in inspect.signature(fn).parameters.items()
            if param.default is not inspect.Parameter.empty
        }
        return {
            "workload": self.name,
            "driver": f"{self.module.__name__}.{self.driver}",
            "params": self.params,
            "driver_defaults": defaults,
        }

    def config_hash(self) -> str:
        return sha256_json(self.config())[:16]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("arena-1024", arena, "run_arena", arena.ARENA_SEED, {"n": 1024}),
        # Two trials per cell, not the default three: one repetition then
        # takes ~6 s, so a 30 s run holds five (see README.md, "Steadiness").
        Workload("noise-sweep", robustness, "robustness_noise_sweep", 59, {"trials": 2}),
        Workload(
            "sort-mac", figures, "fig7_sort_mac", 71,
            {"static_pass_mb": [60, 130], "trials": 1},
        ),
        Workload("refresh-churn", ablations, "ablation_refresh_policy", 107, {"epochs": 80}),
    )
}


def sha256_json(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def outputs(result: Any, trial_values: List[Any], syscalls: int, after_setup: int) -> Dict[str, Any]:
    """The simulated outputs of one run, in comparable form.

    ``ops`` holds one hash per operation (arena client row, or sweep
    trial value); ``rows`` is the public result table itself.
    """
    rows = result.rows
    arena_run = hasattr(result, "digest")  # an ArenaReport
    ops = rows if arena_run else trial_values
    return {
        "ops": [sha256_json(op)[:16] for op in ops],
        "stream_digest": result.digest if arena_run else None,
        "rows_sha256": sha256_json(rows),
        "sim_syscalls": syscalls,
        "sim_syscalls_after_setup": after_setup,
        "rows": rows,
    }


#: The fields of an output record compared between runs.
CHECKED = ("ops", "stream_digest", "rows_sha256", "sim_syscalls", "sim_syscalls_after_setup")


def compare(got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """Mismatches between two output records; one entry per failed operation.

    A whole-run field that differs while every operation matches still
    fails the run, as one mismatch.
    """
    got_ops, want_ops = got["ops"], want["ops"]
    mismatches = [
        f"operation {index}: {a} != {b}"
        for index, (a, b) in enumerate(
            zip(got_ops + [None] * len(want_ops), want_ops + [None] * len(got_ops))
        )
        if a != b
    ]
    if not mismatches:
        for key in CHECKED[1:]:
            if got[key] != want[key]:
                mismatches.append(f"{key}: {got[key]} != {want[key]}")
                break
    return mismatches
