"""Command-line entry point: run any reproduced experiment by name.

Usage::

    python -m repro list
    python -m repro fig2
    python -m repro fig7 table1 ablation-threshold
    python -m repro run --all
    python -m repro all --jobs 4
    python -m repro fig1 --jobs 8 --no-cache
    python -m repro fig5 --cache-dir /tmp/repro-cache
    python -m repro observe scan --out observe-scan.jsonl
    python -m repro fig2 --metrics-out fig2-metrics.jsonl
    python -m repro arena --n 64 --out arena.jsonl --report arena.json
    python -m repro arena --sweep 1,8,64,1024 --policy weighted

Trials fan out over a process pool (``--jobs N``) and completed trials
are cached on disk (default ``.repro-cache/``, or ``$REPRO_CACHE_DIR``;
``--no-cache`` disables, ``--cache-dir`` relocates).  Re-running an
unchanged experiment is instant; per-experiment trial telemetry is
printed to stderr.

``observe <scenario>`` runs one always-instrumented scenario (``scan``,
``fldc``, ``mac``, ``contention``) and dumps every metric, event, and
span as JSONL; ``--chrome-trace FILE`` additionally writes a
Perfetto-loadable Chrome trace of the run; ``--metrics-out FILE``
writes the runner telemetry and per-trial metric samples of any
figure/ablation run to JSONL for offline analysis.

``arena`` interleaves N gray-box tenants on one shared kernel
(:mod:`repro.experiments.arena`): ``--n N`` runs one arena and prints
the per-client fairness/accuracy/throughput report (``--out`` dumps the
attributed obs stream as JSONL, ``--report`` the report as JSON);
``--sweep N,N,...`` (or ``--sweep default`` for 1→1024) prints the
contention sweep table.

``channels`` transmits a framed payload over a covert channel between
two arena tenants (:mod:`repro.experiments.channels`) and reports
bandwidth and bit-error rate — ``--channel residency|writeback|both``,
``--noise L`` for the injector ladder, ``--n-background K`` for cache
pressure, ``--sweep`` for the channel x platform x noise grid.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Dict, List

from repro.experiments import runner
from repro.experiments.ablations import (
    ablation_mac_increment,
    ablation_probe_placement,
    ablation_refresh_policy,
    ablation_threshold_vs_sort,
    lfs_ordering_experiment,
)
from repro.experiments.figures import (
    fig1_probe_correlation,
    fig2_single_file_scan,
    fig3_applications,
    fig4_multi_platform,
    fig5_file_ordering,
    fig6_aging_refresh,
    fig7_sort_mac,
    mac_available_memory,
)
from repro.experiments.robustness import robustness_noise_sweep
from repro.experiments.tables import table1_prior_systems, table2_case_studies

EXPERIMENTS: Dict[str, Callable] = {
    "fig1": fig1_probe_correlation,
    "fig2": fig2_single_file_scan,
    "fig3": fig3_applications,
    "fig4": fig4_multi_platform,
    "fig5": fig5_file_ordering,
    "fig6": fig6_aging_refresh,
    "fig7": fig7_sort_mac,
    "mac-available": mac_available_memory,
    "table1": table1_prior_systems,
    "table2": table2_case_studies,
    "ablation-probe-placement": ablation_probe_placement,
    "ablation-threshold": ablation_threshold_vs_sort,
    "ablation-mac-increment": ablation_mac_increment,
    "ablation-refresh-policy": ablation_refresh_policy,
    "extension-lfs": lfs_ordering_experiment,
    "robustness": robustness_noise_sweep,
    # Single-domain ablations: attribute an accuracy (or covert-channel
    # capacity) loss to one defensive knob at a time.
    "robustness-latency": lambda: robustness_noise_sweep(domain="latency"),
    "robustness-faults": lambda: robustness_noise_sweep(domain="faults"),
    "robustness-sched": lambda: robustness_noise_sweep(domain="sched"),
    "robustness-background": lambda: robustness_noise_sweep(domain="background"),
}

USAGE = (
    "usage: python -m repro <name> [<name> ...] [--jobs N] [--no-cache]"
    " [--cache-dir DIR] [--plot] [--metrics-out FILE]\n"
    "       python -m repro observe [scan|fldc|mac|contention]"
    " [--out FILE] [--chrome-trace FILE]\n"
    "       python -m repro arena [--n N | --sweep N,N,...]"
    " [--policy round-robin|weighted|random] [--seed S]\n"
    "                             [--mix kind=w,...] [--out FILE]"
    " [--report FILE]\n"
    "       python -m repro channels [--channel residency|writeback|both]"
    " [--noise L] [--n-background K]\n"
    "                                [--platform P] [--bits N] [--sweep]"
    " [--out FILE] [--report FILE]"
)


def _print_stats(stats_list) -> None:
    for stats in stats_list:
        print(f"[runner] {stats.summary()}", file=sys.stderr, flush=True)


def main(argv) -> int:
    args = list(argv[1:])
    # ``channels`` owns its own flag grammar (bare --sweep, --n-background),
    # which the generic option loop below would misparse — delegate whole.
    if args and args[0] == "channels":
        from repro.experiments.channels import cli_main

        return cli_main(args[1:])
    plot = False
    jobs = 1
    use_cache = True
    cache_dir = None
    metrics_out = None
    out_path = None
    chrome_trace = None
    arena_n = None
    arena_sweep_arg = None
    arena_policy = "round-robin"
    arena_seed = None
    arena_mix = None
    report_path = None
    names: List[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("-h", "--help"):
            print(USAGE)
            return 0
        elif arg == "--plot":
            plot = True
        elif arg == "--no-cache":
            use_cache = False
        elif arg in ("--jobs", "--cache-dir", "--metrics-out", "--out",
                     "--chrome-trace", "--n", "--sweep", "--policy",
                     "--seed", "--mix", "--report"):
            if i + 1 >= len(args):
                print(f"{arg} needs a value", file=sys.stderr)
                print(USAGE, file=sys.stderr)
                return 2
            value = args[i + 1]
            i += 1
            if arg == "--jobs":
                try:
                    jobs = int(value)
                except ValueError:
                    jobs = 0
                if jobs < 1:
                    print("--jobs needs a positive integer", file=sys.stderr)
                    return 2
            elif arg == "--cache-dir":
                cache_dir = value
            elif arg == "--metrics-out":
                metrics_out = value
            elif arg == "--chrome-trace":
                chrome_trace = value
            elif arg == "--n":
                arena_n = value
            elif arg == "--sweep":
                arena_sweep_arg = value
            elif arg == "--policy":
                arena_policy = value
            elif arg == "--seed":
                arena_seed = value
            elif arg == "--mix":
                arena_mix = value
            elif arg == "--report":
                report_path = value
            else:
                out_path = value
        elif arg.startswith("--metrics-out="):
            metrics_out = arg.split("=", 1)[1]
        elif arg.startswith("--out="):
            out_path = arg.split("=", 1)[1]
        elif arg.startswith("--chrome-trace="):
            chrome_trace = arg.split("=", 1)[1]
        elif arg.startswith("--jobs="):
            try:
                jobs = int(arg.split("=", 1)[1])
            except ValueError:
                jobs = 0
            if jobs < 1:
                print("--jobs needs a positive integer", file=sys.stderr)
                return 2
        elif arg.startswith("--cache-dir="):
            cache_dir = arg.split("=", 1)[1]
        elif arg.startswith("-"):
            print(f"unknown option {arg}", file=sys.stderr)
            print(USAGE, file=sys.stderr)
            return 2
        else:
            names.append(arg)
        i += 1

    # `run` is an alias so `python -m repro run --all` reads naturally.
    if names and names[0] == "run":
        names = names[1:] or ["all"]
    if "--all" in names:
        names = [n for n in names if n != "--all"] or ["all"]

    if names and names[0] == "arena":
        from repro.experiments.arena import (
            ARENA_SEED,
            DEFAULT_MIX,
            SWEEP_NS,
            arena_sweep,
            render_sweep,
            run_arena,
        )
        from repro.sim.arena import POLICIES

        if arena_policy not in POLICIES:
            print(
                f"unknown policy {arena_policy!r}"
                f" (choose from {', '.join(POLICIES)})",
                file=sys.stderr,
            )
            return 2
        try:
            seed = int(arena_seed, 0) if arena_seed is not None else ARENA_SEED
        except ValueError:
            print("--seed needs an integer", file=sys.stderr)
            return 2
        mix = arena_mix or DEFAULT_MIX
        try:
            if arena_sweep_arg is not None:
                ns = (
                    SWEEP_NS
                    if arena_sweep_arg == "default"
                    else tuple(
                        int(part) for part in arena_sweep_arg.split(",") if part
                    )
                )
                reports = arena_sweep(ns, policy=arena_policy, seed=seed, mix=mix)
                print(render_sweep(reports))
            else:
                n = int(arena_n) if arena_n is not None else 8
                report = run_arena(
                    n,
                    policy=arena_policy,
                    seed=seed,
                    mix=mix,
                    out_path=out_path,
                    report_path=report_path,
                )
                print(report.render())
        except ValueError as exc:
            print(f"arena: {exc}", file=sys.stderr)
            return 2
        return 0

    if names and names[0] == "observe":
        from repro.experiments.observe import SCENARIOS, observe_figure

        scenarios = names[1:] or ["scan"]
        unknown = [s for s in scenarios if s not in SCENARIOS]
        if unknown:
            print(
                f"unknown scenario(s): {', '.join(unknown)}"
                f" (choose from {', '.join(SCENARIOS)})",
                file=sys.stderr,
            )
            return 2
        for scenario in scenarios:
            if out_path is not None and len(scenarios) == 1:
                dest = out_path
            else:
                dest = f"observe-{scenario}.jsonl"
            if chrome_trace is not None and len(scenarios) == 1:
                chrome_dest = chrome_trace
            elif chrome_trace is not None:
                chrome_dest = f"observe-{scenario}.trace.json"
            else:
                chrome_dest = None
            report = observe_figure(scenario, out_path=dest,
                                    chrome_trace=chrome_dest)
            print(report.render())
            print()
        return 0

    if not names or names == ["list"]:
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  all")
        print("  observe")
        print("  arena")
        print("  channels")
        print(f"\n{USAGE}")
        return 0 if names else 2
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("run `python -m repro list` for the catalogue", file=sys.stderr)
        return 2

    all_stats = []
    with runner.configuration(jobs=jobs, use_cache=use_cache, cache_dir=cache_dir):
        runner.drain_stats()
        for name in names:
            result = EXPERIMENTS[name]()
            print(result.render())
            stats = runner.drain_stats()
            all_stats.extend(stats)
            _print_stats(stats)
            if plot:
                from repro.experiments.viz import plot_figure

                chart = plot_figure(result)
                if chart:
                    print()
                    print(chart)
            print()
    if metrics_out is not None:
        from repro.obs.export import run_stats_records, write_jsonl

        count = write_jsonl(Path(metrics_out), run_stats_records(all_stats))
        print(
            f"[metrics] wrote {count} record(s) to {metrics_out}",
            file=sys.stderr,
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
