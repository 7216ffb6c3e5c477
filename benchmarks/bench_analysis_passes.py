"""Extension: wall-time budget of the static-analysis suite.

CI runs ``python -m repro.analysis --all`` on every push, so the suite's
cost is part of the development loop: this benchmark times each of the
eleven passes individually, measures the schedule simulator's throughput
(trace events generated per second across the liveness battery), and
persists both a human-readable table and a machine-readable
``BENCH_analysis.json`` for tooling to ratchet against.  The payload is
stamped with the commit, a digest of the measured source tree, the
Python and numpy versions and the host, so numbers from different hosts
or trees are never compared blind.

To record a before/after pair, run the benchmark on the old tree first
(``PYTHONPATH=<old checkout>/src``), keep its ``BENCH_analysis.json``
aside, then run it on the new tree with ``BENCH_ANALYSIS_BEFORE`` naming
the kept file: its stamp and per-pass seconds land under ``"before"``.
"""

import json
import os
import time

from common import (RESULTS_DIR, earlier_run, emit, format_table, run_once,
                    stamp)

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_analysis.json")


def _timed_passes() -> dict[str, float]:
    """Wall-time per analysis pass, in seconds, in CI execution order."""
    import repro
    from repro.analysis.contracts import verify_contracts
    from repro.analysis.elastic import verify_elastic
    from repro.analysis.health import verify_health
    from repro.analysis.liveness import verify_liveness
    from repro.analysis.overlap import verify_overlap
    from repro.analysis.plans import verify_plans
    from repro.analysis.races import verify_races
    from repro.analysis.rules import run_lint
    from repro.analysis.sched import verify_sched
    from repro.analysis.schedule import verify_schedules
    from repro.analysis.shapes import verify_shapes
    from repro.faults.validate import (verify_crc_detection,
                                       verify_fault_determinism,
                                       verify_fault_schedules)

    # lint the tree being measured, which PYTHONPATH may point elsewhere
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    passes = {
        "lint": lambda: run_lint([src]),
        "schedule": verify_schedules,
        "contracts": lambda: (verify_contracts() + verify_crc_detection()
                              + verify_fault_determinism()),
        "races": lambda: verify_races() + verify_fault_schedules(),
        "plans": verify_plans,
        "shapes": verify_shapes,
        "health": verify_health,
        "liveness": verify_liveness,
        "overlap": verify_overlap,
        "sched": verify_sched,
        "elastic": verify_elastic,
    }
    timings = {}
    for name, battery in passes.items():
        start = time.perf_counter()
        findings = battery()
        timings[name] = time.perf_counter() - start
        assert findings == [], f"{name} pass not clean: {findings[:3]}"
    return timings


def _simulator_throughput() -> dict[str, float]:
    """Events/sec of the schedule simulator across the liveness battery."""
    from repro.faults.cases import liveness_cases, trace_liveness_case

    events = 0
    start = time.perf_counter()
    for case in liveness_cases():
        trace, _ = trace_liveness_case(case)
        events += len(trace.events)
    seconds = time.perf_counter() - start
    return {"events": float(events), "seconds": seconds,
            "events_per_sec": events / seconds if seconds else 0.0}


def analysis_passes():
    timings = _timed_passes()
    sim = _simulator_throughput()
    return timings, sim


def test_bench_analysis_passes(benchmark):
    timings, sim = run_once(benchmark, analysis_passes)
    total = sum(timings.values())
    before = earlier_run("BENCH_ANALYSIS_BEFORE",
                         ("stamp", "passes", "total_seconds"))
    earlier = before["passes"] if before else {}

    def was(name: str) -> str:
        return f"{earlier[name]['seconds']:.3f}" if name in earlier else "-"

    rows = [[name, f"{seconds:.3f}", f"{100 * seconds / total:.1f}%",
             was(name)] for name, seconds in timings.items()]
    rows.append(["total", f"{total:.3f}", "100.0%",
                 f"{before['total_seconds']:.3f}" if before else "-"])
    emit("analysis_passes", format_table(
        "Static-analysis suite wall time (python -m repro.analysis --all)",
        ["pass", "seconds", "share", "before"], rows,
        note=(f"simulator: {sim['events']:.0f} trace events in "
              f"{sim['seconds']:.3f}s across the liveness battery "
              f"({sim['events_per_sec']:,.0f} events/sec)")))

    payload = {
        "version": 2,
        "stamp": stamp(),
        "passes": {name: {"seconds": seconds}
                   for name, seconds in timings.items()},
        "total_seconds": total,
        "simulator": sim,
    }
    if before is not None:
        payload["before"] = before
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert set(payload["passes"]) == {
        "lint", "schedule", "contracts", "races", "plans", "shapes",
        "health", "liveness", "overlap", "sched", "elastic"}
    assert sim["events"] > 0 and sim["events_per_sec"] > 0
