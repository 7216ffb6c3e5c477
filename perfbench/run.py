"""The repository benchmark: four workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-lm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--workload all`` runs each workload in a process of its own, so that
each one's ``peak_rss_mb`` is its own, and merges their results under
``<workload>.<metric>`` names.

``--trace 0`` measures the end-to-end metrics listed in
``BENCHMARK.json`` (``setup_s``: the median over fresh processes of the
time from the process's first line to the end of its warm-up, that is
to its first timed op, in reference-host seconds; ``work_per_ref_s``;
``peak_rss_mb``) and
prints them under each workload's own names, with the figures that are
printed but not gated: ``samples_per_s``, ``job_steps_per_s`` or
``certified_jobs_per_s`` (work per wall second), the median and tail wall
time of one op (``step_ms_p50``/``step_ms_tail``, ``fleet_ms_*``,
``cell_ms_*``, with the sample count), ``final_loss`` and
``failed_ratio``.  ``work_per_ref_s`` is the same work per
reference-host second: timed wall time is rescaled by a host-speed
probe sampled ten times a second (``workloads.HostClock``), so that the
shared host's swings in speed do not show as changes in the program,
and each timed region counts with its median over the run's cycles;
``setup_s`` is rescaled the same way, and both are printed in wall
seconds too.  ``--trace 1`` runs half the time untraced and half
traced, and prints the per-layer metrics of ``layers.py``: counts and
times per layer, each layer's self-time share, the tracing overhead
and, for the training workloads, a world-1 uncompressed baseline.
Spans go to ``.bench_out/``.

Every run first prints a ``stamp`` line (commit, source digest, host,
Python and numpy versions, CPU count, BLAS threads, the time of the
workload's host-speed probe) so results from different hosts can be
normalised.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when one failed and 2 when the program
cannot be found.
"""

import time

#: when this process started running the benchmark's code
STARTED = time.perf_counter()

import os  # noqa: E402

# Pin BLAS/OpenMP to one thread before numpy is imported anywhere: two
# BLAS threads on a two-core host widened the train-lm spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import datetime  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from layers import PER_LAYER, PREDICTIONS, layer_metrics  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (WORKLOADS, HostClock, Measured,  # noqa: E402
                       TrainWorkload, calibrate, measure, untraced)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: fresh processes whose set-up is timed for ``setup_s``
SETUP_REPEATS = 7
#: percentiles tried, highest first, for the tail latency
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (("setup_s", "s"), ("work_per_ref_s", "1/s"),
              ("peak_rss_mb", "MB"))


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile in
    ``TAIL_PERCENTILES`` with at least ten samples beyond it; the
    maximum (percentile 100) when none has."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return 100.0, max(values)


def stamp(probe: str) -> dict:
    """Where and on what code a result was measured."""
    import numpy

    calibration = statistics.median(calibrate(probe) for _ in range(25))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
        "host": platform.node(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "calibration_ms": {probe: round(calibration * 1e3, 4)},
        "utc": datetime.datetime.now(datetime.timezone.utc)
                                .isoformat(timespec="seconds"),
    }


def _git_commit() -> str | None:
    """HEAD's commit id (None outside a clone).  The ceiling keeps git
    from taking the commit of a repository the checkout sits in."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree_digest(root: str) -> str:
    """sha256 over the paths and bytes of every ``.py`` file under root."""
    sha = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                sha.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:16]


def setup_seconds(name: str, seed: int) -> list[dict]:
    """Set-up times of fresh processes, each measured by the process
    itself from its first line to the end of its warm-up, in wall and
    in reference-host seconds (``setup_s``)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--setup-only", "--workload", name,
                               "--seed", str(seed)], check=True,
                              timeout=120, capture_output=True, text=True)
        times.append(json.loads(proc.stdout.splitlines()[-1]))
    return times


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def end_to_end(workload, out, setup: list[dict]) -> tuple[dict, list[str]]:
    """The ``BENCHMARK.json`` metrics plus the workload's own names."""
    op_ms = [s * 1e3 for s in out.op_s]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "work_per_ref_s": out.work / out.ref_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    pct, tail_ms = tail(op_ms)
    lines = [f"  setup_s        {values['setup_s']:.4f} s  (reference-host "
             f"s, median of {len(setup)} fresh set-ups and warm-ups; wall "
             + ", ".join(f"{s['wall_s']:.3f}" for s in setup) + ")"]
    rate = {"step": "samples_per_s", "fleet": "job_steps_per_s",
            "cell": "certified_jobs_per_s"}[workload.op_kind]
    lines.append(f"  {rate:<14} {out.work / out.wall_s:.4f} /s  "
                 f"({out.work:g} {workload.work_unit} in "
                 f"{out.wall_s:.2f} s)")
    lines.append(f"  work_per_ref_s {values['work_per_ref_s']:.4f} /s  "
                 f"({out.ref_s():.2f} reference-host s: "
                 f"each timed region's median over {len(out.cycles)} cycles)")
    op = workload.op_kind
    lines.append(f"  {op}_ms_p50{'':<{6 - len(op)}} "
                 f"{statistics.median(op_ms):.4f} ms  ({len(op_ms)} {op}s)")
    lines.append(f"  {op}_ms_tail{'':<{5 - len(op)}} {tail_ms:.4f} ms  "
                 f"(p{pct:g} of {len(op_ms)} {op}s)")
    if workload.op_kind == "step":
        lines.append(f"  final_loss     {out.cycles[-1]['losses'][-1]:.6f}  "
                     f"(after {workload.steps} steps)")
    lines.append(f"  peak_rss_mb    {values['peak_rss_mb']:.1f} MB")
    lines.append(f"  failed_ratio   {out.failed / out.attempted:g}  "
                 f"({out.failed} of {out.attempted} {op}s)")
    return values, lines


def traced_run(workload, state, seconds: float, reference: dict,
               seed: int) -> tuple[dict, list, list[str]]:
    """Untraced half, traced half, baseline; returns per-layer values."""
    plain = measure(workload, state, seconds / 2, reference)
    tracer = Tracer()
    wrapped = tracer.install()
    workload.instrument(state, tracer)
    try:
        traced = measure(workload, state, seconds / 2, reference, tracer)
    finally:
        tracer.uninstall()
    baseline = (0.0, 0.0)
    if isinstance(workload, TrainWorkload):
        single = Measured()
        workload.episode(state, single, untraced, world=1, uncompressed=True)
        baseline = (single.work / single.wall_s,
                    single.cycles[0]["losses"][-1])
    per_unit = [m.wall_s / m.work for m in (plain, traced)]
    overhead = (per_unit[1] / per_unit[0] - 1) * 100
    values = layer_metrics(workload.op_kind, tracer.kinds, len(traced.op_s),
                           traced.counters, traced.wall_s, overhead, baseline)
    _write_spans(workload.name, seed, tracer)
    lines = [f"  traced {wrapped} callables; untraced "
             f"{plain.work / plain.wall_s:.4f} vs traced "
             f"{traced.work / traced.wall_s:.4f} {workload.work_unit}/s "
             f"(overhead {overhead:.1f}%)",
             "  self-time share: " + ", ".join(
                 f"{layer} {values[f'share.{layer}']:.1f}%"
                 for layer in LAYERS + ("other",))]
    if baseline[0]:
        lines.append(f"  baseline world 1, uncompressed: {baseline[0]:.4f} "
                     f"samples/s, final loss {baseline[1]:.6f}")
    lines += [f"  {metric:<30} {values[metric]:.6g} {unit}"
              for metric, unit in PER_LAYER]
    lines += [f"  predicts {metrics}: {text}"
              for metrics, text in PREDICTIONS.items()]
    return values, [plain, traced], lines


def _write_spans(name: str, seed: int, tracer) -> None:
    """Chrome-trace JSON of the traced phase's spans (Perfetto-readable)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    events = [{"name": span[0], "ph": "X", "pid": 1, "tid": 1,
               "ts": span[1] * 1e6, "dur": (span[2] - span[1]) * 1e6,
               "args": {"parent": span[3], "op": span[4]}}
              for span in tracer.spans if span[2] is not None]
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json")
    with open(path, "w") as handle:
        json.dump({"traceEvents": events}, handle)


def run_one(name: str, seed: int, seconds: float, trace: bool,
            reference: dict) -> tuple[dict, int, int]:
    """One workload: (metrics, attempted, failed)."""
    workload = WORKLOADS[name]
    setup = [] if trace else setup_seconds(name, seed)
    state = workload.setup(seed)
    start = time.perf_counter()
    workload.warmup(state)
    warmup = time.perf_counter() - start
    print(f"workload {name}  seed {seed}  {workload.why}")
    if trace:
        values, phases, lines = traced_run(workload, state, seconds,
                                           reference, seed)
        units = dict(PER_LAYER)
    else:
        out = measure(workload, state, seconds, reference)
        values, lines = end_to_end(workload, out, setup)
        phases, units = [out], dict(END_TO_END)
    print(f"  warm-up        {warmup:.3f} s (untimed)")
    for line in lines:
        print(line)
    failures = [msg for phase in phases for msg in phase.failures]
    for message in failures:
        print(f"  FAILED CHECK   {message}")
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in units.items()}
    return (metrics, sum(p.attempted for p in phases),
            sum(p.failed for p in phases))


def run_each(args) -> int:
    """``--workload all``: every workload in a child process of its own."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        output, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        if proc.returncode not in (0, 1):
            print(proc.stdout, end="")
            return proc.returncode
        print(output, flush=True)
        result = json.loads(last)
        metrics.update({f"{name}.{metric}": value
                        for metric, value in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="train-lm, train-ddp, fleet, certify or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_each(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        with HostClock(workload.probe) as clock:
            # the time so far, from the first line, counts as set-up too,
            # at the rate the clock measures for the rest
            lead = time.perf_counter() - STARTED
            _, elapsed, ref = clock.time(
                lambda: workload.warmup(workload.setup(args.seed)))
        print(json.dumps({"setup_s": lead * ref / elapsed + ref,
                          "wall_s": lead + elapsed}))
        return 0
    print("stamp " + json.dumps(stamp(workload.probe), sort_keys=True),
          flush=True)
    metrics, attempted, failed = run_one(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         load_reference())
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
