"""The benchmark's four workloads, their timed loops and their checks.

A workload builds its program objects from the workload seed (set-up),
runs untimed warm-up ops, then runs whole *cycles* of timed ops until
the run's seconds are used up.  A cycle is one unit of fixed work whose
outputs are deterministic for the seed, so every cycle of a run must
reproduce the first one bit for bit, and the first one must match the
stored per-seed reference (``reference.json``) when the seed has one:

* ``train-lm`` / ``train-ddp``: an episode -- build a fresh trainer,
  run ``steps`` synchronous ``train_step()`` calls (closed loop),
  evaluate once.  The op is one ``train_step()``.
* ``fleet``: ``FLEETS`` fleet simulations.  The op is one
  ``FleetSimulator(...).run()`` plus ``.metrics()``.
* ``certify``: the four SCD battery cells.  The op is one
  ``run_fleet_case`` plus ``certify_fleet``.

Program modules are imported inside the methods that call them: set-up
time then covers the imports each workload needs, and every call looks
its function up afresh, so the traced run's wrappers (installed after
set-up) are the ones that run.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import random
import signal
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["WORKLOADS", "HostClock", "Measured", "Workload", "calibrate",
           "measure", "digest", "untraced"]

#: untimed ``train_step()`` calls before the first timed op
WARMUP_STEPS = 2
#: largest distance of an episode's final loss from its seed's reference.
#: Scaling gelu's output by 1 + 1e-6 moves train-lm's final loss by at
#: most 8e-7 (seeds 0-3; train-ddp has no gelu and does not move), and
#: rewriting ``x**3`` as ``x * x * x`` does not move it at all, so
#: precision-level changes pass.  Data-path bugs move it by 1e-2 or more
#: on train-lm: QSGD decoding to zeros 0.22-0.31, a skipped optimizer
#: step 0.83-1.0, flipped QSGD signs 0.012-0.023.
LOSS_TOLERANCE = 5e-4
#: an episode must end at most this share of its first step's loss
LEARNED = 0.9
#: rounds of each host-speed probe (about 2-3 ms each here); the
#: numpy probe tracks the numpy-bound train-lm step, the python one
#: the other workloads, better than each other's
PROBE_ROUNDS = {"python": 20_000, "numpy": 60}
#: seconds each probe takes on the reference host (a 2-vCPU VM, Python
#: 3.11, numpy 2.4 on one BLAS thread); the unit of reference seconds
PROBE_REF_S = {"python": 0.0027, "numpy": 0.003}
#: seconds between two calibrations.  The host's speed swings by up to
#: 70% over 1-2 s windows (the same pure-Python loop, CPU time equal to
#: wall time), within single ops of a few seconds, so it is sampled ten
#: times a second by a timer rather than between ops.
SAMPLE_S = 0.1


def digest(payload: Any) -> str:
    """A short stable digest of bytes or of a JSON-able value's repr."""
    data = payload if isinstance(payload, bytes) else repr(payload).encode()
    return hashlib.sha256(data).hexdigest()[:16]


class _Attrs:
    scale = 1.5
    offset = 2.5


#: what the python probe reads
_TABLE = {key: float(key) for key in range(512)}
#: the numpy probe's operands, made on its first use
_ARRAYS: list = []


def calibrate(probe: str) -> float:
    """Seconds a fixed probe takes now: the host's speed for that kind
    of work.

    The ``python`` probe does what the simulators and the data path do
    most (attribute and dict reads, float arithmetic); the ``numpy`` one
    what the transformer's step does (a small matmul, elementwise
    polynomials and ``tanh``).  Neither allocates containers, so they do
    not move the program's garbage collections.
    """
    if probe == "numpy" and not _ARRAYS:
        import numpy

        rng = numpy.random.default_rng(0)
        _ARRAYS.extend((numpy.tanh, rng.standard_normal((64, 64)),
                        rng.standard_normal((32, 256))))
    start = time.perf_counter()
    if probe == "numpy":
        tanh, square, rows = _ARRAYS
        for _ in range(PROBE_ROUNDS[probe]):
            square @ square
            tanh(rows * rows * rows) + rows
    else:
        attrs, get, total = _Attrs, _TABLE.get, 0.0
        for i in range(PROBE_ROUNDS[probe]):
            total += attrs.scale * get(i & 511, 0.0) + attrs.offset
    return time.perf_counter() - start


class HostClock:
    """Times ops in wall seconds and, given a probe, reference seconds.

    With a probe, a ``SIGALRM`` timer interrupts the program every
    ``SAMPLE_S`` (between bytecodes, so inside ops too) to time
    ``calibrate(probe)``.  An op's wall time up to a sample is scaled by
    the probe's ``PROBE_REF_S`` over the mean of that calibration and
    the one before it, and its wall time after the last sample by the
    latest calibration; the calibrations' own time is taken out of the
    op they interrupted.  A slower program takes more reference
    seconds, a busier host does not.  Without a probe, reference
    seconds are wall seconds.
    """

    def __init__(self, probe: str | None = None):
        self.probe = probe
        self.ref = PROBE_REF_S[probe] if probe else 1.0
        self.calibration = self.ref
        self.op_start: float | None = None
        self.op_ref = 0.0           # reference s of the op's closed parts
        self.paused = 0.0           # wall s spent calibrating
        self.busy = False           # op bookkeeping must not be split
        self.deferred = False
        self.previous = None

    def __enter__(self) -> "HostClock":
        if self.probe:
            self.calibration = calibrate(self.probe)
            self.previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)

    def _sample(self, *_) -> None:
        if self.busy:
            self.deferred = True
            return
        self.deferred = False
        now = time.perf_counter()
        calibration = calibrate(self.probe)
        if self.op_start is not None:
            self.op_ref += ((now - self.op_start) * self.ref
                            / ((self.calibration + calibration) / 2))
        self.calibration = calibration
        after = time.perf_counter()
        self.paused += after - now
        if self.op_start is not None:
            self.op_start = after

    def time(self, fn: Callable, *args) -> tuple[Any, float, float]:
        """Run ``fn``; returns (result, wall s, reference s), both
        without the calibrations."""
        paused, self.op_ref = self.paused, 0.0
        start = self.op_start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self.busy = True
            end = time.perf_counter()
            ref = self.op_ref + ((end - self.op_start) * self.ref
                                 / self.calibration)
            self.op_start = None
            paused = self.paused - paused
            self.busy = False
            if self.deferred:
                self._sample()
        return result, end - start - paused, ref


@dataclass
class Measured:
    """What one measured phase produced."""

    op_s: list[float] = field(default_factory=list)    # wall s of each op
    wall_s: float = 0.0             # wall s of every timed region
    clock: HostClock = field(default_factory=HostClock)
    #: reference s of each timed region, one list per cycle
    regions: list[list[float]] = field(default_factory=list)
    work: float = 0.0               # work units completed
    cycles: list[dict] = field(default_factory=list)   # outputs per cycle
    counters: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.failures.append(message)

    def ref_s(self) -> float:
        """Reference seconds the completed cycles took, robustly: every
        cycle times the same regions in the same order, so each region
        counts with its median over the cycles, times the cycle count."""
        cycles = self.regions[:len(self.cycles)]
        return len(cycles) * sum(map(statistics.median, zip(*cycles)))


def rearrive(specs: list, mean_interarrival: float,
             rng: random.Random) -> list:
    """The same jobs with fresh Poisson arrival times drawn from ``rng``."""
    arrival = 0.0
    out = []
    for spec in specs:
        arrival += rng.expovariate(1.0 / mean_interarrival)
        out.append(dataclasses.replace(spec, arrival=arrival))
    return out


def untraced(kind: str):
    """The op context of an untraced phase."""
    return nullcontext()


def _timed(out: Measured, op: Callable, kind: str, fn: Callable, *args):
    """Run ``fn`` as one timed region; returns (result, seconds)."""
    def region():
        with op(kind):
            return fn(*args)

    result, elapsed, ref = out.clock.time(region)
    out.wall_s += elapsed
    if out.regions:
        out.regions[-1].append(ref)
    return result, elapsed


class Workload:
    """Base class: ``setup`` -> ``warmup`` -> cycles -> ``check``."""

    name: str
    why: str
    op_kind: str                    # tracer op kind of the main op
    work_unit: str                  # what ``work`` counts
    probe: str                      # the ``calibrate`` probe it follows

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def warmup(self, state: dict) -> None:
        raise NotImplementedError

    def cycle(self, state: dict, out: Measured, op: Callable) -> None:
        raise NotImplementedError

    def check(self, state: dict, out: Measured, reference: dict) -> None:
        raise NotImplementedError

    def instrument(self, state: dict, tracer) -> None:
        """Wrap per-instance callables the tracer cannot reach."""


def measure(workload: Workload, state: dict, seconds: float,
            reference: dict, tracer=None) -> Measured:
    """Run whole cycles for about ``seconds``, then check the outputs.

    A run stops once another cycle would end more than half a cycle
    past the deadline, so the work always comes in whole cycles.  An
    untraced run also measures its ops in reference-host seconds
    (``HostClock``); a traced one does not, so that no calibration lands
    in a layer's self time.
    """
    out = Measured(clock=HostClock(None if tracer else workload.probe))
    op = tracer.op if tracer is not None else untraced
    begin = time.perf_counter()
    with out.clock:
        while True:
            # Each cycle starts from a collected heap, untimed: a
            # cycle's trainers and fleets are garbage once it ends
            # (reference cycles keep them alive until a full collection),
            # and leaving them to the collector would tie peak memory and
            # the timing of later cycles to how many cycles fit in the run.
            gc.collect()
            out.regions.append([])
            try:
                workload.cycle(state, out, op)
            except Exception as exc:    # the op that raised counts failed
                out.fail(1, f"cycle {len(out.cycles)}: "
                            f"{type(exc).__name__}: {exc}")
                out.attempted = max(out.attempted, out.failed)
                break
            elapsed = time.perf_counter() - begin
            if elapsed * (1 + 0.5 / len(out.cycles)) >= seconds:
                break
    if out.cycles:
        workload.check(state, out, reference.get(workload.name, {}))
    return out


# -- train-lm / train-ddp -----------------------------------------------------

@dataclass(frozen=True)
class TrainWorkload(Workload):
    """Synchronous data-parallel training episodes (closed loop)."""

    name: str
    why: str
    family: str
    world: int
    bucket: int
    steps: int                      # train_step() calls per episode
    overlap: bool = False
    campaign: str | None = None
    supervised: bool = False
    probe: str = "python"
    op_kind: str = "step"
    work_unit: str = "samples"

    def setup(self, seed: int) -> dict:
        from repro.training import get_recipe, make_task

        recipe = get_recipe(self.family)
        task = make_task(self.family, batch_size=recipe.batch_size,
                         **recipe.kwargs())
        state = {"seed": seed, "recipe": recipe, "task": task}
        state["trainer"] = self.build(state)
        return state

    def build(self, state: dict, world: int | None = None,
              uncompressed: bool = False):
        """A fresh trainer; ``uncompressed`` gives the fp32 baseline."""
        from repro.compression import CompressionSpec
        from repro.core import CGXConfig
        from repro.faults import make_campaign
        from repro.training import DataParallelTrainer

        recipe, seed = state["recipe"], state["seed"]
        world = world or self.world
        if uncompressed:
            config = CGXConfig(compression=CompressionSpec("none"))
        else:
            config = CGXConfig.cgx_default(self.bucket)
        plan = None
        if self.campaign is not None and not uncompressed:
            plan = make_campaign(self.campaign, world=world, seed=seed)
        return DataParallelTrainer(
            state["task"], world_size=world, config=config, recipe=recipe,
            seed=seed, fault_plan=plan,
            supervised=self.supervised and not uncompressed,
            overlap=self.overlap)

    def warmup(self, state: dict) -> None:
        trainer = state.pop("trainer")
        for _ in range(WARMUP_STEPS):
            trainer.train_step()

    def instrument(self, state: dict, tracer) -> None:
        task = state["task"]
        tracer.wrap_attr(task, "sample_batch",
                         "training.tasks.Task.sample_batch")
        tracer.wrap_attr(task, "evaluate", "training.tasks.Task.evaluate")

    def samples_per_step(self, state: dict, world: int | None = None) -> int:
        return (world or self.world) * state["recipe"].batch_size

    def cycle(self, state: dict, out: Measured, op: Callable) -> None:
        self.episode(state, out, op)

    def episode(self, state: dict, out: Measured, op: Callable,
                world: int | None = None, uncompressed: bool = False) -> None:
        trainer, _ = _timed(out, op, "build", self.build, state, world,
                            uncompressed)
        losses, wire, packages = [], [], []
        for _ in range(self.steps):
            out.attempted += 1
            loss, elapsed = _timed(out, op, "step", trainer.train_step)
            out.op_s.append(elapsed)
            # the per-step report train() itself accumulates from
            report = trainer._last_report
            losses.append(loss)
            wire.append(report.wire_bytes)
            packages.append(report.packages)
        replica = trainer.replicas[0]
        metric, _ = _timed(out, op, "eval", state["task"].evaluate, replica)
        out.work += self.steps * self.samples_per_step(state, world)
        out.counters["wire_bytes"] += sum(wire)
        out.counters["packages"] += sum(packages)
        runtime = trainer.fault_runtime
        if runtime is not None:
            out.counters["deliveries"] += runtime.counters.deliveries
            out.counters["retries"] += runtime.counters.retries
        out.cycles.append({
            "losses": losses,
            "wire": digest(wire),
            "log": digest(runtime.log_bytes()) if runtime else None,
            "metric": metric,
            "in_sync": trainer.in_sync(),
        })

    def check(self, state: dict, out: Measured, reference: dict) -> None:
        seeds = reference.get("seeds", {})
        ref = seeds.get(str(state["seed"]))
        losses = [entry["loss"] for entry in seeds.values()]
        spread = max(losses) - min(losses) if losses else math.inf
        first = out.cycles[0]
        for index, got in enumerate(out.cycles):
            problems = []
            if not got["in_sync"]:
                problems.append("replicas are not in sync")
            if not all(math.isfinite(loss) for loss in got["losses"]):
                problems.append("a loss is not finite")
            if index and got != first:
                problems.append("differs from episode 0 of the same seed")
            start, final = got["losses"][0], got["losses"][-1]
            if not final <= LEARNED * start:
                problems.append(f"final loss {final!r} is not below "
                                f"{LEARNED:g} x the first step's {start!r}")
            if ref is not None:
                if got["wire"] != ref["wire"]:
                    problems.append("per-step wire bytes differ from the "
                                    "reference")
                if got["log"] != ref["log"]:
                    problems.append("fault-log digest differs from the "
                                    "reference")
                if not abs(final - ref["loss"]) <= LOSS_TOLERANCE:
                    problems.append(f"final loss {final!r} is more than "
                                    f"{LOSS_TOLERANCE:g} from the reference "
                                    f"{ref['loss']!r}")
            elif losses and not (min(losses) - spread <= final
                                 <= max(losses) + spread):
                problems.append(f"final loss {final!r} is outside the "
                                f"reference range widened by its spread")
            if problems:
                out.fail(self.steps,
                         f"episode {index}: " + "; ".join(problems))

    def reference_entry(self, out: Measured) -> dict:
        first = out.cycles[0]
        return {"wire": first["wire"], "log": first["log"],
                "loss": first["losses"][-1]}


# -- fleet --------------------------------------------------------------------

#: fleet simulations per cycle
FLEETS = 12
#: jobs per fleet and mean seconds between arrivals (``repro sched`` defaults)
FLEET_JOBS = 24
MEAN_INTERARRIVAL = 0.05


@dataclass(frozen=True)
class FleetWorkload(Workload):
    """Multi-tenant fleet simulations with seeded arrivals (open loop)."""

    name: str
    why: str
    op_kind: str = "fleet"
    work_unit: str = "job-steps"
    probe: str = "python"

    def setup(self, seed: int) -> dict:
        from repro.cluster import get_machine, make_cluster
        # imported here so that set-up time covers it
        from repro.sched import FleetSimulator  # noqa: F401

        machine = get_machine("rtx3090-8x")
        fleets = [self.jobs(seed, index) for index in range(FLEETS)]
        return {"seed": seed, "gpu": machine.gpu,
                "topology": make_cluster(machine, 2), "fleets": fleets}

    @staticmethod
    def jobs(seed: int, index: int) -> list:
        """Fleet ``index``: the default job mix, arrivals drawn from ``seed``.

        The job population (model, world, steps, method, bits) is the
        ``sample_fleet`` draw for ``index``, the same for every seed;
        the seed only redraws the Poisson arrival times.  The simulated
        work per cycle is therefore the same for every seed, while the
        arrival pattern -- and with it queueing and link contention --
        changes.
        """
        from repro.sched import sample_fleet

        return rearrive(sample_fleet(FLEET_JOBS, seed=index),
                        MEAN_INTERARRIVAL,
                        random.Random(seed * FLEETS + index))

    def simulate(self, state: dict, specs: list):
        from repro.sched import FleetSimulator

        simulator = FleetSimulator(
            state["topology"], specs, gpu=state["gpu"], policy="packed",
            routing="static", seed=state["seed"])
        result = simulator.run()
        return result, result.metrics()

    def warmup(self, state: dict) -> None:
        self.simulate(state, state["fleets"][0][:8])

    def cycle(self, state: dict, out: Measured, op: Callable) -> None:
        logs, completed = [], []
        for specs in state["fleets"]:
            out.attempted += 1
            (result, metrics), elapsed = _timed(out, op, "fleet",
                                                self.simulate, state, specs)
            out.op_s.append(elapsed)
            out.work += sum(s.steps_done for s in result.states)
            logs.append(digest(result.log_bytes()))
            completed.append(metrics.completed == len(specs) and all(
                s.status == "done" for s in result.states))
        out.cycles.append({"logs": logs, "completed": completed})

    def check(self, state: dict, out: Measured, reference: dict) -> None:
        ref = reference.get("seeds", {}).get(str(state["seed"]))
        first = out.cycles[0]
        for index, got in enumerate(out.cycles):
            for fleet, (log, done) in enumerate(zip(got["logs"],
                                                    got["completed"])):
                problems = []
                if not done:
                    problems.append("not every job completed")
                if index and log != first["logs"][fleet]:
                    problems.append("log differs from cycle 0")
                if ref is not None and log != ref["logs"][fleet]:
                    problems.append("log digest differs from the reference")
                if problems:
                    out.fail(1, f"cycle {index} fleet {fleet}: "
                                + "; ".join(problems))

    def reference_entry(self, out: Measured) -> dict:
        return {"logs": out.cycles[0]["logs"]}


# -- certify ------------------------------------------------------------------

#: the SCD battery cells a certify cycle runs
CELLS = ("scale-32", "scale-64", "scale-64-throttled", "throttled-adaptive")


@dataclass(frozen=True)
class CertifyWorkload(Workload):
    """Run and certify SCD battery cells, arrivals drawn from the seed.

    Each cell keeps the battery's own job population (its models,
    worlds, step counts and throttles, drawn from the cell's seed); the
    workload seed redraws only the arrival times, as in ``fleet``.
    Offsetting the cell seeds instead redrew the population, and peak
    memory then ranged over 87-107 MB across ten seeds.
    """

    name: str
    why: str
    op_kind: str = "cell"
    work_unit: str = "certified jobs"
    probe: str = "python"

    def setup(self, seed: int) -> dict:
        # imported here so that set-up time covers it
        from repro.analysis.sched import certify_fleet  # noqa: F401
        from repro.sched.battery import FleetCase, fleet_cases

        @dataclass(frozen=True)
        class Cell(FleetCase):
            arrival_seed: int = 0

            def jobs(self) -> list:
                return rearrive(super().jobs(), self.mean_interarrival,
                                random.Random(self.arrival_seed))

        by_name = {case.name: case for case in fleet_cases()}
        cells = [Cell(**vars(by_name[name]),
                      arrival_seed=seed * len(CELLS) + index)
                 for index, name in enumerate(CELLS)]
        # the warm-up cell is the same for every seed, so that set-up
        # time does not depend on it
        warm = dataclasses.replace(by_name[CELLS[-1]], n_jobs=4)
        return {"seed": seed, "cells": cells, "warm": warm}

    def certify(self, state: dict, case):
        from repro.analysis.sched import certify_fleet
        from repro.sched.battery import run_fleet_case

        result = run_fleet_case(case)
        return result, certify_fleet(result, case.path)

    def warmup(self, state: dict) -> None:
        self.certify(state, state["warm"])

    def cycle(self, state: dict, out: Measured, op: Callable) -> None:
        findings, logs = [], []
        for case in state["cells"]:
            out.attempted += 1
            (result, found), elapsed = _timed(out, op, "cell", self.certify,
                                              state, case)
            out.op_s.append(elapsed)
            out.work += case.n_jobs
            findings.append([f"{f.rule}: {f.message}" for f in found])
            logs.append(digest(result.log_bytes()))
        out.counters["findings"] += sum(map(len, findings))
        out.cycles.append({"findings": findings, "logs": logs})

    def check(self, state: dict, out: Measured, reference: dict) -> None:
        first = out.cycles[0]
        for index, got in enumerate(out.cycles):
            for cell, case in enumerate(state["cells"]):
                problems = list(got["findings"][cell][:3])
                if index and got["logs"][cell] != first["logs"][cell]:
                    problems.append("fleet log differs from cycle 0")
                if problems:
                    out.fail(1, f"cycle {index} {case.name}: "
                                + "; ".join(problems))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    TrainWorkload(
        name="train-lm", family="transformer_xl", world=4, bucket=128,
        steps=16, overlap=True, probe="numpy",
        why="transformer_xl, world 4, QSGD 4-bit, overlapped engine: the "
            "step is ~85-90% nn compute, so it exposes nn kernels and "
            "barely moves with the data path"),
    TrainWorkload(
        name="train-ddp", family="mlp", world=8, bucket=1024, steps=64,
        campaign="lossy-link", supervised=True,
        why="mlp, world 8, QSGD 4-bit, sequential engine under the "
            "lossy-link campaign, supervised: ~90% synchronize (codec, SRA, "
            "fault delivery, health); nn under 5%"),
    FleetWorkload(
        name="fleet",
        why="24-job fleets on 2x rtx3090-8x, packed, static, seeded "
            "arrivals: the simulator core (transfers, resource schedule, "
            "timed allreduce); no nn or compression data path"),
    CertifyWorkload(
        name="certify",
        why="four SCD battery cells, fixed job populations with seeded "
            "arrivals, run in audit mode and certified: ~85% certifier "
            "(exact ledgers, isolated replays), ~15% simulator; no nn or "
            "compression data path"),
)}
