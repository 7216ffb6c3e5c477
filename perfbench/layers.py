"""Per-layer metrics of the traced run, and what each should move.

Every metric below is emitted on every workload (0 where the layer
does no work there).  Times and counts are per *op* -- one
``train_step()``, one fleet simulation or one certified cell -- unless
the name says otherwise.  ``PREDICTIONS`` is the per-layer ->
end-to-end list later performance changes cite by name: a change that
moves a layer's metrics should move the named end-to-end metric on the
named workloads and leave the other workloads unchanged.
"""

from __future__ import annotations

from tracer import LAYERS, Stats

__all__ = ["PER_LAYER", "PREDICTIONS", "layer_metrics"]

#: (metric, unit) in output order
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("nn.forward_ms", "ms"), ("nn.backward_ms", "ms"), ("nn.optim_ms", "ms"),
    ("compression.encode_ms", "ms"), ("compression.decode_ms", "ms"),
    ("compression.encode_mb_per_s", "MB/s"),
    ("compression.decode_mb_per_s", "MB/s"), ("compression.calls", "count"),
    ("collectives.allreduce_calls", "count"),
    ("collectives.allreduce_self_ms", "ms"),
    ("collectives.timed_calls", "count"), ("collectives.timed_ms", "ms"),
    ("core.sync_ms", "ms"), ("core.sync_self_ms", "ms"),
    ("core.wire_bytes", "B"), ("core.packages", "count"),
    ("faults.deliver_calls", "count"), ("faults.deliver_self_ms", "ms"),
    ("faults.crc_ms", "ms"), ("faults.retries", "count"),
    ("faults.delivery_success_ratio", "ratio"), ("faults.health_ms", "ms"),
    ("training.step_self_ms", "ms"), ("training.batch_ms", "ms"),
    ("training.eval_ms", "ms"),
    ("cluster.transfers", "count"), ("cluster.transfer_ms", "ms"),
    ("cluster.transfers_per_s", "1/s"), ("cluster.schedule_calls", "count"),
    ("cluster.kernels", "count"),
    ("sched.run_s", "s"), ("sched.run_self_s", "s"), ("sched.metrics_s", "s"),
    ("sched.placements", "count"),
    ("analysis.cell_run_s", "s"), ("analysis.certify_s", "s"),
    ("analysis.exact_ledger_s", "s"), ("analysis.isolated_s", "s"),
    ("analysis.findings", "count"),
    *((f"share.{layer}", "%") for layer in LAYERS + ("other",)),
    ("trace.overhead_pct", "%"),
    ("baseline.samples_per_s", "1/s"), ("baseline.final_loss", "loss"),
)

PREDICTIONS: dict[str, str] = {
    "nn.*": "work_per_ref_s and step_ms_* on train-lm; not train-ddp",
    "compression.*": "work_per_ref_s on train-ddp, slightly on train-lm; not "
                     "fleet or certify",
    "collectives.allreduce_*": "work_per_ref_s on train-ddp",
    "collectives.timed_*": "work_per_ref_s on fleet",
    "core.*": "work_per_ref_s on train-ddp first, then train-lm",
    "faults.*": "work_per_ref_s on train-ddp only",
    "training.*": "work_per_ref_s on train-lm and train-ddp",
    "cluster.*": "work_per_ref_s on fleet and, less, certify; not train-*",
    "sched.*": "work_per_ref_s on fleet, then certify",
    "analysis.*": "work_per_ref_s on certify only (isolated_step_times also "
                  "runs in fleet's metrics())",
}


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total * scale / count if count else 0.0


def layer_metrics(main: str, stats: dict[str, Stats], ops: int,
                  counters: dict[str, float], traced_wall_s: float,
                  overhead_pct: float, baseline: tuple[float, float]
                  ) -> dict[str, float]:
    """Per-layer values from the traced phase's aggregates.

    ``main`` is the op kind the per-op figures divide by and ``ops`` the
    number of such ops; ``counters`` are the program's own counts
    (wire bytes, deliveries, retries, findings) over the traced phase.
    """
    s = stats.get(main, Stats())

    def ms(group: str) -> float:
        return _per(s.group(group)[1], ops, 1e3)

    def sec(group: str) -> float:
        return _per(s.group(group)[1], ops)

    def calls(group: str) -> float:
        return _per(s.group(group)[0], ops)

    def mb_per_s(group: str) -> float:
        count, seconds, nbytes = s.group(group)
        return nbytes / 1e6 / seconds if seconds else 0.0

    def self_of(prefix: str) -> float:
        return sum(v for k, (_, v) in s.keys.items() if k.startswith(prefix))

    layer_self = s.layer_self_s()
    deliveries, retries = counters.get("deliveries", 0), \
        counters.get("retries", 0)
    evals = stats.get("eval", Stats()).group("training.eval")
    transfers = s.group("cluster.transfer")
    totals = dict.fromkeys(LAYERS, 0.0)
    for kind, kind_stats in stats.items():
        if kind != "setup":
            for layer, seconds in kind_stats.layer_self_s().items():
                totals[layer] += seconds
    out = {
        "nn.forward_ms": ms("nn.forward"),
        "nn.backward_ms": ms("nn.backward"),
        "nn.optim_ms": ms("nn.optim"),
        "compression.encode_ms": ms("compression.encode"),
        "compression.decode_ms": ms("compression.decode"),
        "compression.encode_mb_per_s": mb_per_s("compression.encode"),
        "compression.decode_mb_per_s": mb_per_s("compression.decode"),
        "compression.calls": calls("compression.encode")
        + calls("compression.decode"),
        "collectives.allreduce_calls": calls("collectives.allreduce"),
        "collectives.allreduce_self_ms": _per(
            layer_self["collectives"] - self_of("collectives.timing."),
            ops, 1e3),
        "collectives.timed_calls": calls("collectives.timed"),
        "collectives.timed_ms": ms("collectives.timed"),
        "core.sync_ms": ms("core.sync"),
        "core.sync_self_ms": _per(layer_self["core"], ops, 1e3),
        "core.wire_bytes": _per(counters.get("wire_bytes", 0), ops),
        "core.packages": _per(counters.get("packages", 0), ops),
        "faults.deliver_calls": calls("faults.deliver"),
        "faults.deliver_self_ms": _per(
            s.self_s("faults.inject.FaultChannel.deliver"), ops, 1e3),
        "faults.crc_ms": ms("faults.crc"),
        "faults.retries": _per(retries, ops),
        "faults.delivery_success_ratio": (deliveries / (deliveries + retries)
                                          if deliveries else 0.0),
        "faults.health_ms": ms("faults.health"),
        "training.step_self_ms": _per(
            s.self_s("training.trainer.DataParallelTrainer.train_step"),
            ops, 1e3),
        "training.batch_ms": ms("training.batch"),
        "training.eval_ms": _per(evals[1], evals[0], 1e3),
        "cluster.transfers": calls("cluster.transfer"),
        "cluster.transfer_ms": ms("cluster.transfer"),
        "cluster.transfers_per_s": _per(transfers[0], transfers[1]),
        "cluster.schedule_calls": calls("cluster.schedule"),
        "cluster.kernels": calls("cluster.kernel"),
        "sched.run_s": sec("sched.run"),
        "sched.run_self_s": _per(layer_self["sched"], ops),
        "sched.metrics_s": sec("sched.metrics"),
        "sched.placements": calls("sched.place"),
        "analysis.cell_run_s": sec("analysis.cell_run"),
        "analysis.certify_s": sec("analysis.certify"),
        "analysis.exact_ledger_s": sec("analysis.exact_ledger"),
        "analysis.isolated_s": sec("analysis.isolated"),
        "analysis.findings": counters.get("findings", 0),
        "trace.overhead_pct": overhead_pct,
        "baseline.samples_per_s": baseline[0],
        "baseline.final_loss": baseline[1],
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = _per(100 * totals[layer], traced_wall_s)
    out["share.other"] = 100.0 - sum(out[f"share.{layer}"] for layer in LAYERS)
    return out

