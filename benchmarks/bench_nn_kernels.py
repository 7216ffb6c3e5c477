"""Extension: wall time of the nn kernels, per model family.

Times one forward and one backward pass of every family in
``MODEL_FAMILIES`` on a batch of its own task at its recipe's batch
size, plus one data-parallel ``train_step`` of transformer_xl with the
configuration of the repository benchmark's train-lm workload (world 4,
QSGD 4-bit, bucket 128, overlapped engine).  Each figure is the median
of several repeats, in milliseconds.  Results go to a text table and to
``BENCH_nn.json``, stamped like ``BENCH_analysis.json``.

The profile behind this benchmark: ``cProfile`` of 16 train-lm steps
(seed 1; 2 vCPUs, Python 3.11, numpy 2, BLAS on one thread) spent
3.29 of 6.68 s in ``functional.gelu`` and ``gelu_backward``.  Two numpy float64 scalars
(the GELU constant and the attention scale) widened every transformer
activation to float64, where ``x**3`` runs through the general ``pow``
loop.  With both constants Python floats, the products written out and
the tanh term cached by the ``GELU`` layer, the same 16 steps took
2.75 s.

To record a before/after pair, run the benchmark on the old tree first
(``PYTHONPATH=<old checkout>/src``), keep its ``BENCH_nn.json`` aside,
then run it on the new tree with ``BENCH_NN_BEFORE`` naming the kept
file: its stamp and timings land under ``"before"``.  Pin BLAS to one
thread (``OPENBLAS_NUM_THREADS=1``) for figures comparable with the
repository benchmark; the payload records the setting.
"""

import json
import os
import statistics
import time

from common import (RESULTS_DIR, earlier_run, emit, format_table, run_once,
                    stamp)

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_nn.json")

#: timed repeats per figure (the median is kept), after one warm-up
REPEATS = 7
#: the family whose full data-parallel step is timed
STEP_FAMILY = "transformer_xl"


def _median_ms(fn, repeats: int = REPEATS) -> float:
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def _family_ms(family: str) -> dict[str, float]:
    """Median forward and backward milliseconds of one family."""
    import numpy as np

    from repro.training import get_recipe, make_task

    recipe = get_recipe(family)
    task = make_task(family, batch_size=recipe.batch_size, **recipe.kwargs())
    model = task.build_model(0)
    batch = task.sample_batch(np.random.default_rng(0))
    _, grad = task.loss_and_grad(model(batch[0]), batch)

    def backward():
        model.zero_grad()
        model.backward(grad)

    forward_ms = _median_ms(lambda: model(batch[0]))
    # the last forward left the caches backward reads; backward does not
    # consume them, so it can repeat on the same batch
    return {"forward_ms": forward_ms, "backward_ms": _median_ms(backward)}


def _train_step_ms() -> float:
    """Median ms of one train-lm ``train_step`` (world 4, overlapped)."""
    from repro.core import CGXConfig
    from repro.training import DataParallelTrainer, get_recipe, make_task

    recipe = get_recipe(STEP_FAMILY)
    task = make_task(STEP_FAMILY, batch_size=recipe.batch_size,
                     **recipe.kwargs())
    trainer = DataParallelTrainer(task, world_size=4,
                                  config=CGXConfig.cgx_default(128),
                                  recipe=recipe, seed=1, overlap=True)
    return _median_ms(trainer.train_step)


def nn_kernels() -> tuple[dict, float]:
    from repro.nn import MODEL_FAMILIES

    families = {family: _family_ms(family) for family in MODEL_FAMILIES}
    return families, _train_step_ms()


def test_bench_nn_kernels(benchmark):
    families, step_ms = run_once(benchmark, nn_kernels)
    before = earlier_run("BENCH_NN_BEFORE",
                         ("stamp", "families", "train_step_ms"))
    earlier = before["families"] if before else {}

    def was(family: str, key: str) -> str:
        return f"{earlier[family][key]:.2f}" if family in earlier else "-"

    rows = [[family, f"{ms['forward_ms']:.2f}", was(family, "forward_ms"),
             f"{ms['backward_ms']:.2f}", was(family, "backward_ms")]
            for family, ms in families.items()]
    rows.append([f"{STEP_FAMILY} train_step", f"{step_ms:.2f}",
                 f"{before['train_step_ms']:.2f}" if before else "-",
                 "", ""])
    emit("nn_kernels", format_table(
        "nn forward/backward per family (median ms per pass, recipe batch)",
        ["family", "forward", "before", "backward", "before"], rows,
        note=(f"train_step: world 4, QSGD 4-bit, bucket 128, overlapped; "
              f"median of {REPEATS} steps after one warm-up")))

    payload = {
        "version": 1,
        "stamp": stamp(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repeats": REPEATS,
        "families": families,
        "train_step_ms": step_ms,
    }
    if before is not None:
        payload["before"] = before
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert all(ms["forward_ms"] > 0 and ms["backward_ms"] > 0
               for ms in families.values())
    assert step_ms > 0
