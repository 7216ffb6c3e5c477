"""Regenerate ``reference.json``: the per-seed outputs the checks compare.

For each seed, one cycle of ``train-lm``, ``train-ddp`` and ``fleet`` is
run untimed and its deterministic outputs are stored: the digest of the
per-step wire bytes, the fault-log digest and the final loss of a
training episode, and the canonical-log digest of every fleet.  The
benchmark compares every run against these, so simulated behaviour that
drifts from them fails the run.  Regenerate only on purpose, when a
change is meant to alter simulated results, and say so in CHANGES.md.

    python3 perfbench/make_reference.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS, Measured, untraced  # noqa: E402

REFERENCED = ("train-lm", "train-ddp", "fleet")
#: seeds 0 .. SEEDS-1 are stored; runs on other seeds are checked
#: without a reference of their own
SEEDS = 40


def main() -> int:
    reference = {}
    for name in REFERENCED:
        workload = WORKLOADS[name]
        seeds = {}
        for seed in range(SEEDS):
            out = Measured()
            workload.cycle(workload.setup(seed), out, untraced)
            seeds[str(seed)] = workload.reference_entry(out)
            print(f"{name} seed {seed}: {seeds[str(seed)]}", flush=True)
        reference[name] = {"seeds": seeds}
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
