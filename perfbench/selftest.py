"""Fast self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics and workloads
the code emits, that a run prints every end-to-end metric (``--trace 0``)
and every per-layer metric (``--trace 1``) with its unit, that two
same-seed cycles of every workload agree on every deterministic output,
and that the command fails without printing a result when the program's
sources are missing.  Exits 0 when all checks pass.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, OUT_DIR  # noqa: E402
from workloads import WORKLOADS, Measured, untraced  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_declaration() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        problems.append(f"end_to_end {declared} != emitted {END_TO_END}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != list(PER_LAYER):
        problems.append("per_layer differs from layers.PER_LAYER")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"workloads {names} != {list(WORKLOADS)}")
    for entry in spec["workloads"]:
        if entry["name"] in WORKLOADS \
                and entry["why"] != WORKLOADS[entry["name"]].why:
            problems.append(f"{entry['name']}: why differs from the code")
    return problems


def run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_emitted(workload: str, trace: int,
                  expected: tuple[tuple[str, str], ...]) -> list[str]:
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace)])
    if proc.returncode != 0:
        return [f"{workload} --trace {trace}: exit {proc.returncode}: "
                f"{proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS or not result["correct"] \
            or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} --trace {trace}: bad result header")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if got != list(expected):
        problems.append(f"{workload} --trace {trace}: emitted "
                        f"{[n for n, _ in got]}")
    return problems


def check_deterministic(name: str) -> list[str]:
    """Two same-seed cycles, each from a fresh set-up, agree exactly."""
    workload = WORKLOADS[name]
    outs = []
    for _ in range(2):
        out = Measured()
        workload.cycle(workload.setup(5), out, untraced)
        outs.append((out.cycles, out.work, out.attempted,
                     dict(out.counters)))
    return [] if outs[0] == outs[1] else [f"{name}: same-seed cycles differ"]


def check_bare_directory() -> list[str]:
    """Without ``src/`` the command must fail and print no result."""
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(["--workload", "fleet", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "correct" in proc.stdout:
        return ["a directory without src/ did not fail cleanly"]
    return []


def main() -> int:
    problems = check_declaration()
    problems += check_bare_directory()
    problems += check_emitted("train-ddp", 0, END_TO_END)
    problems += check_emitted("train-ddp", 1, PER_LAYER)
    for name in WORKLOADS:
        problems += check_deterministic(name)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
