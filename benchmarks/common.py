"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it
computes the same rows/series the paper reports, prints them, and
persists them under ``benchmarks/results/`` so the run's evidence
survives pytest's output capture.  Benchmarks use
``benchmark.pedantic(..., rounds=1)`` because each run is itself a full
simulation/training campaign — wall-clock variance of the *harness* is
not the quantity of interest.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def format_table(title: str, headers: list[str],
                 rows: list[list], note: str = "") -> str:
    """Render an aligned text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows
              else len(h) for i, h in enumerate(headers)]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def emit(name: str, text: str) -> str:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n{text}\n"
    print(banner)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def write_bench_json(area: str, rows: list[dict],
                     extra: dict | None = None) -> str:
    """Persist machine-readable rows as ``results/BENCH_<area>.json``.

    The text tables from :func:`emit` are for humans; this is the
    stable sibling for tooling (CI ratchets, cross-PR comparisons).
    ``rows`` is a list of flat dicts; ``extra`` merges additional
    top-level fields (sweep parameters, environment) into the payload.
    """
    payload: dict = {"version": 1, "area": area, "rows": rows}
    if extra:
        payload.update(extra)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{area}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_once(benchmark, fn):
    """Run a campaign exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def stamp() -> dict:
    """Which code was measured, and where.

    The commit and a digest of the imported ``repro`` source (which
    ``PYTHONPATH`` may point at another checkout), whether that source
    differs from the commit, the host, and the Python and numpy versions.
    """
    import numpy

    import repro

    src = os.path.dirname(os.path.abspath(repro.__file__))

    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=src,
                                  capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                sha.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    status = git("status", "--porcelain", "--", ".")
    return {
        "commit": git("rev-parse", "HEAD"),
        "src_dirty": None if status is None else bool(status),
        "src_sha256": sha.hexdigest()[:16],
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def earlier_run(env_var: str, keys: tuple[str, ...]) -> dict | None:
    """``keys`` of the earlier payload the ``env_var`` file names, if any.

    A before/after pair is recorded by running a benchmark on the old
    tree first, keeping its JSON aside, and naming that file in
    ``env_var`` when the new tree is measured.
    """
    path = os.environ.get(env_var)
    if not path:
        return None
    with open(path) as handle:
        earlier = json.load(handle)
    return {key: earlier[key] for key in keys if key in earlier}
