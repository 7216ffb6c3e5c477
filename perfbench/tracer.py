"""Per-layer wall-clock tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of the nine ``repro``
layers from outside: nothing under ``src/`` is edited.  A wrapper is
installed on the defining class or module, on every ``repro`` module
global that refers to the same function object (``from x import f``
copies), and on module-level registry dicts (``ALGORITHMS`` and the
like), so every call resolves through it.  :meth:`Tracer.uninstall`
puts the originals back.

Every wrapped call adds its count and *self* time (its duration minus
the wrapped calls it made) to the active op kind's :class:`Stats`.
Named *groups* (``"nn.forward"``, ``"cluster.schedule"``, ...) also
record the outermost inclusive time and call count, so a recursive
``Module.__call__`` or a ``backward`` that calls its children's
``backward`` is counted once.  Coarse calls additionally record a span
(name, start, end, parent span, op id); hot inner calls such as
``Resource.schedule`` record only the aggregates, which keeps the
tracing overhead bounded.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from types import FunctionType, ModuleType

__all__ = ["LAYERS", "Stats", "Tracer", "group_of", "SPAN_GROUPS"]

#: the repro subpackages the tracer attributes self time to
LAYERS = ("nn", "compression", "collectives", "core", "training", "faults",
          "cluster", "sched", "analysis")

_DATA_PATH = ("collectives.sra.", "collectives.ring.", "collectives.tree.",
              "collectives.allgather.", "collectives.parameter_server.",
              "collectives.hierarchical.")

_EXACT = {
    "collectives.allreduce": "collectives.allreduce",
    "collectives.partial.PartialAllreduce.reduce": "collectives.allreduce",
    "collectives.timing.time_allreduce": "collectives.timed",
    "collectives.timing.time_partial_allreduce": "collectives.timed",
    "collectives.timing.time_overlapped_step": "collectives.timed",
    "core.ddp.CGXDistributedDataParallel.synchronize": "core.sync",
    "core.ddp.CGXDistributedDataParallel.synchronize_overlapped": "core.sync",
    "faults.inject.FaultChannel.deliver": "faults.deliver",
    "faults.inject.payload_crc": "faults.crc",
    "faults.health.HeartbeatTransport.beats": "faults.health",
    "faults.health.HealthMonitor.observe": "faults.health",
    "faults.health.Supervisor.decide": "faults.health",
    "training.trainer.DataParallelTrainer.train_step": "training.step",
    "training.tasks.Task.sample_batch": "training.batch",
    "training.tasks.Task.evaluate": "training.eval",
    "cluster.network.Network.transfer": "cluster.transfer",
    "faults.inject.FaultyNetwork.transfer": "cluster.transfer",
    "cluster.network.Network.run_kernel": "cluster.kernel",
    "faults.inject.FaultyNetwork.run_kernel": "cluster.kernel",
    "cluster.simclock.Resource.schedule": "cluster.schedule",
    "cluster.simclock.Resource.exact_busy_by_job": "analysis.exact_ledger",
    "cluster.simclock.Resource.exact_busy_seconds": "analysis.exact_ledger",
    "sched.fleet.FleetSimulator.run": "sched.run",
    "sched.fleet.FleetResult.metrics": "sched.metrics",
    "sched.metrics.compute_metrics": "sched.metrics",
    "sched.placement.place": "sched.place",
    "sched.battery.run_fleet_case": "analysis.cell_run",
    "analysis.sched.certify_fleet": "analysis.certify",
    "sched.metrics.isolated_step_times": "analysis.isolated",
    "sched.fleet.FleetResult.isolated_replay": "analysis.isolated",
    "nn.optim.clip_grad_norm": "nn.optim",
}

#: groups whose calls are coarse enough to record as spans
SPAN_GROUPS = frozenset({
    "training.step", "training.eval", "core.sync", "collectives.allreduce",
    "sched.run", "sched.metrics", "analysis.cell_run", "analysis.certify",
    "analysis.isolated", "analysis.exact_ledger",
})

#: groups that also total the bytes they process: (args, result) -> bytes
_BYTES = {"compression.encode": lambda args, result: args[1].nbytes,
          "compression.decode": lambda args, result: result.nbytes}


def group_of(key: str) -> str | None:
    """The metric group a wrapped function's key belongs to, if any.

    Keys are ``<module without "repro.">.<qualname>``, e.g.
    ``"cluster.simclock.Resource.schedule"``.
    """
    if key in _EXACT:
        return _EXACT[key]
    if key.startswith("nn."):
        if key.endswith((".__call__", ".forward")):
            return "nn.forward"
        if key.endswith(".backward"):
            return "nn.backward"
        if key.startswith("nn.optim.") and key.endswith(".step"):
            return "nn.optim"
    if key.startswith("compression."):
        if key.endswith(".compress"):
            return "compression.encode"
        if key.endswith(".decompress"):
            return "compression.decode"
    if key.startswith(_DATA_PATH) and key.endswith("_allreduce"):
        return "collectives.allreduce"
    return None


class Stats:
    """Aggregates for one op kind: per key and per group."""

    def __init__(self) -> None:
        self.keys: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.groups: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])

    def self_s(self, key: str) -> float:
        return self.keys[key][1] if key in self.keys else 0.0

    def group(self, name: str) -> tuple[int, float, int]:
        """(outermost calls, their inclusive seconds, bytes processed)."""
        return tuple(self.groups[name]) if name in self.groups else (0, 0.0, 0)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, (_, seconds) in self.keys.items():
            out[key.split(".", 1)[0]] += seconds
        return out


class Tracer:
    """Installs timing wrappers; one instance per traced phase."""

    def __init__(self) -> None:
        self.kinds: dict[str, Stats] = defaultdict(Stats)
        self.active = self.kinds["setup"]
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.op_id = -1
        self._child: list[float] = []   # per open wrapped call: child secs
        self._open: list[int] = []      # indices of the open spans
        self._depth: dict[str, int] = defaultdict(int)
        self._wrappers: dict[int, FunctionType] = {}
        self._undo: list[tuple] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def op(self, kind: str):
        """Attribute the calls made inside to ``kind``; open a root span."""
        previous = self.active
        self.active = self.kinds[kind]
        self.op_id += 1
        index = self._open_span(f"op:{kind}")
        try:
            yield
        finally:
            self._close_span(index)
            self.active = previous

    def _open_span(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter() - self._t0, None,
                           parent, self.op_id])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close_span(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter() - self._t0
        self._open.pop()

    def wrap(self, fn, key: str):
        """A timing wrapper for ``fn`` reported under ``key``."""
        group = group_of(key)
        child, tracer, clock = self._child, self, time.perf_counter

        if group is None:
            # the hot path: most wrapped calls are small and ungrouped
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = child.pop()
                    if child:
                        child[-1] += elapsed
                    record = tracer.active.keys[key]
                    record[0] += 1
                    record[1] += elapsed - inner
        else:
            traced = self._wrap_grouped(fn, key, group)
        self._wrappers[id(fn)] = traced
        return traced

    def _wrap_grouped(self, fn, key: str, group: str):
        span = group in SPAN_GROUPS
        measure = _BYTES.get(group)
        child, depth, tracer, clock = self._child, self._depth, self, \
            time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open_span(key) if span else -1
            depth[group] += 1
            child.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                inner = child.pop()
                if child:
                    child[-1] += elapsed
                stats = tracer.active
                record = stats.keys[key]
                record[0] += 1
                record[1] += elapsed - inner
                if span:
                    tracer._close_span(index)
                depth[group] -= 1
                if depth[group] == 0:
                    totals = stats.groups[group]
                    totals[0] += 1
                    totals[1] += elapsed
                    if measure is not None and result is not None:
                        totals[2] += measure(args, result)

        return traced

    def wrap_attr(self, owner, name: str, key: str) -> None:
        """Wrap one attribute of an instance (e.g. a task's callables)."""
        original = getattr(owner, name)
        setattr(owner, name, self.wrap(original, key))
        self._undo.append((setattr, owner, name, original))

    def install(self) -> int:
        """Wrap every public function and method of the nine layers.

        Returns the number of wrapped callables.
        """
        for layer in LAYERS:
            for mod in _layer_modules(layer):
                self._wrap_module(mod)
        for name, mod in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                self._redirect_globals(mod)
        return len(self._wrappers)

    def uninstall(self) -> None:
        for op, owner, name, original in reversed(self._undo):
            op(owner, name, original)
        self._undo.clear()
        self._wrappers.clear()

    def _wrap_module(self, mod: ModuleType) -> None:
        prefix = mod.__name__.removeprefix("repro.")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if _plain_function(obj) and obj.__module__ == mod.__name__:
                self._replace(mod, name, obj, f"{prefix}.{name}")
            elif isinstance(obj, type) and obj.__module__ == mod.__name__ \
                    and not issubclass(obj, (BaseException, enum.Enum)):
                self._wrap_class(obj, prefix)

    def _wrap_class(self, cls: type, prefix: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            key = f"{prefix}.{cls.__qualname__}.{name}"
            if _plain_function(member):
                self._replace(cls, name, member, key)
            elif isinstance(member, (staticmethod, classmethod)) \
                    and _plain_function(member.__func__):
                wrapped = type(member)(self.wrap(member.__func__, key))
                setattr(cls, name, wrapped)
                self._undo.append((setattr, cls, name, member))

    def _replace(self, owner, name: str, fn, key: str) -> None:
        setattr(owner, name, self._wrappers.get(id(fn)) or self.wrap(fn, key))
        self._undo.append((setattr, owner, name, fn))

    def _redirect_globals(self, mod: ModuleType) -> None:
        wrappers = self._wrappers
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, FunctionType) and id(obj) in wrappers:
                setattr(mod, name, wrappers[id(obj)])
                self._undo.append((setattr, mod, name, obj))
            elif isinstance(obj, dict):
                for k, value in list(obj.items()):
                    if isinstance(value, FunctionType) \
                            and id(value) in wrappers:
                        obj[k] = wrappers[id(value)]
                        self._undo.append((dict.__setitem__, obj, k, value))


def _plain_function(obj) -> bool:
    # generators and coroutines return before their body runs, so a
    # wrapper would time only their creation
    return isinstance(obj, FunctionType) \
        and not inspect.isgeneratorfunction(obj) \
        and not inspect.iscoroutinefunction(obj)


def _layer_modules(layer: str) -> list[ModuleType]:
    """Every module of one layer (package and submodules), imported."""
    package = importlib.import_module(f"repro.{layer}")
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        if not info.name.endswith(".__main__"):    # importing runs a CLI
            importlib.import_module(info.name)
    root = package.__name__
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == root or name.startswith(root + ".")) and mod]
