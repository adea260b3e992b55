"""Timing spans around ``repro``'s public layer functions, from outside.

:class:`Tracer` replaces a fixed list of plain (non-generator) methods on
``repro`` classes with wrappers that record one span per call — name,
start, end and the enclosing span — in flat in-memory arrays. Nothing
under ``src/`` is edited: the wrappers are installed on the classes for
the duration of a ``with Tracer():`` block and the original attributes are
put back on exit, even if the run raises.

Protocol generator bodies and the kernel's dispatch loop cannot be timed
from outside; their cost is what is left of the traced run's wall time
after all root spans are subtracted (``sim_core.self_s``).
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

#: (module, class, method, span name) of every wrapped function.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.hardware.aex", "AexPort", "fire", "hardware.aex"),
    ("repro.hardware.monitor", "IncMonitor", "check", "hardware.monitor"),
    ("repro.core.calibration", "RegressionCalibrator", "estimate", "core.estimate"),
    ("repro.core.calibration", "MeanOnlyCalibrator", "estimate", "core.estimate"),
    ("repro.net.crypto", "SecureChannelKey", "seal", "net.crypto.seal"),
    ("repro.net.crypto", "SecureChannelKey", "open", "net.crypto.open"),
    ("repro.net.crypto", "SecureChannelKey", "rekey", "net.crypto.rekey"),
    ("repro.net.transport", "SecureEndpoint", "send", "net.transport.send"),
    ("repro.net.channel", "Network", "send", "net.channel.send"),
    ("repro.net.adversary", "NetworkAdversary", "observe", "net.adversary.observe"),
    ("repro.service.frontend", "FrontEnd", "tick", "service.tick"),
    ("repro.service.quorum", "QuorumClient", "estimate", "service.quorum.estimate"),
    ("repro.membership.evidence", "EvidenceCollector", "observe", "membership.observe"),
    ("repro.membership.evidence", "EvidenceCollector", "close_epoch", "membership.close_epoch"),
    ("repro.experiments.spec", "ExperimentSpec", "from_dict", "experiments.parse"),
    ("repro.experiments.spec", "ExperimentSpec", "build", "experiments.build"),
)

#: Spans whose return value's length is summed (bytes sealed).
SIZED = frozenset({"net.crypto.seal"})

_MISSING = object()


class Tracer:
    """Install timing wrappers for one run; collect spans in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised: list[int] = []
        self.sizes: list[int] = []
        self._stack: list[int] = []
        #: (owner, attribute, value found in owner.__dict__ or _MISSING).
        self._saved: list[tuple[type, str, Any]] = []
        self._hooks: dict[Any, Callable] = {}

    # -- installation -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module, cls_name, attr, name in TARGETS:
                cls = getattr(importlib.import_module(module), cls_name)
                raw = cls.__dict__.get(attr, _MISSING)
                target = raw.__func__ if isinstance(raw, classmethod) else getattr(cls, attr)
                if inspect.isgeneratorfunction(target):
                    raise TypeError(f"{cls_name}.{attr} is a generator; spans would time nothing")
                wrapper = self._wrap(target, name, sized=name in SIZED)
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                self._patch(cls, attr, wrapper)
            self._patch_trace_hooks()
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, cls: type, attr: str, value: Any) -> None:
        self._saved.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, value)

    def _patch_trace_hooks(self) -> None:
        """Wrap the oracle's kernel hook at registration time."""
        from repro.oracle.oracle import InvariantOracle
        from repro.sim.kernel import Simulator

        add = Simulator.add_trace_hook
        remove = Simulator.remove_trace_hook
        hooks = self._hooks
        wrap = self._wrap
        self._name_id("oracle.hook")  # reported as 0 calls when no oracle runs

        def add_trace_hook(sim, hook):
            if isinstance(getattr(hook, "__self__", None), InvariantOracle):
                hook = hooks.setdefault(hook, wrap(hook, "oracle.hook"))
            return add(sim, hook)

        def remove_trace_hook(sim, hook):
            return remove(sim, hooks.pop(hook, hook))

        self._patch(Simulator, "add_trace_hook", add_trace_hook)
        self._patch(Simulator, "remove_trace_hook", remove_trace_hook)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced (newest first)."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    def leftovers(self) -> list[str]:
        """``Class.attr`` of every target whose class attribute is not the original.

        Compares against a fresh lookup, so it is meaningful after
        :meth:`uninstall` too; empty means nothing patched is left behind.
        """
        left = []
        for module, cls_name, attr, _ in TARGETS:
            value = getattr(importlib.import_module(module), cls_name).__dict__.get(attr)
            func = value.__func__ if isinstance(value, classmethod) else value
            if func is not None and getattr(func, "__module__", None) == __name__:
                left.append(f"{cls_name}.{attr}")
        from repro.sim.kernel import Simulator

        for attr in ("add_trace_hook", "remove_trace_hook"):
            if Simulator.__dict__[attr].__module__ == __name__:
                left.append(f"Simulator.{attr}")
        return left

    # -- spans --------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.raised.append(0)
            self.sizes.append(0)
        return self._ids[name]

    def _wrap(self, fn: Callable, name: str, sized: bool = False) -> Callable:
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, raised, sizes = self._stack, self.raised, self.sizes
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                raised[nid] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if sized:
                sizes[nid] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def mark(self) -> int:
        """Index of the next span (spans from here on belong to a new phase)."""
        return len(self.span_start)

    def summary(self, first: int = 0, last: Optional[int] = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (inclusive) and self seconds, root seconds.

        Self time is a span's duration minus the durations of its direct
        child spans; ``root_s`` sums the spans that had no wrapped caller.
        """
        last = len(self.span_start) if last is None else last
        starts, ends = self.span_start, self.span_end
        parents, names = self.span_parent, self.span_name
        child = [0.0] * (last - first)
        for idx in range(first, last):
            parent = parents[idx]
            if parent >= first:
                child[parent - first] += ends[idx] - starts[idx]
        out = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "root_s": 0.0}
            for name in self.names
        }
        for idx in range(first, last):
            row = out[self.names[names[idx]]]
            duration = ends[idx] - starts[idx]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - child[idx - first]
            if parents[idx] < first:
                row["root_s"] += duration
        for nid, name in enumerate(self.names):
            out[name]["raised"] = self.raised[nid]
            out[name]["size"] = self.sizes[nid]
        return out

    def write(self, path: Path) -> None:
        """Write every span as ``name start_s end_s parent`` (TSV, times relative)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        with path.open("w") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\n")
            for idx, (nid, start, end, parent) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                out.write(
                    f"{idx}\t{self.names[nid]}\t{start - origin:.9f}\t"
                    f"{end - origin:.9f}\t{parent}\n"
                )
