"""Scoped process-wide policies: engines for runs that build no spec.

The invariant oracle and the membership engine must reach every way a
simulation is built — CLI ``run``, sweeps, ``reproduce``, hunts, fleet
*worker processes* — without an argument threaded through dozens of
constructors. Each is a :class:`ScopedPolicy` that
:class:`~repro.core.cluster.TriadCluster` consults at construction. The
CLI installs it from ``--oracle``/``--membership``; fleet tasks carry the
mode in ``task.overrides`` and :func:`installed_policies` re-installs it
inside the worker, so a policy crosses process boundaries with the task.
Mode ``off`` (the default) attaches nothing. The oracles a block attached
are judged afterwards by :func:`repro.oracle.judge`; a membership engine
excuses the nodes it cuts off on its own cluster's oracle, so nothing
here relays state between engines.
"""

from __future__ import annotations

import importlib
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.errors import ConfigurationError

#: Policy name (``task.overrides`` key and CLI flag) -> module whose
#: ``POLICY`` attribute is the :class:`ScopedPolicy`. Imported on demand.
POLICY_MODULES = {
    "membership": "repro.membership.plane",
    "oracle": "repro.oracle.policy",
}


class ScopedPolicy:
    """A process-wide mode, installable for a scope, that attaches engines.

    ``build(policy, *args)`` creates the engine for a freshly wired
    cluster; :meth:`attach` calls it unless the mode is ``off`` and keeps
    what it built until the next :meth:`drain` — how a fleet task
    recovers the engines of clusters its runner built internally.
    """

    def __init__(
        self,
        name: str,
        modes: tuple[str, ...],
        default_config: Callable[[], Any],
        build: Callable[..., Any],
    ) -> None:
        self.name = name
        self.modes = modes
        self._default_config = default_config
        self._build = build
        self._created: list = []
        self.install("off")

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def strict(self) -> bool:
        return self.mode == "strict"

    def current(self) -> "ScopedPolicy":
        """The policy in force (``mode`` and ``config`` are live)."""
        return self

    def install(self, mode: str, config: Any = None) -> "ScopedPolicy":
        """Set the process-wide mode (validated against ``modes``)."""
        if mode not in self.modes:
            raise ConfigurationError(
                f"unknown {self.name} mode {mode!r}; choose from {self.modes}"
            )
        self.mode = mode
        self.config = config or self._default_config()
        return self

    def clear(self) -> None:
        """Reset to ``off``."""
        self.install("off")

    @contextmanager
    def scoped(self, mode: str, config: Any = None) -> Iterator["ScopedPolicy"]:
        """Install ``mode`` for a ``with`` block, then restore the previous one."""
        previous = (self.mode, self.config)
        self.install(mode, config)
        try:
            yield self
        finally:
            self.mode, self.config = previous

    def drain(self) -> list:
        """Return and forget the engines attached since the previous drain."""
        drained, self._created = self._created, []
        return drained

    def attach(self, *args: Any) -> Optional[Any]:
        """Build an engine for a freshly wired cluster (None when ``off``)."""
        if not self.enabled:
            return None
        engine = self._build(self, *args)
        self._created.append(engine)
        return engine


@contextmanager
def installed_policies(modes: Mapping[str, Any]) -> Iterator[dict[str, list]]:
    """Install every policy ``modes`` names whose mode is not ``off``.

    Yields a dict that, once the block exits (even by exception), maps
    each installed policy's name to the engines it attached in the block.
    """
    created: dict[str, list] = {}
    with ExitStack() as stack:
        active = {}
        for name, module in POLICY_MODULES.items():
            if str(modes.get(name) or "off") != "off":
                active[name] = importlib.import_module(module).POLICY
                stack.enter_context(active[name].scoped(str(modes[name])))
                active[name].drain()
        try:
            yield created
        finally:
            for name, policy in active.items():
                created[name] = policy.drain()
