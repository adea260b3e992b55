"""Planes: the optional subsystems a spec attaches to an experiment.

A plane judges a run from one angle — client SLOs (``service``),
containment (``membership``), recovery (``faults``). Each is one module
exposing a ``PLANE`` object that implements :class:`Plane`, plus one
entry in :data:`PLANE_MODULES`; the spec (validation and wiring), the
fleet's ``spec`` runner and the CLI all loop over that registry, so no
caller wires a plane by hand. A plane module is imported only when a run
actually carries its block or handle.

A plane attached to an experiment stores its handle on the attribute of
the same name (``experiment.service``, ``experiment.membership``,
``experiment.faults``); :func:`attached_reports` reads every non-empty
one, so an engine attached by a process-wide policy (see
:mod:`repro.policy`) reports like one attached by a spec block.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import Experiment
    from repro.experiments.spec import ExperimentSpec

#: Spec key (and Experiment attribute) -> module whose ``PLANE`` implements
#: it. Order is wiring order, which is part of a run's determinism.
PLANE_MODULES = {
    "service": "repro.service.plane",
    "membership": "repro.membership.plane",
    "faults": "repro.faults.plane",
}


class Plane(Protocol):
    """What every plane provides."""

    def validate(self, block: Any, spec: "ExperimentSpec") -> None:
        """Raise :class:`~repro.errors.ConfigurationError` on a bad block."""

    def attach(self, experiment: "Experiment", block: Any) -> None:
        """Wire a validated block onto a built (not yet run) experiment."""

    def report(self, experiment: "Experiment") -> dict:
        """JSON-able report of a finished run."""

    def render(self, report: dict) -> str:
        """Human-readable text of a :meth:`report`."""


def plane(name: str) -> Plane:
    """The registered plane called ``name`` (imports its module)."""
    return importlib.import_module(PLANE_MODULES[name]).PLANE


def carried_blocks(spec: "ExperimentSpec") -> list[tuple[Plane, Any]]:
    """``(plane, block)`` for every plane block ``spec`` carries, in order."""
    return [
        (plane(name), getattr(spec, name))
        for name in PLANE_MODULES
        if getattr(spec, name) is not None
    ]


def attached_reports(experiment: "Experiment") -> dict[str, dict]:
    """Report of every plane attached to a finished experiment."""
    return {
        name: plane(name).report(experiment)
        for name in PLANE_MODULES
        if getattr(experiment, name) is not None
    }


def render_reports(reports: dict[str, dict]) -> str:
    """Text of :func:`attached_reports` output, one block per plane."""
    return "\n\n".join(plane(name).render(report) for name, report in reports.items())
