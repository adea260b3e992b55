"""The ``service`` plane: client-visible SLOs of a spec run.

A spec's ``service`` block (see :class:`repro.service.ServiceConfig`)
deploys per-node front-ends, session workloads and Marzullo quorum
clients over the cluster; the report is the run's
:class:`~repro.service.ServiceReport`. Validation errors name the
offending key (``service.sessions: ...``).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceReport
from repro.service.service import TimeService


class ServicePlane:
    def validate(self, block, spec) -> None:
        config = ServiceConfig.from_dict(block)
        if config.quorum > spec.nodes:
            raise ConfigurationError(
                f"service.quorum: fan-out of {config.quorum} exceeds the "
                f"cluster of {spec.nodes} node(s)"
            )
        if config.start_s >= spec.duration_s:
            raise ConfigurationError(
                f"service.start_s: warm-up of {config.start_s}s leaves no "
                f"room in a {spec.duration_s}s run"
            )

    def attach(self, experiment, block) -> None:
        TimeService.attach(experiment, ServiceConfig.from_dict(block))

    def report(self, experiment) -> dict:
        return experiment.service.report().to_dict()

    def render(self, report) -> str:
        return ServiceReport.from_dict(report).render()


PLANE = ServicePlane()
