"""Asynchronous Enclave Exit (AEX) modelling.

When the OS interrupts an SGX enclave thread, the thread suffers an
*Asynchronous Enclave Exit*. AEX-Notify lets the enclave run arbitrary logic
upon resuming, which is how Triad detects that its notion of time continuity
was severed: after any AEX the local timestamp is **tainted** until refreshed
from a peer or the Time Authority.

The paper characterizes two inter-AEX delay environments (its Fig. 1):

* **Fig. 1a "Triad-like"** — the delay distribution of the original Triad
  paper's setup, simulated by the authors with ``rdmsr`` reads on the
  monitoring core: delays of 10 ms, 532 ms and 1.59 s, each with
  probability 1/3, assumed independent.
* **Fig. 1b isolated core** — a core shielded from most OS interrupts;
  most AEXs arrive every ≈5.4 minutes.

Both are provided here as distributions; an :class:`AexSource` process draws
from a distribution and fires AEXs on an :class:`AexPort`. Machine-wide
correlated interrupts (OS interrupts that hit *all* cores at once — the
cause of the paper's simultaneous-taint sawtooth in Fig. 2a) are modelled by
:class:`MachineWideInterrupts` firing on many ports simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Protocol, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.events import Event
from repro.sim.rng import DrawBatch
from repro.sim.units import MILLISECOND, MINUTE, SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: The three inter-AEX delays of the paper's "Triad-like" distribution (ns).
TRIAD_LIKE_DELAYS_NS: tuple[int, ...] = (
    10 * MILLISECOND,
    532 * MILLISECOND,
    1_590 * MILLISECOND,
)

#: Modal inter-AEX delay on the paper's isolated monitoring core: 5.4 min.
ISOLATED_CORE_MODE_NS: int = int(5.4 * MINUTE)


@dataclass(frozen=True)
class AexEvent:
    """One Asynchronous Enclave Exit as observed via AEX-Notify."""

    time_ns: int
    core_index: int
    cause: str  # e.g. "os", "rdmsr-sim", "machine-wide", "attacker"


class InterAexDistribution(Protocol):
    """Sampler of delays between successive AEXs (in nanoseconds).

    Implementations may additionally provide ``sample_batch(rng, n)``
    returning a sequence of ``n`` delays *identical to n sequential*
    ``sample`` *calls on the same rng state* (stream stability). Sources
    use it to amortize numpy's per-call dispatch overhead (~20 µs per
    ``Generator.choice`` call vs ~0.1 µs per batched draw); distributions
    with data-dependent draw counts simply omit it and are drawn once per
    arrival.
    """

    def sample(self, rng: np.random.Generator) -> int:
        """Draw the next inter-AEX delay."""
        ...  # pragma: no cover


class TriadLikeAexDelays:
    """The paper's Fig. 1a distribution: {10 ms, 532 ms, 1.59 s}, p=1/3 each.

    Delays are drawn independently, matching the paper's stated assumption
    ``P(D_{i+1}=d) = P(D_{i+1}=d | D_i)``.
    """

    def __init__(self, delays_ns: Sequence[int] = TRIAD_LIKE_DELAYS_NS) -> None:
        if not delays_ns or any(d <= 0 for d in delays_ns):
            raise ConfigurationError("delays must be positive and non-empty")
        self.delays_ns = tuple(delays_ns)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.delays_ns))

    def sample_batch(self, rng: np.random.Generator, n: int) -> list[int]:
        # Generator.choice fills its output sequentially from the bit
        # stream, so one size-n call draws the same values as n calls.
        return [int(d) for d in rng.choice(self.delays_ns, size=n)]

    def mean_ns(self) -> float:
        """Expected inter-AEX delay (≈710.7 ms for the paper's values)."""
        return float(np.mean(self.delays_ns))


class IsolatedCoreAexDelays:
    """Approximation of the paper's Fig. 1b isolated-core distribution.

    The paper reports that on their isolated core "most AEXs occur every
    5.4 minutes" with a minority of shorter delays. The exact CDF is only
    given graphically, so we model a two-component mixture:

    * with probability ``short_fraction`` (default 0.15) a short delay,
      log-uniform between 1 s and 2 min — residual OS housekeeping;
    * otherwise a delay normally distributed around the 5.4-minute mode
      with a small spread (timer-tick regularity).

    The substitution is documented in DESIGN.md; every protocol-level
    conclusion only needs "rare AEXs, minutes apart", which this preserves.
    """

    def __init__(
        self,
        mode_ns: int = ISOLATED_CORE_MODE_NS,
        spread_ns: int = 5 * SECOND,
        short_fraction: float = 0.15,
        short_range_ns: tuple[int, int] = (SECOND, 2 * MINUTE),
    ) -> None:
        if mode_ns <= 0 or spread_ns < 0:
            raise ConfigurationError("mode must be positive and spread non-negative")
        if not 0.0 <= short_fraction < 1.0:
            raise ConfigurationError(f"short_fraction must be in [0,1), got {short_fraction}")
        if short_range_ns[0] <= 0 or short_range_ns[0] >= short_range_ns[1]:
            raise ConfigurationError(f"invalid short-delay range {short_range_ns}")
        self.mode_ns = mode_ns
        self.spread_ns = spread_ns
        self.short_fraction = short_fraction
        self.short_range_ns = short_range_ns

    def sample(self, rng: np.random.Generator) -> int:
        if self.short_fraction and rng.random() < self.short_fraction:
            low, high = self.short_range_ns
            return int(np.exp(rng.uniform(np.log(low), np.log(high))))
        delay = rng.normal(self.mode_ns, self.spread_ns)
        return max(int(delay), MILLISECOND)


class ExponentialAexDelays:
    """Memoryless inter-AEX delays with a given mean (generic environment)."""

    def __init__(self, mean_ns: int) -> None:
        if mean_ns <= 0:
            raise ConfigurationError(f"mean must be positive, got {mean_ns}")
        self.mean_ns = mean_ns

    def sample(self, rng: np.random.Generator) -> int:
        return max(int(rng.exponential(self.mean_ns)), 1)

    def sample_batch(self, rng: np.random.Generator, n: int) -> list[int]:
        return [max(int(d), 1) for d in rng.exponential(self.mean_ns, size=n)]


class FixedAexDelays:
    """Deterministic inter-AEX delays (useful in tests and ablations)."""

    def __init__(self, delay_ns: int) -> None:
        if delay_ns <= 0:
            raise ConfigurationError(f"delay must be positive, got {delay_ns}")
        self.delay_ns = delay_ns

    def sample(self, rng: np.random.Generator) -> int:
        return self.delay_ns

    def sample_batch(self, rng: np.random.Generator, n: int) -> list[int]:
        return [self.delay_ns] * n


class TraceAexDelays:
    """Replay a recorded sequence of inter-AEX delays, then repeat it."""

    def __init__(self, delays_ns: Iterable[int]) -> None:
        self.delays_ns = tuple(delays_ns)
        if not self.delays_ns or any(d <= 0 for d in self.delays_ns):
            raise ConfigurationError("trace must be non-empty with positive delays")
        #: Replay position; :class:`~repro.sim.rng.DrawBatch` checkpoints it.
        self.cursor = 0

    def sample(self, rng: np.random.Generator) -> int:
        delay = self.delays_ns[self.cursor % len(self.delays_ns)]
        self.cursor += 1
        return delay

    def sample_batch(self, rng: np.random.Generator, n: int) -> list[int]:
        trace = self.delays_ns
        cursor = self.cursor
        self.cursor = cursor + n
        size = len(trace)
        return [trace[(cursor + i) % size] for i in range(n)]


class AexPort:
    """Delivery point for AEXs on one core.

    Enclave threads pinned to the core register callbacks; every fired AEX
    invokes all callbacks synchronously (AEX-Notify semantics: the handler
    runs when the thread resumes, which in simulation is the same instant).
    The port also keeps the full AEX history for analysis — the paper's
    Fig. 1 CDFs and Fig. 6b cumulative counts come straight from it.
    """

    def __init__(self, sim: "Simulator", core_index: int) -> None:
        self.sim = sim
        self.core_index = core_index
        self._subscribers: list[Callable[[AexEvent], None]] = []
        self.history: list[AexEvent] = []

    def subscribe(self, callback: Callable[[AexEvent], None]) -> None:
        """Register an AEX-Notify handler for this core."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[AexEvent], None]) -> None:
        self._subscribers.remove(callback)

    def fire(self, cause: str) -> AexEvent:
        """Deliver an AEX now to every subscriber; returns the event."""
        event = AexEvent(time_ns=self.sim.now, core_index=self.core_index, cause=cause)
        self.history.append(event)
        for callback in list(self._subscribers):
            callback(event)
        return event

    @property
    def count(self) -> int:
        """Total AEXs delivered on this core so far."""
        return len(self.history)

    def inter_aex_delays_ns(self) -> list[int]:
        """Delays between successive AEXs (for CDF reproduction)."""
        times = [event.time_ns for event in self.history]
        return [later - earlier for earlier, later in zip(times, times[1:])]


class AexSource:
    """Fires AEXs on one port with configurable inter-arrival delays.

    This models both genuine OS interrupts and the paper's ``rdmsr``-based
    AEX injection. The attacker owns the OS, so the source exposes attacker
    knobs: :meth:`pause` (isolate the core — strengthen an F+ attack),
    :meth:`resume`, and :meth:`set_distribution` (switch environments
    mid-run, as the paper does at t=104 s in Fig. 6).

    Batched arrivals
    ----------------
    Delays are pre-drawn in batches of :data:`BATCH` through a
    :class:`~repro.sim.rng.DrawBatch` (numpy's per-call dispatch would
    otherwise make the draw the most expensive step of AEX-heavy runs), and
    the source runs as a kernel-native callback chain — no generator
    resume per arrival. The observable behaviour is that of a
    draw-per-arrival source, event for event:

    * arrivals are still *scheduled* one at a time, at the instant the
      previous AEX fires, so same-tick FIFO order against other components
      is unchanged;
    * a priority-1 bootstrap event at the construction instant arms the
      first arrival;
    * while paused the source polls at a 100 ms cadence;
    * :meth:`set_distribution` gives the unused pre-drawn delays back to
      the stream (:meth:`DrawBatch.rewind`), so switching environments
      mid-run cannot perturb later randomness. Distributions without
      ``sample_batch`` are drawn once per arrival.
    """

    #: Pre-drawn arrivals per refill. Large enough to amortize numpy call
    #: dispatch, small enough that a mid-run rewind replays trivially.
    BATCH = 64

    def __init__(
        self,
        sim: "Simulator",
        port: AexPort,
        distribution: InterAexDistribution,
        rng_name: str,
        cause: str = "os",
        enabled: bool = True,
    ) -> None:
        self.sim = sim
        self.port = port
        self.distribution = distribution
        self.cause = cause
        self.enabled = enabled
        self._rng = sim.rng.stream(rng_name)
        self._poll_ns = 100 * MILLISECOND
        self._delays = DrawBatch(self._rng, self.BATCH)
        # Bootstrap mirrors the old generator-based source: a priority-1
        # event at the construction instant arms the first arrival, keeping
        # the processed-event stream (and thus golden traces) unchanged.
        bootstrap = Event(sim)
        bootstrap._add_callback(self._arm)
        bootstrap.succeed()

    def pause(self) -> None:
        """Attacker isolates the core: no further AEXs from this source.

        Pre-drawn delays stay valid: a draw-per-arrival source would draw
        the same values from the same stream after resuming.
        """
        self.enabled = False

    def resume(self) -> None:
        """Re-enable AEX generation (takes effect at the next poll tick)."""
        self.enabled = True

    def set_distribution(self, distribution: InterAexDistribution) -> None:
        """Switch the inter-AEX delay environment from now on."""
        self._delays.rewind()
        self.distribution = distribution

    # -- the arrival chain -----------------------------------------------------

    def _arm(self, _event: Optional[Event] = None) -> None:
        """Schedule the next arrival (the old generator's loop top)."""
        if not self.enabled:
            # Poll cheaply while paused; the exactness of the resume
            # instant is not protocol-relevant.
            self.sim.timeout(self._poll_ns)._add_callback(self._arm)
            return
        delay = self._delays.draw(self.distribution)
        self.sim.timeout(delay)._add_callback(self._fire)

    def _fire(self, _event: Event) -> None:
        if self.enabled:
            self.port.fire(self.cause)
        self._arm()


class MachineWideInterrupts:
    """Correlated OS interrupts hitting all cores of a machine at once.

    The paper observes that on their setup residual OS interrupts do not
    target individual cores: all three nodes' monitoring threads sometimes
    experience an AEX *simultaneously* ("with higher probability than the
    original Triad experiment setup"), forcing every node to contact the
    Time Authority and producing the sawtooth drift of Fig. 2a — while at
    other times a single core is hit, producing the solo AEXs whose peer
    untaints cause the 50–70 ms forward jumps of Fig. 3a.

    ``correlation_probability`` selects between the two per firing: with
    probability p every registered port fires simultaneously; otherwise a
    single uniformly chosen port fires alone.
    """

    def __init__(
        self,
        sim: "Simulator",
        ports: Sequence[AexPort],
        distribution: InterAexDistribution,
        rng_name: str = "machine-wide-interrupts",
        enabled: bool = True,
        correlation_probability: float = 1.0,
    ) -> None:
        if not ports:
            raise ConfigurationError("machine-wide interrupts need at least one port")
        if not 0.0 <= correlation_probability <= 1.0:
            raise ConfigurationError(
                f"correlation probability must be in [0,1], got {correlation_probability}"
            )
        self.sim = sim
        self.ports = list(ports)
        self.distribution = distribution
        self.enabled = enabled
        self.correlation_probability = correlation_probability
        self._rng = sim.rng.stream(rng_name)
        self.fire_times_ns: list[int] = []
        self.process = sim.process(self._run(), name="machine-wide-interrupts")

    def _run(self):
        poll_ns = SECOND
        while True:
            if not self.enabled:
                yield self.sim.timeout(poll_ns)
                continue
            delay = self.distribution.sample(self._rng)
            yield self.sim.timeout(delay)
            if self.enabled:
                self.fire_times_ns.append(self.sim.now)
                if (
                    self.correlation_probability >= 1.0
                    or self._rng.random() < self.correlation_probability
                ):
                    for port in self.ports:
                        port.fire("machine-wide")
                else:
                    index = int(self._rng.integers(0, len(self.ports)))
                    self.ports[index].fire("machine-wide")
