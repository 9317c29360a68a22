"""The windowed sender: one retransmission engine for every transport.

:class:`~repro.transport.reliability.ReliableSenderChannel` (DAIET
aggregation traffic) and the flows of
:class:`~repro.transport.udp.ReliableUdpTransport` (the baselines) each own
one :class:`WindowedSender`, built by :func:`sender_on`. The engine holds

* a :class:`~repro.core.packet.RetransmitBuffer` (sequence number -> opaque
  packet) that applies cumulative+selective acknowledgements and names the
  holes to gap-fill, each once until it is acknowledged or a timeout probes
  it; a timeout resends two probes, the lowest and the highest
  unacknowledged number, never the window;
* an optional **RTT estimator** (:class:`RttEstimator`, RFC 6298 SRTT/RTTVAR
  with Karn's rule on retransmitted samples and exponential backoff clamped
  to a configurable floor/ceiling) in place of the fixed timeout;
* an optional **congestion controller** (:class:`AimdController`) that
  bounds the number of in-flight packets; excess packets queue in the
  sender and are released as acknowledgements open the window.

With neither estimator nor controller installed (the default
:class:`~repro.core.config.TransportTuning`, which lives beside
``DaietConfig`` and is re-exported here), the timeout is fixed and the
window unlimited.

The owner supplies the environment through three callbacks: ``timer_factory``
(a restartable one-shot timer on the simulation clock), ``clock`` (current
simulated time, only consulted when RTT sampling is active) and ``transmit``
(inject a burst of packets and do the owner's accounting). This keeps the
engine free of any dependency on the packet type or the statistics object,
which is exactly what lets DAIET channels and UDP flows share it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable

from repro.core.config import TransportTuning
from repro.core.errors import TransportError
from repro.core.packet import RetransmitBuffer

#: Backoff cap for the fixed-RTO mode: a retransmission timeout never grows
#: beyond this multiple of the base timeout (the historical behaviour).
MAX_BACKOFF_FACTOR = 8


# ---------------------------------------------------------------------- #
# RTT estimation (RFC 6298)
# ---------------------------------------------------------------------- #
class RttEstimator:
    """SRTT/RTTVAR retransmission-timeout estimator per RFC 6298.

    * first sample ``R``: ``SRTT = R``, ``RTTVAR = R/2``;
    * later samples: ``RTTVAR = (1-beta)*RTTVAR + beta*|SRTT-R|`` then
      ``SRTT = (1-alpha)*SRTT + alpha*R`` with ``alpha = 1/8``,
      ``beta = 1/4``;
    * ``RTO = SRTT + K*RTTVAR`` (``K = 4``), clamped to ``[floor, ceiling]``;
    * :meth:`backoff` doubles the RTO (timer backoff); :meth:`end_backoff`
      (the caller saw ACK progress) or the next valid sample recomputes it
      from SRTT, which is what ends a backoff episode.

    Karn's rule lives in the caller (:class:`WindowedSender`): samples are
    simply never taken for retransmitted packets, so this class only ever
    sees valid measurements.
    """

    ALPHA = 0.125
    BETA = 0.25
    K = 4

    __slots__ = ("floor", "ceiling", "srtt", "rttvar", "_initial", "_rto", "samples")

    def __init__(self, *, initial_rto: float, floor: float, ceiling: float) -> None:
        if floor <= 0:
            raise TransportError("RTO floor must be positive")
        if ceiling < floor:
            raise TransportError("RTO ceiling must not lie below the floor")
        self.floor = floor
        self.ceiling = ceiling
        self.srtt: float | None = None
        self.rttvar: float | None = None
        self._initial = self._rto = self._clamp(initial_rto)
        self.samples = 0

    def _clamp(self, value: float) -> float:
        if value < self.floor:
            return self.floor
        if value > self.ceiling:
            return self.ceiling
        return value

    @property
    def rto(self) -> float:
        """The current retransmission timeout."""
        return self._rto

    def observe(self, sample: float) -> None:
        """Fold one RTT measurement into SRTT/RTTVAR and recompute the RTO."""
        if sample < 0:
            raise TransportError("RTT samples must be non-negative")
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(
                self.srtt - sample
            )
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * sample
        self.samples += 1
        self.end_backoff()

    def backoff(self) -> None:
        """Double the RTO (exponential timer backoff, ceiling-clamped)."""
        self._rto = self._clamp(self._rto * 2)

    def end_backoff(self) -> None:
        """Back to ``SRTT + K*RTTVAR`` (the initial RTO before any sample).

        Karn's rule voids the samples of exactly the packets a timeout
        touched, so waiting for a valid sample to end the episode can wait
        for ever: ACK progress is the evidence that the path is alive.
        """
        if self.srtt is None:
            self._rto = self._initial
        else:
            self._rto = self._clamp(self.srtt + self.K * self.rttvar)


# ---------------------------------------------------------------------- #
# Congestion control
# ---------------------------------------------------------------------- #
class AimdController:
    """Slow start + AIMD, the classic TCP-style controller.

    The windowed sender reports three events — acknowledged packets, a
    SACK-proven hole that triggered a gap-fill, and a retransmission
    timeout — and reads back :meth:`window`, the number of packets allowed
    in flight. Below ``ssthresh`` every acknowledged packet grows the window
    by one (slow start); above it the window grows by ``1/cwnd`` per
    acknowledged packet (congestion avoidance). A SACK hole halves the
    window; a timeout collapses it to ``min_cwnd`` and re-enters slow start.
    """

    __slots__ = ("cwnd", "ssthresh", "min_cwnd")

    def __init__(self, *, initial_cwnd: int = 10, min_cwnd: int = 2) -> None:
        self.cwnd = float(initial_cwnd)
        self.ssthresh = float("inf")
        self.min_cwnd = float(min_cwnd)

    def window(self) -> int:
        """Current congestion window in whole packets (>= 1)."""
        return max(1, int(self.cwnd))

    def on_ack(self, acked: int) -> None:
        """``acked`` fresh packets acknowledged."""
        if self.cwnd < self.ssthresh:
            self.cwnd += acked
        else:
            self.cwnd += acked / self.cwnd

    def on_gap(self) -> None:
        """A selective ACK proved a hole (fast-retransmit-grade loss signal)."""
        self.ssthresh = max(self.min_cwnd, self.cwnd / 2)
        self.cwnd = self.ssthresh

    def on_timeout(self) -> None:
        """The retransmission timer fired (severe loss signal)."""
        self.ssthresh = max(self.min_cwnd, self.cwnd / 2)
        self.cwnd = self.min_cwnd


def make_congestion_controller(tuning: TransportTuning) -> AimdController | None:
    """Build the controller the tuning asks for (``None`` for ``"none"``)."""
    if tuning.congestion_control == "aimd":
        return AimdController(
            initial_cwnd=tuning.initial_cwnd, min_cwnd=tuning.min_cwnd
        )
    return None


def make_rtt_estimator(
    tuning: TransportTuning, base_timeout: float
) -> RttEstimator | None:
    """Build the RTT estimator the tuning asks for (``None`` when fixed)."""
    if not tuning.adaptive_rto:
        return None
    floor = tuning.rto_floor if tuning.rto_floor is not None else base_timeout
    return RttEstimator(
        initial_rto=base_timeout,
        floor=floor,
        ceiling=max(tuning.rto_ceiling, floor),
    )


# ---------------------------------------------------------------------- #
# The unified sender
# ---------------------------------------------------------------------- #
class WindowedSender:
    """One sender state machine for every reliable transport in the repo.

    The engine owns sequence-indexed buffering, ACK processing, gap-fill,
    timeout retransmission, RTT sampling and window pacing; the owner owns
    packet construction and statistics via the ``transmit`` callback:

    ``transmit(packets, retransmit)``
        Inject ``packets`` (in order, as one burst) and account them;
        ``retransmit`` distinguishes fresh sends from re-sends.

    ``on_timeout_stat()``
        Called once per retransmission timeout, before the give-up check —
        mirrors the historical accounting order exactly.

    ``give_up(outstanding)``
        Called when ``max_retransmits`` consecutive timeouts elapsed without
        progress; must raise the owner's error.
    """

    __slots__ = (
        "base_timeout",
        "max_retransmits",
        "_emit",
        "_on_timeout_stat",
        "_give_up",
        "_clock",
        "_rtt",
        "_cc",
        "_buffer",
        "_unacked",
        "_pending",
        "_history",
        "_sent_at",
        "_consecutive_timeouts",
        "_timer",
        "retain_history",
    )

    def __init__(
        self,
        *,
        timer_factory: Callable[[Callable[[], None]], Any],
        transmit: Callable[[list[Any], bool], None],
        base_timeout: float,
        max_retransmits: int,
        give_up: Callable[[int], None],
        on_timeout_stat: Callable[[], None] | None = None,
        clock: Callable[[], float] | None = None,
        rtt: RttEstimator | None = None,
        congestion: AimdController | None = None,
        retain_history: bool = False,
    ) -> None:
        if base_timeout <= 0:
            raise TransportError("retransmit_timeout must be positive")
        self.base_timeout = base_timeout
        self.max_retransmits = max_retransmits
        self._emit = transmit
        self._on_timeout_stat = on_timeout_stat
        self._give_up = give_up
        self._clock = clock
        self._rtt = rtt
        if rtt is not None and clock is None:
            raise TransportError("adaptive RTO requires a clock callback")
        self._cc = congestion
        #: In-flight packets (injected and not yet acknowledged) and which of
        #: them have a gap-fill on its way.
        self._buffer = RetransmitBuffer()
        #: The buffer's seq -> packet map itself: the send path reads it on
        #: every call.
        self._unacked = self._buffer.unacked
        #: (seq, packet) accepted but still waiting for window space.
        self._pending: deque[tuple[int, Any]] = deque()
        #: seq -> packet for every packet ever accepted (replay log).
        self._history: dict[int, Any] = {}
        #: seq -> injection time for RTT sampling (Karn: a retransmission
        #: deletes the entry, so the sample is never taken).
        self._sent_at: dict[int, float] = {}
        self._consecutive_timeouts = 0
        self._timer = timer_factory(self._on_timeout)
        self.retain_history = retain_history

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """True once every accepted packet has been acknowledged."""
        return not self._unacked and not self._pending

    @property
    def outstanding(self) -> int:
        """Packets accepted and not yet acknowledged (in flight + queued)."""
        return len(self._unacked) + len(self._pending)

    @property
    def in_flight(self) -> int:
        """Packets injected into the network and not yet acknowledged."""
        return len(self._unacked)

    @property
    def timer(self) -> Any:
        """The retransmission timer (owner teardown)."""
        return self._timer

    @property
    def rtt(self) -> RttEstimator | None:
        """The installed RTT estimator, if any."""
        return self._rtt

    @property
    def congestion(self) -> AimdController | None:
        """The installed congestion controller, if any."""
        return self._cc

    def current_rto(self) -> float:
        """The timeout used for the next timer (re)start."""
        if self._rtt is not None:
            return self._rtt.rto
        return self.base_timeout

    def history(self) -> list[Any]:
        """Every packet ever accepted, in sequence order (replay log)."""
        return [self._history[seq] for seq in sorted(self._history)]

    # ------------------------------------------------------------------ #
    # Send path
    # ------------------------------------------------------------------ #
    def send(self, items: Iterable[tuple[int, Any]]) -> int:
        """Accept sequenced packets; inject up to the window, queue the rest.

        Returns the number of packets accepted. With no congestion
        controller every packet is injected immediately,
        the whole call as one burst.
        """
        window = list(items)
        if self.retain_history:
            self._history.update(window)
        # One admission path: whatever is waiting for window space already
        # goes first (it can only be waiting because the window is full).
        self._pending.extend(window)
        self._release_pending()
        if self._unacked and not self._timer.active:
            self._timer.start(self.current_rto())
        return len(window)

    def _inject(self, batch: list[tuple[int, Any]], retransmit: bool) -> None:
        """Move a batch into the unacked buffer and hand it to the owner."""
        self._unacked.update(batch)
        if self._rtt is not None:
            now = self._clock()
            sent_at = self._sent_at
            for seq, _packet in batch:
                sent_at[seq] = now
        self._emit([packet for _seq, packet in batch], retransmit)

    def _release_pending(self) -> None:
        """Inject queued packets, oldest first, as far as the window allows."""
        cc = self._cc
        if not self._pending:
            return
        if cc is None:
            allowance = len(self._pending)
        else:
            allowance = cc.window() - len(self._unacked)
        if allowance <= 0:
            return
        pending = self._pending
        if allowance >= len(pending):
            batch = list(pending)
            pending.clear()
        else:
            batch = [pending.popleft() for _ in range(allowance)]
        self._inject(batch, retransmit=False)

    # ------------------------------------------------------------------ #
    # ACK path
    # ------------------------------------------------------------------ #
    def on_ack(self, cumulative: int, sacked: set[int]) -> None:
        """Advance the window for one cumulative+selective acknowledgement.

        Drops everything the ACK covers, samples the RTT from the newest
        freshly-acknowledged packet (Karn's rule: never from an ACK that
        covers a retransmitted one), ends a timer backoff on progress,
        gap-fills what the SACK set proves missing and is not already being
        repaired, feeds the congestion controller and releases queued
        packets into the opened window.
        """
        acked = self._buffer.acknowledge(cumulative, sacked)
        if acked:
            if self._rtt is not None:
                if self._consecutive_timeouts:
                    self._rtt.end_backoff()
                # No sample from an ACK that also covers a retransmitted
                # packet: whatever a cumulative jump releases with it waited
                # for the repair, not for the path.
                sent_at = self._sent_at
                stamps = [sent_at.pop(seq, None) for seq in acked]
                if None not in stamps:
                    self._rtt.observe(self._clock() - stamps[-1])
            self._consecutive_timeouts = 0
            if self._cc is not None:
                self._cc.on_ack(len(acked))
        missing = self._buffer.holes(sacked)
        if missing:
            self.retransmit(missing)
            if self._cc is not None:
                self._cc.on_gap()
        self._release_pending()
        if self._unacked:
            self._timer.start(self.current_rto())
        else:
            self._timer.cancel()

    def retransmit(self, seqs: list[int]) -> None:
        """Re-inject buffered packets (Karn: their RTT samples are voided)."""
        if not seqs:
            return
        unacked = self._unacked
        sent_at = self._sent_at
        if sent_at:
            for seq in seqs:
                sent_at.pop(seq, None)
        self._emit([unacked[seq] for seq in seqs], True)

    # ------------------------------------------------------------------ #
    # Timeout path
    # ------------------------------------------------------------------ #
    def _on_timeout(self) -> None:
        if not self._unacked:
            return
        self._consecutive_timeouts += 1
        if self._on_timeout_stat is not None:
            self._on_timeout_stat()
        if self._consecutive_timeouts > self.max_retransmits:
            self._give_up(self.outstanding)
            return
        self.retransmit(self._buffer.probes())
        if self._cc is not None:
            self._cc.on_timeout()
        if self._rtt is not None:
            self._rtt.backoff()
            self._timer.start(self._rtt.rto)
        else:
            backoff = min(2**self._consecutive_timeouts, MAX_BACKOFF_FACTOR)
            self._timer.start(self.base_timeout * backoff)

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Cancel the timer and drop every buffer except the replay log."""
        self._timer.cancel()
        self._unacked.clear()
        self._buffer.resent.clear()
        self._pending.clear()
        self._sent_at.clear()


def sender_on(
    simulator: Any,
    tuning: TransportTuning,
    *,
    retransmit_timeout: float,
    max_retransmits: int,
    transmit: Callable[[list[Any], bool], None],
    give_up: Callable[[int], None],
    on_timeout_stat: Callable[[], None],
    retain_history: bool = False,
) -> WindowedSender:
    """A :class:`WindowedSender` on ``simulator``'s clock, tuned by ``tuning``.

    The one place that turns a tuning into an engine: timers and RTT samples
    run on the simulation clock, the base timeout is
    ``tuning.base_timeout(retransmit_timeout)``, and the estimator and the
    controller are the ones the tuning asks for. The
    owner keeps what is its own: framing and accounting (``transmit``,
    ``on_timeout_stat``) and what giving up means (``give_up``).
    """
    base = tuning.base_timeout(retransmit_timeout)
    return WindowedSender(
        timer_factory=simulator.timer,
        transmit=transmit,
        base_timeout=base,
        max_retransmits=max_retransmits,
        give_up=give_up,
        on_timeout_stat=on_timeout_stat,
        clock=lambda: simulator.now,
        rtt=make_rtt_estimator(tuning, base),
        congestion=make_congestion_controller(tuning),
        retain_history=retain_history,
    )
