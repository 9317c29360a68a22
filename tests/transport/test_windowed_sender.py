"""Tests for the unified windowed sender.

Three layers:

* unit tests for the RFC 6298 RTT estimator (sample folding, Karn's rule via
  the sender, exponential backoff doubling, floor/ceiling clamps);
* scripted ACK traces for the AIMD congestion controller;
* behavioural parity of :class:`WindowedSender` in default tuning against a
  straight-line reference reimplementation of the sender state machine (a
  timeout probes the lowest and the highest unacknowledged number, capped
  exponential backoff, a gap-filled number waits for its ACK or a timeout),
  driven over randomized seeded ACK scripts; the
  :class:`~repro.core.packet.RetransmitBuffer` the sender (and the switch
  engine) applies ACKs through is held to the same reference on its own;
* hole repair end to end: the sender against a :class:`SeenWindow` receiver
  on the 8-packet cadence, with chosen packets lost.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import TransportError
from repro.core.packet import RetransmitBuffer, SeenWindow
from repro.transport.window import (
    MAX_BACKOFF_FACTOR,
    AimdController,
    RttEstimator,
    TransportTuning,
    WindowedSender,
    make_congestion_controller,
    make_rtt_estimator,
)


class FakeTimer:
    """Records every (re)start so tests can assert on the timeout sequence."""

    def __init__(self, callback):
        self.callback = callback
        self.active = False
        self.starts: list[float] = []

    def start(self, delay: float) -> None:
        self.active = True
        self.starts.append(delay)

    def cancel(self) -> None:
        self.active = False

    def fire(self) -> None:
        self.active = False
        self.callback()


class Harness:
    """Owner-side environment for a WindowedSender under test."""

    def __init__(self, *, tuning: TransportTuning | None = None,
                 base_timeout: float = 1e-3, max_retransmits: int = 5):
        tuning = tuning or TransportTuning()
        self.now = 0.0
        self.timer: FakeTimer | None = None
        self.sent: list[tuple[list[int], bool]] = []
        self.timeouts = 0
        self.gave_up_with: int | None = None

        def timer_factory(cb):
            self.timer = FakeTimer(cb)
            return self.timer

        def transmit(packets, retransmit):
            self.sent.append((list(packets), retransmit))

        def give_up(outstanding):
            self.gave_up_with = outstanding
            raise TransportError(f"gave up with {outstanding} outstanding")

        self.sender = WindowedSender(
            timer_factory=timer_factory,
            transmit=transmit,
            base_timeout=base_timeout,
            max_retransmits=max_retransmits,
            give_up=give_up,
            on_timeout_stat=self._count_timeout,
            clock=lambda: self.now,
            rtt=make_rtt_estimator(tuning, base_timeout),
            congestion=make_congestion_controller(tuning),
        )

    def _count_timeout(self):
        self.timeouts += 1

    def send_seqs(self, *seqs: int) -> None:
        self.sender.send((s, s) for s in seqs)

    def wire(self) -> list[int]:
        """Every packet id that hit the transmit callback, in order."""
        return [p for batch, _r in self.sent for p in batch]


# ---------------------------------------------------------------------- #
# RTT estimator (RFC 6298)
# ---------------------------------------------------------------------- #
class TestRttEstimator:
    def test_first_sample_initialises_srtt_and_rttvar(self):
        est = RttEstimator(initial_rto=1.0, floor=1e-4, ceiling=10.0)
        est.observe(0.2)
        assert est.srtt == pytest.approx(0.2)
        assert est.rttvar == pytest.approx(0.1)
        assert est.rto == pytest.approx(0.2 + 4 * 0.1)

    def test_later_samples_follow_rfc6298_ewma(self):
        est = RttEstimator(initial_rto=1.0, floor=1e-4, ceiling=10.0)
        est.observe(0.2)
        est.observe(0.4)
        rttvar = 0.75 * 0.1 + 0.25 * abs(0.2 - 0.4)
        srtt = 0.875 * 0.2 + 0.125 * 0.4
        assert est.rttvar == pytest.approx(rttvar)
        assert est.srtt == pytest.approx(srtt)
        assert est.rto == pytest.approx(srtt + 4 * rttvar)

    def test_backoff_doubles_until_ceiling(self):
        est = RttEstimator(initial_rto=0.5, floor=1e-4, ceiling=1.5)
        est.backoff()
        assert est.rto == pytest.approx(1.0)
        est.backoff()
        assert est.rto == pytest.approx(1.5)  # ceiling clamp
        est.backoff()
        assert est.rto == pytest.approx(1.5)

    def test_floor_clamp(self):
        est = RttEstimator(initial_rto=1.0, floor=0.25, ceiling=10.0)
        est.observe(1e-6)  # tiny RTT: SRTT + 4*RTTVAR far below the floor
        assert est.rto == pytest.approx(0.25)

    def test_sample_after_backoff_recomputes_from_srtt(self):
        est = RttEstimator(initial_rto=0.5, floor=1e-4, ceiling=100.0)
        est.observe(0.2)
        inflated = est.rto
        est.backoff()
        est.backoff()
        assert est.rto > inflated
        est.observe(0.2)
        assert est.rto < inflated * 2  # backoff episode over

    def test_end_backoff_returns_to_the_estimate(self):
        est = RttEstimator(initial_rto=0.5, floor=1e-4, ceiling=100.0)
        est.backoff()
        est.end_backoff()
        assert est.rto == pytest.approx(0.5)  # no sample yet: the initial RTO
        est.observe(0.2)
        estimate = est.rto
        est.backoff()
        est.backoff()
        est.end_backoff()
        assert est.rto == pytest.approx(estimate)

    def test_invalid_construction_and_samples(self):
        with pytest.raises(TransportError):
            RttEstimator(initial_rto=1.0, floor=0.0, ceiling=1.0)
        with pytest.raises(TransportError):
            RttEstimator(initial_rto=1.0, floor=2.0, ceiling=1.0)
        est = RttEstimator(initial_rto=1.0, floor=1e-4, ceiling=10.0)
        with pytest.raises(TransportError):
            est.observe(-0.1)


class TestKarnsRule:
    def test_no_sample_from_a_retransmitted_packet(self):
        h = Harness(tuning=TransportTuning(adaptive_rto=True, rto_floor=1e-4))
        h.send_seqs(0)
        h.now = 0.05
        h.timer.fire()  # retransmission voids seq 0's timestamp
        h.now = 0.10
        h.sender.on_ack(1, set())
        assert h.sender._rtt.samples == 0  # Karn: ambiguous ACK never sampled

    def test_fresh_packet_is_sampled(self):
        h = Harness(tuning=TransportTuning(adaptive_rto=True, rto_floor=1e-4))
        h.send_seqs(0)
        h.now = 0.03
        h.sender.on_ack(1, set())
        assert h.sender._rtt.samples == 1
        assert h.sender._rtt.srtt == pytest.approx(0.03)

    def test_no_sample_from_an_ack_that_also_covers_a_retransmitted_packet(self):
        h = Harness(tuning=TransportTuning(adaptive_rto=True, rto_floor=1e-4))
        h.send_seqs(0, 1, 2)
        h.now = 0.01
        h.sender.on_ack(0, {1})  # gap-fill of 0 voids its timestamp
        h.now = 0.50
        h.sender.on_ack(3, set())  # 2 was fresh, but it waited for the repair
        assert h.sender._rtt.samples == 1  # the SACK of 1 alone

    def test_ack_progress_ends_the_backoff_without_a_sample(self):
        h = Harness(tuning=TransportTuning(adaptive_rto=True, rto_floor=1e-4))
        h.send_seqs(0, 1)
        h.timer.fire()
        h.timer.fire()
        assert h.sender._rtt.rto == pytest.approx(4e-3)
        h.sender.on_ack(1, set())  # Karn voids the sample; progress is enough
        assert h.sender._rtt.samples == 0
        assert h.timer.starts[-1] == h.sender._rtt.rto == pytest.approx(1e-3)

    def test_adaptive_timer_uses_estimator_rto(self):
        h = Harness(tuning=TransportTuning(adaptive_rto=True, rto_floor=1e-4))
        h.send_seqs(0, 1)
        h.now = 0.03
        h.sender.on_ack(1, set())  # seq 0 acked, seq 1 still out
        assert h.timer.starts[-1] == pytest.approx(h.sender._rtt.rto)


# ---------------------------------------------------------------------- #
# The congestion controller under scripted traces
# ---------------------------------------------------------------------- #
class TestAimdController:
    def test_slow_start_doubles_per_window(self):
        cc = AimdController(initial_cwnd=4, min_cwnd=2)
        cc.on_ack(4)
        assert cc.window() == 8

    def test_congestion_avoidance_grows_linearly(self):
        cc = AimdController(initial_cwnd=8, min_cwnd=2)
        cc.on_gap()  # ssthresh = cwnd/2 = 4, cwnd = 4
        start = cc.cwnd
        cc.on_ack(4)  # +4/cwnd each ~ +1 per full window
        assert cc.cwnd == pytest.approx(start + sum(
            [4 / start]))  # one on_ack(4) = +4/cwnd
        assert cc.cwnd < start + 4  # no slow-start jump

    def test_gap_halves_and_timeout_collapses(self):
        cc = AimdController(initial_cwnd=16, min_cwnd=2)
        cc.on_gap()
        assert cc.window() == 8
        cc.on_timeout()
        assert cc.window() == 2
        assert cc.ssthresh == pytest.approx(4)

    def test_timeout_re_enters_slow_start_up_to_half_the_old_window(self):
        cc = AimdController(initial_cwnd=32, min_cwnd=2)
        cc.on_timeout()  # ssthresh = 16, cwnd = 2
        cc.on_ack(14)
        assert cc.cwnd == pytest.approx(16)  # slow start: +1 per packet
        cc.on_ack(16)
        assert cc.cwnd == pytest.approx(17)  # avoidance: +1 per full window

    def test_gap_never_cuts_below_min_cwnd(self):
        cc = AimdController(initial_cwnd=3, min_cwnd=2)
        cc.on_gap()
        assert cc.cwnd == pytest.approx(2)
        assert cc.ssthresh == pytest.approx(2)

    def test_window_never_below_one(self):
        cc = AimdController(initial_cwnd=2, min_cwnd=2)
        for _ in range(10):
            cc.on_timeout()
        assert cc.window() >= 1


# ---------------------------------------------------------------------- #
# WindowedSender: default-mode semantics (the historical state machine)
# ---------------------------------------------------------------------- #
class TestWindowedSenderDefaults:
    def test_send_injects_everything_and_arms_timer(self):
        h = Harness()
        h.send_seqs(0, 1, 2)
        assert h.sent == [([0, 1, 2], False)]
        assert h.timer.active
        assert h.timer.starts == [1e-3]

    def test_cumulative_ack_clears_and_restarts_timer(self):
        h = Harness()
        h.send_seqs(0, 1, 2)
        h.sender.on_ack(2, set())
        assert not h.sender.done
        assert h.timer.starts[-1] == 1e-3
        h.sender.on_ack(3, set())
        assert h.sender.done
        assert not h.timer.active

    def test_timer_restarts_at_base_even_without_progress(self):
        h = Harness()
        h.send_seqs(0, 1)
        h.sender.on_ack(0, set())  # no progress
        assert h.timer.starts == [1e-3, 1e-3]

    def test_gap_filled_number_waits_for_its_ack_or_a_timeout(self):
        h = Harness()
        h.send_seqs(0, 1, 2, 3, 4)
        h.sender.on_ack(0, {2})  # hole at 0,1 below horizon 2
        assert h.sent[-1] == ([0, 1], True)
        h.sender.on_ack(0, {2})  # duplicate ACK: no progress, no refill
        assert len(h.sent) == 2
        h.sender.on_ack(1, {3})  # progress: 1 is still on its way, 2 is gone
        assert len(h.sent) == 2
        h.timer.fire()  # the timeout probes both ends: 1 may be filled again
        assert h.sent[-1] == ([1, 4], True)
        h.sender.on_ack(1, {3, 4})  # the high probe's ACK proves 1 missing again
        assert h.sent[-1] == ([1], True)
        h.sender.on_ack(5, set())
        assert h.sender.done and not h.sender._buffer.resent

    def test_timeout_probes_both_ends_with_capped_backoff(self):
        h = Harness()
        h.send_seqs(0, 1, 2, 3)
        expected = [1e-3]
        for n in (1, 2, 3, 4, 5):
            h.timer.fire()
            assert h.sent[-1] == ([0, 3], True)
            expected.append(1e-3 * min(2**n, MAX_BACKOFF_FACTOR))
        assert h.timer.starts == expected
        assert h.timeouts == 5

    def test_timeout_with_one_packet_owed_sends_it_once(self):
        h = Harness()
        h.send_seqs(0)
        h.timer.fire()
        assert h.sent[-1] == ([0], True)

    def test_give_up_after_max_consecutive_timeouts(self):
        h = Harness(max_retransmits=2)
        h.send_seqs(0)
        h.timer.fire()
        h.timer.fire()
        with pytest.raises(TransportError):
            h.timer.fire()
        assert h.gave_up_with == 1
        assert h.timeouts == 3  # the stat is counted before the give-up

    def test_ack_progress_resets_the_timeout_streak(self):
        h = Harness(max_retransmits=2)
        h.send_seqs(0, 1)
        h.timer.fire()
        h.timer.fire()
        h.sender.on_ack(1, set())  # progress: streak back to zero
        h.timer.fire()
        h.timer.fire()
        assert h.gave_up_with is None

    def test_history_retained_only_when_asked(self):
        h = Harness()
        h.send_seqs(0, 1)
        assert h.sender.history() == []
        h.sender.retain_history = True
        h.send_seqs(2)
        assert h.sender.history() == [2]

    def test_close_cancels_and_clears(self):
        h = Harness()
        h.send_seqs(0, 1)
        h.sender.close()
        assert not h.timer.active
        assert h.sender.done


class TestWindowedSenderPacing:
    def test_default_tuning_sends_everything_at_once(self):
        h = Harness()
        assert h.sender._cc is None
        h.send_seqs(*range(64))
        assert h.wire() == list(range(64))
        assert len(h.sender._unacked) == 64

    def test_sack_hole_halves_the_window(self):
        tuning = TransportTuning(congestion_control="aimd", initial_cwnd=8)
        h = Harness(tuning=tuning)
        h.send_seqs(*range(12))
        assert h.wire() == list(range(8))
        h.sender.on_ack(0, {1, 2, 3})  # three acked: slow start takes cwnd to 11
        assert h.sent[-1] == ([0], True)  # the proven hole is gap-filled
        # ... and halves the window: 0, 4, 5, 6, 7 already fill it.
        assert h.sender._cc.window() == 5
        assert len(h.sender._unacked) == 5
        assert len(h.sender._unacked) + len(h.sender._pending) == 9

    def test_timeout_collapses_the_window_to_min_cwnd(self):
        tuning = TransportTuning(congestion_control="aimd", initial_cwnd=8, min_cwnd=2)
        h = Harness(tuning=tuning)
        h.send_seqs(*range(12))
        h.timer.fire()
        assert h.sent[-1] == ([0, 7], True)  # probes only, nothing fresh
        assert h.sender._cc.window() == 2
        h.sender.on_ack(8, set())  # slow start from 2: cwnd 10
        assert sorted(h.wire()[-4:]) == [8, 9, 10, 11]
        assert len(h.sender._unacked) == 4

    def test_congestion_window_queues_excess(self):
        tuning = TransportTuning(congestion_control="aimd", initial_cwnd=2)
        h = Harness(tuning=tuning)
        h.send_seqs(0, 1, 2, 3, 4)
        assert h.sent == [([0, 1], False)]
        assert len(h.sender._unacked) == 2
        assert len(h.sender._unacked) + len(h.sender._pending) == 5
        h.sender.on_ack(2, set())  # two acked; slow start opens the window
        released = h.sent[-1]
        assert released[1] is False
        assert released[0][0] == 2  # queued packets flow in order
        assert h.sender.done is False

    def test_everything_drains_under_acks(self):
        tuning = TransportTuning(congestion_control="aimd", initial_cwnd=2)
        h = Harness(tuning=tuning)
        h.send_seqs(*range(20))
        guard = 0
        while not h.sender.done:
            acked = max(s for batch, _r in h.sent for s in batch) + 1
            h.sender.on_ack(acked, set())
            guard += 1
            assert guard < 100
        assert sorted(h.wire()) == sorted(range(20))


# ---------------------------------------------------------------------- #
# Hole repair: the sender against a SeenWindow receiver on the 8-cadence
# ---------------------------------------------------------------------- #
class Hop:
    """One sender and one receiver window; the test says what the wire loses."""

    def __init__(self, packets: int):
        self.h = Harness()
        self.window = SeenWindow()
        self.h.send_seqs(*range(packets))

    def carry(self, lost: frozenset[int] | set[int] = frozenset()) -> None:
        """Deliver what was sent since the last call, then the ACKs it drew."""
        batches, self.h.sent = self.h.sent, []
        acks = []
        for batch, _retransmit in batches:
            for seq in batch:
                if seq in lost:
                    continue
                fresh = self.window.observe(seq)
                if not fresh or self.window.edge or self.window.count_arrival() >= 8:
                    acks.append(self.window.take_ack())
        for cumulative, sack in acks:
            self.h.sender.on_ack(cumulative, set(sack))

    def resent(self) -> list[int]:
        return [seq for batch, retransmit in self.h.sent if retransmit for seq in batch]


class TestHoleRepair:
    def test_lost_tail_costs_its_length_and_one_rto(self):
        hop = Hop(20)
        hop.carry(lost={16, 17, 18, 19})  # cadence ACKs at 8 and 16: no proof
        assert len(hop.h.sender._unacked) == 4 and not hop.resent()
        hop.h.timer.fire()
        assert hop.resent() == [16, 19]
        hop.carry()  # 19 opens a hole: its ACK proves 17 and 18 missing
        assert hop.resent() == [17, 18]
        hop.carry()
        assert hop.h.sender.done and hop.h.timeouts == 1

    def test_lost_gap_fill_is_repaired_by_the_low_probe_alone(self):
        hop = Hop(16)
        hop.carry(lost={5})  # 6 opens the hole; the cadence ACKs repeat it
        assert hop.resent() == [5]
        hop.carry(lost={5})  # the gap-fill is lost too: nothing says so
        assert not hop.resent() and len(hop.h.sender._unacked)
        hop.h.timer.fire()
        (probes, _), = hop.h.sent
        assert probes[0] == 5 and len(probes) == 2
        hop.h.sent = [([5], True)]  # the low probe alone reaches the receiver
        hop.carry()
        assert hop.h.sender.done and not hop.h.sent

    def test_truncated_sack_proves_only_what_lies_below_its_top(self):
        # The receiver holds 0..99 and 101..1799; its SACK list is the lowest
        # eight out-of-order numbers, so nothing below 108 was left out of it
        # and everything above may well have arrived.
        hop = Hop(1800)
        hop.h.sender.on_ack(100, set())
        hop.h.timer.fire()
        assert hop.resent() == [100, 1799]
        hop.h.sent = []
        hop.h.sender.on_ack(100, set(range(101, 109)))  # the answer to 1799
        assert hop.h.sent == [([100], True)]


# ---------------------------------------------------------------------- #
# Twin-path oracle: default tuning vs the reference machine
# ---------------------------------------------------------------------- #
class ReferenceSender:
    """Straight-line reimplementation of the sender: scans, sorts, no buffer."""

    def __init__(self, base_timeout: float, max_retransmits: int):
        self.base = base_timeout
        self.max_retransmits = max_retransmits
        self.unacked: dict[int, int] = {}
        self.retransmitted: set[int] = set()
        self.consecutive = 0
        self.timer_active = False
        self.log: list = []

    def send(self, seqs):
        for s in seqs:
            self.unacked[s] = s
        self.log.append(("tx", tuple(seqs), False))
        if self.unacked and not self.timer_active:
            self.timer_active = True
            self.log.append(("timer", self.base))

    def on_ack(self, cumulative, sacked):
        acked = [s for s in self.unacked if s < cumulative or s in sacked]
        for s in acked:
            del self.unacked[s]
        if acked:
            self.consecutive = 0
            self.retransmitted -= set(acked)
        if sacked:
            horizon = max(sacked)
            missing = sorted(
                s for s in self.unacked
                if s < horizon and s not in self.retransmitted
            )
            self.retransmitted.update(missing)
            if missing:
                self.log.append(("tx", tuple(missing), True))
        if self.unacked:
            self.timer_active = True
            self.log.append(("timer", self.base))
        else:
            self.timer_active = False

    def on_timeout(self):
        if not self.unacked:
            return
        self.consecutive += 1
        if self.consecutive > self.max_retransmits:
            self.log.append(("give-up", len(self.unacked)))
            return
        probes = sorted({min(self.unacked), max(self.unacked)})
        self.retransmitted -= set(probes)
        self.log.append(("tx", tuple(probes), True))
        self.timer_active = True
        self.log.append(
            ("timer", self.base * min(2**self.consecutive, MAX_BACKOFF_FACTOR))
        )


class TestTwinPathOracle:
    @pytest.mark.parametrize("seed", [1, 7, 2017])
    def test_randomized_scripts_replay_identically(self, seed):
        rng = random.Random(seed)
        h = Harness(base_timeout=1e-3, max_retransmits=50)
        ref = ReferenceSender(1e-3, 50)

        live_log: list = []
        real_transmit = h.sender._emit

        def spy(packets, retransmit):
            live_log.append(("tx", tuple(packets), retransmit))
            real_transmit(packets, retransmit)

        h.sender._emit = spy
        orig_start = h.sender._timer.start

        def spy_start(delay):
            live_log.append(("timer", delay))
            orig_start(delay)

        next_seq = 0
        for _ in range(200):
            op = rng.random()
            if op < 0.4:
                batch = [next_seq + i for i in range(rng.randint(1, 5))]
                next_seq += len(batch)
                before = h.timer
                h.sender.send((s, s) for s in batch)
                if h.timer.active and h.timer.starts and (
                    len(h.timer.starts) > len(
                        [e for e in live_log if e[0] == "timer"])):
                    live_log.append(("timer", h.timer.starts[-1]))
                assert before is h.timer
                ref.send(batch)
            elif op < 0.8 and next_seq:
                cumulative = rng.randint(0, next_seq)
                sacked = {
                    rng.randint(0, next_seq - 1)
                    for _ in range(rng.randint(0, 3))
                }
                timer_marks = len([e for e in live_log if e[0] == "timer"])
                h.sender.on_ack(cumulative, set(sacked))
                while len(h.timer.starts) > timer_marks and len(
                        h.timer.starts) > len(
                        [e for e in live_log if e[0] == "timer"]):
                    live_log.append(("timer", h.timer.starts[
                        len([e for e in live_log if e[0] == "timer"])]))
                ref.on_ack(cumulative, set(sacked))
            else:
                if h.timer.active:
                    h.timer.fire()
                    while len(h.timer.starts) > len(
                            [e for e in live_log if e[0] == "timer"]):
                        live_log.append(("timer", h.timer.starts[
                            len([e for e in live_log if e[0] == "timer"])]))
                    ref.on_timeout()
        assert live_log == [e for e in ref.log if e[0] != "give-up"]
        assert sorted(h.sender._unacked) == sorted(ref.unacked)


buffer_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(1, 5)),
        st.tuples(
            st.just("ack"),
            st.integers(0, 60),
            st.sets(st.integers(0, 60), max_size=4),
        ),
    ),
    max_size=80,
)


class CountingDict(dict):
    """Counts the entries handed out by iteration (the buffer's scans)."""

    touched = 0

    def __iter__(self):
        for key in super().__iter__():
            self.touched += 1
            yield key


class TestRetransmitBufferAgainstReference:
    def test_an_ack_costs_what_it_acknowledges(self):
        packets = 10_000
        buffer = RetransmitBuffer()
        buffer.unacked = CountingDict((seq, seq) for seq in range(packets))
        for cumulative in range(8, packets + 1, 8):
            sacked = {cumulative + 2} if cumulative + 2 < packets else set()
            assert buffer.acknowledge(cumulative, sacked)
            assert buffer.holes(sacked) == ([cumulative, cumulative + 1] if sacked else [])
        assert not buffer.unacked and not buffer.resent
        # Every entry is handed out a bounded number of times, whatever the
        # number outstanding (a scan per ACK would touch 6 million).
        assert buffer.unacked.touched <= 4 * packets

    @settings(max_examples=200)
    @given(script=buffer_scripts)
    def test_acked_and_resent_sets_match_the_reference_machine(self, script):
        buffer = RetransmitBuffer()
        ref = ReferenceSender(1e-3, 50)
        next_seq = 0
        for op in script:
            if op[0] == "send":
                batch = list(range(next_seq, next_seq + op[1]))
                next_seq += len(batch)
                for seq in batch:
                    buffer.unacked[seq] = seq
                ref.send(batch)
            else:
                _, cumulative, sacked = op
                outstanding = set(ref.unacked)
                logged = len(ref.log)
                acked = buffer.acknowledge(cumulative, sacked)
                missing = buffer.holes(sacked)
                ref.on_ack(cumulative, sacked)
                assert set(acked) == outstanding - set(ref.unacked)
                resends = [entry for entry in ref.log[logged:] if entry[0] == "tx"]
                assert resends == ([("tx", tuple(missing), True)] if missing else [])
            assert list(buffer.unacked) == list(ref.unacked)
            assert buffer.resent == ref.retransmitted
