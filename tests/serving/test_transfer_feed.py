"""TransferFeed and KV-paging coordinator transfer-pricing tests.

The coordinator treats each host-link direction as a *serial resource*:
a transfer starts no earlier than the previous one on the same direction
finished (a busy cursor).  These tests pin that contract under bursty
concurrent migrations — N simultaneous evictions cost N transfer times
of wall clock, never one — plus the crash-recovery paths layered on the
same machinery (abandon-all harvest, host-KV adoption).
"""

import pytest

from repro.errors import SchedulingError
from repro.serving.engine import KvPagingCoordinator, TransferFeed
from repro.serving.paging import EvictionPolicy, HostLink, PagedKvManager
from repro.serving.request import Request

pytestmark = [pytest.mark.paging, pytest.mark.chaos]


def request(request_id, input_len=100, output_len=10):
    r = Request(
        request_id=request_id, arrival_time_s=0.0,
        input_len=input_len, output_len=output_len,
    )
    r.start_prefill()
    r.finish_prefill(0.0)  # DECODING with context_len == input_len
    return r


def coordinator(capacity_tokens=1000, **manager_kwargs):
    # bandwidth 1000 B/s at 10 B/token: a 100-token context moves in
    # exactly 1.0 s — transfer arithmetic stays readable.
    manager_kwargs.setdefault("link", HostLink(bandwidth=1000.0, latency_s=0.0))
    manager = PagedKvManager(
        capacity_tokens=capacity_tokens, kv_bytes_per_token=10.0,
        policy=EvictionPolicy.MIGRATE, **manager_kwargs,
    )
    # The executor prices RECOMPUTE replays only; MIGRATE never touches it.
    return KvPagingCoordinator(manager, executor=None)


class TestTransferFeed:
    def test_orders_by_ready_instant(self):
        feed = TransferFeed()
        feed.push(3.0, request(0))
        feed.push(1.0, request(1))
        feed.push(2.0, request(2))
        assert feed.peek_arrival() == 1.0
        assert [feed.take(10.0).request_id for _ in range(3)] == [1, 2, 0]

    def test_same_instant_ties_break_by_push_order(self):
        feed = TransferFeed()
        for rid in (7, 3, 5):
            feed.push(1.0, request(rid))
        assert [feed.take(1.0).request_id for _ in range(3)] == [7, 3, 5]

    def test_queued_tokens_tracks_in_flight_reservations(self):
        feed = TransferFeed()
        a, b = request(0, input_len=100, output_len=10), request(1, input_len=50, output_len=5)
        feed.push(1.0, a)
        feed.push(2.0, b)
        assert feed.queued_tokens == a.total_seq_len + b.total_seq_len
        feed.take(1.0)
        assert feed.queued_tokens == b.total_seq_len
        feed.take(2.0)
        assert feed.queued_tokens == 0

    def test_counter_tracks_out_of_order_push_and_take(self):
        feed = TransferFeed()
        assert feed.queued_tokens == 0
        expected = 0
        for i in range(20):
            r = request(i, input_len=100 + i, output_len=10 + i)
            feed.push(float(20 - i), r)  # deliberately out of order
            expected += r.total_seq_len
            assert feed.queued_tokens == expected
        while len(feed):
            expected -= feed.take(100.0).total_seq_len
            assert feed.queued_tokens == expected
        assert feed.queued_tokens == 0

    def test_readiness_protocol(self):
        feed = TransferFeed()
        assert feed.peek() is None
        assert feed.peek_arrival() == float("inf")
        feed.push(1.5, request(0))
        assert not feed.has_request_at(1.0)
        assert feed.has_request_at(1.5)
        assert len(feed) == 1

    def test_take_from_empty_rejected(self):
        with pytest.raises(SchedulingError):
            TransferFeed().take(0.0)


class TestSerialLinkCursors:
    """Concurrent migrations queue on the link; they never overlap."""

    def _evict_burst(self, coord, n=3, now_s=0.0):
        victims = [request(rid) for rid in range(n)]
        for victim in victims:
            coord.manager.admit(victim.request_id, victim.total_seq_len)
            coord.evict(victim, now_s)
        return victims

    def test_burst_evictions_serialize_outbound(self):
        coord = coordinator()
        self._evict_burst(coord, n=3, now_s=0.0)
        # Each 100-token context takes 1.0 s out; the device KV of victim
        # k is clear only after every earlier out-transfer finished.
        assert [round(clear_s, 9) for _, _, clear_s in coord._parked] == [1.0, 2.0, 3.0]

    def test_burst_resumes_serialize_inbound_after_outbound_clears(self):
        coord = coordinator()
        self._evict_burst(coord, n=3, now_s=0.0)
        for _ in range(3):
            coord.resume_next(0.0)
        # Victim k's in-transfer starts at max(out-clear, inbound cursor):
        # 1->2, 2->3, 3->4.  No two inbound transfers overlap.
        landings = []
        while len(coord.resume_feed):
            landings.append(coord.resume_feed.peek_arrival())
            coord.resume_feed.take(float("inf"))
        assert landings == pytest.approx([2.0, 3.0, 4.0])
        for earlier, later in zip(landings, landings[1:], strict=False):
            assert later - earlier >= 1.0  # >= one full transfer apart

    def test_idle_link_does_not_backdate(self):
        # The cursor is a floor, not a schedule: after the link goes
        # idle, the next transfer starts at "now", not at the cursor.
        coord = coordinator()
        first = request(0)
        coord.manager.admit(first.request_id, first.total_seq_len)
        coord.evict(first, 0.0)  # clears at 1.0
        late = request(1)
        coord.manager.admit(late.request_id, late.total_seq_len)
        coord.evict(late, 5.0)  # link idle since 1.0: starts at 5.0
        assert coord._parked[-1][2] == pytest.approx(6.0)

    def test_no_overtaking_between_park_and_resume(self):
        coord = coordinator()
        victims = self._evict_burst(coord, n=3, now_s=0.0)
        assert coord.peek_parked() is victims[0]
        assert coord.resume_next(0.0) is victims[0]  # eviction order
        assert coord.peek_parked() is victims[1]

    def test_link_degradation_scales_transfers(self):
        coord = coordinator()
        coord.link_scale = lambda t: 4.0
        self._evict_burst(coord, n=2, now_s=0.0)
        assert [round(clear_s, 9) for _, _, clear_s in coord._parked] == [4.0, 8.0]

    def test_occupancy_views(self):
        coord = coordinator()
        self._evict_burst(coord, n=3, now_s=0.0)
        assert (coord.parked_count, coord.in_transit_count, coord.paged_count) == (3, 0, 3)
        coord.resume_next(0.0)
        assert (coord.parked_count, coord.in_transit_count, coord.paged_count) == (2, 1, 3)
        assert coord.take_ready(1.0) == []  # lands at 2.0, not yet
        assert [r.request_id for r in coord.take_ready(2.0)] == [0]
        assert coord.paged_count == 2


class TestCrashHarvestAndAdoption:
    def test_abandon_all_splits_parked_from_in_transit(self):
        coord = coordinator()
        a, b = request(0), request(1)
        for r in (a, b):
            coord.manager.admit(r.request_id, r.total_seq_len)
            coord.evict(r, 0.0)
        coord.resume_next(0.0)  # a goes in transit
        parked, in_transit = coord.abandon_all()
        assert [(r.request_id, cached) for r, cached in parked] == [(1, 100)]
        assert [r.request_id for r in in_transit] == [0]
        # The manager forgot everything: clean books for in-place repair.
        assert coord.manager.resident_tokens == 0
        assert coord.manager.evicted_tokens == 0
        assert len(coord.resume_feed) == 0

    def test_adopted_request_resumes_paying_inbound_only(self):
        dead = coordinator()
        victim = request(0)
        dead.manager.admit(victim.request_id, victim.total_seq_len)
        dead.evict(victim, 0.0)
        [(harvested, cached)], _ = dead.abandon_all()

        survivor = coordinator()
        survivor.adopt(harvested, cached, now_s=5.0)
        assert survivor.manager.evicted_tokens == harvested.total_seq_len
        assert survivor.manager.stats.migrated_in_bytes == 0.0  # not priced yet
        assert survivor.resume_next(5.0) is harvested
        # One inbound leg (the host copy streams to the new device) and
        # never a second outbound one.
        assert survivor.resume_feed.peek_arrival() == pytest.approx(6.0)
        assert survivor.manager.stats.migrated_in_bytes == pytest.approx(1000.0)
        assert survivor.manager.stats.migrated_out_bytes == 0.0
