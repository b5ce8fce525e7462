"""Columnar serving-core primitives: the running batch as struct-of-arrays
and the calendar-queue/heap event clock.

This module holds the two data structures the serving hot loop runs on,
so that a stage costs a few numpy calls instead of one Python step per
request, and finding the next pending event needs no linear scan:

* :class:`RequestTable` — a scheduler's running batch, one dense row per
  request in batch order (row ``i`` is ``running[i]``), with the decode
  progress (context, emitted tokens), the output budget and the phase
  (decoding or not) in preallocated numpy columns.  The table is the
  authoritative store of that progress: a running request's
  ``context_len`` and ``tokens_generated`` read and write its row, and
  the row's values are written back to the object when it leaves the
  batch.  A decode stage
  (or a whole steady run) is one vector add over a column slice, and the
  completions are the rows where ``tokens_generated >= output_len``.
  Admission and paging landings append rows; completions, evictions and
  releases compact them without reordering.

* :class:`EventClock` — a pending-event index with lazy cancellation,
  so the next event is found without a scan.  Two equivalent backends: a
  binary heap (default) and a calendar queue bucketed by a fixed time
  width (``bucket_width_s``); both pop events in exact ``(time,
  insertion)`` order, so the choice is a performance knob, never a
  behaviour change.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

import numpy as np

from repro.errors import ConfigError, SchedulingError
from repro.serving.request import Request, RequestState

__all__ = ["EventClock", "RequestTable"]


class RequestTable:
    """A scheduler's running batch, one dense row per request.

    ``rows`` is the batch itself (the scheduler's ``running`` list): row
    ``i`` holds ``rows[i]``, and each request knows its row index.  The
    columns are views of one preallocated ``(4, max_batch)`` block, so
    advancing progress and compacting rows are single numpy calls.  The
    phase column ``decoding`` is 1 while a row decodes and 0 while it
    prefills: it is the per-row step of a mixed stage and, as a mask,
    selects that stage's decode contexts.

    Args:
        max_batch: row capacity; appending beyond it is a scheduling bug.
    """

    def __init__(self, max_batch: int) -> None:
        if max_batch < 1:
            raise ConfigError("RequestTable needs room for at least one request")
        self.max_batch = max_batch
        self.rows: list[Request] = []
        self._block = np.zeros((4, max_batch), dtype=np.int64)
        self.context_len, self.tokens_generated, self.output_len, self.decoding = self._block
        #: (context, emitted) rows: one decode step adds to both.
        self._progress = self._block[:2]

    def __len__(self) -> int:
        return len(self.rows)

    def row_of(self, request: Request) -> int:
        """Row of a request in the table."""
        if request._table is not self:
            raise SchedulingError(f"request {request.request_id} holds no row here")
        return request._row

    def append(self, request: Request) -> None:
        """Give ``request`` the next row; its progress now lives there."""
        if request._table is not None:
            raise SchedulingError(f"request {request.request_id} already holds a table row")
        row = len(self.rows)
        if row >= self.max_batch:
            raise SchedulingError(
                f"request {request.request_id} would exceed the batch of {self.max_batch}"
            )
        self.context_len[row] = request.context_len
        self.tokens_generated[row] = request.tokens_generated
        self.output_len[row] = request.output_len
        self.decoding[row] = request.state is RequestState.DECODING
        self.rows.append(request)
        request._table = self
        request._row = row

    def remove(self, rows: list[int]) -> list[Request]:
        """Drop ``rows`` (ascending), keeping the survivors' order.

        Each leaving request gets its row's progress written back.
        Returns the removed requests in row order.
        """
        if not rows:
            return []
        block = self._block
        n = len(self.rows)
        removed: list[Request] = []
        for row in reversed(rows):
            request = self.rows.pop(row)
            request._table = None
            request._context_len = block.item(0, row)
            request._tokens_generated = block.item(1, row)
            removed.append(request)
            if row < n - 1:
                block[:, row : n - 1] = block[:, row + 1 : n]
            n -= 1
        for row in range(rows[0], n):
            self.rows[row]._row = row
        removed.reverse()
        return removed

    def start_decoding(self, request: Request) -> None:
        """A row's prefill completed: the whole input is its context, one
        token is out, and it decodes from the next stage on."""
        row = self.row_of(request)
        self.context_len[row] = request.input_len
        self.tokens_generated[row] = 1
        self.decoding[row] = 1

    def advance(self, n_stages: int) -> None:
        """Every row emits ``n_stages`` more tokens."""
        progress = self._progress[:, : len(self.rows)]
        progress += n_stages

    def advance_decoding(self) -> None:
        """One stage: each decoding row emits a token, prefilling rows
        stay put (the phase column is the per-row step)."""
        n = len(self.rows)
        progress = self._progress[:, :n]
        progress += self.decoding[:n]

    def done_rows(self) -> list[int]:
        """Rows whose output budget is spent, ascending."""
        n = len(self.rows)
        return np.flatnonzero(self.tokens_generated[:n] >= self.output_len[:n]).tolist()


class EventClock:
    """Pending-event index with lazy cancellation.

    Keys are arbitrary hashables; scheduling a key again moves it (the
    stale entry dies lazily).  ``next_time`` is the earliest pending
    instant (``inf`` when empty); ``pop_due`` drains everything due by a
    given time in exact ``(time, insertion order)`` order.

    Args:
        bucket_width_s: None (default) uses a binary heap; a positive
            width switches to a calendar queue bucketed on the fixed
            time grid.  The two backends are observably identical.
    """

    def __init__(self, bucket_width_s: float | None = None) -> None:
        if bucket_width_s is not None and not bucket_width_s > 0:
            raise ConfigError("bucket_width_s must be positive (or None for a heap)")
        self.bucket_width_s = bucket_width_s
        self._seq = 0
        self._live: dict[object, tuple[float, int]] = {}
        self._heap: list[tuple[float, int, object]] = []
        self._buckets: dict[int, list[tuple[float, int, object]]] = {}
        self._bucket_heap: list[int] = []
        self._queued_buckets: set[int] = set()

    def __len__(self) -> int:
        return len(self._live)

    def _bucket_of(self, when: float) -> int:
        assert self.bucket_width_s is not None
        return int(math.floor(when / self.bucket_width_s))

    def schedule(self, key: object, when: float) -> None:
        """Schedule (or move) ``key`` to fire at ``when``."""
        if not math.isfinite(when):
            raise ConfigError("event times must be finite")
        self._seq += 1
        entry = (when, self._seq, key)
        self._live[key] = (when, self._seq)
        if self.bucket_width_s is None:
            heapq.heappush(self._heap, entry)
            return
        bucket = self._bucket_of(when)
        self._buckets.setdefault(bucket, []).append(entry)
        if bucket not in self._queued_buckets:
            self._queued_buckets.add(bucket)
            heapq.heappush(self._bucket_heap, bucket)

    def cancel(self, key: object) -> None:
        """Forget ``key`` (no-op when not scheduled); dies lazily."""
        self._live.pop(key, None)

    def _entry_live(self, entry: tuple[float, int, object]) -> bool:
        when, seq, key = entry
        return self._live.get(key) == (when, seq)

    def next_time(self) -> float:
        """Earliest pending instant (``inf`` when nothing is scheduled)."""
        if not self._live:
            return float("inf")
        if self.bucket_width_s is None:
            while self._heap and not self._entry_live(self._heap[0]):
                heapq.heappop(self._heap)
            return self._heap[0][0] if self._heap else float("inf")
        while self._bucket_heap:
            bucket = self._bucket_heap[0]
            entries = [e for e in self._buckets.get(bucket, ()) if self._entry_live(e)]
            if entries:
                self._buckets[bucket] = entries
                return min(entries)[0]
            heapq.heappop(self._bucket_heap)
            self._queued_buckets.discard(bucket)
            self._buckets.pop(bucket, None)
        return float("inf")

    def pop_due(self, now_s: float) -> list[object]:
        """Pop every key scheduled at or before ``now_s``, in fire order."""
        due: list[tuple[float, int, object]] = []
        if self.bucket_width_s is None:
            while self._heap and self._heap[0][0] <= now_s:
                entry = heapq.heappop(self._heap)
                if self._entry_live(entry):
                    due.append(entry)
                    del self._live[entry[2]]
        else:
            kept_buckets: list[tuple[int, list[tuple[float, int, object]]]] = []
            while self._bucket_heap and self._bucket_heap[0] * self.bucket_width_s <= now_s:
                bucket = heapq.heappop(self._bucket_heap)
                self._queued_buckets.discard(bucket)
                keep: list[tuple[float, int, object]] = []
                for entry in self._buckets.pop(bucket, ()):
                    if not self._entry_live(entry):
                        continue
                    if entry[0] <= now_s:
                        due.append(entry)
                        del self._live[entry[2]]
                    else:
                        keep.append(entry)
                if keep:
                    kept_buckets.append((bucket, keep))
            for bucket, keep in kept_buckets:
                self._buckets[bucket] = keep
                self._queued_buckets.add(bucket)
                heapq.heappush(self._bucket_heap, bucket)
            due.sort()
        return [key for _, _, key in sorted(due)]

    def extend(self, items: Iterable[tuple[object, float]]) -> None:
        """Bulk-schedule ``(key, when)`` pairs."""
        for key, when in items:
            self.schedule(key, when)
