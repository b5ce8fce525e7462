"""KV-cache migration and recomputation (Section VIII-C / PagedAttention).

When the KV cache outgrows device memory, a serving system can *evict* an
ongoing request: either **migrate** its KV to host memory over the host link
(and bring it back before the request resumes) or **recompute** — drop the
KV and replay the prefill when the request resumes.  The paper notes these
policies are complementary to Duplex; this module provides the capacity
manager that prices them so schedulers can admit beyond device capacity.

Design: the manager accounts *tokens* (the KV unit everything else in this
library uses), charges migration traffic on a PCIe-class host link, and
reports recompute debt in tokens so the caller — who owns the executor —
can price the replayed prefill with the same model it prices everything
else.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import CapacityError, ConfigError, SchedulingError
from repro.units import GB_PER_S, US

#: A shared-prefix description: ordered ``(segment id, token count)`` blocks.
PrefixBlocks = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class HostLink:
    """The device-to-host path (PCIe Gen5 x16-class by default).

    Attributes:
        bandwidth: bytes/s per direction.
        latency_s: per-transfer setup latency.
    """

    bandwidth: float = 64 * GB_PER_S
    latency_s: float = 10 * US

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError("host link bandwidth must be positive")
        if self.latency_s < 0:
            raise ConfigError("host link latency must be non-negative")

    def transfer_time(self, nbytes: float) -> float:
        """One direction of a KV transfer."""
        if nbytes < 0:
            raise ConfigError("transfer size must be non-negative")
        if nbytes == 0:
            return 0.0
        return nbytes / self.bandwidth + self.latency_s


class EvictionPolicy(enum.Enum):
    """What happens to an evicted request's KV (Section VIII-C)."""

    MIGRATE = "migrate"  # KV moves to host memory and back
    RECOMPUTE = "recompute"  # KV is dropped and the prefill replayed


@dataclass(frozen=True)
class PagingConfig:
    """How a serving engine pages KV past device capacity.

    Handed to :class:`~repro.serving.simulator.ServingSimulator` /
    :class:`~repro.serving.cluster.ClusterSimulator` to turn on live
    preemption: the engine then admits beyond its KV capacity by evicting
    running requests under ``policy`` instead of queueing new arrivals.

    Attributes:
        policy: what eviction does with the KV (migrate or recompute).
        link: the device-to-host path migrations are priced on.
        host_capacity_tokens: host-side KV budget (None = unbounded).
    """

    policy: EvictionPolicy = EvictionPolicy.MIGRATE
    link: HostLink = field(default_factory=HostLink)
    host_capacity_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.host_capacity_tokens is not None and self.host_capacity_tokens < 1:
            raise ConfigError("host capacity must be at least one token (or None)")


@dataclass(frozen=True)
class EvictionOutcome:
    """Cost of one eviction or resume step.

    Attributes:
        request_id: the affected request.
        tokens: cached tokens involved.
        transfer_time_s: host-link time (migration only).
        recompute_tokens: prefill tokens the caller must replay (resume
            under the recompute policy only).
    """

    request_id: int
    tokens: int
    transfer_time_s: float = 0.0
    recompute_tokens: int = 0


@dataclass(frozen=True, slots=True)
class PagingStats:
    """Aggregate paging activity.

    An immutable snapshot: :attr:`PagedKvManager.stats` accumulates in
    private counters and materializes one of these per read, so a report
    that captured the stats can never change under its feet (SL005).
    """

    evictions: int = 0
    resumes: int = 0
    migrated_out_bytes: float = 0.0
    migrated_in_bytes: float = 0.0
    recomputed_tokens: int = 0
    host_link_time_s: float = 0.0


class PagedKvManager:
    """Token-level KV capacity manager with host-memory spill.

    Args:
        capacity_tokens: cached tokens that fit on the devices.
        kv_bytes_per_token: device-wide KV footprint of one token.
        policy: what eviction does with the KV.
        link: host link used for migration.
        host_capacity_tokens: host-side KV budget (None = unbounded).
    """

    def __init__(
        self,
        capacity_tokens: int,
        kv_bytes_per_token: float,
        policy: EvictionPolicy = EvictionPolicy.MIGRATE,
        link: HostLink | None = None,
        host_capacity_tokens: int | None = None,
    ) -> None:
        if capacity_tokens < 1:
            raise ConfigError("capacity must be at least one token")
        if kv_bytes_per_token <= 0:
            raise ConfigError("kv_bytes_per_token must be positive")
        self.capacity_tokens = capacity_tokens
        self.kv_bytes_per_token = kv_bytes_per_token
        self.policy = policy
        self.link = link or HostLink()
        self.host_capacity_tokens = host_capacity_tokens
        self._evictions = 0
        self._resumes = 0
        self._migrated_out_bytes = 0.0
        self._migrated_in_bytes = 0.0
        self._recomputed_tokens = 0
        self._host_link_time_s = 0.0
        self._resident: dict[int, int] = {}  # request id -> reserved tokens
        self._evicted: dict[int, int] = {}  # request id -> reserved tokens
        # Running totals: admission checks and router load signals read
        # these once per arrival, so an O(n) re-sum here would be a
        # per-arrival hot spot (same reasoning as TransferFeed.queued_tokens).
        self._resident_total = 0
        self._evicted_total = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @property
    def resident_tokens(self) -> int:
        return self._resident_total

    @property
    def evicted_tokens(self) -> int:
        return self._evicted_total

    @property
    def stats(self) -> PagingStats:
        """Immutable snapshot of the paging counters so far."""
        return PagingStats(
            evictions=self._evictions,
            resumes=self._resumes,
            migrated_out_bytes=self._migrated_out_bytes,
            migrated_in_bytes=self._migrated_in_bytes,
            recomputed_tokens=self._recomputed_tokens,
            host_link_time_s=self._host_link_time_s,
        )

    def can_admit(self, tokens: int) -> bool:
        """Whether ``tokens`` fit right now without eviction."""
        return self.resident_tokens + tokens <= self.capacity_tokens

    def admit(self, request_id: int, tokens: int) -> None:
        """Reserve device KV for a request (must fit — evict first if not)."""
        if tokens < 1:
            raise ConfigError("a request reserves at least one token")
        if tokens > self.capacity_tokens:
            raise CapacityError(
                f"request {request_id} needs {tokens} tokens; device holds "
                f"{self.capacity_tokens}"
            )
        if request_id in self._resident or request_id in self._evicted:
            raise SchedulingError(f"request {request_id} already tracked")
        if not self.can_admit(tokens):
            raise CapacityError(
                f"request {request_id} does not fit; evict {tokens - (self.capacity_tokens - self.resident_tokens)} tokens first"
            )
        self._resident[request_id] = tokens
        self._resident_total += tokens

    def release(self, request_id: int) -> None:
        """A request finished: free its device KV."""
        if request_id not in self._resident:
            raise SchedulingError(f"request {request_id} is not resident")
        self._resident_total -= self._resident.pop(request_id)

    # ------------------------------------------------------------------
    # eviction / resume
    # ------------------------------------------------------------------
    def evict(self, request_id: int, cached_tokens: int) -> EvictionOutcome:
        """Evict a resident request; returns the immediate cost.

        Args:
            request_id: the victim.
            cached_tokens: tokens actually cached so far (what must move or
                be recomputed — at most the reservation).
        """
        if request_id not in self._resident:
            raise SchedulingError(f"request {request_id} is not resident")
        reservation = self._resident[request_id]
        if cached_tokens < 0 or cached_tokens > reservation:
            raise ConfigError("cached tokens must be within the reservation")
        if (
            self.host_capacity_tokens is not None
            and self.policy is EvictionPolicy.MIGRATE
            and self.evicted_tokens + reservation > self.host_capacity_tokens
        ):
            raise CapacityError("host memory cannot hold another evicted request")
        # Validation precedes the move: a rejected evict must leave the
        # reservation resident, not leak it out of the accounting.
        del self._resident[request_id]
        self._resident_total -= reservation
        self._evicted[request_id] = reservation
        self._evicted_total += reservation
        self._evictions += 1
        if self.policy is EvictionPolicy.RECOMPUTE:
            return EvictionOutcome(request_id=request_id, tokens=cached_tokens)
        nbytes = cached_tokens * self.kv_bytes_per_token
        time = self.link.transfer_time(nbytes)
        self._migrated_out_bytes += nbytes
        self._host_link_time_s += time
        return EvictionOutcome(request_id=request_id, tokens=cached_tokens, transfer_time_s=time)

    def resume(self, request_id: int, cached_tokens: int) -> EvictionOutcome:
        """Bring an evicted request back; must fit (evict others first).

        Under MIGRATE the KV streams back over the host link; under
        RECOMPUTE the returned outcome carries the prefill tokens the
        caller must replay through its executor.
        """
        if request_id not in self._evicted:
            raise SchedulingError(f"request {request_id} is not evicted")
        reservation = self._evicted[request_id]
        if self.resident_tokens + reservation > self.capacity_tokens:
            raise CapacityError(f"no room to resume request {request_id}")
        del self._evicted[request_id]
        self._evicted_total -= reservation
        self._resident[request_id] = reservation
        self._resident_total += reservation
        self._resumes += 1
        if self.policy is EvictionPolicy.RECOMPUTE:
            self._recomputed_tokens += cached_tokens
            return EvictionOutcome(
                request_id=request_id, tokens=cached_tokens, recompute_tokens=cached_tokens
            )
        nbytes = cached_tokens * self.kv_bytes_per_token
        time = self.link.transfer_time(nbytes)
        self._migrated_in_bytes += nbytes
        self._host_link_time_s += time
        return EvictionOutcome(request_id=request_id, tokens=cached_tokens, transfer_time_s=time)

    def forget(self, request_id: int) -> None:
        """Drop a request from the accounting entirely (crash harvest).

        Unlike :meth:`release` this accepts evicted requests too and
        tolerates the id being unknown — the caller is abandoning a dead
        replica's state, not balancing the books of a live one.
        """
        if request_id in self._resident:
            self._resident_total -= self._resident.pop(request_id)
        elif request_id in self._evicted:
            self._evicted_total -= self._evicted.pop(request_id)

    def adopt_evicted(self, request_id: int, reservation: int) -> None:
        """Register a foreign evicted request (failure recovery).

        A MIGRATE-paged request whose replica crashed still has its KV in
        host memory; a surviving replica *adopts* it by registering the
        reservation as evicted here — no transfer is priced (the copy is
        already host-resident; the inbound leg is priced by the normal
        :meth:`resume` path).  ``reservation`` must be what :meth:`admit`
        would have reserved (the request's full sequence budget), since
        :meth:`resume` moves exactly that back on-device.
        """
        if reservation < 1:
            raise ConfigError("a request reserves at least one token")
        if request_id in self._resident or request_id in self._evicted:
            raise SchedulingError(f"request {request_id} already tracked")
        if (
            self.host_capacity_tokens is not None
            and self.evicted_tokens + reservation > self.host_capacity_tokens
        ):
            raise CapacityError("host memory cannot hold another adopted request")
        self._evicted[request_id] = reservation
        self._evicted_total += reservation

    # ------------------------------------------------------------------
    # victim selection
    # ------------------------------------------------------------------
    def pick_victims(
        self, needed_tokens: int, order: Sequence[int] | None = None
    ) -> list[int]:
        """Smallest set of resident requests freeing ``needed_tokens``.

        Without ``order``, evicts largest reservations first (fewest
        victims, PagedAttention's all-or-nothing per request granularity).
        With ``order`` — a scheduler policy's
        :meth:`~repro.serving.policy.SchedulingPolicy.preemption_order` —
        victims are taken in exactly that preference order, and only ids
        listed there are eligible (protected requests simply stay off the
        list).
        """
        if needed_tokens < 1:
            raise ConfigError("needed tokens must be positive")
        if order is None:
            candidates = sorted(
                self._resident.items(), key=lambda item: item[1], reverse=True
            )
        else:
            candidates = []
            for request_id in order:
                if request_id not in self._resident:
                    raise SchedulingError(
                        f"victim candidate {request_id} is not resident"
                    )
                candidates.append((request_id, self._resident[request_id]))
        free = self.capacity_tokens - self.resident_tokens
        victims: list[int] = []
        for request_id, reservation in candidates:
            if free >= needed_tokens:
                break
            victims.append(request_id)
            free += reservation
        if free < needed_tokens:
            raise CapacityError(
                "evicting every eligible request still cannot free enough KV"
            )
        return victims


# ----------------------------------------------------------------------
# shared-prefix dedup (radix KV cache)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrefixConfig:
    """Shared-prefix KV dedup for a serving engine.

    Handed to :class:`~repro.serving.simulator.ServingSimulator` /
    :class:`~repro.serving.cluster.ClusterSimulator` to turn on radix
    prefix caching: requests that declare ``prefix_blocks`` share one KV
    copy of the common prefix, and admission prices prefill only for the
    uncached suffix.

    Attributes:
        capacity_tokens: cap on the shared pool itself (None = bounded
            only by device capacity through scheduler admission).
    """

    capacity_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.capacity_tokens is not None and self.capacity_tokens < 1:
            raise ConfigError("prefix pool capacity must be at least one token (or None)")


@dataclass(frozen=True)
class PrefixAcquisition:
    """What :meth:`PrefixIndex.acquire` found and reserved.

    Attributes:
        hit_tokens: contiguous-from-root tokens whose KV is already
            computed (ready) — the prefill the request can skip.
        inserted_tokens: new pending tokens this request added to the pool
            (it will compute them; they become ready at commit).
        shared_tokens: all pool-held tokens on the request's path (hits,
            pending hits, and inserts) — the request's KV reservation
            outside the pool is its total minus this.
    """

    hit_tokens: int
    inserted_tokens: int
    shared_tokens: int


@dataclass(frozen=True, slots=True)
class PrefixStats:
    """Aggregate prefix-pool activity.

    An immutable snapshot: :attr:`PrefixIndex.stats` accumulates in
    private counters and materializes one of these per read, so a report
    that captured the stats can never change under its feet (SL005).
    """

    acquisitions: int = 0
    hit_tokens: int = 0
    inserted_tokens: int = 0
    evicted_tokens: int = 0
    dropped_pending_tokens: int = 0


class _PrefixNode:
    """One radix-tree block: a run of tokens shared below its parent."""

    __slots__ = ("key", "tokens", "parent", "children", "refcount", "ready", "touch")

    def __init__(self, key: int, tokens: int, parent: "_PrefixNode | None") -> None:
        self.key = key
        self.tokens = tokens
        self.parent = parent
        self.children: dict[int, _PrefixNode] = {}
        self.refcount = 0
        self.ready = False
        self.touch = 0


class _PrefixReleaseSim:
    """Counts pool tokens a hypothetical set of releases would unpin.

    Used by the scheduler's preemption planner: walking victims in policy
    order, :meth:`release` returns the tokens of path blocks whose
    simulated refcount reaches zero — pending blocks free immediately on a
    real release, ready blocks become evictable — without mutating the
    index.  Sound because every holder pins its whole root-to-leaf path,
    so ``refcount(parent) >= refcount(child)`` always.
    """

    def __init__(self, index: "PrefixIndex") -> None:
        self._index = index
        self._remaining: dict[int, int] = {}  # id(node) -> simulated refcount

    def release(self, request_id: int) -> int:
        freed = 0
        for node in self._index._holders.get(request_id, ()):
            refs = self._remaining.get(id(node), node.refcount) - 1
            self._remaining[id(node)] = refs
            if refs == 0:
                freed += node.tokens
        return freed


class PrefixIndex:
    """Token-block-keyed radix tree with ref-counted KV residency.

    Each node is a block of tokens identified by a segment id; a request's
    ``prefix_blocks`` name a root-to-leaf path.  N concurrent holders of
    an identical prefix occupy **one** copy: every holder pins the whole
    path (so ``refcount(parent) >= refcount(child)``), new blocks enter
    *pending* (reserved but not hit-able) until the owning prefill commits
    them *ready*, and zero-ref ready blocks stay cached — that retained
    KV *is* the cache — until :meth:`evict_cached` reclaims them in LRU
    order under memory pressure.

    The index accounts pool tokens only; the per-request remainder lives
    in :class:`PagedKvManager` as usual.  Device occupancy is therefore
    ``manager.resident_tokens + index.resident_tokens``, and the scheduler
    enforces that sum against capacity at every admission and resume
    boundary.
    """

    def __init__(self, config: PrefixConfig | None = None) -> None:
        self.config = config or PrefixConfig()
        self._acquisitions = 0
        self._hit_tokens = 0
        self._inserted_tokens = 0
        self._evicted_tokens_total = 0
        self._dropped_pending_tokens = 0
        self._root = _PrefixNode(key=-1, tokens=0, parent=None)
        self._holders: dict[int, list[_PrefixNode]] = {}
        self._resident_tokens = 0
        self._peak_resident_tokens = 0
        self._touch_seq = 0
        #: Zero-ref leaves by LRU ``touch``: ``(touch, push seq, node)``.
        #: Entries go stale lazily (the node was re-pinned, grew a child
        #: or was removed) and are skipped on pop; every live zero-ref
        #: leaf has an entry under its current touch.
        self._lru: list[tuple[int, int, _PrefixNode]] = []
        self._lru_seq = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def resident_tokens(self) -> int:
        return self._resident_tokens

    @property
    def stats(self) -> PrefixStats:
        """Immutable snapshot of the prefix-pool counters so far."""
        return PrefixStats(
            acquisitions=self._acquisitions,
            hit_tokens=self._hit_tokens,
            inserted_tokens=self._inserted_tokens,
            evicted_tokens=self._evicted_tokens_total,
            dropped_pending_tokens=self._dropped_pending_tokens,
        )

    @property
    def peak_resident_tokens(self) -> int:
        return self._peak_resident_tokens

    @property
    def holder_count(self) -> int:
        return len(self._holders)

    def holds(self, request_id: int) -> bool:
        return request_id in self._holders

    def refcounts(self) -> dict[tuple[int, ...], int]:
        """Path-keyed refcounts, for tests and debugging."""
        out: dict[tuple[int, ...], int] = {}
        stack = [(child, (child.key,)) for child in self._root.children.values()]
        while stack:
            node, path = stack.pop()
            out[path] = node.refcount
            stack.extend((c, path + (c.key,)) for c in node.children.values())
        return out

    # ------------------------------------------------------------------
    # acquire / commit / release
    # ------------------------------------------------------------------
    def acquire(self, request_id: int, blocks: PrefixBlocks) -> PrefixAcquisition:
        """Pin ``blocks``' path for a request, inserting missing tail blocks.

        Existing blocks are shared (ready ones count as hits, pending ones
        only as shared residency); missing blocks are inserted pending,
        subject to the pool cap — insertion stops at the first block that
        does not fit, so the shared span is always a block boundary.
        """
        if request_id in self._holders:
            raise SchedulingError(f"request {request_id} already holds a prefix")
        self._validate_blocks(blocks)
        result = self._acquire(request_id, blocks, enforce_cap=True)
        self._acquisitions += 1
        self._hit_tokens += result.hit_tokens
        self._inserted_tokens += result.inserted_tokens
        return result

    def reacquire(
        self, request_id: int, blocks: PrefixBlocks, shared_budget: int
    ) -> PrefixAcquisition:
        """Re-pin exactly the first blocks summing to ``shared_budget``.

        Used when a paged-out request resumes: its KV reservation was
        frozen at eviction as ``total - shared_budget``, so the resume
        must re-pin exactly that span — missing blocks are re-inserted
        pending (cap-exempt; the caller already gated device capacity) and
        the non-ready remainder is the prefix the caller must replay.
        """
        if request_id in self._holders:
            raise SchedulingError(f"request {request_id} already holds a prefix")
        self._validate_blocks(blocks)
        prefix: list[tuple[int, int]] = []
        total = 0
        for key, tokens in blocks:
            if total >= shared_budget:
                break
            prefix.append((key, tokens))
            total += tokens
        if total != shared_budget:
            raise SchedulingError(
                f"shared budget {shared_budget} is not a block boundary of request "
                f"{request_id}'s prefix"
            )
        return self._acquire(request_id, tuple(prefix), enforce_cap=False)

    def probe_resume(self, blocks: PrefixBlocks, shared_budget: int) -> tuple[int, int]:
        """(ready hit tokens, missing tokens) a :meth:`reacquire` would see.

        Read-only: lets the scheduler gate a resume on device room for the
        blocks that would be re-inserted before committing to it.
        """
        node = self._root
        ready_hit = 0
        missing = 0
        total = 0
        contiguous_ready = True
        for key, tokens in blocks:
            if total >= shared_budget:
                break
            total += tokens
            child = node.children.get(key) if node is not None else None
            if child is None:
                missing += tokens
                node = None
                continue
            if contiguous_ready and child.ready:
                ready_hit += tokens
            else:
                contiguous_ready = False
            node = child
        return ready_hit, missing

    def commit(self, request_id: int) -> None:
        """Mark every pending block on the holder's path ready.

        Called when the holder's prefill (or resume replay) completes: the
        KV for those positions now exists on device.
        """
        for node in self._holders.get(request_id, ()):
            node.ready = True

    def release(self, request_id: int) -> int:
        """Unpin a holder's path; returns pending tokens dropped.

        Zero-ref *pending* blocks free immediately (no one will compute
        them); zero-ref *ready* blocks stay cached for future hits.
        """
        path = self._holders.pop(request_id, None)
        if path is None:
            raise SchedulingError(f"request {request_id} holds no prefix")
        dropped = 0
        for node in reversed(path):
            node.refcount -= 1
            if node.refcount == 0 and not node.children:
                if node.ready:
                    self._push_lru(node)
                else:
                    self._remove(node)
                    dropped += node.tokens
        self._dropped_pending_tokens += dropped
        return dropped

    def forget(self, request_id: int) -> int:
        """Tolerant :meth:`release` — a no-op when the id holds nothing."""
        if request_id not in self._holders:
            return 0
        return self.release(request_id)

    def clear(self) -> None:
        """Drop every block and holder (crash harvest: device KV is gone)."""
        self._root = _PrefixNode(key=-1, tokens=0, parent=None)
        self._holders.clear()
        self._resident_tokens = 0
        self._lru.clear()

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def evictable_tokens(self) -> int:
        """Tokens :meth:`evict_cached` could reclaim right now."""
        total = 0
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            if node.refcount == 0:
                # Zero-ref implies the whole subtree is zero-ref
                # (refcount(parent) >= refcount(child)); ready blocks are
                # evictable and pending zero-ref blocks cannot survive a
                # release, so the subtree is entirely reclaimable.
                total += node.tokens
            stack.extend(node.children.values())
        return total

    def evict_cached(self, needed_tokens: int) -> int:
        """Reclaim zero-ref cached blocks, LRU-first, until ``needed_tokens``.

        Only leaf blocks are removable (a block's KV prefix-closes over
        its ancestors), so reclaiming walks leaves inward: the victim is
        always the zero-ref leaf with the oldest ``touch`` (touches are
        unique), popped from the LRU heap.  Returns the tokens actually
        freed, which may fall short when everything left is pinned by a
        live holder.
        """
        if needed_tokens <= 0:
            return 0
        freed = 0
        lru = self._lru
        while freed < needed_tokens and lru:
            touch, _, victim = heapq.heappop(lru)
            if (
                victim.parent is None
                or victim.touch != touch
                or victim.refcount
                or victim.children
            ):
                continue  # stale entry
            self._remove(victim)
            freed += victim.tokens
            self._evicted_tokens_total += victim.tokens
        return freed

    def release_simulator(self) -> _PrefixReleaseSim:
        """A read-only what-if counter for preemption planning."""
        return _PrefixReleaseSim(self)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_blocks(blocks: PrefixBlocks) -> None:
        if not blocks:
            raise ConfigError("prefix blocks must be non-empty")
        for _key, tokens in blocks:
            if tokens < 1:
                raise ConfigError("every prefix block holds at least one token")

    def _acquire(
        self, request_id: int, blocks: PrefixBlocks, enforce_cap: bool
    ) -> PrefixAcquisition:
        cap = self.config.capacity_tokens
        node = self._root
        path: list[_PrefixNode] = []
        hit = 0
        inserted = 0
        shared = 0
        contiguous_ready = True
        for key, tokens in blocks:
            child = node.children.get(key)
            if child is not None:
                if child.tokens != tokens:
                    raise ConfigError(
                        f"prefix segment {key} re-declared with {tokens} tokens "
                        f"(pool holds {child.tokens})"
                    )
                if contiguous_ready and child.ready:
                    hit += tokens
                else:
                    contiguous_ready = False
            else:
                if enforce_cap and cap is not None and self._resident_tokens + tokens > cap:
                    # Try to make room from the cold end of the cache; the
                    # candidate's own path is pinned (refcount bumped
                    # below the divergence point) so it cannot be chosen.
                    self.evict_cached(self._resident_tokens + tokens - cap)
                    if self._resident_tokens + tokens > cap:
                        break  # pool full: the rest of the prefix stays private
                child = _PrefixNode(key=key, tokens=tokens, parent=node)
                node.children[key] = child
                self._resident_tokens += tokens
                inserted += tokens
                contiguous_ready = False
            child.refcount += 1
            self._touch_seq += 1
            child.touch = self._touch_seq
            path.append(child)
            shared += tokens
            node = child
        if not path:
            return PrefixAcquisition(hit_tokens=0, inserted_tokens=0, shared_tokens=0)
        self._holders[request_id] = path
        if self._resident_tokens > self._peak_resident_tokens:
            self._peak_resident_tokens = self._resident_tokens
        return PrefixAcquisition(
            hit_tokens=hit, inserted_tokens=inserted, shared_tokens=shared
        )

    def _push_lru(self, node: _PrefixNode) -> None:
        """Index a node that just became a zero-ref leaf for eviction."""
        self._lru_seq += 1
        heapq.heappush(self._lru, (node.touch, self._lru_seq, node))

    def _remove(self, node: _PrefixNode) -> None:
        parent = node.parent
        assert parent is not None and not node.children
        del parent.children[node.key]
        node.parent = None
        self._resident_tokens -= node.tokens
        if parent.refcount == 0 and not parent.children and parent is not self._root:
            self._push_lru(parent)
