"""Admission and queueing policy for the serving tier.

Each tenant owns one :class:`AdmissionLane` — a deterministic virtual
timeline on one clock, ``lane_cycle``, the completion cycle of the
newest finished request.  A request arriving at ``arrival`` starts at
``start = max(arrival + dispatch_delay, lane_cycle)``:

* an idle lane (``lane_cycle`` already passed) starts it after the
  dispatch delay alone, however long the lane sat idle;
* a busy lane (``lane_cycle`` still ahead) queues it until the previous
  request completes.

The request then completes at ``start + service_cycles`` (its measured
model cycles) and the lane clock moves there, so it never runs
backwards.  Batching amortizes the dispatch delay: consecutive requests
of the same batch pay it only once (the fleet driver precomputes batch
ids in the *global* schedule, so batch boundaries are identical however
the schedule is partitioned across worker processes).

All quantities are model cycles from the engine's deterministic cost
model, never wall time — so latency percentiles are bit-reproducible
across machines and can be regression-gated with zero tolerance
(docs/SERVING.md).  In serve mode (no scheduled arrival) a request
arrives "now" on its tenant's lane clock, which keeps the same
arithmetic and stays deterministic per tenant.

Admission control is a per-tenant concurrent-request cap: a request
arriving while ``capacity`` admitted requests are still in flight
(their completion cycle is after the arrival) is rejected, bounding
queue memory and head-of-line blocking per tenant rather than
globally — one tenant's burst cannot starve another's lane.
"""

#: Lane-clock cycles charged once per batch for dispatch (socket parse,
#: routing, isolate lookup).
DISPATCH_DELAY = 30

#: Default per-tenant concurrent-request cap.
QUEUE_CAPACITY = 64


class AdmissionLane(object):
    """One tenant's deterministic admission timeline."""

    def __init__(self, dispatch_delay=DISPATCH_DELAY, capacity=QUEUE_CAPACITY):
        self.dispatch_delay = dispatch_delay
        self.capacity = capacity
        #: The lane clock: completion cycle of the newest finished
        #: request; new work never starts before it.
        self.lane_cycle = 0
        #: Completion cycles of admitted requests, pruned on arrival;
        #: its length is the in-flight depth.
        self.inflight = []
        self.depth_high_water = 0
        self.admitted = 0
        self.rejected = 0
        self.last_batch = None

    def admit(self, arrival, batch=None):
        """Admit a request arriving at ``arrival``; None on rejection.

        Returns the dispatch cycle (when the isolate starts executing):
        ``arrival + dispatch_delay`` for the first request of a batch,
        plain ``arrival`` for followers, but never before the lane
        clock — a busy lane queues the request.
        """
        self.inflight = [done for done in self.inflight if done > arrival]
        if len(self.inflight) >= self.capacity:
            self.rejected += 1
            return None
        delay = self.dispatch_delay if batch != self.last_batch else 0
        start = max(arrival + delay, self.lane_cycle)
        self.admitted += 1
        self.last_batch = batch
        depth = len(self.inflight) + 1
        if depth > self.depth_high_water:
            self.depth_high_water = depth
        return start

    def complete(self, start, service_cycles):
        """Retire a request dispatched at ``start``; returns its
        completion cycle and advances the lane clock to it."""
        done = start + service_cycles
        self.lane_cycle = done
        self.inflight.append(done)
        return done
