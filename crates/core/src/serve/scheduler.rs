//! Dynamic-batching scheduler: per-session request queues with deadline-aware,
//! weighted-fair flushes.
//!
//! The scheduler is a pure batching policy — it decides *which requests run together
//! and when*, and nothing else. [`super::AttentionServer`] pairs it with a
//! [`crate::backend::ComputeBackend`] to actually execute batches; `a3-sim`'s
//! discrete-event server model replays its traces through that server, so the
//! software and the simulator form identical batches from identical traces.
//!
//! A session's queue flushes at the earliest of three triggers:
//!
//! 1. **Full** — the queue reaches [`BatchPolicy::max_batch`] requests; the batch is
//!    due at the arrival tick of the request that filled it.
//! 2. **Deadline** — a queued request's deadline arrives before the batch window
//!    expires; waiting any longer would guarantee a miss, so the batch flushes early
//!    (possibly partial).
//! 3. **Window** — the oldest queued request has waited [`BatchPolicy::batch_window`]
//!    ticks.
//!
//! When several sessions hold due batches at once, flush order is **weighted fair**
//! across tenants rather than strict session-id order: every tenant lane carries a
//! virtual time that advances by `batch_len / weight` (scaled) whenever one of its
//! batches pops, and the scheduler always pops the due batch of the lane with the
//! smallest virtual time (ties break on tenant id, then session id, keeping every
//! schedule deterministic). A tenant with weight `w` therefore drains `w` requests
//! for every 1 request of a weight-1 tenant under saturation — priority without
//! starvation. Sessions never assigned a tenant share the default lane, where the
//! policy degenerates to the original session-id order.
//!
//! # Cost
//!
//! A session's queue and tenant lane share one entry in a table sorted by
//! session id. The server issues ids densely from 0, so its sessions sit at
//! their own index: [`Scheduler::enqueue`] finds the entry by index and its
//! lane by the lane index the entry stores, with no search and no map lookup,
//! and returns the queue's depth. Sparse ids, which only tests use, fall back
//! to a binary search.
//!
//! One pop call evaluates each queue's due time once, grouping the due
//! sessions by lane in session order. Every batch it then pops costs O(lanes):
//! it picks the lane with the least (virtual time, tenant id), pops that lane's
//! first due session, and re-evaluates only that session. Within one call no
//! request arrives and only the popped queue and its lane change, so this
//! yields exactly the batch sequence of a full rescan per pop. Popped requests
//! drain into a list the caller keeps, and a drained queue keeps its buffer, so
//! a warm scheduler allocates nothing per request. [`Scheduler::pending`] reads
//! a running count. [`Scheduler::next_due`] and each pop call still scan every
//! queue, idle ones included.

use std::collections::{BTreeMap, VecDeque};

use crate::ServeError;

use super::{RequestId, SessionId, TenantId, Tick};

/// Scale factor of tenant virtual time: one popped request advances its lane by
/// `VIRTUAL_TIME_SCALE / weight`, so integer division never collapses distinct
/// weights for any weight up to the scale.
const VIRTUAL_TIME_SCALE: u64 = 1 << 16;

/// When and how large to flush dynamic batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush a session's queue as soon as it holds this many requests.
    /// [`BatchPolicy::new`] rejects 0; a server given a policy built with a
    /// literal 0 treats it as 1.
    pub max_batch: usize,
    /// Flush a session's queue once its oldest request has waited this many ticks,
    /// even if the batch is not full. `0` removes the batching wait: a queue flushes
    /// at its oldest request's arrival tick (same-tick arrivals can still share a
    /// batch; combine with `max_batch == 1` — [`BatchPolicy::per_request`] — for
    /// strictly one request per batch).
    pub batch_window: Tick,
}

impl BatchPolicy {
    /// Creates a policy, validating that `max_batch` is at least 1.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidPolicy`] if `max_batch` is zero.
    pub fn new(max_batch: usize, batch_window: Tick) -> Result<Self, ServeError> {
        if max_batch == 0 {
            return Err(ServeError::InvalidPolicy {
                name: "max_batch",
                constraint: "must be at least 1",
            });
        }
        Ok(Self {
            max_batch,
            batch_window,
        })
    }

    /// The degenerate policy that never batches: every request is its own batch
    /// (`max_batch` 1), flushed at its arrival tick. This is the per-request serving
    /// baseline the dynamic-batching experiments compare against.
    pub fn per_request() -> Self {
        Self {
            max_batch: 1,
            batch_window: 0,
        }
    }
}

impl Default for BatchPolicy {
    /// A serving-oriented default: batches of up to 16 requests, flushed after a
    /// 1024-tick window.
    fn default() -> Self {
        Self {
            max_batch: 16,
            batch_window: 1024,
        }
    }
}

/// Why a batch left the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The queue reached [`BatchPolicy::max_batch`] requests.
    Full,
    /// A queued request's deadline arrived before the batch window expired.
    Deadline,
    /// The oldest queued request waited out the batch window.
    Window,
    /// The caller force-flushed ([`super::AttentionServer::flush_all`]), e.g. at
    /// shutdown.
    Forced,
}

/// A request sitting in (or popped from) a session queue.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QueuedRequest {
    /// Server-issued request id.
    pub id: RequestId,
    /// The session (registered memory) this request targets.
    pub session: SessionId,
    /// The query vector.
    pub query: Vec<f32>,
    /// Tick at which the request entered the system.
    pub arrival: Tick,
    /// Optional completion deadline (absolute tick).
    pub deadline: Option<Tick>,
}

/// A batch the scheduler decided to run: which session, when it became due
/// (full/deadline/window trigger tick, or the force-flush tick), why, and how
/// many of the popped requests it takes, oldest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchHead {
    pub session: SessionId,
    pub formed_at: Tick,
    pub reason: FlushReason,
    pub len: usize,
}

/// A batch with its requests, as the pops' test wrappers return it.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FormedBatch {
    /// The session every request in this batch targets.
    pub session: SessionId,
    /// Tick at which the batch became due (full/deadline/window trigger tick, or the
    /// force-flush tick).
    pub formed_at: Tick,
    /// Which trigger flushed it.
    pub reason: FlushReason,
    /// The batched requests, oldest first.
    pub requests: Vec<QueuedRequest>,
}

/// The tick at which a queue becomes due, and the trigger that makes it so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DueAt {
    tick: Tick,
    reason: FlushReason,
}

/// One tenant's weighted-fair lane: its scheduling weight, the virtual time its
/// pops have accumulated, and how many of its requests are queued.
#[derive(Debug, Clone, Copy)]
struct Lane {
    weight: u64,
    virtual_time: u64,
    pending: usize,
}

impl Lane {
    fn new(weight: u64) -> Self {
        Self {
            weight: weight.max(1),
            virtual_time: 0,
            pending: 0,
        }
    }
}

/// One session's queue and the tenant lane it flushes through. The entry
/// outlives its requests, and a drained queue keeps its buffer.
#[derive(Debug, Clone)]
struct SessionQueue {
    id: SessionId,
    /// Index of the session's tenant lane in [`Scheduler::lanes`].
    lane: usize,
    requests: VecDeque<QueuedRequest>,
}

/// Per-session dynamic-batching queues under one [`BatchPolicy`], flushed in
/// weighted-fair order across tenant lanes.
///
/// Deterministic: queues are kept in [`SessionId`] order, and every pop selects
/// by the total order (lane virtual time, tenant id, session id) — identical
/// request sequences always produce identical batch sequences.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    policy: BatchPolicy,
    /// Every session ever assigned a tenant or sent a request, sorted by id.
    sessions: Vec<SessionQueue>,
    /// Every tenant a session was assigned to or weighted, in that order, and
    /// its lane. A lane starts once the tenant is weighted or one of its
    /// sessions receives a request; until then it is `None`, reads virtual
    /// time 0 and is charged nothing.
    lanes: Vec<(TenantId, Option<Lane>)>,
    /// Each tenant's index in `lanes`.
    lane_index: BTreeMap<TenantId, usize>,
    /// Requests queued across all sessions.
    pending: usize,
    /// During a pop call, entry `i` lists the due sessions of lane `i`: their
    /// slots, in session-id order, and when each became due. Kept between
    /// calls so that a pop allocates nothing.
    due_lanes: Vec<VecDeque<(usize, DueAt)>>,
}

impl Scheduler {
    /// Creates an empty scheduler with the given policy. A zero
    /// [`BatchPolicy::max_batch`] (possible because the fields are public) is
    /// treated as 1, so every queued request can still flush.
    pub fn new(policy: BatchPolicy) -> Self {
        Self {
            policy: BatchPolicy {
                max_batch: policy.max_batch.max(1),
                ..policy
            },
            sessions: Vec::new(),
            lanes: Vec::new(),
            lane_index: BTreeMap::new(),
            pending: 0,
            due_lanes: Vec::new(),
        }
    }

    /// Where `session`'s entry is (`Ok`) or would be inserted (`Err`). A
    /// server-issued id is its own slot.
    fn slot(&self, session: SessionId) -> Result<usize, usize> {
        match session.slot() {
            Some(slot) if self.sessions.get(slot).is_some_and(|q| q.id == session) => Ok(slot),
            _ => self
                .sessions
                .binary_search_by_key(&session, |queue| queue.id),
        }
    }

    /// `session`'s entry, if it has one.
    fn queue(&self, session: SessionId) -> Option<&SessionQueue> {
        self.sessions.get(self.slot(session).ok()?)
    }

    /// The index of `tenant`'s entry in `lanes`, added unstarted if it has none.
    fn lane_for(&mut self, tenant: TenantId) -> usize {
        let next = self.lanes.len();
        let lane = *self.lane_index.entry(tenant).or_insert(next);
        if lane == next {
            self.lanes.push((tenant, None));
        }
        lane
    }

    /// `session`'s slot, creating an entry on the default lane if it has
    /// none. A sparse id inserted mid-table shifts the slots after it.
    fn slot_or_insert(&mut self, session: SessionId) -> usize {
        match self.slot(session) {
            Ok(slot) => slot,
            Err(slot) => {
                let lane = self.lane_for(TenantId::DEFAULT);
                self.sessions.insert(
                    slot,
                    SessionQueue {
                        id: session,
                        lane,
                        requests: VecDeque::new(),
                    },
                );
                slot
            }
        }
    }

    /// The batching policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Sets a tenant lane's weighted-fair weight (clamped to at least 1) and
    /// returns the lane's index, which never changes. Lanes default to
    /// [`super::Priority::Normal`]'s weight when first touched.
    pub fn set_tenant_weight(&mut self, tenant: TenantId, weight: u64) -> usize {
        let index = self.lane_for(tenant);
        if let Some((_, lane)) = self.lanes.get_mut(index) {
            lane.get_or_insert(Lane::new(weight)).weight = weight.max(1);
        }
        index
    }

    /// The index of `tenant`'s lane, if it has one.
    pub fn lane(&self, tenant: TenantId) -> Option<usize> {
        self.lane_index.get(&tenant).copied()
    }

    /// Every lane's index, in tenant-id order.
    pub fn lanes_by_tenant(&self) -> impl Iterator<Item = usize> + '_ {
        self.lane_index.values().copied()
    }

    /// Routes a session's future requests through `tenant`'s lane. Unassigned
    /// sessions share [`TenantId::DEFAULT`]'s lane.
    pub fn assign_session(&mut self, session: SessionId, tenant: TenantId) {
        let lane = self.lane_for(tenant);
        let slot = self.slot_or_insert(session);
        if let Some(queue) = self.sessions.get_mut(slot) {
            queue.lane = lane;
        }
    }

    /// The tenant lane a session's requests flush through.
    #[cfg(test)]
    pub fn session_tenant(&self, session: SessionId) -> TenantId {
        self.queue(session)
            .and_then(|queue| self.lanes.get(queue.lane))
            .map_or(TenantId::DEFAULT, |&(tenant, _)| tenant)
    }

    /// A tenant lane's accumulated virtual time (0 for an untouched lane).
    /// Observable for tests; the scale is `VIRTUAL_TIME_SCALE / weight` per
    /// popped request.
    #[cfg(test)]
    pub fn tenant_virtual_time(&self, tenant: TenantId) -> u64 {
        self.lane_index
            .get(&tenant)
            .and_then(|&lane| self.lanes.get(lane)?.1)
            .map_or(0, |l| l.virtual_time)
    }

    /// Adds a request to its session's queue and returns the queue's depth.
    /// The caller is responsible for popping due batches afterwards (a full
    /// queue is due immediately).
    pub fn enqueue(&mut self, request: QueuedRequest) -> usize {
        let slot = self.slot_or_insert(request.session);
        let Some(queue) = self.sessions.get_mut(slot) else {
            return 0;
        };
        queue.requests.push_back(request);
        let (depth, lane) = (queue.requests.len(), queue.lane);
        self.pending += 1;
        // A lane waking from idle catches up to the busiest lanes' virtual time
        // floor: it must not burn accumulated credit monopolizing the unit, only
        // compete fairly from now on.
        let idle = self
            .lanes
            .get(lane)
            .is_some_and(|(_, l)| l.map_or(true, |l| l.pending == 0));
        let active_floor = if idle {
            self.lanes
                .iter()
                .filter_map(|(_, l)| l.filter(|l| l.pending > 0))
                .map(|l| l.virtual_time)
                .min()
        } else {
            None
        };
        if let Some((_, lane)) = self.lanes.get_mut(lane) {
            let lane = lane.get_or_insert(Lane::new(super::Priority::Normal.weight()));
            if let Some(floor) = active_floor {
                lane.virtual_time = lane.virtual_time.max(floor);
            }
            lane.pending += 1;
        }
        depth
    }

    /// Total number of queued requests across all sessions.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Number of queued requests for one session.
    pub fn queue_depth(&self, session: SessionId) -> usize {
        self.queue(session).map_or(0, |queue| queue.requests.len())
    }

    /// When (and why) a queue becomes due. `None` for an empty queue.
    fn due_at(policy: BatchPolicy, queue: &VecDeque<QueuedRequest>) -> Option<DueAt> {
        let oldest = queue.front()?;
        // Due the moment the max_batch-th request arrived.
        if let Some(filled) = queue.get(policy.max_batch.saturating_sub(1)) {
            return Some(DueAt {
                tick: filled.arrival,
                reason: FlushReason::Full,
            });
        }
        let window_expiry = oldest.arrival.saturating_add(policy.batch_window);
        let earliest_deadline = queue.iter().filter_map(|r| r.deadline).min();
        match earliest_deadline {
            Some(d) if d < window_expiry => Some(DueAt {
                tick: d,
                reason: FlushReason::Deadline,
            }),
            _ => Some(DueAt {
                tick: window_expiry,
                reason: FlushReason::Window,
            }),
        }
    }

    /// The earliest tick at which any session's queue becomes due, or `None` when
    /// nothing is queued. Event-driven callers (the discrete-event simulator) advance
    /// their clock to this tick when no earlier arrival exists.
    pub fn next_due(&self) -> Option<Tick> {
        self.sessions
            .iter()
            .filter_map(|q| Self::due_at(self.policy, &q.requests))
            .map(|d| d.tick)
            .min()
    }

    /// Pops one batch (up to `max_batch` requests) from the queue in `slot`
    /// into `requests`, charges its lane's virtual time and records its head.
    /// A drained queue keeps its buffer.
    fn pop_batch(
        &mut self,
        slot: usize,
        due: DueAt,
        heads: &mut Vec<BatchHead>,
        requests: &mut Vec<QueuedRequest>,
    ) -> Option<()> {
        let queue = self.sessions.get_mut(slot)?;
        let len = queue.requests.len().min(self.policy.max_batch);
        requests.extend(queue.requests.drain(..len));
        let (session, lane) = (queue.id, queue.lane);
        self.pending = self.pending.saturating_sub(len);
        if let Some((_, Some(lane))) = self.lanes.get_mut(lane) {
            lane.pending = lane.pending.saturating_sub(len);
            lane.virtual_time = lane
                .virtual_time
                .saturating_add((len as u64).saturating_mul(VIRTUAL_TIME_SCALE) / lane.weight);
        }
        heads.push(BatchHead {
            session,
            formed_at: due.tick,
            reason: due.reason,
            len,
        });
        Some(())
    }

    /// Pops batches from every queue `due` accepts until none is left, in
    /// weighted-fair (lane virtual time, tenant id, session id) order: one head
    /// per batch into `heads`, and its requests, oldest first, into `requests`,
    /// replacing both lists' contents.
    ///
    /// `due` runs once per queue, grouping the accepted sessions by lane in
    /// session order; after that, `due` only re-runs on the queue just popped.
    /// No entry is added during the call, so the sessions' slots stay put.
    /// That is enough because within one call no request arrives and
    /// only the popped queue and its lane change: every other queue keeps its
    /// verdict, and every due session of a lane shares the lane's key, so the
    /// least (virtual time, tenant id, session id) overall is the first due
    /// session of the least lane. Each pop therefore costs O(lanes).
    fn pop_fair(
        &mut self,
        due: impl Fn(&VecDeque<QueuedRequest>) -> Option<DueAt>,
        heads: &mut Vec<BatchHead>,
        requests: &mut Vec<QueuedRequest>,
    ) {
        heads.clear();
        requests.clear();
        let mut lanes = std::mem::take(&mut self.due_lanes);
        lanes.iter_mut().for_each(VecDeque::clear);
        lanes.resize_with(self.lanes.len(), VecDeque::new);
        for (slot, queue) in self.sessions.iter().enumerate() {
            if let (Some(at), Some(lane)) = (due(&queue.requests), lanes.get_mut(queue.lane)) {
                lane.push_back((slot, at));
            }
        }
        loop {
            let least = lanes
                .iter()
                .zip(&self.lanes)
                .enumerate()
                .filter(|(_, (due, _))| !due.is_empty())
                .min_by_key(|(_, (_, (tenant, lane)))| {
                    (lane.map_or(0, |l| l.virtual_time), tenant.raw())
                });
            let Some((i, _)) = least else {
                break;
            };
            let Some((slot, at)) = lanes.get_mut(i).and_then(VecDeque::pop_front) else {
                break;
            };
            if self.pop_batch(slot, at, heads, requests).is_none() {
                break;
            }
            if let Some(next) = self.sessions.get(slot).and_then(|q| due(&q.requests)) {
                if let Some(lane) = lanes.get_mut(i) {
                    lane.push_front((slot, next));
                }
            }
        }
        self.due_lanes = lanes;
    }

    /// Pops every batch that is due at or before `now`, in weighted-fair
    /// (lane virtual time, tenant id, session id) order — one batch per selection,
    /// so tenants interleave by weight instead of draining whole sessions in id
    /// order. A queue holding more than `max_batch` requests yields multiple full
    /// batches; a deadline- or window-triggered flush takes the whole (partial)
    /// queue. Heads and requests land in the caller's lists, as in
    /// [`Self::pop_fair`].
    pub fn pop_due_into(
        &mut self,
        now: Tick,
        heads: &mut Vec<BatchHead>,
        requests: &mut Vec<QueuedRequest>,
    ) {
        let policy = self.policy;
        self.pop_fair(
            |queue| Self::due_at(policy, queue).filter(|due| due.tick <= now),
            heads,
            requests,
        );
    }

    /// Pops everything regardless of due times (reason [`FlushReason::Forced`],
    /// formed at `now`), still in weighted-fair order, into the caller's lists.
    /// An idle scheduler pops nothing — the legal "empty-batch flush".
    pub fn pop_all_into(
        &mut self,
        now: Tick,
        heads: &mut Vec<BatchHead>,
        requests: &mut Vec<QueuedRequest>,
    ) {
        let forced = DueAt {
            tick: now,
            reason: FlushReason::Forced,
        };
        self.pop_fair(
            |queue| (!queue.is_empty()).then_some(forced),
            heads,
            requests,
        );
    }

    /// [`Self::pop_due_into`], each batch with its own requests.
    #[cfg(test)]
    pub fn pop_due(&mut self, now: Tick) -> Vec<FormedBatch> {
        let (mut heads, mut requests) = (Vec::new(), Vec::new());
        self.pop_due_into(now, &mut heads, &mut requests);
        Self::formed(heads, requests)
    }

    /// [`Self::pop_all_into`], each batch with its own requests.
    #[cfg(test)]
    pub fn pop_all(&mut self, now: Tick) -> Vec<FormedBatch> {
        let (mut heads, mut requests) = (Vec::new(), Vec::new());
        self.pop_all_into(now, &mut heads, &mut requests);
        Self::formed(heads, requests)
    }

    #[cfg(test)]
    fn formed(heads: Vec<BatchHead>, requests: Vec<QueuedRequest>) -> Vec<FormedBatch> {
        let mut requests = requests.into_iter();
        heads
            .into_iter()
            .map(|head| FormedBatch {
                session: head.session,
                formed_at: head.formed_at,
                reason: head.reason,
                requests: requests.by_ref().take(head.len).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Priority;
    use proptest::prelude::*;

    fn req(id: u64, session: u64, arrival: Tick, deadline: Option<Tick>) -> QueuedRequest {
        QueuedRequest {
            id: RequestId::from_raw(id),
            session: SessionId::from_raw(session),
            query: vec![0.0; 2],
            arrival,
            deadline,
        }
    }

    fn window_policy(max_batch: usize, window: Tick) -> Scheduler {
        Scheduler::new(BatchPolicy::new(max_batch, window).unwrap())
    }

    #[test]
    fn policy_rejects_zero_max_batch() {
        assert!(matches!(
            BatchPolicy::new(0, 10),
            Err(ServeError::InvalidPolicy { .. })
        ));
        assert_eq!(BatchPolicy::per_request().max_batch, 1);
        assert_eq!(BatchPolicy::default().max_batch, 16);
    }

    #[test]
    fn zero_max_batch_literal_flushes_one_request_per_batch() {
        // The public fields bypass `BatchPolicy::new`; such a policy used to
        // strand every request (or overflow in `next_due`).
        let mut s = Scheduler::new(BatchPolicy {
            max_batch: 0,
            batch_window: 10,
        });
        assert_eq!(s.policy().max_batch, 1);
        for i in 0..3 {
            s.enqueue(req(i, 1, i, None));
        }
        assert_eq!(s.next_due(), Some(0));
        let due = s.pop_due(1);
        assert_eq!(due.len(), 2);
        assert!(due
            .iter()
            .all(|b| b.requests.len() == 1 && b.reason == FlushReason::Full));
        let forced = s.pop_all(100);
        assert_eq!(forced.len(), 1);
        assert_eq!(forced[0].requests[0].id, RequestId::from_raw(2));
        assert_eq!(s.pending(), 0);
        assert_eq!(s.next_due(), None);
    }

    #[test]
    fn full_queue_flushes_at_fill_tick() {
        let mut s = window_policy(2, 1000);
        s.enqueue(req(0, 1, 10, None));
        s.enqueue(req(1, 1, 25, None));
        assert_eq!(s.next_due(), Some(25));
        let batches = s.pop_due(25);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].reason, FlushReason::Full);
        assert_eq!(batches[0].formed_at, 25);
        assert_eq!(batches[0].requests.len(), 2);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn window_expiry_flushes_partial_batch() {
        let mut s = window_policy(8, 100);
        s.enqueue(req(0, 1, 10, None));
        s.enqueue(req(1, 1, 40, None));
        assert_eq!(s.next_due(), Some(110));
        assert!(s.pop_due(109).is_empty());
        let batches = s.pop_due(110);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].reason, FlushReason::Window);
        assert_eq!(batches[0].requests.len(), 2);
    }

    #[test]
    fn deadline_preempts_window() {
        let mut s = window_policy(8, 1000);
        s.enqueue(req(0, 1, 10, None));
        s.enqueue(req(1, 1, 20, Some(50)));
        // The window would expire at 1010, but request 1's deadline is 50.
        assert_eq!(s.next_due(), Some(50));
        let batches = s.pop_due(50);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].reason, FlushReason::Deadline);
        assert_eq!(batches[0].formed_at, 50);
        assert_eq!(batches[0].requests.len(), 2);
    }

    #[test]
    fn oversize_queue_yields_multiple_full_batches() {
        let mut s = window_policy(2, 1000);
        for i in 0..5 {
            s.enqueue(req(i, 1, i, None));
        }
        let batches = s.pop_due(4);
        assert_eq!(batches.len(), 2, "two full batches, one leftover");
        assert!(batches.iter().all(|b| b.reason == FlushReason::Full));
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn sessions_flush_independently_in_id_order() {
        let mut s = window_policy(4, 10);
        s.enqueue(req(0, 2, 0, None));
        s.enqueue(req(1, 1, 5, None));
        let batches = s.pop_due(100);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].session, SessionId::from_raw(1));
        assert_eq!(batches[1].session, SessionId::from_raw(2));
    }

    #[test]
    fn pop_all_force_flushes_and_empty_flush_is_legal() {
        let mut s = window_policy(2, 1_000_000);
        assert!(s.pop_all(0).is_empty(), "empty-batch flush yields nothing");
        for i in 0..3 {
            s.enqueue(req(i, 1, 0, None));
        }
        let batches = s.pop_all(7);
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.reason == FlushReason::Forced));
        assert!(batches.iter().all(|b| b.formed_at == 7));
        assert_eq!(batches.iter().map(|b| b.requests.len()).sum::<usize>(), 3);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn zero_window_flushes_each_request_at_arrival() {
        let mut s = Scheduler::new(BatchPolicy::per_request());
        s.enqueue(req(0, 1, 3, None));
        s.enqueue(req(1, 1, 9, None));
        let batches = s.pop_due(3);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].formed_at, 3);
        assert_eq!(s.queue_depth(SessionId::from_raw(1)), 1);
    }

    /// Saturated lanes with weights 8 and 1 drain roughly 8:1 — and the
    /// background lane still pops (no starvation).
    #[test]
    fn weighted_fair_pop_interleaves_by_weight() {
        let mut s = Scheduler::new(BatchPolicy::per_request());
        let high = TenantId::from_raw(1);
        let bg = TenantId::from_raw(2);
        s.set_tenant_weight(high, Priority::High.weight());
        s.set_tenant_weight(bg, Priority::Background.weight());
        s.assign_session(SessionId::from_raw(10), high);
        s.assign_session(SessionId::from_raw(20), bg);
        assert_eq!(s.session_tenant(SessionId::from_raw(10)), high);
        for i in 0..27u64 {
            s.enqueue(req(2 * i, 10, 0, None));
            s.enqueue(req(2 * i + 1, 20, 0, None));
        }
        let batches = s.pop_due(0);
        // Count pops of each lane within the first 18 selections: weight 8 vs 1
        // must give the high lane 16 of them.
        let head: Vec<u64> = batches.iter().take(18).map(|b| b.session.raw()).collect();
        let high_pops = head.iter().filter(|&&raw| raw == 10).count();
        assert_eq!(high_pops, 16, "head of schedule: {head:?}");
        // Background still drains completely by the end.
        assert_eq!(s.pending(), 0);
        assert!(s.tenant_virtual_time(bg) >= s.tenant_virtual_time(high));
    }

    /// A lane waking from idle competes from the active lanes' virtual-time
    /// floor instead of replaying banked credit.
    #[test]
    fn idle_lane_does_not_bank_credit() {
        let mut s = Scheduler::new(BatchPolicy::per_request());
        let a = TenantId::from_raw(1);
        let b = TenantId::from_raw(2);
        s.set_tenant_weight(a, 4);
        s.set_tenant_weight(b, 4);
        s.assign_session(SessionId::from_raw(1), a);
        s.assign_session(SessionId::from_raw(2), b);
        // Lane a pops 50 requests while b is idle.
        for i in 0..50u64 {
            s.enqueue(req(i, 1, 0, None));
        }
        assert_eq!(s.pop_due(0).len(), 50);
        let a_time = s.tenant_virtual_time(a);
        assert!(a_time > 0);
        // Now both lanes go busy; b must not pop 50 times in a row first.
        for i in 0..8u64 {
            s.enqueue(req(100 + 2 * i, 1, 1, None));
            s.enqueue(req(101 + 2 * i, 2, 1, None));
        }
        let order: Vec<u64> = s.pop_due(1).iter().map(|b| b.session.raw()).collect();
        let first_a = order.iter().position(|&raw| raw == 1);
        assert!(
            first_a.is_some_and(|p| p <= 2),
            "lane a must pop near the head, got {order:?}"
        );
    }

    #[test]
    fn default_lane_keeps_legacy_session_order() {
        // No tenants assigned: all sessions share the default lane, and pops come
        // out in session-id order exactly like the pre-tenancy scheduler.
        let mut s = window_policy(1, 10);
        for session in [3u64, 1, 2] {
            s.enqueue(req(session, session, 0, None));
        }
        let order: Vec<u64> = s.pop_due(100).iter().map(|b| b.session.raw()).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(s.session_tenant(SessionId::from_raw(1)), TenantId::DEFAULT);
    }

    /// The selection loop [`Scheduler::pop_due`] replaced, kept as the oracle:
    /// every pop scans every queue for the least (virtual time, tenant id,
    /// session id) key among the eligible ones.
    #[derive(Debug, Default)]
    struct Oracle {
        max_batch: usize,
        batch_window: Tick,
        queues: BTreeMap<SessionId, VecDeque<QueuedRequest>>,
        session_tenants: BTreeMap<SessionId, TenantId>,
        lanes: BTreeMap<TenantId, Lane>,
    }

    impl Oracle {
        fn policy(&self) -> BatchPolicy {
            BatchPolicy {
                max_batch: self.max_batch,
                batch_window: self.batch_window,
            }
        }

        fn set_tenant_weight(&mut self, tenant: TenantId, weight: u64) {
            self.lanes
                .entry(tenant)
                .or_insert_with(|| Lane::new(weight))
                .weight = weight.max(1);
        }

        fn session_tenant(&self, session: SessionId) -> TenantId {
            self.session_tenants
                .get(&session)
                .copied()
                .unwrap_or(TenantId::DEFAULT)
        }

        fn tenant_virtual_time(&self, tenant: TenantId) -> u64 {
            self.lanes.get(&tenant).map_or(0, |l| l.virtual_time)
        }

        fn enqueue(&mut self, request: QueuedRequest) {
            let tenant = self.session_tenant(request.session);
            let active_floor = self
                .lanes
                .values()
                .filter(|l| l.pending > 0)
                .map(|l| l.virtual_time)
                .min();
            let lane = self
                .lanes
                .entry(tenant)
                .or_insert_with(|| Lane::new(Priority::Normal.weight()));
            if lane.pending == 0 {
                if let Some(floor) = active_floor {
                    lane.virtual_time = lane.virtual_time.max(floor);
                }
            }
            lane.pending += 1;
            self.queues
                .entry(request.session)
                .or_default()
                .push_back(request);
        }

        fn pending(&self) -> usize {
            self.queues.values().map(VecDeque::len).sum()
        }

        fn queue_depth(&self, session: SessionId) -> usize {
            self.queues.get(&session).map_or(0, VecDeque::len)
        }

        fn next_due(&self) -> Option<Tick> {
            self.queues
                .values()
                .filter_map(|q| Scheduler::due_at(self.policy(), q))
                .map(|d| d.tick)
                .min()
        }

        fn select_fair(
            &self,
            mut eligible: impl FnMut(&VecDeque<QueuedRequest>) -> Option<DueAt>,
        ) -> Option<(SessionId, DueAt)> {
            let mut best: Option<(u64, u64, SessionId, DueAt)> = None;
            for (&session, queue) in &self.queues {
                let Some(due) = eligible(queue) else {
                    continue;
                };
                let tenant = self.session_tenant(session);
                let vtime = self.tenant_virtual_time(tenant);
                let key = (vtime, tenant.raw(), session);
                if best.map_or(true, |(bv, bt, bs, _)| key < (bv, bt, bs)) {
                    best = Some((vtime, tenant.raw(), session, due));
                }
            }
            best.map(|(_, _, session, due)| (session, due))
        }

        fn pop_batch(&mut self, session: SessionId, take: usize, due: DueAt) -> FormedBatch {
            let queue = self.queues.get_mut(&session).unwrap();
            let take = take.min(queue.len());
            let requests: Vec<QueuedRequest> = queue.drain(..take).collect();
            if queue.is_empty() {
                self.queues.remove(&session);
            }
            let tenant = self.session_tenant(session);
            if let Some(lane) = self.lanes.get_mut(&tenant) {
                lane.pending = lane.pending.saturating_sub(requests.len());
                lane.virtual_time = lane.virtual_time.saturating_add(
                    (requests.len() as u64).saturating_mul(VIRTUAL_TIME_SCALE) / lane.weight,
                );
            }
            FormedBatch {
                session,
                formed_at: due.tick,
                reason: due.reason,
                requests,
            }
        }

        fn pop_due(&mut self, now: Tick) -> Vec<FormedBatch> {
            let mut batches = Vec::new();
            let policy = self.policy();
            while let Some((session, due)) =
                self.select_fair(|queue| match Scheduler::due_at(policy, queue) {
                    Some(due) if due.tick <= now => Some(due),
                    _ => None,
                })
            {
                let take = match due.reason {
                    FlushReason::Full => policy.max_batch,
                    _ => self.queue_depth(session),
                };
                batches.push(self.pop_batch(session, take, due));
            }
            batches
        }

        fn pop_all(&mut self, now: Tick) -> Vec<FormedBatch> {
            let mut batches = Vec::new();
            let forced = DueAt {
                tick: now,
                reason: FlushReason::Forced,
            };
            while let Some((session, due)) =
                self.select_fair(|queue| (!queue.is_empty()).then_some(forced))
            {
                batches.push(self.pop_batch(session, self.max_batch, due));
            }
            batches
        }
    }

    /// Splitmix64: the trace generator's seeded stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo + 1)
        }
    }

    /// Seeded traces of interleaved `enqueue`, `pop_due` and `pop_all` calls
    /// (plus rare tenant re-weightings and session re-assignments) at
    /// increasing ticks: after every step the scheduler and the oracle agree
    /// on the batches, `pending`, `next_due`, every queue depth and every
    /// lane's virtual time.
    #[test]
    fn pop_due_matches_the_select_fair_oracle_on_random_traces() {
        let weights = [
            Priority::High.weight(),
            Priority::Normal.weight(),
            Priority::Background.weight(),
            3,
        ];
        let mut batches_seen = 0;
        for seed in 0..200 {
            let mut rng = Rng(seed);
            let policy = BatchPolicy::new(rng.range(1, 16) as usize, rng.range(0, 1000)).unwrap();
            let mut s = Scheduler::new(policy);
            let mut oracle = Oracle {
                max_batch: policy.max_batch,
                batch_window: policy.batch_window,
                ..Oracle::default()
            };
            let tenants = rng.range(1, 4);
            let sessions = rng.range(1, 70);
            let tenant = |raw: u64| TenantId::from_raw(raw);
            for t in 0..tenants {
                let weight = weights[rng.range(0, 3) as usize];
                s.set_tenant_weight(tenant(t), weight);
                oracle.set_tenant_weight(tenant(t), weight);
            }
            // About a quarter of the sessions are never assigned a tenant.
            for raw in 0..sessions {
                if rng.range(0, 3) > 0 {
                    let t = tenant(rng.range(0, tenants - 1));
                    s.assign_session(SessionId::from_raw(raw), t);
                    oracle.session_tenants.insert(SessionId::from_raw(raw), t);
                }
            }
            let mut now: Tick = 0;
            let mut next_id = 0;
            for step in 0..600 {
                let batches = match rng.range(0, 99) {
                    0..=69 => {
                        let session = rng.range(0, sessions - 1);
                        let deadline = (rng.range(0, 3) == 0).then(|| now + rng.range(0, 1500));
                        let request = req(next_id, session, now, deadline);
                        next_id += 1;
                        s.enqueue(request.clone());
                        oracle.enqueue(request);
                        Vec::new()
                    }
                    70..=89 => {
                        let got = s.pop_due(now);
                        assert_eq!(got, oracle.pop_due(now), "seed {seed} step {step}");
                        got
                    }
                    90..=94 => {
                        let got = s.pop_all(now);
                        assert_eq!(got, oracle.pop_all(now), "seed {seed} step {step}");
                        got
                    }
                    95..=96 => {
                        let t = tenant(rng.range(0, tenants));
                        let weight = rng.range(0, 9);
                        s.set_tenant_weight(t, weight);
                        oracle.set_tenant_weight(t, weight);
                        Vec::new()
                    }
                    _ => {
                        let session = SessionId::from_raw(rng.range(0, sessions - 1));
                        let t = tenant(rng.range(0, tenants));
                        s.assign_session(session, t);
                        oracle.session_tenants.insert(session, t);
                        Vec::new()
                    }
                };
                batches_seen += batches.len();
                assert_eq!(s.pending(), oracle.pending(), "seed {seed} step {step}");
                assert_eq!(s.next_due(), oracle.next_due(), "seed {seed} step {step}");
                for raw in 0..sessions {
                    let session = SessionId::from_raw(raw);
                    assert_eq!(s.queue_depth(session), oracle.queue_depth(session));
                    assert_eq!(s.session_tenant(session), oracle.session_tenant(session));
                }
                for t in 0..=tenants {
                    assert_eq!(
                        s.tenant_virtual_time(tenant(t)),
                        oracle.tenant_virtual_time(tenant(t)),
                        "seed {seed} step {step}"
                    );
                }
                now += rng.range(0, 300);
            }
        }
        assert!(batches_seen > 10_000, "only {batches_seen} batches");
    }

    proptest! {
        /// Under saturation (every session always has queued work), the weighted-fair
        /// scheduler starves no tenant: over any long pop sequence, every tenant's
        /// share of flushed requests is at least half its weight fraction.
        #[test]
        fn weighted_fair_flushing_starves_no_tenant(
            weights in prop::collection::vec(1u64..9, 2..5),
            rounds in 20usize..60,
        ) {
            let mut scheduler = Scheduler::new(BatchPolicy::per_request());
            for (t, &w) in weights.iter().enumerate() {
                let tenant = TenantId::from_raw(t as u64);
                scheduler.set_tenant_weight(tenant, w);
                scheduler.assign_session(SessionId::from_raw(t as u64), tenant);
            }
            // Saturate: every tenant has one session with `rounds` queued requests.
            let mut id = 0u64;
            for (t, _) in weights.iter().enumerate() {
                for _ in 0..rounds {
                    scheduler.enqueue(QueuedRequest {
                        id: RequestId::from_raw(id),
                        session: SessionId::from_raw(t as u64),
                        query: vec![0.0],
                        arrival: 0,
                        deadline: None,
                    });
                    id += 1;
                }
            }
            // Observe a window smaller than any single tenant's backlog, so the
            // shares reflect the fair schedule, not queue exhaustion.
            let window = rounds;
            let mut popped = vec![0u64; weights.len()];
            let mut seen = 0usize;
            while seen < window {
                for batch in scheduler.pop_due(0) {
                    if seen < window {
                        popped[batch.session.raw() as usize] += batch.requests.len() as u64;
                        seen += batch.requests.len();
                    }
                }
            }
            let total_weight: u64 = weights.iter().sum();
            for (t, &w) in weights.iter().enumerate() {
                let fair_share = window as f64 * w as f64 / total_weight as f64;
                prop_assert!(
                    popped[t] as f64 >= (fair_share / 2.0).floor(),
                    "tenant {t} (weight {w}) got {} of {window} pops, fair share {fair_share:.1}",
                    popped[t]
                );
            }
        }
    }
}
