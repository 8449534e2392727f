//! Per-device worker: query queue, batching policy and executor state (§3).

use std::collections::VecDeque;

use proteus_profiler::{DeviceSpec, VariantId};
use proteus_sim::{EventKey, SimTime};

use crate::batching::BatchPolicy;
use crate::Query;

/// Executor state of a worker device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Free to start a batch.
    Idle,
    /// Executing a batch until the given time.
    Busy(SimTime),
    /// Swapping models (container start + weight load) until the given time.
    Loading(SimTime),
}

/// One worker: a device, its loaded variant, a FIFO query queue and a
/// batching policy instance.
///
/// The worker is a passive state machine — `ServingSystem` drives it from
/// simulation events. Queues are bounded: a full queue rejects new queries
/// (the system records them as drops), modeling the bounded request buffers
/// of real serving systems.
#[derive(Debug)]
pub struct Worker {
    spec: DeviceSpec,
    variant: Option<VariantId>,
    queue: VecDeque<Query>,
    state: WorkerState,
    policy: Box<dyn BatchPolicy>,
    queue_cap: usize,
    /// Liveness: a down worker accepts no queries, executes nothing and is
    /// excluded from planning until it recovers.
    up: bool,
    /// Pending batching timer, if any.
    pub timer: Option<EventKey>,
    /// Model-load delay to apply once the in-flight batch finishes.
    pub pending_load: Option<SimTime>,
    /// Generation counter for load-completion events (stale events are
    /// ignored after a newer plan retargets the worker).
    pub load_generation: u64,
}

impl Worker {
    /// Creates an idle worker with no model loaded.
    pub fn new(spec: DeviceSpec, policy: Box<dyn BatchPolicy>, queue_cap: usize) -> Self {
        assert!(queue_cap > 0, "queue capacity must be positive");
        Self {
            spec,
            variant: None,
            queue: VecDeque::new(),
            state: WorkerState::Idle,
            policy,
            queue_cap,
            up: true,
            timer: None,
            pending_load: None,
            load_generation: 0,
        }
    }

    /// The device this worker runs on.
    pub fn spec(&self) -> DeviceSpec {
        self.spec
    }

    /// The currently targeted variant (may still be loading).
    pub fn variant(&self) -> Option<VariantId> {
        self.variant
    }

    /// Retargets the worker to a new variant (or none).
    pub fn set_variant(&mut self, variant: Option<VariantId>) {
        self.variant = variant;
    }

    /// Executor state.
    pub fn state(&self) -> WorkerState {
        self.state
    }

    /// Sets the executor state.
    pub fn set_state(&mut self, state: WorkerState) {
        self.state = state;
    }

    /// Whether the worker can start a batch right now.
    pub fn is_idle(&self) -> bool {
        self.state == WorkerState::Idle
    }

    /// Whether the device is alive (the liveness dimension is orthogonal
    /// to [`WorkerState`]: a down device keeps no meaningful state).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Marks the device up or down.
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Number of queued queries.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// A view of the queue, oldest first.
    pub fn queue(&self) -> &VecDeque<Query> {
        &self.queue
    }

    /// Enqueues a query; on a full queue the query is handed back so the
    /// caller can account the drop.
    ///
    /// # Errors
    ///
    /// Returns `Err(query)` if the queue is at capacity.
    pub fn enqueue(&mut self, query: Query) -> Result<(), Query> {
        if self.queue.len() >= self.queue_cap {
            return Err(query);
        }
        self.queue.push_back(query);
        Ok(())
    }

    /// Removes and returns the first `n` queued queries.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` queries are queued.
    pub fn take_front(&mut self, n: usize) -> Vec<Query> {
        assert!(
            n <= self.queue.len(),
            "cannot take {n} of {}",
            self.queue.len()
        );
        self.queue.drain(..n).collect()
    }

    /// Removes the first `n` queued queries into `out`, reusing its
    /// capacity (`out` is cleared first). The allocation-free twin of
    /// [`take_front`](Self::take_front) for the per-event hot path.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` queries are queued.
    pub fn take_front_into(&mut self, n: usize, out: &mut Vec<Query>) {
        assert!(
            n <= self.queue.len(),
            "cannot take {n} of {}",
            self.queue.len()
        );
        out.clear();
        out.extend(self.queue.drain(..n));
    }

    /// Removes and returns every queued query (used when a plan retargets
    /// the worker to a different family).
    pub fn drain_queue(&mut self) -> Vec<Query> {
        self.queue.drain(..).collect()
    }

    /// Asks the batching policy what to do next, given the current time,
    /// the profile of the loaded variant and its precomputed integral-cost
    /// latency table (may be empty; see [`BatchContext::lat_table`]).
    ///
    /// [`BatchContext::lat_table`]: crate::batching::BatchContext::lat_table
    pub fn decide(
        &mut self,
        now: SimTime,
        profile: &proteus_profiler::Profile,
        lat_table: &[SimTime],
    ) -> crate::batching::BatchDecision {
        let queue: &[Query] = self.queue.make_contiguous();
        let ctx = crate::batching::BatchContext {
            now,
            queue,
            profile,
            lat_table,
        };
        self.policy.decide(&ctx)
    }

    /// Mutable access to the batching policy (for completion feedback).
    pub fn policy_mut(&mut self) -> &mut dyn BatchPolicy {
        self.policy.as_mut()
    }

    /// Immutable access to the batching policy.
    pub fn policy(&self) -> &dyn BatchPolicy {
        self.policy.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::ProteusBatching;
    use crate::QueryId;
    use proteus_profiler::{DeviceId, DeviceType, ModelFamily};

    fn worker(cap: usize) -> Worker {
        Worker::new(
            DeviceSpec {
                id: DeviceId(0),
                device_type: DeviceType::V100,
            },
            Box::new(ProteusBatching),
            cap,
        )
    }

    fn query(i: u64) -> Query {
        Query::new(
            QueryId(i),
            ModelFamily::ResNet,
            SimTime::from_millis(i),
            SimTime::from_millis(100),
        )
    }

    #[test]
    fn starts_idle_and_empty() {
        let w = worker(4);
        assert!(w.is_idle());
        assert!(w.is_up());
        assert_eq!(w.queue_len(), 0);
        assert_eq!(w.variant(), None);
        assert_eq!(w.policy().name(), "proteus");
    }

    #[test]
    fn liveness_toggles_independently_of_state() {
        let mut w = worker(4);
        w.set_state(WorkerState::Busy(SimTime::from_millis(10)));
        w.set_up(false);
        assert!(!w.is_up());
        assert_eq!(w.state(), WorkerState::Busy(SimTime::from_millis(10)));
        w.set_up(true);
        assert!(w.is_up());
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut w = worker(2);
        assert!(w.enqueue(query(0)).is_ok());
        assert!(w.enqueue(query(1)).is_ok());
        let rejected = w.enqueue(query(2)).unwrap_err();
        assert_eq!(rejected.id, QueryId(2));
        assert_eq!(w.queue_len(), 2);
    }

    #[test]
    fn take_front_is_fifo() {
        let mut w = worker(8);
        for i in 0..5 {
            w.enqueue(query(i)).unwrap();
        }
        let batch = w.take_front(3);
        assert_eq!(
            batch.iter().map(|q| q.id.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(w.queue_len(), 2);
        let rest = w.drain_queue();
        assert_eq!(rest.len(), 2);
        assert_eq!(w.queue_len(), 0);
    }

    #[test]
    fn state_transitions() {
        let mut w = worker(4);
        let t = SimTime::from_millis(50);
        w.set_state(WorkerState::Busy(t));
        assert!(!w.is_idle());
        assert_eq!(w.state(), WorkerState::Busy(t));
        w.set_state(WorkerState::Loading(t));
        assert_eq!(w.state(), WorkerState::Loading(t));
        w.set_state(WorkerState::Idle);
        assert!(w.is_idle());
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn take_more_than_queued_panics() {
        let mut w = worker(4);
        w.enqueue(query(0)).unwrap();
        w.take_front(2);
    }
}
