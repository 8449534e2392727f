//! Model-based test of [`EventQueue`]: drives the real queue and a
//! reference model through randomized schedules and checks every
//! observable (pop order, horizons, peeks, lengths, high-water mark, cancel
//! results) after every step.
//!
//! The queue keeps one `Vec` sorted latest-first, inserts by scanning from
//! the earliest end and removes cancelled events at once; this test exists
//! so a rework of those internals cannot silently change observable
//! behaviour. Two schedule shapes run against the same model:
//!
//! * shallow queues over a tiny time range, where equal-time runs are
//!   common, so the FIFO (sequence) tie-break is exercised constantly;
//! * deep queues — thousands of pending events over a wide time range,
//!   interleaved with cancels — so inserts and cancels land anywhere in a
//!   long queue, far from the earliest end.

use std::collections::BTreeMap;

use proteus_sim::{EventKey, EventQueue, SimTime};

/// Deterministic xorshift* generator — the schedules must be reproducible
/// from the seed printed on failure.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        let x = &mut self.0;
        *x ^= *x >> 12;
        *x ^= *x << 25;
        *x ^= *x >> 27;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Reference model: the live events keyed by `(time, push index)`, so the
/// map's first entry is the one that must pop next (earliest time, then
/// FIFO).
#[derive(Default)]
struct Model {
    live: BTreeMap<(SimTime, usize), u64>,
    pushed: usize,
    peak: usize,
}

impl Model {
    /// Records a push and returns its push index.
    fn push(&mut self, at: SimTime, payload: u64) -> usize {
        let idx = self.pushed;
        self.pushed += 1;
        self.live.insert((at, idx), payload);
        self.peak = self.peak.max(self.live.len());
        idx
    }

    fn cancel(&mut self, at: SimTime, idx: usize) -> bool {
        self.live.remove(&(at, idx)).is_some()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.live.first_key_value().map(|(&(at, _), _)| at)
    }

    fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64)> {
        if self.peek_time()? > horizon {
            return None;
        }
        self.live
            .pop_first()
            .map(|((at, _), payload)| (at, payload))
    }
}

/// Shape of one family of random schedules.
struct Schedule {
    steps: usize,
    /// Timestamps are drawn uniformly from `0..time_range` nanoseconds.
    time_range: u64,
    /// Cumulative percentages: below `push` pushes, then below `cancel`
    /// cancels, then below `pop` pops, then below `horizon` pops against a
    /// random horizon; the rest peeks.
    push: u64,
    cancel: u64,
    pop: u64,
    horizon: u64,
}

/// Runs one schedule against queue and model; returns the peak depth.
fn check(schedule: &Schedule, seed: u64) -> usize {
    let mut rng = Rng::new(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model = Model::default();
    // Every key ever handed out stays in the pool, so cancels also hit
    // popped and already-cancelled events and must reject them.
    let mut keys: Vec<(EventKey, SimTime, usize)> = Vec::new();
    let mut next_payload = 0u64;

    for step in 0..schedule.steps {
        let ctx = || format!("seed {seed} step {step}");
        let roll = rng.below(100);
        if roll < schedule.push {
            let at = SimTime::from_nanos(rng.below(schedule.time_range));
            let payload = next_payload;
            next_payload += 1;
            let key = queue.push(at, payload);
            keys.push((key, at, model.push(at, payload)));
        } else if roll < schedule.cancel {
            if keys.is_empty() {
                continue;
            }
            let (key, at, idx) = keys[rng.below(keys.len() as u64) as usize];
            assert_eq!(queue.cancel(key), model.cancel(at, idx), "{}", ctx());
        } else if roll < schedule.pop {
            assert_eq!(
                queue.pop(),
                model.pop_at_or_before(SimTime::MAX),
                "{}",
                ctx()
            );
        } else if roll < schedule.horizon {
            let horizon = SimTime::from_nanos(rng.below(schedule.time_range + 1));
            assert_eq!(
                queue.pop_at_or_before(horizon),
                model.pop_at_or_before(horizon),
                "{}",
                ctx()
            );
        } else {
            assert_eq!(queue.peek_time(), model.peek_time(), "{}", ctx());
        }
        assert_eq!(queue.len(), model.live.len(), "{}", ctx());
        assert_eq!(queue.is_empty(), model.live.is_empty(), "{}", ctx());
        assert_eq!(queue.peak_len(), model.peak, "{}", ctx());
    }

    // Drain: the remaining pops must replay the model's live events in
    // exactly (time, sequence) order.
    let expected: Vec<(SimTime, u64)> = model
        .live
        .iter()
        .map(|(&(at, _), &payload)| (at, payload))
        .collect();
    let drained: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
    assert_eq!(drained, expected, "seed {seed} drain");
    assert!(queue.is_empty());
    assert_eq!(queue.peek_time(), None);
    model.peak
}

#[test]
fn queue_matches_reference_model_on_random_schedules() {
    // Push dominates so queues grow deep enough for mid-queue inserts;
    // times collide often (8 distinct instants) to stress FIFO ties.
    let shallow = Schedule {
        steps: 400,
        time_range: 8,
        push: 55,
        cancel: 70,
        pop: 85,
        horizon: 95,
    };
    for seed in 0..100 {
        check(&shallow, seed);
    }
}

#[test]
fn queue_matches_reference_model_on_deep_schedules() {
    // Pushes outnumber pops and cancels about 3:1, so each schedule ends
    // with thousands of events pending over a 50 ms range.
    let deep = Schedule {
        steps: 12_000,
        time_range: 50_000_000,
        push: 60,
        cancel: 80,
        pop: 88,
        horizon: 94,
    };
    for seed in 0..8 {
        let peak = check(&deep, seed);
        assert!(peak >= 2_000, "seed {seed}: deep schedule peaked at {peak}");
    }
}
