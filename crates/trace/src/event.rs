//! The typed event schema covering the full query lifecycle, worker state
//! transitions and control-plane decisions.
//!
//! Every event kind is declared once, in the schema table at the bottom
//! of this module: its variant, its wire name, and each field with its
//! Rust type and wire key. The table generates [`EventKind`],
//! [`EventKind::name`], and the per-kind encoder and the per-kind arms of
//! both readers (positional and keyed) of the [`json`](crate::json)
//! module. Each label set is declared once too, by `labels!`.

use proteus_profiler::{DeviceId, DeviceType, ModelFamily, VariantId};
use proteus_sim::SimTime;

use crate::json::{labels, Fields, Key, Line, Parser, Wire};

labels! {
    /// Why a query was dropped instead of served.
    pub enum DropReason {
        /// The target worker's bounded queue was full on enqueue.
        QueueFull = "queue_full",
        /// No device hosted (or was planned to host) the query's family.
        NoHost = "no_host",
        /// The query expired in a queue and was shed by the batching policy.
        Expired = "expired",
        /// Still queued when the run's drain window closed.
        Drained = "drained",
        /// Its device crashed and the salvage path exhausted the retry budget
        /// (or found nowhere else to send it).
        DeviceFailed = "device_failed",
    }
}

impl DropReason {
    /// Whether the system rejected the query outright (as opposed to the
    /// query dying of old age in a queue). Shed drops blame the admission
    /// decision; expiry drops blame whatever delayed the queue.
    pub fn is_shed(self) -> bool {
        !matches!(self, DropReason::Expired)
    }
}

labels! {
    /// What prompted the Resource Manager to produce a new plan.
    pub enum ReplanCause {
        /// The pre-trace provisioning allocation.
        Initial = "initial",
        /// The periodic re-allocation timer.
        Periodic = "periodic",
        /// The monitoring daemon detected a demand burst.
        Burst = "burst",
        /// A critical-path allocator (INFaaS) re-plans every monitoring tick.
        CriticalPath = "critical_path",
        /// Elastic devices came online (§7 tandem extension).
        Provisioned = "provisioned",
        /// A device crashed (or recovered): the plan must route around the
        /// changed liveness set immediately.
        DeviceFailure = "device_failure",
    }
}

labels! {
    /// Why an in-flight (asynchronously solving) plan was discarded instead of
    /// committed.
    pub enum DiscardReason {
        /// The liveness set changed mid-solve (a device crashed or recovered):
        /// the plan was computed against a cluster that no longer exists and
        /// must never be applied.
        Liveness = "liveness",
        /// A newer solve superseded this one before its commit event fired.
        Superseded = "superseded",
    }
}

labels! {
    /// Severity tier of an SLO burn-rate alert (Google SRE style: a fast-burn
    /// rule pages, a slow-burn rule opens a ticket).
    pub enum AlertSeverity {
        /// Fast burn: the error budget is being consumed quickly enough that a
        /// human should look immediately.
        Page = "page",
        /// Slow burn: sustained budget consumption worth investigating.
        Ticket = "ticket",
    }
}

/// One timestamped flight-recorder event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time the event occurred.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

impl EventKind {
    /// The query this event is directly about, if any (batch membership is
    /// expressed through [`EventKind::BatchFormed::queries`]).
    pub fn query(&self) -> Option<u64> {
        match *self {
            EventKind::Arrived { query, .. }
            | EventKind::Routed { query, .. }
            | EventKind::Enqueued { query, .. }
            | EventKind::ServedOnTime { query, .. }
            | EventKind::ServedLate { query, .. }
            | EventKind::QueryRetried { query, .. }
            | EventKind::Dropped { query, .. } => Some(query),
            _ => None,
        }
    }

    /// Whether this is a query-terminal event (`Served*` or `Dropped`).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            EventKind::ServedOnTime { .. }
                | EventKind::ServedLate { .. }
                | EventKind::Dropped { .. }
        )
    }
}

/// Declares [`EventKind`] from the schema table below. An entry is a
/// variant with its wire name, then its fields in wire order, each as
/// `field: Type => Key`, where `Key` names the wire key in
/// [`json`](crate::json)'s key list and `Type`'s codec says how the value
/// is written and read. A field that older traces lack adds `or value`,
/// the value its absence (or `null`) decodes to; the positional reader
/// leaves such a line to the keyed scan.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum EventKind {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $wire:literal {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty => $key:ident $(or $default:expr)?,
                    )+
                },
            )+
        }
    ) => {
        $(#[$meta])*
        pub enum EventKind {
            $(
                $(#[$vmeta])*
                $variant {
                    $(
                        $(#[$fmeta])*
                        $field: $ty,
                    )+
                },
            )+
        }

        impl EventKind {
            /// Stable wire name of the event type.
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $wire,)+
                }
            }

            /// Appends the kind's fields, in table order.
            pub(crate) fn write_fields(&self, w: &mut Line<'_>) {
                match self {
                    $(EventKind::$variant { $($field),+ } => {
                        $(Wire::write($field, Key::$key, w);)+
                    })+
                }
            }

            /// Builds the kind wire-named `name` from a line's fields.
            pub(crate) fn read_fields(name: &str, f: &mut Fields<'_>) -> Result<Self, String> {
                Ok(match name {
                    $($wire => EventKind::$variant {
                        $($field: events!(@read f, $key $(, $default)?),)+
                    },)+
                    other => return Err(format!("unknown event type `{other}`")),
                })
            }

            /// Reads the fields of the kind wire-named `name` at the
            /// cursor, in table order and in exactly the bytes
            /// `write_fields` writes; `None` at the first other byte.
            pub(crate) fn take_fields(name: &str, p: &mut Parser<'_>) -> Option<Self> {
                Some(match name {
                    $($wire => EventKind::$variant {
                        $($field: Wire::take(p, Key::$key)?,)+
                    },)+
                    _ => return None,
                })
            }
        }
    };
    (@read $f:ident, $key:ident) => {
        Wire::read($f, Key::$key)?
    };
    (@read $f:ident, $key:ident, $default:expr) => {
        $f.read_or(Key::$key, $default)?
    };
}

events! {
    /// Everything the flight recorder can observe.
    ///
    /// The schema has three layers, mirroring the system architecture:
    ///
    /// * **query lifecycle** — `Arrived` → `Routed` → `Enqueued` →
    ///   (`BatchFormed`/`ExecStarted` → `ExecCompleted`) → exactly one terminal
    ///   event (`ServedOnTime`, `ServedLate` or `Dropped`);
    /// * **worker state** — `WorkerOnline`, `ModelLoadStarted`/`Finished`;
    /// * **control plane** — `ReplanTriggered` → `SolveStats` → `PlanApplied`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EventKind {
        /// A worker joined the cluster (at start-up, or later via elastic
        /// provisioning).
        WorkerOnline "worker_online" {
            /// The worker's device id.
            device: DeviceId => D,
            /// Its hardware type.
            device_type: DeviceType => Type,
        },
        /// A query arrived at the load balancer.
        Arrived "arrived" {
            /// Run-unique query id.
            query: u64 => Q,
            /// The application (query type) it belongs to.
            family: ModelFamily => Family,
        },
        /// The family's router picked a target worker.
        Routed "routed" {
            /// The query.
            query: u64 => Q,
            /// The chosen worker.
            device: DeviceId => D,
        },
        /// The query entered a worker queue.
        Enqueued "enqueued" {
            /// The query.
            query: u64 => Q,
            /// The worker whose queue it joined.
            device: DeviceId => D,
            /// Queue depth *after* the insert.
            depth: u32 => Depth,
            /// Causal link: the batch executing on the worker at enqueue time,
            /// if any. The query cannot start before this batch drains, so the
            /// span layer draws a queued-behind edge to it. Left out of the
            /// line when `None`.
            behind: Option<u64> => Behind,
        },
        /// The batching policy formed a batch from the queue head.
        BatchFormed "batch_formed" {
            /// The executing worker.
            device: DeviceId => D,
            /// Run-unique batch id.
            batch: u64 => Batch,
            /// The member query ids, in queue order.
            queries: Vec<u64> => Queries,
        },
        /// Batch execution began (same instant as its `BatchFormed`).
        ExecStarted "exec_started" {
            /// The executing worker.
            device: DeviceId => D,
            /// The batch.
            batch: u64 => Batch,
            /// The serving model variant.
            variant: VariantId => Variant,
            /// Number of member queries.
            size: u32 => Size,
            /// Predicted completion time.
            until: SimTime => Until,
        },
        /// Batch execution finished.
        ExecCompleted "exec_completed" {
            /// The executing worker.
            device: DeviceId => D,
            /// The batch.
            batch: u64 => Batch,
        },
        /// Terminal: the query's response met its SLO.
        ServedOnTime "served_on_time" {
            /// The query.
            query: u64 => Q,
            /// End-to-end response latency.
            latency: SimTime => Latency,
            /// Causal link: the allocation-plan epoch (count of applied plans)
            /// the query was served under. Lets the span layer tie a response
            /// to the concrete plan in force at completion time. Lines written
            /// before the link existed read as epoch 0.
            epoch: u64 => Epoch or 0,
        },
        /// Terminal: a response was produced after the deadline.
        ServedLate "served_late" {
            /// The query.
            query: u64 => Q,
            /// End-to-end response latency.
            latency: SimTime => Latency,
            /// Causal link: the allocation-plan epoch the query was served
            /// under (see [`EventKind::ServedOnTime::epoch`]).
            epoch: u64 => Epoch or 0,
        },
        /// Terminal: no response was produced.
        Dropped "dropped" {
            /// The query.
            query: u64 => Q,
            /// Why it was dropped.
            reason: DropReason => Reason,
        },
        /// A model swap (container start + weight load) began.
        ModelLoadStarted "model_load_started" {
            /// The loading worker.
            device: DeviceId => D,
            /// The variant being loaded (`None` = unloading).
            variant: Option<VariantId> => Variant,
            /// When the worker will be serviceable again.
            until: SimTime => Until,
        },
        /// The model swap completed and the worker is serviceable.
        ModelLoadFinished "model_load_finished" {
            /// The worker.
            device: DeviceId => D,
        },
        /// The Resource Manager was invoked.
        ReplanTriggered "replan_triggered" {
            /// What prompted the invocation.
            cause: ReplanCause => Cause,
        },
        /// A new plan took effect.
        PlanApplied "plan_applied" {
            /// Devices whose variant assignment changed.
            changed: u32 => Changed,
            /// Demand shrink factor applied for feasibility (1.0 = none).
            shrink: f64 => Shrink,
        },
        /// Solver statistics of the replan that just completed (only emitted by
        /// solver-backed allocators).
        SolveStats "solve_stats" {
            /// Branch-and-bound nodes explored.
            nodes: u64 => Nodes,
            /// Simplex pivots across every relaxation.
            pivots: u64 => Pivots,
            /// Warm-started node relaxations.
            warm_starts: u64 => Warm,
            /// Wall-clock nanoseconds inside the solver.
            wall_nanos: u64 => Wall,
        },
        /// The independent plan auditor re-verified the plan that just took
        /// effect against the paper's constraint system (Eqs. 1–7). Emitted
        /// under `debug_assertions` or when the run opts in via `--audit`.
        AuditReport "audit_report" {
            /// Number of constraint violations found (0 = clean).
            violations: u32 => Violations,
            /// Hosting devices whose assignment was verified.
            devices_checked: u32 => Devices,
            /// Families whose routing/coverage was verified.
            families_checked: u32 => Families,
        },
        /// A device crashed: its in-flight batch is lost and its queue enters
        /// the salvage path.
        WorkerCrashed "worker_crashed" {
            /// The crashed worker.
            device: DeviceId => D,
        },
        /// A crashed device came back, empty and serviceable.
        WorkerRecovered "worker_recovered" {
            /// The recovered worker.
            device: DeviceId => D,
        },
        /// A salvaged query was re-routed away from a crashed device.
        QueryRetried "query_retried" {
            /// The query.
            query: u64 => Q,
            /// The device it was salvaged from.
            from: DeviceId => From,
            /// 1-based retry attempt (bounded by the engine's retry budget).
            attempt: u32 => Attempt,
        },
        /// A model load failed and will be retried with capped backoff (or
        /// abandoned once the attempt budget is spent).
        LoadFailed "load_failed" {
            /// The loading worker.
            device: DeviceId => D,
            /// The variant whose load failed (`None` = unload).
            variant: Option<VariantId> => Variant,
            /// 1-based failed attempt count for this load.
            attempt: u32 => Attempt,
        },
        /// The device entered a straggler window: batches run `slowdown`×
        /// slower until the matching [`EventKind::StragglerEnded`].
        StragglerStarted "straggler_started" {
            /// The slowed worker.
            device: DeviceId => D,
            /// Latency multiplier (`>= 1.0`).
            slowdown: f64 => Slowdown,
        },
        /// The device's execution latency returned to normal.
        StragglerEnded "straggler_ended" {
            /// The worker.
            device: DeviceId => D,
        },
        /// The telemetry plane's burn-rate engine fired an SLO alert: the
        /// error budget is burning faster than the rule's threshold over both
        /// of its windows.
        AlertFired "alert_fired" {
            /// The family the alert is scoped to (`None` = cluster-wide).
            scope: Option<ModelFamily> => Scope,
            /// The firing rule's severity tier.
            severity: AlertSeverity => Severity,
            /// Burn rate over the short window at firing time (multiples of
            /// the error budget).
            burn: f64 => Burn,
            /// The rule's long window, in sim seconds.
            long_secs: f64 => LongS,
            /// The rule's short window, in sim seconds.
            short_secs: f64 => ShortS,
        },
        /// A previously fired burn-rate alert dropped back below threshold
        /// over its short window.
        AlertResolved "alert_resolved" {
            /// The family the alert is scoped to (`None` = cluster-wide).
            scope: Option<ModelFamily> => Scope,
            /// The resolving rule's severity tier.
            severity: AlertSeverity => Severity,
            /// Burn rate over the short window at resolution time.
            burn: f64 => Burn,
            /// The rule's long window, in sim seconds.
            long_secs: f64 => LongS,
            /// The rule's short window, in sim seconds.
            short_secs: f64 => ShortS,
        },
        /// An asynchronous solve window opened: the allocator's demand inputs
        /// were snapshotted at this instant and the resulting plan will commit
        /// no earlier than `until`. Only emitted under a nonzero solve-latency
        /// model — with zero control-plane latency plans commit in the same
        /// instant and the window events are skipped entirely.
        SolveStarted "solve_started" {
            /// What prompted the solve.
            cause: ReplanCause => Cause,
            /// When the solve window closes (the scheduled commit instant).
            until: SimTime => Until,
        },
        /// The solve window closed and its plan was committed. The matching
        /// `PlanApplied` follows at the same instant.
        SolveComplete "solve_complete" {
            /// The cause carried from the matching [`EventKind::SolveStarted`].
            cause: ReplanCause => Cause,
        },
        /// An in-flight plan was thrown away instead of committed (the
        /// liveness set changed mid-solve, or a newer solve superseded it).
        PlanDiscarded "plan_discarded" {
            /// The cause carried from the matching [`EventKind::SolveStarted`].
            cause: ReplanCause => Cause,
            /// Why the plan could not be applied.
            reason: DiscardReason => Reason,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for r in DropReason::ALL {
            assert_eq!(DropReason::parse(r.label()), Some(r));
        }
        for c in ReplanCause::ALL {
            assert_eq!(ReplanCause::parse(c.label()), Some(c));
        }
        for s in AlertSeverity::ALL {
            assert_eq!(AlertSeverity::parse(s.label()), Some(s));
        }
        for d in DiscardReason::ALL {
            assert_eq!(DiscardReason::parse(d.label()), Some(d));
        }
        assert_eq!(DropReason::parse("nope"), None);
        assert_eq!(ReplanCause::parse("nope"), None);
        assert_eq!(AlertSeverity::parse("nope"), None);
        assert_eq!(DiscardReason::parse("nope"), None);
    }

    #[test]
    fn shed_classification() {
        assert!(DropReason::QueueFull.is_shed());
        assert!(DropReason::NoHost.is_shed());
        assert!(DropReason::Drained.is_shed());
        assert!(DropReason::DeviceFailed.is_shed());
        assert!(!DropReason::Expired.is_shed());
    }

    #[test]
    fn query_extraction_and_terminality() {
        let served = EventKind::ServedOnTime {
            query: 7,
            latency: SimTime::from_millis(3),
            epoch: 1,
        };
        assert_eq!(served.query(), Some(7));
        assert!(served.is_terminal());
        let formed = EventKind::BatchFormed {
            device: DeviceId(0),
            batch: 1,
            queries: vec![7],
        };
        assert_eq!(formed.query(), None);
        assert!(!formed.is_terminal());
        assert_eq!(formed.name(), "batch_formed");
    }
}
