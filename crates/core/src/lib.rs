//! Proteus: a high-throughput inference-serving system with accuracy
//! scaling.
//!
//! This crate implements the system contribution of the ASPLOS'24 paper
//! *"Proteus: A High-Throughput Inference-Serving System with Accuracy
//! Scaling"*: when a fixed-size heterogeneous cluster cannot serve peak
//! demand with the most accurate model variants, Proteus swaps in cheaper
//! variants — scaling *accuracy* instead of hardware — choosing exactly how
//! much to scale by solving a mixed-integer program over three coupled
//! decisions:
//!
//! 1. **Model selection** — which variant (accuracy level) of each family to
//!    host, and how many replicas;
//! 2. **Model placement** — which device of the heterogeneous cluster hosts
//!    each selected variant;
//! 3. **Query assignment** — what fraction of each application's queries
//!    each device receives.
//!
//! The control path (the [`allocation`] MILP, solved by `proteus-solver`)
//! runs asynchronously from the data path; each worker absorbs micro-scale
//! arrival variation with the proactive, non-work-conserving adaptive
//! [`batching`] algorithm of §5.
//!
//! # Architecture
//!
//! * [`allocation`] — the MILP formulation (Table 1, Eqs. 1–7) in both
//!   faithful per-device and exact type-aggregated forms, producing an
//!   [`AllocationPlan`].
//! * [`batching`] — the [`BatchPolicy`] trait with the paper's policy plus
//!   the Clipper (AIMD), Nexus (early-drop) and static baselines.
//! * [`schedulers`] — the [`Allocator`] trait with Proteus and every
//!   baseline of §6.1.1 (Clipper-HT/HA, Sommelier, INFaaS-Accuracy) and the
//!   §6.5 ablations.
//! * [`system`] — [`ServingSystem`]: the discrete-event serving loop wiring
//!   load balancers, workers, the controller and metrics together.
//!
//! # Examples
//!
//! Serve a short flat workload with Proteus on the paper's testbed:
//!
//! ```
//! use proteus_core::schedulers::ProteusAllocator;
//! use proteus_core::system::{ServingSystem, SystemConfig};
//! use proteus_core::batching::ProteusBatching;
//! use proteus_profiler::{Cluster, ModelZoo, SloPolicy};
//! use proteus_workloads::{FlatTrace, TraceBuilder};
//!
//! let config = SystemConfig::paper_testbed();
//! let arrivals = TraceBuilder::new(TraceBuilder::paper_families())
//!     .seed(1)
//!     .build(&FlatTrace { qps: 150.0, secs: 20 });
//! let mut system = ServingSystem::new(
//!     config,
//!     Box::new(ProteusAllocator::default()),
//!     Box::new(ProteusBatching::default()),
//! );
//! let outcome = system.run(&arrivals);
//! let summary = outcome.metrics.summary();
//! assert!(summary.total_served > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod allocation;
pub mod batching;
mod control;
pub mod demand;
pub mod query;
pub mod router;
pub mod schedulers;
pub mod system;

pub use allocation::AllocationPlan;
pub use batching::{BatchContext, BatchDecision, BatchPolicy};
pub use demand::{DemandEstimator, FamilyMap};
pub use query::{Query, QueryId};
pub use schedulers::{AllocContext, Allocator};
pub use system::{RunOutcome, ServingSystem, SolveLatency, SystemConfig};
