//! Independent auditor for [`AllocationPlan`]s against the paper's
//! constraint system (Eqs. 1–7).
//!
//! [`audit_plan`] re-derives every constraint from the *environment* — the
//! cluster, the model zoo and the profiled store — and checks the decoded
//! plan against them directly. It deliberately shares no code with the
//! MILP encoder/decoder in [`super::milp`]: the encoder builds variables
//! and rows, the auditor reads the finished plan and asks "does physics
//! agree?", so an encoding bug and its mirror-image decoding bug cannot
//! cancel out.
//!
//! Checked invariants, mapped to the paper:
//!
//! | check | paper | violation |
//! |-------|-------|-----------|
//! | each routed device hosts a variant of the routed family | Eq. 1 (one variant per device) + `y(d,q)` consistency | [`PlanViolation::AssignmentMismatch`], [`PlanViolation::RoutingToEmptyDevice`] |
//! | hosted variant fits device memory | Eqs. 2–3 | [`PlanViolation::MemoryOverflow`] |
//! | hosted variant meets its family SLO on that device type | Eq. 7 (via the profiled `max_batch`) | [`PlanViolation::SloInfeasible`] |
//! | routed QPS per device ≤ the replica's peak throughput | Eq. 5 | [`PlanViolation::DeviceOverloaded`] |
//! | shrink-scaled routed throughput covers offered demand | Eqs. 4 + 6 | [`PlanViolation::CoverageShortfall`] |
//! | reported per-family capacity = Σ hosting peaks | bookkeeping for Eq. 5 | [`PlanViolation::CapacityMisreported`] |
//! | nothing is placed on or routed to a down device | failure-aware replanning (§5) | [`PlanViolation::DownDevice`] |
//! | the plan covers every device of the cluster it was solved for | Eq. 1 ranges over all devices | [`PlanViolation::UncoveredDevices`] |

use std::fmt;

use proteus_profiler::{DeviceId, ModelFamily, VariantId};

use super::{AllocContext, AllocationPlan};
use crate::FamilyMap;

/// Relative slack for throughput-coverage checks (Eqs. 4/6): the strict
/// path serves demand exactly and the soft path defines `shrink` as
/// offered/served, so 2 % absorbs solver round-off and the standby-weight
/// epsilon without masking a genuinely dropped family.
pub const COVERAGE_SLACK: f64 = 0.02;

/// Relative slack for per-device load (Eq. 5): routing weights are decoded
/// as `z/n`, which can exceed a replica's peak only through solver
/// round-off. The simplex accepts solutions at a row-scaled `1e-6`
/// tolerance, so a row with throughput-sized coefficients can carry a few
/// orders of magnitude more absolute slack than the raw epsilon.
pub const LOAD_SLACK: f64 = 1e-4;

/// One way a plan can contradict the constraint system it claims to solve.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanViolation {
    /// A routing entry or assignment references a device outside the
    /// cluster.
    UnknownDevice {
        /// The missing device.
        device: DeviceId,
    },
    /// A family's queries are routed to a device hosting nothing.
    RoutingToEmptyDevice {
        /// The routed family.
        family: ModelFamily,
        /// The empty device.
        device: DeviceId,
    },
    /// A family's queries are routed to a device hosting a *different*
    /// family's variant (Eq. 1 / query-assignment consistency).
    AssignmentMismatch {
        /// The routed family.
        family: ModelFamily,
        /// The offending device.
        device: DeviceId,
        /// What the device actually hosts.
        hosted: VariantId,
    },
    /// A hosted variant does not fit its device's memory (Eqs. 2–3).
    MemoryOverflow {
        /// The overloaded device.
        device: DeviceId,
        /// The too-large variant.
        variant: VariantId,
        /// Model footprint at batch 1 in MiB.
        required_mib: f64,
        /// Device memory in MiB.
        available_mib: f64,
    },
    /// A hosted variant fits in memory but cannot meet its family's SLO on
    /// this device type (Eq. 7, via the profiled max batch).
    SloInfeasible {
        /// The hosting device.
        device: DeviceId,
        /// The too-slow variant.
        variant: VariantId,
    },
    /// Total QPS routed to a device exceeds its replica's peak throughput
    /// (Eq. 5).
    DeviceOverloaded {
        /// The overloaded device.
        device: DeviceId,
        /// Σ routing weights aimed at it.
        routed_qps: f64,
        /// The profiled peak for (variant, device type).
        peak_qps: f64,
    },
    /// Shrink-scaled served throughput falls short of offered demand
    /// (Eqs. 4 + 6): queries the plan silently stops covering.
    CoverageShortfall {
        /// Σ offered demand (after the standby floor) in QPS.
        offered_qps: f64,
        /// Σ per-family `min(routed, offered)` in QPS.
        served_qps: f64,
        /// The plan's declared shrink factor.
        shrink: f64,
    },
    /// The plan's recorded capacity for a family disagrees with the sum of
    /// its hosting replicas' peaks.
    CapacityMisreported {
        /// The family.
        family: ModelFamily,
        /// What the plan recorded.
        reported_qps: f64,
        /// Σ peaks recomputed from assignments.
        recomputed_qps: f64,
    },
    /// A routing weight is negative, NaN or infinite.
    InvalidRoutingWeight {
        /// The routed family.
        family: ModelFamily,
        /// The target device.
        device: DeviceId,
        /// The bad weight.
        weight: f64,
    },
    /// The same device appears twice in one family's routing table.
    DuplicateRouting {
        /// The routed family.
        family: ModelFamily,
        /// The repeated device.
        device: DeviceId,
    },
    /// The plan places a model on, or routes queries to, a device the
    /// context declared down (failure-aware replanning must exclude it).
    DownDevice {
        /// The dead device.
        device: DeviceId,
    },
    /// The plan covers fewer devices than the cluster: it was solved for a
    /// different (smaller) cluster.
    UncoveredDevices {
        /// Devices the plan covers.
        plan_devices: usize,
        /// Devices in the cluster.
        cluster_devices: usize,
    },
}

impl PlanViolation {
    /// Stable machine-readable tag for trace output and test assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            PlanViolation::UnknownDevice { .. } => "unknown-device",
            PlanViolation::RoutingToEmptyDevice { .. } => "routing-to-empty-device",
            PlanViolation::AssignmentMismatch { .. } => "assignment-mismatch",
            PlanViolation::MemoryOverflow { .. } => "memory-overflow",
            PlanViolation::SloInfeasible { .. } => "slo-infeasible",
            PlanViolation::DeviceOverloaded { .. } => "device-overloaded",
            PlanViolation::CoverageShortfall { .. } => "coverage-shortfall",
            PlanViolation::CapacityMisreported { .. } => "capacity-misreported",
            PlanViolation::InvalidRoutingWeight { .. } => "invalid-routing-weight",
            PlanViolation::DuplicateRouting { .. } => "duplicate-routing",
            PlanViolation::DownDevice { .. } => "down-device",
            PlanViolation::UncoveredDevices { .. } => "uncovered-devices",
        }
    }
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::UnknownDevice { device } => {
                write!(f, "plan references unknown device {device}")
            }
            PlanViolation::RoutingToEmptyDevice { family, device } => {
                write!(f, "{family} routed to empty device {device}")
            }
            PlanViolation::AssignmentMismatch {
                family,
                device,
                hosted,
            } => write!(f, "{family} routed to {device}, which hosts {hosted}"),
            PlanViolation::MemoryOverflow {
                device,
                variant,
                required_mib,
                available_mib,
            } => write!(
                f,
                "{variant} needs {required_mib} MiB but {device} has {available_mib} MiB"
            ),
            PlanViolation::SloInfeasible { device, variant } => {
                write!(f, "{variant} cannot meet its SLO on {device}")
            }
            PlanViolation::DeviceOverloaded {
                device,
                routed_qps,
                peak_qps,
            } => write!(
                f,
                "{device} receives {routed_qps:.3} QPS but peaks at {peak_qps:.3}"
            ),
            PlanViolation::CoverageShortfall {
                offered_qps,
                served_qps,
                shrink,
            } => write!(
                f,
                "coverage shortfall: offered {offered_qps:.3} QPS, served {served_qps:.3} \
                 at declared shrink {shrink:.4}"
            ),
            PlanViolation::CapacityMisreported {
                family,
                reported_qps,
                recomputed_qps,
            } => write!(
                f,
                "{family} capacity recorded as {reported_qps:.3} QPS but replicas sum \
                 to {recomputed_qps:.3}"
            ),
            PlanViolation::InvalidRoutingWeight {
                family,
                device,
                weight,
            } => write!(
                f,
                "invalid routing weight {weight} for {family} on {device}"
            ),
            PlanViolation::DuplicateRouting { family, device } => {
                write!(f, "{family} routes to {device} twice")
            }
            PlanViolation::DownDevice { device } => {
                write!(f, "plan uses down device {device}")
            }
            PlanViolation::UncoveredDevices {
                plan_devices,
                cluster_devices,
            } => write!(
                f,
                "plan covers {plan_devices} devices but the cluster has {cluster_devices}"
            ),
        }
    }
}

/// Outcome of [`audit_plan`]: every violation found plus coverage counters
/// so "clean" is distinguishable from "vacuous".
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAuditReport {
    /// Every violation, device checks first, then routing, then coverage.
    pub violations: Vec<PlanViolation>,
    /// Number of hosting devices whose assignment was verified.
    pub devices_checked: usize,
    /// Number of families whose routing/coverage was verified.
    pub families_checked: usize,
}

impl PlanAuditReport {
    /// `true` when the plan satisfied every re-derived constraint.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for PlanAuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "clean ({} devices, {} families verified)",
                self.devices_checked, self.families_checked
            )
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - [{}] {v}", v.kind())?;
            }
            Ok(())
        }
    }
}

/// Re-verifies `plan` against the environment and the demand it was solved
/// for. `demand` is the *raw* controller demand; the auditor re-applies the
/// same standby floor the solver uses (0.25 QPS per family) before the
/// coverage check, so callers pass what they passed to
/// [`solve_allocation`](super::milp::solve_allocation).
pub fn audit_plan(
    ctx: &AllocContext<'_>,
    demand: &FamilyMap<f64>,
    plan: &AllocationPlan,
) -> PlanAuditReport {
    let mut violations = Vec::new();
    let mut devices_checked = 0usize;
    if plan.num_devices() < ctx.cluster.len() {
        violations.push(PlanViolation::UncoveredDevices {
            plan_devices: plan.num_devices(),
            cluster_devices: ctx.cluster.len(),
        });
    }

    // --- Per-device checks: Eq. 1 is structural (one Option per device);
    // Eqs. 2–3 and 7 are re-derived from zoo + device specs, not from the
    // profile's own feasibility verdict alone.
    let mut peak_of_device: Vec<f64> = vec![0.0; plan.num_devices()];
    for (device, variant) in plan.assignments() {
        devices_checked += 1;
        let Some(spec) = ctx.cluster.device(device) else {
            violations.push(PlanViolation::UnknownDevice { device });
            continue;
        };
        if !ctx.is_up(device) {
            violations.push(PlanViolation::DownDevice { device });
            continue;
        }
        let available_mib = spec.device_type.memory_mib();
        let required_mib = ctx
            .zoo
            .variant(variant)
            .map(|v| v.memory_at_batch(1))
            .unwrap_or(f64::INFINITY);
        if required_mib > available_mib {
            violations.push(PlanViolation::MemoryOverflow {
                device,
                variant,
                required_mib,
                available_mib,
            });
            continue;
        }
        match ctx.store.profile(variant, spec.device_type) {
            Some(p) if p.is_feasible() => {
                peak_of_device[device.0 as usize] = p.peak_qps();
            }
            _ => violations.push(PlanViolation::SloInfeasible { device, variant }),
        }
    }

    // --- Per-family routing checks (query-assignment consistency + Eq. 5)
    // and capacity bookkeeping.
    let mut served = FamilyMap::<f64>::default();
    for family in ModelFamily::ALL {
        let mut seen: Vec<DeviceId> = Vec::new();
        let mut routed_to: Vec<(DeviceId, f64)> = Vec::new();
        for &(device, weight) in plan.routing(family) {
            if !weight.is_finite() || weight < 0.0 {
                violations.push(PlanViolation::InvalidRoutingWeight {
                    family,
                    device,
                    weight,
                });
                continue;
            }
            if seen.contains(&device) {
                violations.push(PlanViolation::DuplicateRouting { family, device });
                continue;
            }
            seen.push(device);
            if ctx.cluster.device(device).is_none() {
                violations.push(PlanViolation::UnknownDevice { device });
                continue;
            }
            if !ctx.is_up(device) {
                violations.push(PlanViolation::DownDevice { device });
                continue;
            }
            match plan.assignment(device) {
                Some(v) if v.family == family => {
                    served[family] += weight;
                    routed_to.push((device, weight));
                }
                Some(hosted) => violations.push(PlanViolation::AssignmentMismatch {
                    family,
                    device,
                    hosted,
                }),
                None => violations.push(PlanViolation::RoutingToEmptyDevice { family, device }),
            }
        }
        for (device, weight) in routed_to {
            let peak = peak_of_device[device.0 as usize];
            if weight > peak * (1.0 + LOAD_SLACK) {
                violations.push(PlanViolation::DeviceOverloaded {
                    device,
                    routed_qps: weight,
                    peak_qps: peak,
                });
            }
        }
        // Capacity bookkeeping: the plan's recorded capacity must equal the
        // sum of peaks over devices hosting this family.
        let recomputed: f64 = plan
            .assignments()
            .filter(|&(_, v)| v.family == family)
            .map(|(d, _)| peak_of_device[d.0 as usize])
            .sum();
        let reported = plan.capacity(family);
        let scale = 1.0 + reported.abs().max(recomputed.abs());
        if (reported - recomputed).abs() > COVERAGE_SLACK * scale {
            violations.push(PlanViolation::CapacityMisreported {
                family,
                reported_qps: reported,
                recomputed_qps: recomputed,
            });
        }
    }

    // --- Aggregate coverage (Eqs. 4 + 6): the declared shrink must make
    // served throughput add back up to offered demand. Uses the routing
    // table (what queries actually experience), not the capacity field, so
    // dropped coverage cannot hide behind correct bookkeeping.
    let offered = FamilyMap::from_fn(|f| demand[f].max(0.25));
    let offered_total = offered.total();
    let served_capped: f64 = ModelFamily::ALL
        .iter()
        .map(|&f| served[f].min(offered[f]))
        .sum();
    let shrink = plan.shrink();
    if shrink.is_finite() && served_capped * shrink < offered_total * (1.0 - COVERAGE_SLACK) {
        violations.push(PlanViolation::CoverageShortfall {
            offered_qps: offered_total,
            served_qps: served_capped,
            shrink,
        });
    }

    PlanAuditReport {
        violations,
        devices_checked,
        families_checked: ModelFamily::ALL.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::milp::{solve_allocation, MilpConfig};
    use super::*;
    use proteus_profiler::{Cluster, DeviceType, ModelZoo, ProfileStore, SloPolicy};

    struct Env {
        cluster: Cluster,
        zoo: ModelZoo,
        store: ProfileStore,
    }

    impl Env {
        fn new() -> Self {
            let zoo = ModelZoo::paper_table3();
            let store = ProfileStore::build(&zoo, SloPolicy::default());
            Env {
                cluster: Cluster::with_counts(6, 3, 3),
                zoo,
                store,
            }
        }

        fn ctx(&self) -> AllocContext<'_> {
            AllocContext {
                cluster: &self.cluster,
                zoo: &self.zoo,
                store: &self.store,
                down: &[],
            }
        }
    }

    fn demand() -> FamilyMap<f64> {
        let mut d = FamilyMap::default();
        d[ModelFamily::EfficientNet] = 120.0;
        d[ModelFamily::ResNet] = 60.0;
        d
    }

    fn solved_plan(env: &Env, demand: &FamilyMap<f64>) -> AllocationPlan {
        solve_allocation(&env.ctx(), demand, None, &MilpConfig::default())
            .unwrap()
            .plan
    }

    #[test]
    fn accepts_genuine_milp_plan() {
        let env = Env::new();
        let d = demand();
        let plan = solved_plan(&env, &d);
        let report = audit_plan(&env.ctx(), &d, &plan);
        assert!(report.is_clean(), "unexpected violations: {report}");
        assert!(report.devices_checked > 0);
    }

    #[test]
    fn catches_plan_solved_for_a_smaller_cluster() {
        let env = Env::new();
        let d = demand();
        let solved_on = Cluster::with_counts(1, 0, 1);
        let small = AllocContext {
            cluster: &solved_on,
            ..env.ctx()
        };
        let plan = solve_allocation(&small, &d, None, &MilpConfig::default())
            .unwrap()
            .plan;
        assert!(audit_plan(&small, &d, &plan).is_clean());
        let grown = Cluster::with_counts(1, 0, 2);
        let report = audit_plan(
            &AllocContext {
                cluster: &grown,
                ..env.ctx()
            },
            &d,
            &plan,
        );
        assert_eq!(
            report.violations,
            vec![PlanViolation::UncoveredDevices {
                plan_devices: 2,
                cluster_devices: 3,
            }],
            "{report}"
        );
    }

    #[test]
    fn catches_perturbed_assignment() {
        let env = Env::new();
        let d = demand();
        let mut plan = solved_plan(&env, &d);
        // Flip one routed device to a different family's variant without
        // touching the routing table.
        let (device, hosted) = plan
            .routing(ModelFamily::EfficientNet)
            .first()
            .map(|&(dev, _)| (dev, plan.assignment(dev).unwrap()))
            .expect("EfficientNet has demand, so it must be routed somewhere");
        assert_eq!(hosted.family, ModelFamily::EfficientNet);
        plan.assign(
            device,
            Some(VariantId {
                family: ModelFamily::MobileNet,
                index: 0,
            }),
        );
        let report = audit_plan(&env.ctx(), &d, &plan);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind() == "assignment-mismatch"),
            "expected assignment-mismatch, got: {report}"
        );
    }

    #[test]
    fn catches_memory_overflow() {
        let env = Env::new();
        let d = demand();
        let mut plan = solved_plan(&env, &d);
        // GPT2-xl (index 3) does not fit a 1080 Ti. Devices 6..9 are the
        // GTX cards in with_counts(6, 3, 3).
        let gtx = env
            .cluster
            .iter()
            .find(|s| s.device_type == DeviceType::Gtx1080Ti)
            .unwrap()
            .id;
        plan.assign(
            gtx,
            Some(VariantId {
                family: ModelFamily::Gpt2,
                index: 3,
            }),
        );
        let report = audit_plan(&env.ctx(), &d, &plan);
        assert!(
            report.violations.iter().any(
                |v| matches!(v, PlanViolation::MemoryOverflow { device, .. } if *device == gtx)
            ),
            "expected memory-overflow, got: {report}"
        );
    }

    #[test]
    fn catches_dropped_coverage() {
        let env = Env::new();
        let d = demand();
        let mut plan = solved_plan(&env, &d);
        // Silently stop routing the highest-demand family.
        plan.set_routing(ModelFamily::EfficientNet, Vec::new());
        let report = audit_plan(&env.ctx(), &d, &plan);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind() == "coverage-shortfall"),
            "expected coverage-shortfall, got: {report}"
        );
    }

    #[test]
    fn catches_overloaded_device() {
        let env = Env::new();
        let d = demand();
        let mut plan = solved_plan(&env, &d);
        let (device, _) = plan
            .routing(ModelFamily::EfficientNet)
            .first()
            .copied()
            .unwrap();
        let mut entries: Vec<_> = plan.routing(ModelFamily::EfficientNet).to_vec();
        for e in entries.iter_mut() {
            if e.0 == device {
                e.1 = 1e6; // vastly beyond any replica's peak
            }
        }
        plan.set_routing(ModelFamily::EfficientNet, entries);
        let report = audit_plan(&env.ctx(), &d, &plan);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind() == "device-overloaded"),
            "expected device-overloaded, got: {report}"
        );
    }

    #[test]
    fn catches_capacity_lie() {
        let env = Env::new();
        let d = demand();
        let mut plan = solved_plan(&env, &d);
        let real = plan.capacity(ModelFamily::EfficientNet);
        plan.set_capacity(ModelFamily::EfficientNet, real * 3.0 + 100.0);
        let report = audit_plan(&env.ctx(), &d, &plan);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind() == "capacity-misreported"),
            "expected capacity-misreported, got: {report}"
        );
    }

    #[test]
    fn catches_placement_on_down_device() {
        let env = Env::new();
        let d = demand();
        // Solve with everything alive, then audit as if a hosting device had
        // crashed: the stale plan must be flagged.
        let plan = solved_plan(&env, &d);
        let (dead, _) = plan
            .routing(ModelFamily::EfficientNet)
            .first()
            .copied()
            .unwrap();
        let down = [dead];
        let ctx = AllocContext {
            cluster: &env.cluster,
            zoo: &env.zoo,
            store: &env.store,
            down: &down,
        };
        let report = audit_plan(&ctx, &d, &plan);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, PlanViolation::DownDevice { device } if *device == dead)),
            "expected down-device, got: {report}"
        );
        // A failure-aware re-solve against the same context passes.
        let replanned = solve_allocation(&ctx, &d, Some(&plan), &MilpConfig::default())
            .unwrap()
            .plan;
        let report = audit_plan(&ctx, &d, &replanned);
        assert!(
            report.is_clean(),
            "replanned plan must audit clean: {report}"
        );
    }

    #[test]
    fn catches_routing_to_empty_device() {
        let env = Env::new();
        let d = demand();
        let mut plan = solved_plan(&env, &d);
        let empty = (0..env.cluster.len() as u32)
            .map(DeviceId)
            .find(|&device| plan.assignment(device).is_none())
            .expect("the demand leaves a device empty");
        let mut entries = plan.routing(ModelFamily::ResNet).to_vec();
        entries.push((empty, 1.0));
        plan.set_routing(ModelFamily::ResNet, entries);
        let report = audit_plan(&env.ctx(), &d, &plan);
        assert!(
            report
                .violations
                .contains(&PlanViolation::RoutingToEmptyDevice {
                    family: ModelFamily::ResNet,
                    device: empty,
                }),
            "expected routing-to-empty-device, got: {report}"
        );
    }

    #[test]
    fn catches_slo_infeasible_assignment() {
        let env = Env::new();
        let d = demand();
        let mut plan = solved_plan(&env, &d);
        // A variant that fits a CPU's memory but cannot meet its family's
        // SLO there, even at batch 1.
        let variant = env
            .zoo
            .iter()
            .find(|v| {
                v.memory_at_batch(1) <= DeviceType::Cpu.memory_mib()
                    && !env
                        .store
                        .profile(v.id(), DeviceType::Cpu)
                        .is_some_and(|p| p.is_feasible())
            })
            .expect("some variant is too slow for a CPU")
            .id();
        let cpu = env
            .cluster
            .iter()
            .find(|s| s.device_type == DeviceType::Cpu)
            .unwrap()
            .id;
        plan.assign(cpu, Some(variant));
        let report = audit_plan(&env.ctx(), &d, &plan);
        assert!(
            report.violations.contains(&PlanViolation::SloInfeasible {
                device: cpu,
                variant,
            }),
            "expected slo-infeasible, got: {report}"
        );
    }

    #[test]
    fn catches_duplicate_routing() {
        let env = Env::new();
        let d = demand();
        let mut plan = solved_plan(&env, &d);
        let mut entries = plan.routing(ModelFamily::EfficientNet).to_vec();
        let (device, _) = entries[0];
        entries.push((device, 0.0));
        plan.set_routing(ModelFamily::EfficientNet, entries);
        let report = audit_plan(&env.ctx(), &d, &plan);
        assert!(
            report
                .violations
                .contains(&PlanViolation::DuplicateRouting {
                    family: ModelFamily::EfficientNet,
                    device,
                }),
            "expected duplicate-routing, got: {report}"
        );
    }

    #[test]
    fn report_display_names_kinds() {
        let env = Env::new();
        let d = demand();
        let mut plan = solved_plan(&env, &d);
        plan.set_routing(ModelFamily::EfficientNet, Vec::new());
        let text = audit_plan(&env.ctx(), &d, &plan).to_string();
        assert!(text.contains("[coverage-shortfall]"), "{text}");
    }
}
