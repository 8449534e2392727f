//! Resource allocators: Proteus and the §6.1.1 baselines.
//!
//! | Allocator | Model placement | Model selection | Accuracy scaling |
//! |---|---|---|---|
//! | [`ClipperAllocator`] (HT/HA) | static | static | no |
//! | [`SommelierAllocator`] | static | heuristic | limited |
//! | [`InfaasAccuracyAllocator`] | heuristic | heuristic | yes (greedy) |
//! | [`ProteusAllocator`] | MILP | MILP | yes (optimal) |
//!
//! (Table 2 of the paper.) The §6.5 ablations are configurations of
//! [`ProteusAllocator`]: restricting variants to each family's most accurate
//! one gives *w/o model selection*; uniform routing gives *w/o query
//! assignment*; Sommelier doubles as *w/o model placement*; *w/o adaptive
//! batching* is a batching-policy choice, not an allocator.

use proteus_profiler::{DeviceId, ModelFamily, VariantId};
use proteus_sim::SimTime;
use proteus_solver::SolveStats;

use crate::allocation::milp::{solve_allocation, MilpConfig, VariantRestriction};
pub use crate::allocation::AllocContext;
use crate::allocation::AllocationPlan;
use crate::FamilyMap;

/// A resource-allocation strategy: given target per-family demand, produce
/// a new [`AllocationPlan`].
pub trait Allocator: std::fmt::Debug + Send {
    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// Computes a plan for `demand` (QPS per family). `current` is the plan
    /// in force, letting incremental heuristics avoid churn.
    fn allocate(
        &mut self,
        ctx: &AllocContext<'_>,
        demand: &FamilyMap<f64>,
        current: Option<&AllocationPlan>,
        now: SimTime,
    ) -> AllocationPlan;

    /// Static allocators are invoked once at start-up and never again.
    fn is_static(&self) -> bool {
        false
    }

    /// Allocators that (like INFaaS) make decisions on the critical path are
    /// re-invoked on every monitoring tick instead of the slower
    /// re-allocation period.
    fn on_critical_path(&self) -> bool {
        false
    }

    /// Solver statistics for the most recent [`allocate`](Self::allocate)
    /// call, where the allocator is solver-backed. Heuristic allocators
    /// return `None` and the controller skips the per-replan solver report.
    fn last_solve_stats(&self) -> Option<SolveStats> {
        None
    }
}

/// Builds capacity-proportional routing for an assignment-only plan and
/// fills in per-family capacity (shared by the heuristic allocators).
fn finish_plan(ctx: &AllocContext<'_>, plan: &mut AllocationPlan) {
    let mut routing: FamilyMap<Vec<(DeviceId, f64)>> = FamilyMap::default();
    let mut capacity: FamilyMap<f64> = FamilyMap::default();
    for (device, variant) in plan.assignments() {
        // Defensive: heuristics never assign down devices, but routing to
        // one would be unserveable either way (its peak is 0).
        let peak = ctx.peak_qps(variant, device);
        if peak > 0.0 {
            routing[variant.family].push((device, peak));
            capacity[variant.family] += peak;
        }
    }
    for family in ModelFamily::ALL {
        plan.set_routing(family, std::mem::take(&mut routing[family]));
        plan.set_capacity(family, capacity[family]);
    }
}

/// The Proteus Resource Manager: jointly optimal model selection, placement
/// and query assignment via the §4 MILP, decoupled from the data path.
///
/// # Examples
///
/// ```
/// use proteus_core::schedulers::{Allocator, ProteusAllocator};
///
/// let allocator = ProteusAllocator::default();
/// assert_eq!(allocator.name(), "proteus");
/// assert!(!allocator.is_static());
/// ```
#[derive(Debug, Default)]
pub struct ProteusAllocator {
    /// MILP configuration (formulation, restriction, fairness, β).
    pub config: MilpConfig,
    /// §6.5 "w/o QA": replace optimal routing weights with uniform ones.
    pub uniform_query_assignment: bool,
    /// Statistics of the most recent solve.
    pub last_stats: Option<SolveStats>,
}

impl ProteusAllocator {
    /// The "w/o model selection" ablation: placement and assignment stay
    /// MILP-optimal, but only each family's most accurate variant may be
    /// hosted (no accuracy scaling).
    pub fn without_model_selection() -> Self {
        Self {
            config: MilpConfig {
                restriction: VariantRestriction::MostAccurate,
                ..MilpConfig::default()
            },
            ..Self::default()
        }
    }

    /// The "w/o query assignment" ablation: queries are spread uniformly
    /// over hosting devices regardless of their capacity.
    pub fn without_query_assignment() -> Self {
        Self {
            uniform_query_assignment: true,
            ..Self::default()
        }
    }

    /// The §7 fairness extension: maximize the worst family's accuracy.
    pub fn fair() -> Self {
        Self {
            config: MilpConfig {
                fairness: true,
                ..MilpConfig::default()
            },
            ..Self::default()
        }
    }
}

impl Allocator for ProteusAllocator {
    fn name(&self) -> &'static str {
        if self.uniform_query_assignment {
            "proteus-w/o-qa"
        } else if self.config.fairness {
            "proteus-fair"
        } else if self.config.restriction == VariantRestriction::MostAccurate {
            "proteus-w/o-ms"
        } else {
            "proteus"
        }
    }

    fn allocate(
        &mut self,
        ctx: &AllocContext<'_>,
        demand: &FamilyMap<f64>,
        current: Option<&AllocationPlan>,
        _now: SimTime,
    ) -> AllocationPlan {
        // Cleared up front so a failed solve does not leave a stale report
        // that callers would attribute (and double-count) to this replan.
        self.last_stats = None;
        match solve_allocation(ctx, demand, current, &self.config) {
            Ok(outcome) => {
                self.last_stats = Some(outcome.stats);
                let mut plan = outcome.plan;
                if self.uniform_query_assignment {
                    for family in ModelFamily::ALL {
                        let uniform: Vec<(DeviceId, f64)> = plan
                            .routing(family)
                            .iter()
                            .map(|&(d, _)| (d, 1.0))
                            .collect();
                        plan.set_routing(family, uniform);
                    }
                }
                plan
            }
            // Pathological infeasibility: keep serving under the old plan.
            Err(_) => current
                .cloned()
                .unwrap_or_else(|| AllocationPlan::empty(ctx.cluster.len())),
        }
    }

    fn last_solve_stats(&self) -> Option<SolveStats> {
        self.last_stats
    }
}

/// Which Clipper flavour to run (§6.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipperMode {
    /// Clipper-HT: least accurate variants, maximum throughput.
    HighThroughput,
    /// Clipper-HA: most accurate variants, maximum accuracy.
    HighAccuracy,
}

/// Clipper: a static allocation computed once at start-up with the MILP
/// restricted to one accuracy extreme; never re-allocated. Also stands in
/// for other static systems (TensorFlow-Serving, Triton), per §6.1.1.
#[derive(Debug)]
pub struct ClipperAllocator {
    mode: ClipperMode,
    /// The MILP restricted to the mode's accuracy extreme.
    milp: ProteusAllocator,
}

impl ClipperAllocator {
    /// Creates the chosen Clipper flavour.
    pub fn new(mode: ClipperMode) -> Self {
        let restriction = match mode {
            ClipperMode::HighThroughput => VariantRestriction::LeastAccurate,
            ClipperMode::HighAccuracy => VariantRestriction::MostAccurate,
        };
        let config = MilpConfig {
            restriction,
            ..MilpConfig::default()
        };
        Self {
            mode,
            milp: ProteusAllocator {
                config,
                ..ProteusAllocator::default()
            },
        }
    }
}

impl Allocator for ClipperAllocator {
    fn name(&self) -> &'static str {
        match self.mode {
            ClipperMode::HighThroughput => "clipper-ht",
            ClipperMode::HighAccuracy => "clipper-ha",
        }
    }

    fn is_static(&self) -> bool {
        true
    }

    fn allocate(
        &mut self,
        ctx: &AllocContext<'_>,
        demand: &FamilyMap<f64>,
        current: Option<&AllocationPlan>,
        now: SimTime,
    ) -> AllocationPlan {
        self.milp.allocate(ctx, demand, current, now)
    }

    fn last_solve_stats(&self) -> Option<SolveStats> {
        self.milp.last_stats
    }
}

/// Sommelier: the initial placement comes from the MILP, but thereafter
/// each device is pinned to its family (*no dynamic model placement*); only
/// the hosted *variant* may change, via a per-family greedy
/// downgrade-until-capacity heuristic (§6.1.1). Doubles as the "w/o model
/// placement" ablation (§6.5).
#[derive(Debug, Default)]
pub struct SommelierAllocator {
    /// Per-device family pin, fixed after the first allocation.
    placement: Option<Vec<Option<ModelFamily>>>,
}

impl Allocator for SommelierAllocator {
    fn name(&self) -> &'static str {
        "sommelier"
    }

    fn allocate(
        &mut self,
        ctx: &AllocContext<'_>,
        demand: &FamilyMap<f64>,
        current: Option<&AllocationPlan>,
        _now: SimTime,
    ) -> AllocationPlan {
        let placement = match &self.placement {
            Some(p) => p.clone(),
            None => {
                // Bootstrap: one full MILP solve, then pin families.
                let plan = match solve_allocation(ctx, demand, current, &MilpConfig::default()) {
                    Ok(o) => o.plan,
                    Err(_) => AllocationPlan::empty(ctx.cluster.len()),
                };
                let pins: Vec<Option<ModelFamily>> = (0..ctx.cluster.len())
                    .map(|i| plan.assignment(DeviceId(i as u32)).map(|v| v.family))
                    .collect();
                self.placement = Some(pins.clone());
                pins
            }
        };

        // Variant selection per pinned family: start from the most accurate
        // feasible variant everywhere, then greedily downgrade the step that
        // gains the most capacity until demand fits (or nothing is left to
        // downgrade).
        let mut plan = AllocationPlan::empty(ctx.cluster.len());
        for family in ModelFamily::ALL {
            let devices: Vec<DeviceId> = placement
                .iter()
                .enumerate()
                .filter(|(_, f)| **f == Some(family))
                .map(|(i, _)| DeviceId(i as u32))
                .collect();
            if devices.is_empty() {
                continue;
            }
            // Ordered variant list, least accurate first.
            let variants: Vec<VariantId> = ctx.zoo.variants_of(family).map(|v| v.id()).collect();
            // Per-device: index into `variants`, starting at the most
            // accurate feasible one.
            let peak = |v: VariantId, d: DeviceId| ctx.peak_qps(v, d);
            let mut chosen: Vec<(DeviceId, usize)> = Vec::new();
            for &d in &devices {
                let best = (0..variants.len())
                    .rev()
                    .find(|&i| peak(variants[i], d) > 0.0);
                if let Some(i) = best {
                    chosen.push((d, i));
                }
            }
            let cap = |chosen: &[(DeviceId, usize)]| -> f64 {
                chosen.iter().map(|&(d, i)| peak(variants[i], d)).sum()
            };
            while cap(&chosen) < demand[family] {
                // Best single-step downgrade by capacity gain.
                let step = chosen
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, i))| i > 0)
                    .map(|(idx, &(d, i))| {
                        let gain = peak(variants[i - 1], d) - peak(variants[i], d);
                        (idx, gain)
                    })
                    .max_by(|a, b| a.1.total_cmp(&b.1));
                match step {
                    Some((idx, gain)) if gain > 0.0 => chosen[idx].1 -= 1,
                    _ => break,
                }
            }
            for (d, i) in chosen {
                plan.assign(d, Some(variants[i]));
            }
        }
        finish_plan(ctx, &mut plan);
        plan
    }
}

/// INFaaS-Accuracy: fully dynamic selection *and* placement, but via a
/// greedy heuristic running on the critical path (§6.1.1) — it reacts fast
/// yet settles in local optima, unlike the global MILP.
///
/// Greedy rules per invocation:
/// 1. **Reclaim** devices from families holding excess capacity.
/// 2. **Fix deficits** by first claiming free devices (hosting the most
///    accurate variant that covers the remaining gap, else the family's
///    fastest), then downgrading existing hosts one step at a time.
/// 3. **Recover accuracy** by at most one single-step upgrade per family per
///    invocation when spare capacity allows — the slow recovery that keeps
///    it below Proteus' effective accuracy after bursts.
#[derive(Debug)]
pub struct InfaasAccuracyAllocator {
    /// Capacity headroom kept above demand when upgrading/reclaiming.
    pub headroom: f64,
}

impl Default for InfaasAccuracyAllocator {
    fn default() -> Self {
        Self { headroom: 1.15 }
    }
}

impl Allocator for InfaasAccuracyAllocator {
    fn name(&self) -> &'static str {
        "infaas-accuracy"
    }

    fn on_critical_path(&self) -> bool {
        true
    }

    fn allocate(
        &mut self,
        ctx: &AllocContext<'_>,
        demand: &FamilyMap<f64>,
        current: Option<&AllocationPlan>,
        _now: SimTime,
    ) -> AllocationPlan {
        let mut assignment: Vec<Option<VariantId>> = (0..ctx.cluster.len())
            .map(|i| {
                let d = DeviceId(i as u32);
                // A down device's replica is gone; forget it so the deficit
                // pass re-provisions elsewhere.
                if !ctx.is_up(d) {
                    return None;
                }
                current.and_then(|c| c.assignment(d))
            })
            .collect();
        let peak_of = |v: VariantId, d: usize| ctx.peak_qps(v, DeviceId(d as u32));
        let capacity = |assignment: &[Option<VariantId>], family: ModelFamily| -> f64 {
            assignment
                .iter()
                .enumerate()
                .filter_map(|(d, v)| v.filter(|v| v.family == family).map(|v| peak_of(v, d)))
                .sum()
        };

        // 1. Reclaim from over-provisioned families (smallest hosts first).
        for family in ModelFamily::ALL {
            let need = demand[family] * self.headroom;
            loop {
                let cap = capacity(&assignment, family);
                let victim = assignment
                    .iter()
                    .enumerate()
                    .filter_map(|(d, v)| {
                        v.filter(|v| v.family == family).map(|v| (d, peak_of(v, d)))
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1));
                match victim {
                    Some((d, peak)) if cap - peak >= need => assignment[d] = None,
                    _ => break,
                }
            }
        }

        // 2. Fix deficits in fixed registration order — INFaaS decides as
        //    queries arrive rather than solving globally, so early families
        //    grab the fastest free devices and later ones inherit whatever
        //    is left: exactly the ordering-induced local optima the paper
        //    attributes its peak-time degradation to.
        for family in ModelFamily::ALL {
            let variants: Vec<VariantId> = ctx.zoo.variants_of(family).map(|v| v.id()).collect();
            loop {
                let deficit = demand[family] - capacity(&assignment, family);
                if deficit <= 0.0 {
                    break;
                }
                // Claim the fastest free *live* device first.
                let free = (0..assignment.len())
                    .filter(|&d| assignment[d].is_none() && ctx.is_up(DeviceId(d as u32)))
                    .max_by(|&a, &b| {
                        let pa = variants.iter().map(|&v| peak_of(v, a)).fold(0.0, f64::max);
                        let pb = variants.iter().map(|&v| peak_of(v, b)).fold(0.0, f64::max);
                        pa.total_cmp(&pb)
                    });
                if let Some(d) = free {
                    // Most accurate variant that covers the gap, else the
                    // highest-capacity one.
                    let covering = variants
                        .iter()
                        .rev()
                        .find(|&&v| peak_of(v, d) >= deficit)
                        .copied();
                    let fallback = variants
                        .iter()
                        .copied()
                        .max_by(|&a, &b| peak_of(a, d).total_cmp(&peak_of(b, d)));
                    let pick = covering.or(fallback).filter(|&v| peak_of(v, d) > 0.0);
                    if let Some(v) = pick {
                        assignment[d] = Some(v);
                        continue;
                    }
                }
                // No free device: single-step downgrade with max gain.
                let step = assignment
                    .iter()
                    .enumerate()
                    .filter_map(|(d, v)| {
                        let v = (*v)?;
                        if v.family != family || v.index == 0 {
                            return None;
                        }
                        let lower = VariantId {
                            family,
                            index: v.index - 1,
                        };
                        let gain = peak_of(lower, d) - peak_of(v, d);
                        (gain > 0.0).then_some((d, lower, gain))
                    })
                    .max_by(|a, b| a.2.total_cmp(&b.2));
                match step {
                    Some((d, lower, _)) => assignment[d] = Some(lower),
                    None => break, // stuck: local optimum, deficit remains
                }
            }
        }

        // 3. Slow accuracy recovery: one upgrade step per family if headroom
        //    allows.
        for family in ModelFamily::ALL {
            let need = demand[family] * self.headroom;
            let upgrade = assignment
                .iter()
                .enumerate()
                .filter_map(|(d, v)| {
                    let v = (*v)?;
                    if v.family != family {
                        return None;
                    }
                    let higher = VariantId {
                        family,
                        index: v.index + 1,
                    };
                    let new_peak = peak_of(higher, d);
                    if new_peak <= 0.0 {
                        return None;
                    }
                    let loss = peak_of(v, d) - new_peak;
                    Some((d, higher, loss))
                })
                .min_by(|a, b| a.2.total_cmp(&b.2));
            if let Some((d, higher, _)) = upgrade {
                let old = assignment[d];
                assignment[d] = Some(higher);
                if capacity(&assignment, family) < need {
                    assignment[d] = old; // would starve the family: revert
                }
            }
        }

        let mut plan = AllocationPlan::empty(ctx.cluster.len());
        for (d, v) in assignment.into_iter().enumerate() {
            plan.assign(DeviceId(d as u32), v);
        }
        finish_plan(ctx, &mut plan);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::audit::{audit_plan, PlanViolation};
    use proteus_profiler::{Cluster, ModelZoo, ProfileStore, SloPolicy};

    struct Env {
        cluster: Cluster,
        zoo: ModelZoo,
        store: ProfileStore,
    }

    impl Env {
        fn new(cpu: u32, gtx: u32, v100: u32) -> Self {
            let zoo = ModelZoo::paper_table3();
            let store = ProfileStore::build(&zoo, SloPolicy::default());
            Self {
                cluster: Cluster::with_counts(cpu, gtx, v100),
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

    fn demand(f: ModelFamily, qps: f64) -> FamilyMap<f64> {
        let mut d = FamilyMap::default();
        d[f] = qps;
        d
    }

    /// Asserts that `plan` passes the plan auditor for `demand`, coverage
    /// aside: the baselines keep no standby host for families without
    /// demand, which the auditor's coverage floor expects.
    fn assert_clean(env: &Env, demand: &FamilyMap<f64>, plan: &AllocationPlan) {
        let report = audit_plan(&env.ctx(), demand, plan);
        assert!(
            report
                .violations
                .iter()
                .all(|v| matches!(v, PlanViolation::CoverageShortfall { .. })),
            "{report}"
        );
    }

    #[test]
    fn clipper_ht_hosts_least_accurate() {
        let env = Env::new(1, 1, 2);
        let mut c = ClipperAllocator::new(ClipperMode::HighThroughput);
        assert!(c.is_static());
        let plan = c.allocate(
            &env.ctx(),
            &demand(ModelFamily::EfficientNet, 100.0),
            None,
            SimTime::ZERO,
        );
        assert_clean(&env, &demand(ModelFamily::EfficientNet, 100.0), &plan);
        for (_, v) in plan.assignments() {
            assert_eq!(v.index, 0, "HT must host index-0 variants, got {v}");
        }
    }

    #[test]
    fn clipper_ha_hosts_most_accurate() {
        let env = Env::new(1, 1, 2);
        let mut c = ClipperAllocator::new(ClipperMode::HighAccuracy);
        let plan = c.allocate(
            &env.ctx(),
            &demand(ModelFamily::EfficientNet, 20.0),
            None,
            SimTime::ZERO,
        );
        assert_clean(&env, &demand(ModelFamily::EfficientNet, 20.0), &plan);
        for (_, v) in plan.assignments() {
            let best = env.zoo.most_accurate(v.family).unwrap().id();
            assert_eq!(v, best, "HA must host most accurate variants");
        }
    }

    #[test]
    fn sommelier_pins_placement_but_swaps_variants() {
        let env = Env::new(2, 2, 2);
        let mut s = SommelierAllocator::default();
        let low = s.allocate(
            &env.ctx(),
            &demand(ModelFamily::EfficientNet, 20.0),
            None,
            SimTime::ZERO,
        );
        let families_low: Vec<Option<ModelFamily>> = (0..env.cluster.len())
            .map(|i| low.assignment(DeviceId(i as u32)).map(|v| v.family))
            .collect();
        // Second call with much higher demand: families stay pinned, variants
        // may only move within the family.
        let high = s.allocate(
            &env.ctx(),
            &demand(ModelFamily::EfficientNet, 900.0),
            Some(&low),
            SimTime::from_secs(30),
        );
        let families_high: Vec<Option<ModelFamily>> = (0..env.cluster.len())
            .map(|i| high.assignment(DeviceId(i as u32)).map(|v| v.family))
            .collect();
        for (a, b) in families_low.iter().zip(&families_high) {
            if b.is_some() {
                assert_eq!(a, b, "sommelier must not move families across devices");
            }
        }
        assert_clean(&env, &demand(ModelFamily::EfficientNet, 900.0), &high);
        // And the high-demand plan must have scaled accuracy down.
        let acc_low = low.planned_accuracy(&env.ctx())[ModelFamily::EfficientNet];
        let acc_high = high.planned_accuracy(&env.ctx())[ModelFamily::EfficientNet];
        assert!(acc_high < acc_low, "{acc_high} !< {acc_low}");
    }

    #[test]
    fn infaas_scales_accuracy_under_load() {
        let env = Env::new(2, 2, 2);
        let mut inf = InfaasAccuracyAllocator::default();
        assert!(inf.on_critical_path());
        let low = inf.allocate(
            &env.ctx(),
            &demand(ModelFamily::EfficientNet, 20.0),
            None,
            SimTime::ZERO,
        );
        assert_clean(&env, &demand(ModelFamily::EfficientNet, 20.0), &low);
        assert!(low.capacity(ModelFamily::EfficientNet) >= 20.0);
        let high = inf.allocate(
            &env.ctx(),
            &demand(ModelFamily::EfficientNet, 900.0),
            Some(&low),
            SimTime::from_secs(1),
        );
        assert_clean(&env, &demand(ModelFamily::EfficientNet, 900.0), &high);
        assert!(high.capacity(ModelFamily::EfficientNet) > low.capacity(ModelFamily::EfficientNet));
        let acc_low = low.planned_accuracy(&env.ctx())[ModelFamily::EfficientNet];
        let acc_high = high.planned_accuracy(&env.ctx())[ModelFamily::EfficientNet];
        assert!(acc_high < acc_low);
    }

    #[test]
    fn infaas_recovers_accuracy_slowly() {
        let env = Env::new(0, 0, 4);
        let mut inf = InfaasAccuracyAllocator::default();
        let mut plan = inf.allocate(
            &env.ctx(),
            &demand(ModelFamily::EfficientNet, 1500.0),
            None,
            SimTime::ZERO,
        );
        let stressed = plan.planned_accuracy(&env.ctx())[ModelFamily::EfficientNet];
        // Demand collapses; recovery takes multiple invocations because only
        // one upgrade step per family per call is allowed.
        let mut accs = vec![stressed];
        for i in 0..12 {
            plan = inf.allocate(
                &env.ctx(),
                &demand(ModelFamily::EfficientNet, 10.0),
                Some(&plan),
                SimTime::from_secs(i + 1),
            );
            accs.push(plan.planned_accuracy(&env.ctx())[ModelFamily::EfficientNet]);
        }
        let last = *accs.last().unwrap();
        assert!(last > stressed, "accuracy must recover: {accs:?}");
        // Not instantaneous: the second sample is below the final value.
        assert!(accs[1] < last, "recovery must take several steps: {accs:?}");
    }

    #[test]
    fn heuristic_allocators_avoid_down_devices() {
        let env = Env::new(2, 2, 2);
        let down = [DeviceId(4)]; // one of the V100s
        let ctx = AllocContext {
            cluster: &env.cluster,
            zoo: &env.zoo,
            store: &env.store,
            down: &down,
        };
        let d = demand(ModelFamily::EfficientNet, 300.0);
        let mut inf = InfaasAccuracyAllocator::default();
        // Seed with a full-cluster plan so the down device starts assigned.
        let seeded = inf.allocate(&env.ctx(), &d, None, SimTime::ZERO);
        let plan = inf.allocate(&ctx, &d, Some(&seeded), SimTime::from_secs(1));
        assert_eq!(plan.assignment(DeviceId(4)), None);
        let mut som = SommelierAllocator::default();
        let splan = som.allocate(&ctx, &d, None, SimTime::ZERO);
        assert_eq!(splan.assignment(DeviceId(4)), None);
        for p in [&plan, &splan] {
            for family in ModelFamily::ALL {
                for &(dev, _) in p.routing(family) {
                    assert_ne!(dev, DeviceId(4), "routing to down device");
                }
            }
        }
    }

    #[test]
    fn proteus_ablation_names() {
        assert_eq!(ProteusAllocator::default().name(), "proteus");
        assert_eq!(
            ProteusAllocator::without_model_selection().name(),
            "proteus-w/o-ms"
        );
        assert_eq!(
            ProteusAllocator::without_query_assignment().name(),
            "proteus-w/o-qa"
        );
        assert_eq!(ProteusAllocator::fair().name(), "proteus-fair");
    }

    #[test]
    fn proteus_uniform_qa_flattens_weights() {
        let env = Env::new(2, 2, 2);
        let mut p = ProteusAllocator::without_query_assignment();
        let plan = p.allocate(
            &env.ctx(),
            &demand(ModelFamily::EfficientNet, 200.0),
            None,
            SimTime::ZERO,
        );
        for family in ModelFamily::ALL {
            for &(_, w) in plan.routing(family) {
                assert_eq!(w, 1.0);
            }
        }
        assert!(p.last_stats.is_some());
    }
}
