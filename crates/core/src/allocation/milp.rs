//! The resource-management MILP of §4 (Table 1, Eqs. 1–7).
//!
//! The paper's formulation, restated in this module's notation:
//!
//! * **Variables** — `x(d,m) ∈ {0,1}` hosts variant `m` on device `d`
//!   (model selection + placement, Eq. 1: at most one per device);
//!   `y(d,q) ∈ [0,1]` the fraction of query type `q` routed to `d`
//!   (query assignment, Eqs. 2–3); `z(d,q)` the QPS actually served
//!   (Eqs. 4–6: bounded by assignment and by peak capacity `P(d,m,q)`,
//!   and summing to the target demand `s_q`).
//! * **Objective** (Eq. 7) — maximize effective accuracy
//!   `Σ_q Σ_m A_m · x(d,m) · z(d,q)`.
//!
//! Two exact encodings are provided:
//!
//! * [`Formulation::PerDevice`] — the faithful per-device binary program.
//!   The bilinear accuracy term is avoided by indexing served QPS with the
//!   variant (`z(d,m)` instead of `z(d,q)`), which is an exact reformulation
//!   because Eq. 1 allows at most one hosted variant per device; `y(d,q)`
//!   is recovered as `z(d,m)/s_q`.
//! * [`Formulation::TypeAggregated`] — devices of one type are
//!   interchangeable (profiles are keyed by device *type*), so an integer
//!   count `n(t,m) ∈ {0..count_t}` per (type, variant) yields the same
//!   optimum with far fewer integer variables. Solutions are expanded onto
//!   concrete devices afterwards, preferring devices that already host the
//!   wanted variant so that fewer model swaps (and load delays) occur.
//!
//! If the program is infeasible — demand exceeds even the least-accurate
//! full-cluster capacity — the target demand is shrunk by β (default 1.05,
//! the artifact's default) and re-solved, as §4 prescribes.

use proteus_profiler::{DeviceId, DeviceType, ModelFamily, VariantId};
use proteus_solver::{simplex, LinearProgram, MilpSolver, Relation, SolveError, SolveStats, VarId};

use crate::allocation::{AllocContext, AllocationPlan};
use crate::FamilyMap;

/// Which MILP encoding to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Formulation {
    /// Exact type-aggregated encoding (default: small and fast).
    #[default]
    TypeAggregated,
    /// Faithful per-device binary encoding (Table 1 verbatim).
    PerDevice,
}

/// Restricts which variants the optimizer may select — used by the
/// Clipper-HT/HA baselines and the "w/o model selection" ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariantRestriction {
    /// All registered variants are available (Proteus).
    #[default]
    All,
    /// Only each family's most accurate variant (Clipper-HA, w/o MS).
    MostAccurate,
    /// Only each family's least accurate variant (Clipper-HT).
    LeastAccurate,
}

impl VariantRestriction {
    fn allows(self, ctx: &AllocContext<'_>, variant: VariantId) -> bool {
        match self {
            VariantRestriction::All => true,
            VariantRestriction::MostAccurate => {
                ctx.zoo.most_accurate(variant.family).map(|v| v.id()) == Some(variant)
            }
            VariantRestriction::LeastAccurate => {
                ctx.zoo.least_accurate(variant.family).map(|v| v.id()) == Some(variant)
            }
        }
    }
}

/// Model-swap cost model: how expensive it is to change a device's hosted
/// variant, expressed through the load delay it causes.
///
/// Re-planning every period with a fresh optimum would churn models whose
/// accuracy mix differs negligibly while paying real load windows (the
/// device serves nothing while weights load). The MILP therefore credits
/// keeping an existing replica by the capacity the swap would forfeit:
/// `accuracy × peak_qps × load_secs / period`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapCost {
    /// Fixed component of the model-load delay, seconds.
    pub load_base_secs: f64,
    /// Load delay per GiB of model weights, seconds.
    pub load_secs_per_gib: f64,
    /// Re-planning period the cost is amortized over, seconds.
    pub period_secs: f64,
}

impl SwapCost {
    /// The paper testbed's load model, which
    /// [`SystemConfig::paper_testbed`](crate::system::SystemConfig::paper_testbed)
    /// reads too: 0.5 s per load plus 0.5 s per GiB, replanned every 30 s.
    pub const PAPER_TESTBED: SwapCost = SwapCost {
        load_base_secs: 0.5,
        load_secs_per_gib: 0.5,
        period_secs: 30.0,
    };
}

impl Default for SwapCost {
    fn default() -> Self {
        Self::PAPER_TESTBED
    }
}

/// Configuration of the resource-management MILP.
#[derive(Debug, Clone)]
pub struct MilpConfig {
    /// Encoding choice.
    pub formulation: Formulation,
    /// Variant restriction (baselines/ablations).
    pub restriction: VariantRestriction,
    /// Swap-cost credit for keeping current replicas (`None` = churn
    /// freely).
    pub swap_cost: Option<SwapCost>,
    /// §7 extension: maximize the *minimum* per-family accuracy instead of
    /// the demand-weighted mean (fairness objective).
    pub fairness: bool,
    /// The underlying branch-and-bound solver.
    pub solver: MilpSolver,
}

impl Default for MilpConfig {
    fn default() -> Self {
        // A 0.2 % relative MIP gap: sibling branches that differ only in
        // tie-break penalties or sub-0.2 % accuracy re-mixes prune
        // immediately (bounding effective-accuracy loss by the same 0.2 %),
        // while materially better plans are still explored. The node cap
        // bounds the worst-case solve to a couple of seconds — well inside
        // the paper's 30 s invocation period — and an incumbent (from the
        // diving heuristic or the previous plan) is returned when it hits.
        let mut solver = MilpSolver::with_relative_gap(2e-3);
        solver.max_nodes = 1_200;
        Self {
            formulation: Formulation::default(),
            restriction: VariantRestriction::default(),
            swap_cost: Some(SwapCost::default()),
            fairness: false,
            solver,
        }
    }
}

/// Outcome of one allocation solve.
#[derive(Debug, Clone)]
pub struct MilpOutcome {
    /// The decoded plan.
    pub plan: AllocationPlan,
    /// Branch-and-bound statistics (for the Fig. 10 overhead study and the
    /// controller's per-replan report), accumulated across every
    /// shrink-and-retry round — failed rounds cost solver time too.
    pub stats: SolveStats,
    /// Demand shrink factor that was needed (1.0 = full demand feasible).
    pub shrink: f64,
}

/// Demand shrink factor β applied on infeasibility (§4; the artifact's
/// value).
const SHRINK_BETA: f64 = 1.05;

/// Shrink-and-retry rounds before switching to the soft-demand fallback.
const MAX_SHRINK_ROUNDS: u32 = 10;

/// Tiny per-replica penalty: among accuracy-equal optima, prefer plans that
/// host fewer replicas (fewer model swaps, more idle headroom).
const REPLICA_PENALTY: f64 = 1e-3;

/// Objective weight on *served QPS* in the soft-demand fallback. With
/// accuracies spanning `[0.8, 1.0]`, a weight of 50 makes the objective
/// near-lexicographic — throughput first, accuracy second (at most
/// `0.2/(W+0.8) ≈ 0.4 %` of served throughput can be traded for accuracy) —
/// which is the paper's stated goal ("meet throughput requirements while
/// maximizing accuracy").
const SERVE_WEIGHT: f64 = 50.0;

/// Whether the demand constraint is the paper's strict equality (Eq. 6) or
/// the soft `≤` fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DemandMode {
    Strict,
    Soft,
}

/// Solves the resource-management problem for the given target demand.
///
/// Follows §4: the strict formulation (all demand served, Eq. 6) is tried
/// first; on infeasibility the demand is shrunk by β and re-solved. If the
/// problem is still infeasible after 10 shrink rounds — e.g. the cluster
/// has fewer devices than families with demand, which no amount of uniform
/// shrinking fixes — a soft-demand formulation takes over: it maximizes
/// served throughput lexicographically before accuracy, finding the exact
/// servable demand mix in one solve. The plan's
/// [`shrink`](AllocationPlan::shrink) reports `offered / planned-served` in
/// both paths.
///
/// Families with zero demand receive a small epsilon so they keep a standby
/// host when capacity allows.
///
/// # Errors
///
/// Returns the underlying [`SolveError`] only on structural failures (an
/// unbounded program, or a node-limit hit before any incumbent).
pub fn solve_allocation(
    ctx: &AllocContext<'_>,
    demand: &FamilyMap<f64>,
    current: Option<&AllocationPlan>,
    config: &MilpConfig,
) -> Result<MilpOutcome, SolveError> {
    // Zero-demand families still deserve a host if it is free.
    let demand = FamilyMap::from_fn(|f| demand[f].max(0.25));
    // Strict Eq. 6 needs one hosting device per family with demand; a
    // smaller cluster is integrally infeasible at *any* uniform shrink, so
    // skip straight to the soft fallback. Down devices can host nothing, so
    // only the live ones count.
    let families_needed = ModelFamily::ALL
        .iter()
        .filter(|&&f| demand[f] > 0.0 && ctx.zoo.variants_of(f).next().is_some())
        .count();
    // Accumulated across every attempt: a replan's true solver cost
    // includes the rounds that came back infeasible.
    let mut total = SolveStats::default();
    if families_needed <= ctx.up_len() {
        let mut shrink = 1.0;
        for _round in 0..=MAX_SHRINK_ROUNDS {
            let target = demand.scaled(1.0 / shrink);
            let (attempt, stats) = solve_once(ctx, &target, current, config, DemandMode::Strict);
            total += stats;
            match attempt {
                Ok(plan) => {
                    let mut plan = plan;
                    plan.set_shrink(shrink);
                    return Ok(MilpOutcome {
                        plan,
                        stats: total,
                        shrink,
                    });
                }
                Err(SolveError::Infeasible) => shrink *= SHRINK_BETA,
                // Node budget exhausted without an incumbent: shrinking
                // will not help; hand over to the soft formulation.
                Err(SolveError::NodeLimit) => break,
                Err(e) => return Err(e),
            }
        }
    }
    // Soft fallback: serve as much as possible, then maximize accuracy.
    // The diving incumbent is near-optimal here (serve-weight dominates),
    // so a small node budget suffices.
    let mut soft_config = config.clone();
    soft_config.solver.max_nodes = soft_config.solver.max_nodes.min(300);
    let (attempt, stats) = solve_once(ctx, &demand, current, &soft_config, DemandMode::Soft);
    total += stats;
    let mut plan = attempt?;
    let planned: f64 = ModelFamily::ALL
        .iter()
        .map(|&f| plan.capacity(f).min(demand[f]))
        .sum();
    let shrink = if planned > 1e-9 {
        (demand.total() / planned).max(1.0)
    } else {
        f64::INFINITY
    };
    plan.set_shrink(shrink);
    Ok(MilpOutcome {
        plan,
        stats: total,
        shrink,
    })
}

fn solve_once(
    ctx: &AllocContext<'_>,
    demand: &FamilyMap<f64>,
    current: Option<&AllocationPlan>,
    config: &MilpConfig,
    mode: DemandMode,
) -> (Result<AllocationPlan, SolveError>, SolveStats) {
    match config.formulation {
        Formulation::TypeAggregated => solve_aggregated(ctx, demand, current, config, mode),
        Formulation::PerDevice => solve_per_device(ctx, demand, current, config, mode),
    }
}

/// Candidate (device type, variant) pair with its per-replica capacity.
#[derive(Debug, Clone, Copy)]
struct Pair {
    device_type: DeviceType,
    variant: VariantId,
    accuracy: f64,
    peak_qps: f64,
    /// Live devices of `device_type`.
    live: usize,
}

fn candidate_pairs(ctx: &AllocContext<'_>, config: &MilpConfig) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for device_type in DeviceType::ALL {
        let live = ctx.up_count_of(device_type);
        if live == 0 {
            continue;
        }
        for variant in ctx.zoo.iter() {
            if !config.restriction.allows(ctx, variant.id()) {
                continue;
            }
            let Some(profile) = ctx.store.profile(variant.id(), device_type) else {
                continue;
            };
            if !profile.is_feasible() {
                continue;
            }
            pairs.push(Pair {
                device_type,
                variant: variant.id(),
                accuracy: variant.accuracy(),
                peak_qps: profile.peak_qps(),
                live,
            });
        }
    }
    pairs
}

/// Live replicas of the current plan per candidate pair, and whether every
/// live replica has a pair (a device may host a variant the restriction or
/// its profile now excludes).
fn live_replicas(ctx: &AllocContext<'_>, pairs: &[Pair], cur: &AllocationPlan) -> (Vec<u32>, bool) {
    let mut counts = vec![0u32; pairs.len()];
    let mut paired = true;
    for (device, variant) in cur.assignments() {
        // A down device's replica is already lost.
        if !ctx.is_up(device) {
            continue;
        }
        let idx = ctx.cluster.device(device).and_then(|spec| {
            pairs
                .iter()
                .position(|p| p.device_type == spec.device_type && p.variant == variant)
        });
        match idx {
            Some(i) => counts[i] += 1,
            None => paired = false,
        }
    }
    (counts, paired)
}

/// The type-aggregated program of one solve attempt.
struct AggregatedProgram {
    pairs: Vec<Pair>,
    lp: LinearProgram,
    /// `n(t,m)` per pair.
    n_vars: Vec<VarId>,
    /// `z(t,m)` per pair.
    z_vars: Vec<VarId>,
    /// The current plan's live replicas per pair, when there is a current
    /// plan and every live replica has a pair; otherwise no hint is tried.
    hint_counts: Option<Vec<u32>>,
}

impl AggregatedProgram {
    /// Bounds of the warm-start hint LP: every replica count fixed to the
    /// current plan's, so the simplex only re-fits the rates. A group with
    /// no replica also has its rate pinned to zero. Eq. 5 with `n = 0`
    /// already forces `z ≤ 0`, so the optimum is the same; a fixed column
    /// just never enters the basis, which saves the degenerate pivots
    /// Dantzig's rule would otherwise spend on it.
    fn hint_bounds(&self) -> Option<Vec<(f64, f64)>> {
        let counts = self.hint_counts.as_ref()?;
        let mut bounds = self.lp.all_bounds();
        for ((&n, &z), &count) in self.n_vars.iter().zip(&self.z_vars).zip(counts) {
            let fixed = f64::from(count);
            bounds[n.index()] = (fixed, fixed);
            if count == 0 {
                bounds[z.index()] = (0.0, 0.0);
            }
        }
        Some(bounds)
    }
}

/// Builds the type-aggregated exact encoding.
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] when strict demand falls on a family
/// no live device can host.
fn build_aggregated(
    ctx: &AllocContext<'_>,
    demand: &FamilyMap<f64>,
    current: Option<&AllocationPlan>,
    config: &MilpConfig,
    mode: DemandMode,
) -> Result<AggregatedProgram, SolveError> {
    let pairs = candidate_pairs(ctx, config);
    let mut lp = LinearProgram::maximize();

    // n(t,m): replica count; z(t,m): QPS served by the group.
    let mut n_vars = Vec::with_capacity(pairs.len());
    let mut z_vars = Vec::with_capacity(pairs.len());
    for p in &pairs {
        n_vars.push(lp.add_integer("n", 0.0, p.live as f64, -REPLICA_PENALTY));
        let mut obj = if config.fairness { 0.0 } else { p.accuracy };
        if mode == DemandMode::Soft {
            obj += SERVE_WEIGHT;
        }
        z_vars.push(lp.add_continuous("z", 0.0, f64::INFINITY, obj));
    }

    // Eq. 1 (aggregated): replicas per type bounded by the device count.
    for device_type in DeviceType::ALL {
        let terms: Vec<(VarId, f64)> = pairs
            .iter()
            .zip(&n_vars)
            .filter(|(p, _)| p.device_type == device_type)
            .map(|(_, &v)| (v, 1.0))
            .collect();
        if let Some(p) = pairs.iter().find(|p| p.device_type == device_type) {
            lp.add_constraint(terms, Relation::Le, p.live as f64);
        }
    }

    let current_counts = current.map(|cur| live_replicas(ctx, &pairs, cur));

    // Swap-cost credit: `keep(t,m) ≤ min(n(t,m), current count)` earns the
    // serving capacity a model swap would forfeit during its load window.
    if let (Some(swap), Some((cur_counts, _))) = (config.swap_cost, &current_counts) {
        for ((p, &n), &cur_n) in pairs.iter().zip(&n_vars).zip(cur_counts) {
            if cur_n == 0 {
                continue;
            }
            let load_secs = swap.load_base_secs
                + swap.load_secs_per_gib
                    * ctx
                        .zoo
                        .variant(p.variant)
                        .map_or(0.0, |v| v.memory_mib() / 1024.0);
            let credit = p.accuracy * p.peak_qps * load_secs / swap.period_secs.max(1e-9);
            if credit <= 0.0 {
                continue;
            }
            let keep = lp.add_continuous("keep", 0.0, cur_n as f64, credit);
            lp.add_constraint(vec![(keep, 1.0), (n, -1.0)], Relation::Le, 0.0);
        }
    }

    // Eq. 5: served QPS bounded by peak capacity of the hosted replicas.
    for ((p, &n), &z) in pairs.iter().zip(&n_vars).zip(&z_vars) {
        lp.add_constraint(vec![(z, 1.0), (n, -p.peak_qps)], Relation::Le, 0.0);
    }

    // Eqs. 4+6: all (possibly shrunk) demand is served — or, in the soft
    // fallback, at most the offered demand is served (and the serve weight
    // maximizes how much).
    for family in ModelFamily::ALL {
        let terms: Vec<(VarId, f64)> = pairs
            .iter()
            .zip(&z_vars)
            .filter(|(p, _)| p.variant.family == family)
            .map(|(_, &v)| (v, 1.0))
            .collect();
        if terms.is_empty() {
            if demand[family] > 0.0 && mode == DemandMode::Strict {
                return Err(SolveError::Infeasible);
            }
            continue;
        }
        let relation = match mode {
            DemandMode::Strict => Relation::Eq,
            DemandMode::Soft => Relation::Le,
        };
        lp.add_constraint(terms, relation, demand[family]);
    }

    // §7 fairness extension: maximize the minimum per-family mean accuracy.
    if config.fairness {
        let fair = lp.add_continuous("min_accuracy", 0.0, 1.0, 1000.0);
        for family in ModelFamily::ALL {
            if demand[family] <= 0.0 {
                continue;
            }
            // fair ≤ Σ A·z / s_q  ⇔  s_q·fair − Σ A·z ≤ 0.
            let mut terms: Vec<(VarId, f64)> = pairs
                .iter()
                .zip(&z_vars)
                .filter(|(p, _)| p.variant.family == family)
                .map(|(p, &v)| (v, -p.accuracy))
                .collect();
            if terms.is_empty() {
                continue;
            }
            terms.push((fair, demand[family]));
            lp.add_constraint(terms, Relation::Le, 0.0);
        }
    }

    // The hint gives up when a live device hosts a variant with no pair.
    let hint_counts = current_counts
        .filter(|(_, paired)| *paired)
        .map(|(counts, _)| counts);
    Ok(AggregatedProgram {
        pairs,
        lp,
        n_vars,
        z_vars,
        hint_counts,
    })
}

/// Type-aggregated exact encoding.
///
/// Returns the solve attempt alongside the stats it cost, so callers can
/// account for infeasible rounds in the replan's total solver bill.
fn solve_aggregated(
    ctx: &AllocContext<'_>,
    demand: &FamilyMap<f64>,
    current: Option<&AllocationPlan>,
    config: &MilpConfig,
    mode: DemandMode,
) -> (Result<AllocationPlan, SolveError>, SolveStats) {
    let program = match build_aggregated(ctx, demand, current, config, mode) {
        Ok(program) => program,
        Err(e) => return (Err(e), SolveStats::default()),
    };

    // Warm start: fix the replica counts to the current plan's and let the
    // simplex re-fit the rates; if that is feasible under the new demand it
    // seeds branch & bound with an immediate incumbent.
    let (hint, hint_iterations) = match program.hint_bounds() {
        Some(bounds) => {
            let (result, iterations) = simplex::solve_with_bounds_counted(&program.lp, &bounds);
            (result.ok().map(|s| s.values().to_vec()), iterations)
        }
        None => (None, 0),
    };
    let (attempt, mut stats) = config.solver.solve_attempt(&program.lp, hint.as_deref());
    stats.hint_iterations = hint_iterations;
    let solution = match attempt {
        Ok(s) => s,
        Err(e) => return (Err(e), stats),
    };

    // Decode group counts and rates.
    let counts: Vec<u32> = program
        .n_vars
        .iter()
        .map(|&v| solution.value(v).round() as u32)
        .collect();
    let rates: Vec<f64> = program
        .z_vars
        .iter()
        .map(|&v| solution.value(v).max(0.0))
        .collect();
    (
        Ok(expand_aggregated(
            ctx,
            &program.pairs,
            &counts,
            &rates,
            current,
        )),
        stats,
    )
}

/// Expands per-(type, variant) counts onto concrete devices, keeping
/// existing hosts where possible to minimize model swaps.
fn expand_aggregated(
    ctx: &AllocContext<'_>,
    pairs: &[Pair],
    counts: &[u32],
    rates: &[f64],
    current: Option<&AllocationPlan>,
) -> AllocationPlan {
    let mut plan = AllocationPlan::empty(ctx.cluster.len());
    let mut routing: FamilyMap<Vec<(DeviceId, f64)>> = FamilyMap::default();
    let mut capacity = FamilyMap::<f64>::default();

    for device_type in DeviceType::ALL {
        // Wanted replicas of each variant on this type.
        let mut wanted: Vec<(VariantId, u32, f64)> = pairs
            .iter()
            .zip(counts)
            .zip(rates)
            .filter(|((p, &c), _)| p.device_type == device_type && c > 0)
            .map(|((p, &c), &r)| (p.variant, c, r))
            .collect();
        let devices: Vec<DeviceId> = ctx
            .cluster
            .of_type(device_type)
            .filter(|d| ctx.is_up(d.id))
            .map(|d| d.id)
            .collect();
        let mut free: Vec<DeviceId> = Vec::new();
        let mut chosen: Vec<(DeviceId, VariantId)> = Vec::new();

        // First pass: keep devices already hosting a still-wanted variant.
        for &d in &devices {
            let kept = current.and_then(|c| c.assignment(d)).and_then(|v| {
                wanted
                    .iter_mut()
                    .find(|(w, c, _)| *w == v && *c > 0)
                    .map(|(w, c, _)| {
                        *c -= 1;
                        *w
                    })
            });
            match kept {
                Some(v) => chosen.push((d, v)),
                None => free.push(d),
            }
        }
        // Second pass: place the remaining replicas on free devices.
        let mut free_iter = free.into_iter();
        for (variant, remaining, _) in &wanted {
            for _ in 0..*remaining {
                if let Some(d) = free_iter.next() {
                    chosen.push((d, *variant));
                }
            }
        }

        // Per-device routing weight: each replica of a group serves an equal
        // share z/n of the group's rate.
        for (variant, _c, _r) in &wanted {
            let group: Vec<DeviceId> = chosen
                .iter()
                .filter(|(_, v)| v == variant)
                .map(|&(d, _)| d)
                .collect();
            let rate = pairs
                .iter()
                .zip(rates)
                .find(|(p, _)| p.device_type == device_type && p.variant == *variant)
                .map_or(0.0, |(_, &r)| r);
            let per_device = if group.is_empty() {
                0.0
            } else {
                rate / group.len() as f64
            };
            let peak = ctx.store.peak_qps(*variant, device_type);
            for d in group {
                // Weight ∝ planned rate; fall back to capacity share when the
                // group was hosted for standby only (zero planned rate).
                let weight = if per_device > 1e-9 {
                    per_device
                } else {
                    peak * 1e-3
                };
                routing[variant.family].push((d, weight));
                capacity[variant.family] += peak;
            }
        }
        for (d, v) in chosen {
            plan.assign(d, Some(v));
        }
    }

    for family in ModelFamily::ALL {
        let entries = std::mem::take(&mut routing[family]);
        plan.set_routing(family, entries);
        plan.set_capacity(family, capacity[family]);
    }
    plan
}

/// Faithful per-device binary encoding (Table 1 verbatim, with the exact
/// `z(d,m)` reformulation of the bilinear accuracy term).
fn solve_per_device(
    ctx: &AllocContext<'_>,
    demand: &FamilyMap<f64>,
    current: Option<&AllocationPlan>,
    config: &MilpConfig,
    mode: DemandMode,
) -> (Result<AllocationPlan, SolveError>, SolveStats) {
    let pairs = candidate_pairs(ctx, config);
    let mut lp = LinearProgram::maximize();

    // Per concrete device d and feasible variant m: x(d,m) and z(d,m).
    struct Cell {
        device: DeviceId,
        variant: VariantId,
        peak_qps: f64,
        x: VarId,
        z: VarId,
    }
    let mut cells: Vec<Cell> = Vec::new();
    for device in ctx.cluster.iter() {
        for p in pairs.iter().filter(|p| p.device_type == device.device_type) {
            // Credit for keeping the current assignment: the capacity a
            // model swap would forfeit during its load window (same rule as
            // the aggregated encoding's `keep` variables).
            let keeps = current.and_then(|c| c.assignment(device.id)) == Some(p.variant);
            let keep_bonus = match (keeps, config.swap_cost) {
                (true, Some(swap)) => {
                    let load_secs = swap.load_base_secs
                        + swap.load_secs_per_gib
                            * ctx
                                .zoo
                                .variant(p.variant)
                                .map_or(0.0, |v| v.memory_mib() / 1024.0);
                    p.accuracy * p.peak_qps * load_secs / swap.period_secs.max(1e-9)
                }
                (true, None) => REPLICA_PENALTY / 2.0,
                (false, _) => 0.0,
            };
            let x = lp.add_binary(
                format!("x_{}_{}", device.id, p.variant),
                -REPLICA_PENALTY + keep_bonus,
            );
            let mut obj = p.accuracy;
            if mode == DemandMode::Soft {
                obj += SERVE_WEIGHT;
            }
            let z = lp.add_continuous(
                format!("z_{}_{}", device.id, p.variant),
                0.0,
                f64::INFINITY,
                obj,
            );
            // Device mask: a down device keeps its variables (the encoding
            // stays uniform) but both are pinned to zero, so the solver can
            // neither host nor route anything there.
            if !ctx.is_up(device.id) {
                lp.fix_zero(x);
                lp.fix_zero(z);
            }
            cells.push(Cell {
                device: device.id,
                variant: p.variant,
                peak_qps: p.peak_qps,
                x,
                z,
            });
        }
    }

    // Eq. 1: at most one variant per device.
    for device in ctx.cluster.iter() {
        let terms: Vec<(VarId, f64)> = cells
            .iter()
            .filter(|c| c.device == device.id)
            .map(|c| (c.x, 1.0))
            .collect();
        if !terms.is_empty() {
            lp.add_constraint(terms, Relation::Le, 1.0);
        }
    }
    // Eq. 5 (+3): service only where hosted, bounded by peak capacity.
    for c in &cells {
        lp.add_constraint(vec![(c.z, 1.0), (c.x, -c.peak_qps)], Relation::Le, 0.0);
    }
    // Eqs. 4+6: demand conservation (soft `≤` in the fallback mode).
    for family in ModelFamily::ALL {
        let terms: Vec<(VarId, f64)> = cells
            .iter()
            .filter(|c| c.variant.family == family)
            .map(|c| (c.z, 1.0))
            .collect();
        if terms.is_empty() {
            if demand[family] > 0.0 && mode == DemandMode::Strict {
                return (Err(SolveError::Infeasible), SolveStats::default());
            }
            continue;
        }
        let relation = match mode {
            DemandMode::Strict => Relation::Eq,
            DemandMode::Soft => Relation::Le,
        };
        lp.add_constraint(terms, relation, demand[family]);
    }

    let (attempt, stats) = config.solver.solve_attempt(&lp, None);
    let solution = match attempt {
        Ok(s) => s,
        Err(e) => return (Err(e), stats),
    };

    let mut plan = AllocationPlan::empty(ctx.cluster.len());
    let mut routing: FamilyMap<Vec<(DeviceId, f64)>> = FamilyMap::default();
    let mut capacity = FamilyMap::<f64>::default();
    for c in &cells {
        if solution.value(c.x) > 0.5 {
            plan.assign(c.device, Some(c.variant));
            let rate = solution.value(c.z).max(0.0);
            let weight = if rate > 1e-9 { rate } else { c.peak_qps * 1e-3 };
            routing[c.variant.family].push((c.device, weight));
            capacity[c.variant.family] += c.peak_qps;
        }
    }
    for family in ModelFamily::ALL {
        let entries = std::mem::take(&mut routing[family]);
        plan.set_routing(family, entries);
        plan.set_capacity(family, capacity[family]);
    }
    (Ok(plan), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::audit::audit_plan;
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

        fn ctx_down<'a>(&'a self, down: &'a [DeviceId]) -> AllocContext<'a> {
            AllocContext {
                cluster: &self.cluster,
                zoo: &self.zoo,
                store: &self.store,
                down,
            }
        }
    }

    fn demand_single(family: ModelFamily, qps: f64) -> FamilyMap<f64> {
        let mut d = FamilyMap::default();
        d[family] = qps;
        d
    }

    #[test]
    fn low_demand_selects_most_accurate_variants() {
        let env = Env::new(5, 3, 3);
        let demand = demand_single(ModelFamily::EfficientNet, 10.0);
        let out = solve_allocation(&env.ctx(), &demand, None, &MilpConfig::default()).unwrap();
        assert_eq!(out.shrink, 1.0);
        assert!(audit_plan(&env.ctx(), &demand, &out.plan).is_clean());
        // 10 QPS of EfficientNet fits the most accurate variant on a V100.
        let planned = out.plan.planned_accuracy(&env.ctx());
        assert!(
            planned[ModelFamily::EfficientNet] > 0.99,
            "expected near-1.0 accuracy, got {}",
            planned[ModelFamily::EfficientNet]
        );
        // Demand is actually routable.
        assert!(!out.plan.routing(ModelFamily::EfficientNet).is_empty());
        assert!(out.plan.capacity(ModelFamily::EfficientNet) >= 10.0);
    }

    #[test]
    fn high_demand_forces_accuracy_scaling() {
        let env = Env::new(5, 3, 3);
        let low = solve_allocation(
            &env.ctx(),
            &demand_single(ModelFamily::EfficientNet, 10.0),
            None,
            &MilpConfig::default(),
        )
        .unwrap();
        let high = solve_allocation(
            &env.ctx(),
            &demand_single(ModelFamily::EfficientNet, 800.0),
            None,
            &MilpConfig::default(),
        )
        .unwrap();
        let low_acc = low.plan.planned_accuracy(&env.ctx())[ModelFamily::EfficientNet];
        let high_acc = high.plan.planned_accuracy(&env.ctx())[ModelFamily::EfficientNet];
        assert!(
            high_acc < low_acc,
            "high demand must scale accuracy down: {high_acc} vs {low_acc}"
        );
        assert!(
            high.plan.capacity(ModelFamily::EfficientNet)
                > low.plan.capacity(ModelFamily::EfficientNet)
        );
    }

    #[test]
    fn infeasible_demand_is_shrunk() {
        let env = Env::new(1, 1, 1);
        // Far beyond what three devices can serve even at minimum accuracy.
        let demand = demand_single(ModelFamily::EfficientNet, 1e5);
        let out = solve_allocation(&env.ctx(), &demand, None, &MilpConfig::default()).unwrap();
        assert!(out.shrink > 1.0, "shrink must kick in");
        assert!(audit_plan(&env.ctx(), &demand, &out.plan).is_clean());
    }

    #[test]
    fn least_accurate_restriction_floors_accuracy() {
        let env = Env::new(1, 1, 1);
        let config = MilpConfig {
            restriction: VariantRestriction::LeastAccurate,
            ..MilpConfig::default()
        };
        let out = solve_allocation(
            &env.ctx(),
            &demand_single(ModelFamily::EfficientNet, 10.0),
            None,
            &config,
        )
        .unwrap();
        let acc = out.plan.planned_accuracy(&env.ctx())[ModelFamily::EfficientNet];
        let floor = env
            .zoo
            .least_accurate(ModelFamily::EfficientNet)
            .unwrap()
            .accuracy();
        assert!((acc - floor).abs() < 1e-9, "got {acc}, expected {floor}");
    }

    #[test]
    fn most_accurate_restriction_caps_capacity() {
        let env = Env::new(1, 1, 1);
        let config = MilpConfig {
            restriction: VariantRestriction::MostAccurate,
            ..MilpConfig::default()
        };
        let out = solve_allocation(
            &env.ctx(),
            &demand_single(ModelFamily::EfficientNet, 500.0),
            None,
            &config,
        )
        .unwrap();
        // Most accurate variants are slow: demand had to shrink.
        assert!(out.shrink > 1.0);
        let acc = out.plan.planned_accuracy(&env.ctx())[ModelFamily::EfficientNet];
        assert!((acc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn aggregated_and_per_device_agree_on_objective() {
        let env = Env::new(2, 1, 1);
        let mut demand = FamilyMap::default();
        demand[ModelFamily::EfficientNet] = 120.0;
        demand[ModelFamily::ResNet] = 60.0;
        let agg = solve_allocation(&env.ctx(), &demand, None, &MilpConfig::default()).unwrap();
        let per = solve_allocation(
            &env.ctx(),
            &demand,
            None,
            &MilpConfig {
                formulation: Formulation::PerDevice,
                ..MilpConfig::default()
            },
        )
        .unwrap();
        let acc = |o: &MilpOutcome| {
            let a = o.plan.planned_accuracy(&env.ctx());
            (a[ModelFamily::EfficientNet], a[ModelFamily::ResNet])
        };
        let (ae, ar) = acc(&agg);
        let (pe, pr) = acc(&per);
        assert!(
            (agg.shrink - per.shrink).abs() <= 0.02 * agg.shrink,
            "shrink factors diverge: {} vs {}",
            agg.shrink,
            per.shrink
        );
        assert!((ae - pe).abs() < 0.02, "EfficientNet: {ae} vs {pe}");
        assert!((ar - pr).abs() < 0.02, "ResNet: {ar} vs {pr}");
        assert!(audit_plan(&env.ctx(), &demand, &per.plan).is_clean());
    }

    #[test]
    fn expansion_prefers_existing_hosts() {
        let env = Env::new(2, 2, 2);
        let demand = demand_single(ModelFamily::EfficientNet, 50.0);
        let first = solve_allocation(&env.ctx(), &demand, None, &MilpConfig::default()).unwrap();
        let second = solve_allocation(
            &env.ctx(),
            &demand,
            Some(&first.plan),
            &MilpConfig::default(),
        )
        .unwrap();
        // Same demand, same optimum → identical assignments (no churn).
        let a: Vec<_> = first.plan.assignments().collect();
        let b: Vec<_> = second.plan.assignments().collect();
        assert_eq!(a, b, "re-solving identical demand must not move models");
    }

    #[test]
    fn zero_demand_family_still_gets_standby_capacity() {
        let env = Env::new(6, 3, 3);
        let demand = demand_single(ModelFamily::EfficientNet, 5.0);
        let out = solve_allocation(&env.ctx(), &demand, None, &MilpConfig::default()).unwrap();
        // The epsilon demand floor forces every family to keep ≥ 1 host when
        // the cluster has room.
        for family in ModelFamily::ALL {
            assert!(
                !out.plan.routing(family).is_empty(),
                "{family} has no standby host"
            );
        }
    }

    #[test]
    fn fairness_objective_lifts_the_worst_family() {
        let env = Env::new(2, 1, 1);
        let mut demand = FamilyMap::default();
        demand[ModelFamily::EfficientNet] = 400.0;
        demand[ModelFamily::MobileNet] = 400.0;
        let plain = solve_allocation(&env.ctx(), &demand, None, &MilpConfig::default()).unwrap();
        let fair = solve_allocation(
            &env.ctx(),
            &demand,
            None,
            &MilpConfig {
                fairness: true,
                ..MilpConfig::default()
            },
        )
        .unwrap();
        let min_of = |o: &MilpOutcome| {
            let a = o.plan.planned_accuracy(&env.ctx());
            a[ModelFamily::EfficientNet].min(a[ModelFamily::MobileNet])
        };
        assert!(
            min_of(&fair) >= min_of(&plain) - 1e-6,
            "fairness must not lower the worst family: {} vs {}",
            min_of(&fair),
            min_of(&plain)
        );
    }

    #[test]
    fn swap_cost_damps_plan_churn() {
        let env = Env::new(5, 3, 3);
        let base = FamilyMap::from_fn(|f| 20.0 + 3.0 * f.index() as f64);
        let first = solve_allocation(&env.ctx(), &base, None, &MilpConfig::default()).unwrap();
        // Perturb demand by ±4 %: with the swap-cost credit, the optimal
        // response is to keep the same placements.
        let perturbed =
            FamilyMap::from_fn(|f| base[f] * if f.index() % 2 == 0 { 1.04 } else { 0.96 });
        let second = solve_allocation(
            &env.ctx(),
            &perturbed,
            Some(&first.plan),
            &MilpConfig::default(),
        )
        .unwrap();
        let a: Vec<_> = first.plan.assignments().collect();
        let b: Vec<_> = second.plan.assignments().collect();
        let moved = a.iter().filter(|x| !b.contains(x)).count();
        assert!(
            moved <= 2,
            "small demand noise must not churn models: {moved} moved of {}",
            a.len()
        );
        // Without the credit, churn is unconstrained (sanity that the knob
        // actually exists and plans stay valid either way).
        let free = solve_allocation(
            &env.ctx(),
            &perturbed,
            Some(&first.plan),
            &MilpConfig {
                swap_cost: None,
                ..MilpConfig::default()
            },
        )
        .unwrap();
        assert!(audit_plan(&env.ctx(), &perturbed, &free.plan).is_clean());
    }

    #[test]
    fn down_devices_receive_no_placement_in_either_formulation() {
        let env = Env::new(2, 2, 2);
        let mut demand = FamilyMap::default();
        demand[ModelFamily::EfficientNet] = 60.0;
        demand[ModelFamily::ResNet] = 30.0;
        let down = [DeviceId(1), DeviceId(3)];
        for formulation in [Formulation::TypeAggregated, Formulation::PerDevice] {
            let config = MilpConfig {
                formulation,
                ..MilpConfig::default()
            };
            let ctx = env.ctx_down(&down);
            let out = solve_allocation(&ctx, &demand, None, &config).unwrap();
            for &d in &down {
                assert_eq!(
                    out.plan.assignment(d),
                    None,
                    "{formulation:?} placed a model on down device {d}"
                );
            }
            for family in ModelFamily::ALL {
                for &(d, _) in out.plan.routing(family) {
                    assert!(
                        !down.contains(&d),
                        "{formulation:?} routes {family} to down device {d}"
                    );
                }
            }
            // Live devices still serve the demand.
            assert!(out.plan.capacity(ModelFamily::EfficientNet) > 0.0);
        }
    }

    #[test]
    fn losing_devices_shrinks_capacity_but_stays_feasible() {
        let env = Env::new(1, 1, 1);
        let demand = demand_single(ModelFamily::EfficientNet, 200.0);
        let full = solve_allocation(&env.ctx(), &demand, None, &MilpConfig::default()).unwrap();
        // Take the V100 (the fastest device) away; the plan must fall back
        // onto the remaining hardware with no worse than equal capacity.
        let down = [DeviceId(2)];
        let ctx = env.ctx_down(&down);
        let degraded = solve_allocation(&ctx, &demand, None, &MilpConfig::default()).unwrap();
        assert_eq!(degraded.plan.assignment(DeviceId(2)), None);
        assert!(
            degraded.plan.capacity(ModelFamily::EfficientNet)
                <= full.plan.capacity(ModelFamily::EfficientNet) + 1e-9,
            "losing a device cannot increase capacity"
        );
        assert!(degraded.plan.capacity(ModelFamily::EfficientNet) > 0.0);
    }

    /// Equal bit for bit, with `-0.0` and `+0.0` treated as equal (adding
    /// `+0.0` maps `-0.0` to `+0.0` and leaves every other value alone).
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x + 0.0).to_bits() == (y + 0.0).to_bits())
    }

    #[test]
    fn zero_replica_rate_pins_leave_the_hint_unchanged() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let env = Env::new(20, 10, 10);
        let all_pairs = candidate_pairs(&env.ctx(), &MilpConfig::default());
        let mut rng = StdRng::seed_from_u64(0x5eed_4e47);
        let below = |rng: &mut StdRng, n: usize| (rng.random::<f64>() * n as f64) as usize;
        let (mut feasible, mut infeasible, mut gave_up, mut pinned) = (0, 0, 0, 0);
        let (mut iters_pinned, mut iters_free) = (0u64, 0u64);
        for case in 0..1000 {
            // Demand: light, moderate, or beyond the cluster's capacity
            // (strict rounds fail there and the soft fallback takes over).
            let scale = [40.0, 400.0, 20_000.0][below(&mut rng, 3)];
            let demand = FamilyMap::from_fn(|_| (rng.random::<f64>() * scale).max(0.25));
            // Down set: each device fails with probability 0.15.
            let down: Vec<DeviceId> = env
                .cluster
                .iter()
                .filter(|_| rng.random::<f64>() < 0.15)
                .map(|d| d.id)
                .collect();
            let ctx = env.ctx_down(&down);
            // Current plan: a random candidate variant of the device's type
            // on most devices; in some cases one device hosts a variant no
            // pair has, and if that device is live the hint must give up.
            let mut cur = AllocationPlan::empty(env.cluster.len());
            for d in env.cluster.iter() {
                let of_type: Vec<&Pair> = all_pairs
                    .iter()
                    .filter(|p| p.device_type == d.device_type)
                    .collect();
                if rng.random::<f64>() < 0.7 {
                    cur.assign(d.id, Some(of_type[below(&mut rng, of_type.len())].variant));
                }
            }
            let mut unpaired = false;
            if rng.random::<f64>() < 0.1 {
                let d = DeviceId(below(&mut rng, env.cluster.len()) as u32);
                let family = ModelFamily::ALL[below(&mut rng, ModelFamily::ALL.len())];
                cur.assign(d, Some(VariantId { family, index: 200 }));
                unpaired = ctx.is_up(d);
            }
            let config = MilpConfig {
                fairness: rng.random::<bool>(),
                swap_cost: rng.random::<bool>().then(SwapCost::default),
                ..MilpConfig::default()
            };
            for mode in [DemandMode::Strict, DemandMode::Soft] {
                let Ok(program) = build_aggregated(&ctx, &demand, Some(&cur), &config, mode) else {
                    continue;
                };
                let Some(bounds) = program.hint_bounds() else {
                    assert!(unpaired, "case {case}: the hint gave up on a paired plan");
                    gave_up += 1;
                    continue;
                };
                assert!(!unpaired, "case {case}: a live replica has no pair");
                // The same bounds with every rate column left free.
                let original = program.lp.all_bounds();
                let mut free = bounds.clone();
                for &z in &program.z_vars {
                    free[z.index()] = original[z.index()];
                }
                pinned += program
                    .hint_counts
                    .iter()
                    .flatten()
                    .filter(|&&c| c == 0)
                    .count();
                let (with_pins, n_pinned) =
                    simplex::solve_with_bounds_counted(&program.lp, &bounds);
                let (without, n_free) = simplex::solve_with_bounds_counted(&program.lp, &free);
                iters_pinned += n_pinned;
                iters_free += n_free;
                match (&with_pins, &without) {
                    (Ok(a), Ok(b)) => {
                        assert!(
                            same_bits(a.values(), b.values()),
                            "case {case} {mode:?}: pinned hint {:?} != unpinned {:?}",
                            a.values(),
                            b.values()
                        );
                        feasible += 1;
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "case {case} {mode:?}");
                        infeasible += 1;
                    }
                    _ => panic!("case {case} {mode:?}: {with_pins:?} vs {without:?}"),
                }
            }
        }
        // The cases reach every branch: feasible and infeasible hints, the
        // give-up rule, and pinned columns that saved pivots.
        assert!(feasible >= 500, "{feasible} feasible hints");
        assert!(infeasible >= 500, "{infeasible} infeasible hints");
        assert!(gave_up >= 100, "{gave_up} hints gave up");
        assert!(pinned > 0);
        assert!(
            iters_pinned < iters_free,
            "pins cost pivots: {iters_pinned} vs {iters_free}"
        );
    }

    #[test]
    fn solves_paper_testbed_scale_quickly() {
        let env = Env::new(20, 10, 10);
        let demand = FamilyMap::from_fn(|_| 60.0);
        let start = std::time::Instant::now();
        let out = solve_allocation(&env.ctx(), &demand, None, &MilpConfig::default()).unwrap();
        assert!(audit_plan(&env.ctx(), &demand, &out.plan).is_clean());
        assert!(
            start.elapsed().as_secs_f64() < 30.0,
            "aggregated MILP should solve the testbed quickly"
        );
    }
}
