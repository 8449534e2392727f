//! Property-based tests across crates: the MILP allocator, the solver and
//! the batching policies under randomized inputs.

use proptest::prelude::*;

use proteus::core::allocation::milp::{solve_allocation, Formulation, MilpConfig};
use proteus::core::batching::{
    BatchContext, BatchDecision, BatchPolicy, NexusBatching, ProteusBatching,
};
use proteus::core::schedulers::AllocContext;
use proteus::core::{FamilyMap, Query, QueryId};
use proteus::profiler::{Cluster, DeviceType, ModelFamily, ModelZoo, ProfileStore, SloPolicy};
use proteus::sim::SimTime;
use proteus::solver::{LinearProgram, MilpSolver, Relation};

fn env() -> (Cluster, ModelZoo, ProfileStore) {
    let zoo = ModelZoo::paper_table3();
    let store = ProfileStore::build(&zoo, SloPolicy::default());
    // At least one device per family so the strict (Eq. 6) formulation is
    // structurally feasible at low demand.
    (Cluster::with_counts(6, 3, 3), zoo, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the demand, the MILP plan is structurally valid and its
    /// capacity covers the (possibly shrunk) demand.
    #[test]
    fn milp_plans_are_valid_and_sufficient(
        d_eff in 0.0f64..600.0,
        d_res in 0.0f64..400.0,
        d_bert in 0.0f64..300.0,
        d_mob in 0.0f64..800.0,
    ) {
        let (cluster, zoo, store) = env();
        let ctx = AllocContext { cluster: &cluster, zoo: &zoo, store: &store, down: &[] };
        let mut demand = FamilyMap::default();
        demand[ModelFamily::EfficientNet] = d_eff;
        demand[ModelFamily::ResNet] = d_res;
        demand[ModelFamily::Bert] = d_bert;
        demand[ModelFamily::MobileNet] = d_mob;
        let out = solve_allocation(&ctx, &demand, None, &MilpConfig::default()).unwrap();
        let report = proteus::core::allocation::audit::audit_plan(&ctx, &demand, &out.plan);
        prop_assert!(report.is_clean(), "{}", report);
        if out.shrink == 1.0 {
            // Strict path: every family's full demand is covered.
            for family in [ModelFamily::EfficientNet, ModelFamily::ResNet,
                           ModelFamily::Bert, ModelFamily::MobileNet] {
                let target = demand[family].max(0.25);
                prop_assert!(
                    out.plan.capacity(family) >= target * 0.99,
                    "{} capacity {} < target {}",
                    family, out.plan.capacity(family), target
                );
            }
        } else {
            // Shrunk/soft path: the shrink factor reports offered/served.
            let offered: f64 = proteus::profiler::ModelFamily::ALL
                .iter()
                .map(|&f| demand[f].max(0.25))
                .sum();
            let planned: f64 = proteus::profiler::ModelFamily::ALL
                .iter()
                .map(|&f| out.plan.capacity(f).min(demand[f].max(0.25)))
                .sum();
            prop_assert!(
                planned * out.shrink >= offered * 0.98,
                "shrink {} inconsistent: offered {offered}, planned {planned}",
                out.shrink
            );
        }
    }

    /// The aggregated and per-device encodings reach the same optimum
    /// (they are exact reformulations of each other).
    #[test]
    fn formulations_agree(
        d_eff in 5.0f64..300.0,
        d_t5 in 0.0f64..40.0,
    ) {
        let (cluster, zoo, store) = env();
        let ctx = AllocContext { cluster: &cluster, zoo: &zoo, store: &store, down: &[] };
        let mut demand = FamilyMap::default();
        demand[ModelFamily::EfficientNet] = d_eff;
        demand[ModelFamily::T5] = d_t5;
        let agg = solve_allocation(&ctx, &demand, None, &MilpConfig::default()).unwrap();
        let per = solve_allocation(&ctx, &demand, None, &MilpConfig {
            formulation: Formulation::PerDevice,
            ..MilpConfig::default()
        }).unwrap();
        prop_assert!(
            (agg.shrink - per.shrink).abs() <= 0.02 * agg.shrink,
            "shrink diverges: {} vs {}", agg.shrink, per.shrink
        );
        // Alternate optima may compose the same objective from different
        // variants per family, so compare the objective itself: accuracy
        // weighted by routed QPS (what served queries actually experience).
        let routed_acc = |plan: &proteus::core::allocation::AllocationPlan| -> f64 {
            proteus::profiler::ModelFamily::ALL
                .iter()
                .flat_map(|&f| plan.routing(f))
                .map(|&(dev, qps)| {
                    let acc = plan
                        .assignment(dev)
                        .and_then(|v| zoo.variant(v))
                        .map_or(0.0, |v| v.accuracy());
                    qps * acc
                })
                .sum()
        };
        let (obj_a, obj_p) = (routed_acc(&agg.plan), routed_acc(&per.plan));
        prop_assert!(
            (obj_a - obj_p).abs() <= 0.01 * obj_a.max(obj_p),
            "served-accuracy optimum diverges: {obj_a} vs {obj_p}"
        );
    }
}

proptest! {
    // The ISSUE acceptance bar: the independent auditor must accept the
    // plans of 100 randomized MILPs and reject each of three mutation
    // classes with the *right* violation kind.
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Genuine solver output always audits clean; tampered plans never do.
    #[test]
    fn auditor_accepts_genuine_plans_and_rejects_mutants(
        d_eff in 10.0f64..150.0,
        d_res in 10.0f64..150.0,
        d_bert in 10.0f64..150.0,
        d_mob in 10.0f64..150.0,
        per_device in any::<bool>(),
    ) {
        use proteus::core::allocation::audit::audit_plan;
        use proteus::profiler::{DeviceType, VariantId};

        let (cluster, zoo, store) = env();
        let ctx = AllocContext { cluster: &cluster, zoo: &zoo, store: &store, down: &[] };
        let mut demand = FamilyMap::default();
        demand[ModelFamily::EfficientNet] = d_eff;
        demand[ModelFamily::ResNet] = d_res;
        demand[ModelFamily::Bert] = d_bert;
        demand[ModelFamily::MobileNet] = d_mob;
        let config = MilpConfig {
            formulation: if per_device {
                Formulation::PerDevice
            } else {
                Formulation::TypeAggregated
            },
            ..MilpConfig::default()
        };
        let out = solve_allocation(&ctx, &demand, None, &config).unwrap();

        // 1. The genuine plan audits clean.
        let report = audit_plan(&ctx, &demand, &out.plan);
        prop_assert!(report.is_clean(), "genuine plan rejected: {report}");

        // The family carrying the most demand is routed in every plan, so
        // it is the one whose tampering is guaranteed to be observable.
        let victim = [ModelFamily::EfficientNet, ModelFamily::ResNet,
                      ModelFamily::Bert, ModelFamily::MobileNet]
            .into_iter()
            .max_by(|&a, &b| demand[a].total_cmp(&demand[b]))
            .unwrap();
        let routed_dev = out.plan.routing(victim).first().map(|&(dev, _)| dev);
        prop_assert!(routed_dev.is_some(), "{victim} has demand but no routing");
        let routed_dev = routed_dev.unwrap();

        // 2. Mutation: flip a routed device to another family's variant.
        let mut mutant = out.plan.clone();
        let foreign = if victim == ModelFamily::MobileNet {
            ModelFamily::EfficientNet
        } else {
            ModelFamily::MobileNet
        };
        mutant.assign(routed_dev, Some(VariantId { family: foreign, index: 0 }));
        let report = audit_plan(&ctx, &demand, &mutant);
        prop_assert!(
            report.violations.iter().any(|v| v.kind() == "assignment-mismatch"),
            "perturbed assignment not caught: {report}"
        );

        // 3. Mutation: place a model that cannot fit the device's memory.
        let mut mutant = out.plan.clone();
        let gtx = cluster
            .iter()
            .find(|s| s.device_type == DeviceType::Gtx1080Ti)
            .unwrap()
            .id;
        mutant.assign(gtx, Some(VariantId { family: ModelFamily::Gpt2, index: 3 }));
        let report = audit_plan(&ctx, &demand, &mutant);
        prop_assert!(
            report.violations.iter().any(|v| v.kind() == "memory-overflow"),
            "memory overflow not caught: {report}"
        );

        // 4. Mutation: silently stop routing the highest-demand family.
        let mut mutant = out.plan.clone();
        mutant.set_routing(victim, Vec::new());
        let report = audit_plan(&ctx, &demand, &mutant);
        prop_assert!(
            report.violations.iter().any(|v| v.kind() == "coverage-shortfall"),
            "dropped coverage not caught: {report}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random knapsack instances: the MILP optimum is feasible and no worse
    /// than a greedy incumbent, and the LP relaxation bounds it.
    #[test]
    fn knapsack_optimum_bounds(
        values in prop::collection::vec(1.0f64..20.0, 4..10),
        weights in prop::collection::vec(1.0f64..15.0, 4..10),
        cap_frac in 0.2f64..0.9,
    ) {
        let n = values.len().min(weights.len());
        let total_weight: f64 = weights[..n].iter().sum();
        let cap = total_weight * cap_frac;
        let mut lp = LinearProgram::maximize();
        let vars: Vec<_> = (0..n)
            .map(|i| lp.add_binary(format!("b{i}"), values[i]))
            .collect();
        lp.add_constraint(
            vars.iter().zip(&weights[..n]).map(|(&v, &w)| (v, w)),
            Relation::Le,
            cap,
        );
        let milp = MilpSolver::default().solve(&lp).unwrap();
        prop_assert!(lp.is_feasible(milp.values(), 1e-6));
        // LP relaxation upper-bounds the integer optimum.
        let lp_relax = proteus::solver::simplex::solve(&lp).unwrap();
        prop_assert!(lp_relax.objective() >= milp.objective() - 1e-6);
        // Greedy-by-density is a valid lower bound.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| (values[b] / weights[b]).total_cmp(&(values[a] / weights[a])));
        let mut used = 0.0;
        let mut greedy = 0.0;
        for i in order {
            if used + weights[i] <= cap {
                used += weights[i];
                greedy += values[i];
            }
        }
        prop_assert!(milp.objective() >= greedy - 1e-6);
    }

    /// Proactive policies never emit a batch that misses the first query's
    /// deadline, for arbitrary queue shapes.
    #[test]
    fn proactive_batches_meet_first_deadline(
        n in 1usize..40,
        gap_ms in 0.0f64..10.0,
        age_frac in 0.0f64..1.2,
    ) {
        let zoo = ModelZoo::paper_table3();
        let store = ProfileStore::build(&zoo, SloPolicy::default());
        let variant = zoo.least_accurate(ModelFamily::EfficientNet).unwrap().id();
        let profile = store.profile(variant, DeviceType::V100).unwrap();
        let slo = SimTime::from_millis_f64(store.slo_ms(ModelFamily::EfficientNet));
        let queue: Vec<Query> = (0..n)
            .map(|i| Query::new(
                QueryId(i as u64),
                ModelFamily::EfficientNet,
                SimTime::from_millis_f64(gap_ms * i as f64),
                slo,
            ))
            .collect();
        let now = SimTime::from_millis_f64(slo.as_millis_f64() * age_frac);
        let ctx = BatchContext { now, queue: &queue, profile, lat_table: &[] };
        for mut policy in [
            Box::new(ProteusBatching) as Box<dyn BatchPolicy>,
            Box::new(NexusBatching),
        ] {
            match policy.decide(&ctx) {
                BatchDecision::Execute(k) => {
                    prop_assert!(k >= 1 && k as usize <= queue.len());
                    let finish = now + SimTime::from_millis_f64(profile.latency(k));
                    prop_assert!(
                        finish <= queue[0].deadline,
                        "{}: batch {k} finishes late", policy.name()
                    );
                }
                BatchDecision::WaitUntil(t) => {
                    prop_assert!(t > now, "{}: wait must be in the future", policy.name());
                    // Waiting must still leave room to serve the first query.
                    prop_assert!(
                        t + SimTime::from_millis_f64(profile.latency(1)) <= queue[0].deadline
                            || t <= queue[0].deadline,
                        "{}: wait horizon {t} too late", policy.name()
                    );
                }
                BatchDecision::DropExpired(d) => {
                    prop_assert!(d >= 1 && d <= queue.len());
                    // Every dropped query is genuinely unservable now.
                    let l1 = SimTime::from_millis_f64(profile.latency(1));
                    for q in &queue[..d] {
                        prop_assert!(q.deadline < now + l1);
                    }
                }
                BatchDecision::Idle => prop_assert!(queue.is_empty()),
            }
        }
    }
}
