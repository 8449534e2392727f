//! The profile store: O(1) lookup of performance profiles.

use std::collections::HashMap;

use crate::{DeviceType, LatencyModel, ModelFamily, ModelZoo, VariantId, VariantSpec};

/// Hard cap on batch size, matching common serving-system limits.
pub const MAX_BATCH: u32 = 32;

/// Typed failure of profile-store construction or lookup.
///
/// Hand-rolled `thiserror`-style enum: the store is built from static
/// model-zoo tables, so these only fire on malformed custom zoos — but
/// library code must surface them as values, not panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// A family has no variant whose batch-1 memory fits a CPU, so no SLO
    /// can be derived for it (the policy anchors SLOs to CPU latency).
    NoCpuFeasibleVariant {
        /// The family missing a CPU-feasible variant.
        family: ModelFamily,
    },
    /// A family was requested that the profiled zoo does not contain.
    UnknownFamily {
        /// The unprofiled family.
        family: ModelFamily,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::NoCpuFeasibleVariant { family } => write!(
                f,
                "family {family} has no CPU-feasible variant to anchor its SLO"
            ),
            ProfileError::UnknownFamily { family } => {
                write!(f, "family {family} is not present in the profiled zoo")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

/// How latency SLOs are assigned to families (§6.1.2, §6.6).
///
/// The paper sets each family's SLO to a multiple of the batch-1 CPU latency
/// of the family's fastest variant; the default multiple is 2× and Fig. 8
/// sweeps it from 1× to 3.5×.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Multiplier applied to the fastest variant's profiled CPU latency.
    pub multiplier: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self { multiplier: 2.0 }
    }
}

impl SloPolicy {
    /// Creates a policy with the given multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is not strictly positive.
    pub fn with_multiplier(multiplier: f64) -> Self {
        assert!(multiplier > 0.0, "SLO multiplier must be positive");
        Self { multiplier }
    }
}

/// The performance profile of one `(variant, device type)` pair.
///
/// Precomputed once by [`ProfileStore::build`]; every scheduler and batching
/// policy reads these numbers instead of touching hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    variant: VariantId,
    device: DeviceType,
    accuracy: f64,
    /// Affine latency parameters: `l(b) = intercept + slope · b` (ms).
    intercept_ms: f64,
    slope_ms: f64,
    /// Largest batch that meets `l(b) ≤ SLO/2` and fits in device memory;
    /// `0` means the variant is infeasible on this device type.
    max_batch: u32,
    /// Peak serving throughput `max_batch / l(max_batch)` in queries/s
    /// (`P(d,m,q)` of the paper); `0.0` if infeasible.
    peak_qps: f64,
}

impl Profile {
    /// The profiled variant.
    pub fn variant(&self) -> VariantId {
        self.variant
    }

    /// The profiled device type.
    pub fn device(&self) -> DeviceType {
        self.device
    }

    /// Normalized accuracy of the variant (copied for O(1) access).
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Batch execution latency in milliseconds.
    ///
    /// Valid for any `batch ≥ 1`, even beyond [`Profile::max_batch`] —
    /// batching policies need to evaluate candidate batch sizes before
    /// rejecting them.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn latency(&self, batch: u32) -> f64 {
        assert!(batch > 0, "batch size must be at least 1");
        self.intercept_ms + self.slope_ms * batch as f64
    }

    /// Batch execution latency for a batch whose items sum to `total_cost`
    /// nominal input units (§7 "Varying Input Sizes": a query with a 2×
    /// longer input costs 2× the marginal work). `latency(b)` is the
    /// special case `total_cost = b` of uniform unit-cost items.
    ///
    /// # Panics
    ///
    /// Panics if `total_cost` is not strictly positive.
    pub fn latency_for_cost(&self, total_cost: f64) -> f64 {
        assert!(
            total_cost > 0.0 && total_cost.is_finite(),
            "batch cost must be positive and finite, got {total_cost}"
        );
        self.intercept_ms + self.slope_ms * total_cost
    }

    /// Largest SLO- and memory-feasible batch size (`0` if infeasible).
    pub fn max_batch(&self) -> u32 {
        self.max_batch
    }

    /// Whether the variant can serve at all on this device within its SLO.
    pub fn is_feasible(&self) -> bool {
        self.max_batch > 0
    }

    /// Peak throughput capacity in queries per second (`P(d,m,q)`).
    pub fn peak_qps(&self) -> f64 {
        self.peak_qps
    }
}

/// O(1) profile lookup keyed by `(variant, device type)`, plus per-family
/// SLOs — the paper's in-memory profiling store (§3, "Model Profiler").
///
/// # Examples
///
/// ```
/// use proteus_profiler::{DeviceType, ModelFamily, ModelZoo, ProfileStore, SloPolicy};
///
/// let zoo = ModelZoo::paper_table3();
/// let store = ProfileStore::build(&zoo, SloPolicy::default());
/// let slo = store.slo_ms(ModelFamily::MobileNet);
/// assert!(slo > 0.0);
/// // The least accurate variant always has the highest peak throughput on a
/// // given device.
/// let mut peaks = zoo
///     .variants_of(ModelFamily::EfficientNet)
///     .map(|v| store.profile(v.id(), DeviceType::V100).unwrap().peak_qps());
/// let first = peaks.next().unwrap();
/// assert!(peaks.all(|p| p <= first));
/// ```
#[derive(Debug, Clone)]
pub struct ProfileStore {
    profiles: HashMap<(VariantId, DeviceType), Profile>,
    slos_ms: HashMap<ModelFamily, f64>,
    policy: SloPolicy,
}

impl ProfileStore {
    /// Profiles every variant of `zoo` on every device type with the
    /// [`LatencyModel`].
    ///
    /// # Panics
    ///
    /// Panics if the zoo is malformed (see [`ProfileStore::try_build`],
    /// which reports the same condition as a [`ProfileError`]).
    pub fn build(zoo: &ModelZoo, policy: SloPolicy) -> Self {
        match Self::try_build(zoo, policy) {
            Ok(store) => store,
            Err(e) => panic!("cannot build profile store: {e}"),
        }
    }

    /// Fallible counterpart of [`ProfileStore::build`]: returns
    /// [`ProfileError::NoCpuFeasibleVariant`] instead of panicking when a
    /// family's SLO cannot be anchored.
    pub fn try_build(zoo: &ModelZoo, policy: SloPolicy) -> Result<Self, ProfileError> {
        let latency_model = LatencyModel;
        let mut slos_ms = HashMap::new();
        for family in zoo.families() {
            // SLO = multiplier × batch-1 CPU latency of the family's fastest
            // CPU-feasible (memory-wise) variant.
            let fastest_cpu_ms = zoo
                .variants_of(family)
                .filter(|v| v.memory_at_batch(1) <= DeviceType::Cpu.memory_mib())
                .map(|v| latency_model.latency_ms(v, DeviceType::Cpu, 1))
                .min_by(f64::total_cmp)
                .ok_or(ProfileError::NoCpuFeasibleVariant { family })?;
            slos_ms.insert(family, policy.multiplier * fastest_cpu_ms);
        }

        let mut profiles = HashMap::new();
        for variant in zoo.iter() {
            let family = variant.family();
            let slo_ms = *slos_ms
                .get(&family)
                .ok_or(ProfileError::UnknownFamily { family })?;
            for device in DeviceType::ALL {
                profiles.insert(
                    (variant.id(), device),
                    Self::profile_pair(variant, device, slo_ms, &latency_model),
                );
            }
        }
        Ok(Self {
            profiles,
            slos_ms,
            policy,
        })
    }

    fn profile_pair(
        variant: &VariantSpec,
        device: DeviceType,
        slo_ms: f64,
        model: &LatencyModel,
    ) -> Profile {
        // Affine parameters recovered from two latency samples.
        let l1 = model.latency_ms(variant, device, 1);
        let l2 = model.latency_ms(variant, device, 2);
        let slope = l2 - l1;
        let intercept = l1 - slope;

        // Nexus rule (§4): the batch latency may use at most half the SLO,
        // because a query arriving just after a batch starts waits for two
        // batch executions in the worst case.
        let budget_ms = slo_ms / 2.0;
        let mut max_batch = 0;
        for b in 1..=MAX_BATCH {
            let fits_slo = intercept + slope * b as f64 <= budget_ms;
            let fits_mem = variant.memory_at_batch(b) <= device.memory_mib();
            if fits_slo && fits_mem {
                max_batch = b;
            } else {
                break;
            }
        }
        let peak_qps = if max_batch > 0 {
            let l = intercept + slope * max_batch as f64;
            max_batch as f64 / (l / 1e3)
        } else {
            0.0
        };
        Profile {
            variant: variant.id(),
            device,
            accuracy: variant.accuracy(),
            intercept_ms: intercept,
            slope_ms: slope,
            max_batch,
            peak_qps,
        }
    }

    /// Looks up the profile of a `(variant, device type)` pair.
    pub fn profile(&self, variant: VariantId, device: DeviceType) -> Option<&Profile> {
        self.profiles.get(&(variant, device))
    }

    /// The latency SLO of a family, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the family was not present in the profiled zoo (see
    /// [`ProfileStore::try_slo_ms`]).
    pub fn slo_ms(&self, family: ModelFamily) -> f64 {
        match self.try_slo_ms(family) {
            Ok(slo) => slo,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`ProfileStore::slo_ms`].
    pub fn try_slo_ms(&self, family: ModelFamily) -> Result<f64, ProfileError> {
        self.slos_ms
            .get(&family)
            .copied()
            .ok_or(ProfileError::UnknownFamily { family })
    }

    /// The SLO policy the store was built with.
    pub fn policy(&self) -> SloPolicy {
        self.policy
    }

    /// Iterates over all profiles.
    pub fn iter(&self) -> impl Iterator<Item = &Profile> + '_ {
        self.profiles.values()
    }

    /// Peak throughput `P(d,m,q)` in QPS, `0.0` if infeasible/unknown.
    pub fn peak_qps(&self, variant: VariantId, device: DeviceType) -> f64 {
        self.profile(variant, device).map_or(0.0, Profile::peak_qps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ProfileStore {
        ProfileStore::build(&ModelZoo::paper_table3(), SloPolicy::default())
    }

    #[test]
    fn every_pair_is_profiled() {
        let zoo = ModelZoo::paper_table3();
        let store = store();
        for v in zoo.iter() {
            for d in DeviceType::ALL {
                assert!(store.profile(v.id(), d).is_some(), "{} on {d}", v.name());
            }
        }
        assert_eq!(store.iter().count(), 51 * 3);
    }

    #[test]
    fn latency_matches_model() {
        let zoo = ModelZoo::paper_table3();
        let store = store();
        let model = LatencyModel::default();
        for v in zoo.iter() {
            for d in DeviceType::ALL {
                let p = store.profile(v.id(), d).unwrap();
                for b in [1, 2, 7, 32] {
                    let expected = model.latency_ms(v, d, b);
                    assert!(
                        (p.latency(b) - expected).abs() < 1e-9,
                        "{} on {d} at batch {b}",
                        v.name()
                    );
                }
            }
        }
    }

    #[test]
    fn max_batch_respects_slo_half_rule() {
        let zoo = ModelZoo::paper_table3();
        let store = store();
        for v in zoo.iter() {
            let slo = store.slo_ms(v.family());
            for d in DeviceType::ALL {
                let p = store.profile(v.id(), d).unwrap();
                if p.is_feasible() {
                    assert!(p.latency(p.max_batch()) <= slo / 2.0 + 1e-9);
                    if p.max_batch() < MAX_BATCH {
                        let next = p.max_batch() + 1;
                        let slo_ok = p.latency(next) <= slo / 2.0;
                        let mem_ok =
                            zoo.variant(v.id()).unwrap().memory_at_batch(next) <= d.memory_mib();
                        assert!(
                            !(slo_ok && mem_ok),
                            "max_batch not maximal for {}",
                            v.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fastest_variant_is_cpu_feasible_at_default_slo() {
        // By construction SLO = 2 × (CPU batch-1 latency of the fastest
        // variant), so that variant must fit within SLO/2 at batch 1.
        let zoo = ModelZoo::paper_table3();
        let store = store();
        for family in ModelFamily::ALL {
            let fastest = zoo.fastest(family).unwrap();
            let p = store.profile(fastest.id(), DeviceType::Cpu).unwrap();
            assert!(
                p.is_feasible(),
                "{family} fastest variant infeasible on CPU"
            );
        }
    }

    #[test]
    fn most_accurate_variants_are_infeasible_on_cpu() {
        // The accuracy-throughput tension of the paper: high-accuracy
        // variants are much slower than the fastest variant, so the 2× SLO
        // leaves no room for them on CPUs.
        let zoo = ModelZoo::paper_table3();
        let store = store();
        for family in ModelFamily::ALL {
            let best = zoo.most_accurate(family).unwrap();
            let p = store.profile(best.id(), DeviceType::Cpu).unwrap();
            assert!(
                !p.is_feasible(),
                "{family} most accurate variant unexpectedly feasible on CPU"
            );
        }
    }

    #[test]
    fn peak_throughput_decreases_with_accuracy_on_v100() {
        let zoo = ModelZoo::paper_table3();
        let store = store();
        for family in [
            ModelFamily::EfficientNet,
            ModelFamily::ResNet,
            ModelFamily::T5,
        ] {
            let peaks: Vec<f64> = zoo
                .variants_of(family)
                .map(|v| store.peak_qps(v.id(), DeviceType::V100))
                .collect();
            for w in peaks.windows(2) {
                assert!(
                    w[0] >= w[1],
                    "{family} peak throughput should not increase with accuracy: {peaks:?}"
                );
            }
            assert!(peaks[0] > 0.0);
        }
    }

    #[test]
    fn higher_slo_multiplier_never_reduces_capacity() {
        let zoo = ModelZoo::paper_table3();
        let tight = ProfileStore::build(&zoo, SloPolicy::with_multiplier(1.0));
        let loose = ProfileStore::build(&zoo, SloPolicy::with_multiplier(3.5));
        for v in zoo.iter() {
            for d in DeviceType::ALL {
                let pt = tight.profile(v.id(), d).unwrap();
                let pl = loose.profile(v.id(), d).unwrap();
                assert!(pl.max_batch() >= pt.max_batch());
                assert!(pl.peak_qps() >= pt.peak_qps() - 1e-9);
            }
        }
    }

    #[test]
    fn gpt2_xl_feasible_only_on_v100() {
        let zoo = ModelZoo::paper_table3();
        let store = store();
        let xl = zoo.most_accurate(ModelFamily::Gpt2).unwrap().id();
        assert!(store.profile(xl, DeviceType::V100).unwrap().is_feasible());
        assert!(!store
            .profile(xl, DeviceType::Gtx1080Ti)
            .unwrap()
            .is_feasible());
        assert!(!store.profile(xl, DeviceType::Cpu).unwrap().is_feasible());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_multiplier_rejected() {
        SloPolicy::with_multiplier(0.0);
    }

    #[test]
    fn try_build_reports_cpu_infeasible_family_as_typed_error() {
        // One family whose only variant needs more memory than a CPU has:
        // no SLO anchor exists, so construction must fail with the typed
        // error instead of panicking.
        let mut zoo = ModelZoo::new();
        zoo.register(VariantSpec::new(
            VariantId {
                family: ModelFamily::Gpt2,
                index: 0,
            },
            "gpt2-test-oversized",
            0.9,
            50.0,
            DeviceType::Cpu.memory_mib() + 1.0,
            0.0,
        ));
        let err = ProfileStore::try_build(&zoo, SloPolicy::default()).unwrap_err();
        assert_eq!(
            err,
            ProfileError::NoCpuFeasibleVariant {
                family: ModelFamily::Gpt2
            }
        );
        assert!(err.to_string().contains("GPT-2"));
    }

    #[test]
    #[should_panic(expected = "no CPU-feasible variant")]
    fn build_panics_with_typed_error_message() {
        let mut zoo = ModelZoo::new();
        zoo.register(VariantSpec::new(
            VariantId {
                family: ModelFamily::Bert,
                index: 0,
            },
            "bert-test-oversized",
            0.9,
            50.0,
            DeviceType::Cpu.memory_mib() + 1.0,
            0.0,
        ));
        ProfileStore::build(&zoo, SloPolicy::default());
    }

    #[test]
    fn try_slo_ms_reports_unknown_family() {
        let mut zoo = ModelZoo::new();
        zoo.register(VariantSpec::new(
            VariantId {
                family: ModelFamily::ResNet,
                index: 0,
            },
            "resnet-test",
            0.8,
            20.0,
            100.0,
            1.0,
        ));
        let store = ProfileStore::try_build(&zoo, SloPolicy::default()).unwrap();
        assert!(store.try_slo_ms(ModelFamily::ResNet).is_ok());
        assert_eq!(
            store.try_slo_ms(ModelFamily::T5),
            Err(ProfileError::UnknownFamily {
                family: ModelFamily::T5
            })
        );
    }
}
