//! Macro-scale demand traces (Twitter-like diurnal and synthetic bursty).

use proteus_profiler::ModelFamily;
use proteus_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist::{self, Zipf};

/// A per-second aggregate demand curve in queries per second.
///
/// Implementors describe *macro-scale* demand; [`TraceBuilder`] turns a
/// curve into individual query arrivals with Poisson micro-structure and a
/// Zipf split across model families, exactly as §6.1.3 constructs the
/// evaluation workload.
pub trait DemandTrace {
    /// Total demand during second `second` (i.e. `[second, second + 1)`).
    fn qps_at(&self, second: u32) -> f64;

    /// Trace length in whole seconds.
    fn duration_secs(&self) -> u32;

    /// The largest per-second demand over the whole trace.
    fn peak_qps(&self) -> f64 {
        (0..self.duration_secs())
            .map(|s| self.qps_at(s))
            .fold(0.0, f64::max)
    }
}

/// Constant demand — used by the batching experiments (Fig. 6), where the
/// load is fixed and only the inter-arrival distribution varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatTrace {
    /// Constant demand in QPS.
    pub qps: f64,
    /// Trace length in seconds.
    pub secs: u32,
}

impl DemandTrace for FlatTrace {
    fn qps_at(&self, _second: u32) -> f64 {
        self.qps
    }

    fn duration_secs(&self) -> u32 {
        self.secs
    }
}

/// A Twitter-like diurnal demand curve: a baseline, two smooth daily peaks
/// (compressed by the paper's constant speed-up factor into a ~24 minute
/// window), multiplicative noise, and occasional spikes.
///
/// # Examples
///
/// ```
/// use proteus_workloads::{DemandTrace, DiurnalTrace};
///
/// let trace = DiurnalTrace::paper_like(24 * 60, 200.0, 1000.0, 7);
/// assert!(trace.peak_qps() <= 1000.0 * 1.25);
/// assert!(trace.qps_at(0) < trace.peak_qps());
/// ```
#[derive(Debug, Clone)]
pub struct DiurnalTrace {
    per_second: Vec<f64>,
}

impl DiurnalTrace {
    /// Builds a diurnal trace.
    ///
    /// * `secs` — duration;
    /// * `base_qps` — off-peak demand;
    /// * `peak_qps` — demand at the top of each diurnal peak (before noise);
    /// * `cycles` — number of diurnal peaks within the trace;
    /// * `noise_frac` — multiplicative Gaussian noise (σ as a fraction);
    /// * `spike_prob`/`spike_gain` — per-second probability and amplitude of
    ///   short demand spikes;
    /// * `seed` — RNG seed (the curve is deterministic given it).
    ///
    /// # Panics
    ///
    /// Panics if `peak_qps < base_qps`, any rate is negative, or
    /// `secs == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        secs: u32,
        base_qps: f64,
        peak_qps: f64,
        cycles: u32,
        noise_frac: f64,
        spike_prob: f64,
        spike_gain: f64,
        seed: u64,
    ) -> Self {
        assert!(secs > 0, "trace must be at least one second long");
        assert!(
            base_qps >= 0.0 && peak_qps >= base_qps,
            "need 0 <= base ({base_qps}) <= peak ({peak_qps})"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let amp = peak_qps - base_qps;
        let mut per_second = Vec::with_capacity(secs as usize);
        let mut spike_left = 0u32;
        for s in 0..secs {
            let phase = s as f64 / secs as f64 * cycles as f64 * std::f64::consts::TAU;
            // Raised-cosine bump squared: smooth peaks, wide troughs.
            let diurnal = (0.5 - 0.5 * phase.cos()).powi(2);
            let mut qps = base_qps + amp * diurnal;
            if spike_left > 0 {
                spike_left -= 1;
                qps *= spike_gain;
            } else if rng.random::<f64>() < spike_prob {
                spike_left = 5 + (rng.random::<f64>() * 10.0) as u32;
            }
            qps *= (1.0 + noise_frac * dist::standard_normal(&mut rng)).max(0.1);
            per_second.push(qps.max(0.0));
        }
        Self { per_second }
    }

    /// The configuration used throughout the paper-shaped experiments:
    /// two diurnal peaks, 8 % noise, rare 1.25× spikes.
    pub fn paper_like(secs: u32, base_qps: f64, peak_qps: f64, seed: u64) -> Self {
        Self::new(secs, base_qps, peak_qps, 2, 0.04, 0.003, 1.25, seed)
    }
}

impl DemandTrace for DiurnalTrace {
    fn qps_at(&self, second: u32) -> f64 {
        self.per_second.get(second as usize).copied().unwrap_or(0.0)
    }

    fn duration_secs(&self) -> u32 {
        self.per_second.len() as u32
    }
}

/// Macro-scale burst trace (Fig. 5): flat low demand interrupted by a high
/// plateau.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyTrace {
    /// Demand outside the burst, QPS.
    pub low_qps: f64,
    /// Demand during the burst, QPS.
    pub high_qps: f64,
    /// Second at which the burst starts.
    pub burst_start: u32,
    /// Second at which the burst ends (exclusive).
    pub burst_end: u32,
    /// Total duration, seconds.
    pub secs: u32,
}

impl BurstyTrace {
    /// The Fig. 5-shaped default: 24 minutes, a burst in the middle third.
    pub fn paper_like(low_qps: f64, high_qps: f64) -> Self {
        let secs = 24 * 60;
        Self {
            low_qps,
            high_qps,
            burst_start: secs / 3,
            burst_end: 2 * secs / 3,
            secs,
        }
    }
}

impl DemandTrace for BurstyTrace {
    fn qps_at(&self, second: u32) -> f64 {
        if (self.burst_start..self.burst_end).contains(&second) {
            self.high_qps
        } else {
            self.low_qps
        }
    }

    fn duration_secs(&self) -> u32 {
        self.secs
    }
}

/// One query arrival: a timestamp, the family (application) it belongs to,
/// and its input cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryArrival {
    /// Arrival timestamp.
    pub at: SimTime,
    /// The query type (one registered application per family, §6.1.2).
    pub family: ModelFamily,
    /// Input cost in nominal units (1.0 = fixed-size input; §7 "Varying
    /// Input Sizes" extension samples variable costs for NLP families).
    pub cost: f64,
}

impl QueryArrival {
    /// A nominal unit-cost arrival.
    pub fn new(at: SimTime, family: ModelFamily) -> Self {
        Self {
            at,
            family,
            cost: 1.0,
        }
    }
}

/// Expands a [`DemandTrace`] into individual [`QueryArrival`]s.
///
/// Demand in each second is split across families by Zipf rank (the order of
/// the `families` slice defines the ranks), each family's per-second count is
/// drawn from a Poisson distribution, and arrivals are placed uniformly at
/// random within the second — the standard construction of a Poisson process
/// conditioned on its count, and exactly how §6.1.3 fills in sub-second
/// arrival times.
///
/// # Examples
///
/// ```
/// use proteus_profiler::ModelFamily;
/// use proteus_workloads::{FlatTrace, TraceBuilder};
///
/// let builder = TraceBuilder::new(vec![ModelFamily::ResNet, ModelFamily::Bert]);
/// let arrivals = builder.build(&FlatTrace { qps: 100.0, secs: 10 });
/// assert!((arrivals.len() as f64 - 1000.0).abs() < 200.0);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    families: Vec<ModelFamily>,
    zipf: Zipf,
    seed: u64,
    /// §7 extension: Gamma shape for NLP input costs (`None` = all inputs
    /// nominal). Costs are drawn from `Gamma(shape, 1/shape)` (mean 1), so
    /// smaller shapes mean wider input-size spread.
    input_cost_shape: Option<f64>,
}

impl TraceBuilder {
    /// Creates a builder with the paper's Zipf α = 1.001 and seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `families` is empty.
    pub fn new(families: Vec<ModelFamily>) -> Self {
        assert!(!families.is_empty(), "need at least one family");
        let zipf = Zipf::new(families.len(), 1.001);
        Self {
            families,
            zipf,
            seed: 0,
            input_cost_shape: None,
        }
    }

    /// The canonical popularity ranking used by the experiments: fast
    /// families are popular, heavyweight NLP models are rare (GPT-2 least,
    /// matching §6.7's observations).
    pub fn paper_families() -> Vec<ModelFamily> {
        vec![
            ModelFamily::EfficientNet,
            ModelFamily::ResNet,
            ModelFamily::Bert,
            ModelFamily::MobileNet,
            ModelFamily::DenseNet,
            ModelFamily::YoloV5,
            ModelFamily::ResNest,
            ModelFamily::T5,
            ModelFamily::Gpt2,
        ]
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables variable input sizes for transformer families (§7): costs
    /// drawn from `Gamma(shape, 1/shape)` (mean 1). Vision queries stay at
    /// cost 1.0 (fixed-size images).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not strictly positive.
    pub fn variable_input_sizes(mut self, shape: f64) -> Self {
        assert!(shape > 0.0, "input-cost shape must be positive");
        self.input_cost_shape = Some(shape);
        self
    }

    /// The families in rank order.
    pub fn families(&self) -> &[ModelFamily] {
        &self.families
    }

    /// The long-run fraction of queries belonging to `family`, or 0 if the
    /// family is not part of this workload.
    pub fn family_share(&self, family: ModelFamily) -> f64 {
        self.families
            .iter()
            .position(|&f| f == family)
            .map_or(0.0, |i| self.zipf.mass(i + 1))
    }

    /// Generates the full arrival stream, sorted by time; arrivals with
    /// equal timestamps keep their generation order.
    pub fn build(&self, trace: &dyn DemandTrace) -> Vec<QueryArrival> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut arrivals = Vec::new();
        let (mut keys, mut gathered) = (Vec::new(), Vec::new());
        for second in 0..trace.duration_secs() {
            let first = arrivals.len();
            let total = trace.qps_at(second);
            for (i, &family) in self.families.iter().enumerate() {
                let lambda = total * self.zipf.mass(i + 1);
                let count = dist::poisson_count(&mut rng, lambda);
                for _ in 0..count {
                    let offset: f64 = rng.random();
                    let cost = match self.input_cost_shape {
                        Some(shape) if family.is_transformer() => {
                            // Clamp to keep one query's cost below the
                            // profile-level batch budget.
                            dist::gamma(&mut rng, shape, 1.0 / shape).clamp(0.1, 8.0)
                        }
                        _ => 1.0,
                    };
                    arrivals.push(QueryArrival {
                        at: SimTime::from_secs_f64(second as f64 + offset),
                        family,
                        cost,
                    });
                }
            }
            order_second(
                &mut arrivals[first..],
                SimTime::from_secs(u64::from(second)),
                &mut keys,
                &mut gathered,
            );
        }
        arrivals
    }
}

/// Orders one second's arrivals by time, ties in generation order: the
/// order a stable sort by `at` gives.
///
/// Every arrival of the second starting at `start` lies in
/// `[start, start + 1 s]` (`SimTime::from_secs_f64` is monotone and
/// `start` is exact), so its offset fits in the upper 32 bits of a `u64`
/// key and its index within the second in the lower 32. Seconds never
/// interleave: a later second's arrivals are all at or after this one's,
/// and ties across the boundary already sit in generation order.
/// `keys` and `gathered` are reused buffers.
fn order_second(
    arrivals: &mut [QueryArrival],
    start: SimTime,
    keys: &mut Vec<u64>,
    gathered: &mut Vec<QueryArrival>,
) {
    keys.clear();
    keys.extend(arrivals.iter().enumerate().map(|(i, a)| {
        let offset = (a.at - start).as_nanos();
        debug_assert!(offset <= 1_000_000_000 && i <= u32::MAX as usize);
        offset << 32 | i as u64
    }));
    keys.sort_unstable();
    gathered.clear();
    gathered.extend(keys.iter().map(|&k| arrivals[(k & 0xffff_ffff) as usize]));
    arrivals.copy_from_slice(gathered);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_trace_is_flat() {
        let t = FlatTrace {
            qps: 50.0,
            secs: 30,
        };
        assert_eq!(t.duration_secs(), 30);
        assert_eq!(t.qps_at(0), 50.0);
        assert_eq!(t.qps_at(29), 50.0);
        assert_eq!(t.peak_qps(), 50.0);
    }

    #[test]
    fn diurnal_trace_has_peaks_and_troughs() {
        let t = DiurnalTrace::new(1440, 200.0, 1000.0, 2, 0.0, 0.0, 1.0, 1);
        // Troughs at the ends, peaks at 1/4 and 3/4 of the duration.
        assert!(t.qps_at(0) < 250.0);
        assert!(t.qps_at(360) > 900.0);
        assert!(t.qps_at(720) < 250.0);
        assert!(t.qps_at(1080) > 900.0);
        assert!(t.qps_at(1439) < 250.0);
    }

    #[test]
    fn diurnal_out_of_range_is_zero() {
        let t = DiurnalTrace::paper_like(60, 100.0, 200.0, 0);
        assert_eq!(t.qps_at(61), 0.0);
    }

    #[test]
    fn diurnal_is_deterministic() {
        let a = DiurnalTrace::paper_like(600, 200.0, 1000.0, 42);
        let b = DiurnalTrace::paper_like(600, 200.0, 1000.0, 42);
        for s in 0..600 {
            assert_eq!(a.qps_at(s), b.qps_at(s));
        }
    }

    #[test]
    fn bursty_trace_plateau() {
        let t = BurstyTrace::paper_like(150.0, 900.0);
        assert_eq!(t.qps_at(0), 150.0);
        assert_eq!(t.qps_at(t.burst_start), 900.0);
        assert_eq!(t.qps_at(t.burst_end - 1), 900.0);
        assert_eq!(t.qps_at(t.burst_end), 150.0);
        assert_eq!(t.peak_qps(), 900.0);
    }

    #[test]
    fn builder_hits_aggregate_rate() {
        let builder = TraceBuilder::new(TraceBuilder::paper_families()).seed(3);
        let trace = FlatTrace {
            qps: 500.0,
            secs: 60,
        };
        let arrivals = builder.build(&trace);
        let rate = arrivals.len() as f64 / 60.0;
        assert!((rate - 500.0).abs() < 20.0, "rate {rate}");
    }

    #[test]
    fn builder_respects_zipf_shares() {
        let families = TraceBuilder::paper_families();
        let builder = TraceBuilder::new(families.clone()).seed(5);
        let trace = FlatTrace {
            qps: 2000.0,
            secs: 60,
        };
        let arrivals = builder.build(&trace);
        let total = arrivals.len() as f64;
        for &family in &families {
            let observed = arrivals.iter().filter(|a| a.family == family).count() as f64 / total;
            let expected = builder.family_share(family);
            assert!(
                (observed - expected).abs() < 0.02,
                "{family}: observed {observed} expected {expected}"
            );
        }
        // Rank 1 (EfficientNet) dominates; GPT-2 is rarest.
        assert!(
            builder.family_share(ModelFamily::EfficientNet)
                > builder.family_share(ModelFamily::Gpt2)
        );
    }

    #[test]
    fn family_share_of_absent_family_is_zero() {
        let builder = TraceBuilder::new(vec![ModelFamily::ResNet]);
        assert_eq!(builder.family_share(ModelFamily::Gpt2), 0.0);
        assert_eq!(builder.family_share(ModelFamily::ResNet), 1.0);
    }

    #[test]
    fn arrivals_are_sorted_and_within_trace() {
        let builder = TraceBuilder::new(TraceBuilder::paper_families());
        let trace = FlatTrace {
            qps: 300.0,
            secs: 10,
        };
        let arrivals = builder.build(&trace);
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let end = SimTime::from_secs(10);
        assert!(arrivals.iter().all(|a| a.at < end));
    }

    #[test]
    fn variable_input_sizes_only_affect_transformers() {
        let builder = TraceBuilder::new(TraceBuilder::paper_families())
            .seed(6)
            .variable_input_sizes(1.5);
        let arrivals = builder.build(&FlatTrace {
            qps: 600.0,
            secs: 20,
        });
        let (mut nlp_costs, mut vision_costs) = (Vec::new(), Vec::new());
        for a in &arrivals {
            if a.family.is_transformer() {
                nlp_costs.push(a.cost);
            } else {
                vision_costs.push(a.cost);
            }
        }
        assert!(vision_costs.iter().all(|&c| c == 1.0));
        let mean: f64 = nlp_costs.iter().sum::<f64>() / nlp_costs.len() as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean NLP cost {mean}");
        assert!(nlp_costs.iter().any(|&c| c > 2.0), "long inputs must occur");
        assert!(nlp_costs.iter().all(|&c| (0.1..=8.0).contains(&c)));
        // Without the option every cost is nominal.
        let plain = TraceBuilder::new(TraceBuilder::paper_families())
            .seed(6)
            .build(&FlatTrace {
                qps: 100.0,
                secs: 5,
            });
        assert!(plain.iter().all(|a| a.cost == 1.0));
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn zero_input_shape_rejected() {
        let _ = TraceBuilder::new(TraceBuilder::paper_families()).variable_input_sizes(0.0);
    }

    #[test]
    fn builder_is_deterministic() {
        let mk = || {
            TraceBuilder::new(TraceBuilder::paper_families())
                .seed(9)
                .build(&FlatTrace {
                    qps: 100.0,
                    secs: 5,
                })
        };
        assert_eq!(mk(), mk());
    }

    /// Arrivals at `nanos`, tagged by their generation index in `cost`.
    fn tagged(nanos: &[u64]) -> Vec<QueryArrival> {
        nanos
            .iter()
            .enumerate()
            .map(|(i, &n)| QueryArrival {
                at: SimTime::from_nanos(n),
                family: ModelFamily::ResNet,
                cost: i as f64,
            })
            .collect()
    }

    fn assert_orders_like_stable_sort(start: u64, nanos: &[u64]) {
        let mut want = tagged(nanos);
        want.sort_by_key(|a| a.at);
        let mut got = tagged(nanos);
        let (mut keys, mut gathered) = (Vec::new(), Vec::new());
        order_second(
            &mut got,
            SimTime::from_nanos(start),
            &mut keys,
            &mut gathered,
        );
        assert_eq!(got, want, "{nanos:?}");
    }

    #[test]
    fn per_second_order_matches_stable_sort() {
        let s = 7_000_000_000;
        assert_orders_like_stable_sort(s, &[]);
        assert_orders_like_stable_sort(s, &[s + 5]);
        // Equal timestamps keep their generation order, wherever they sit.
        assert_orders_like_stable_sort(s, &[s + 9, s + 3, s + 9, s + 3, s + 9, s]);
        assert_orders_like_stable_sort(s, &[s, s, s, s]);
        // Both ends of the second, the top one (offset 1.0 rounded up)
        // tied with itself.
        let top = s + 1_000_000_000;
        assert_orders_like_stable_sort(s, &[top, s, top, s + 500_000_000, s, top]);
        // Many ties: offsets from a small set, in random generation order.
        let mut rng = StdRng::seed_from_u64(17);
        for len in [2, 10, 100, 1000] {
            let nanos: Vec<u64> = (0..len)
                .map(|_| s + (rng.random::<f64>() * 8.0) as u64 * 125_000_000)
                .collect();
            assert_orders_like_stable_sort(s, &nanos);
        }
    }

    #[test]
    #[should_panic(expected = "at least one family")]
    fn empty_families_rejected() {
        TraceBuilder::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "base")]
    fn diurnal_rejects_peak_below_base() {
        DiurnalTrace::new(10, 100.0, 50.0, 1, 0.0, 0.0, 1.0, 0);
    }
}
