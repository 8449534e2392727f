//! Run summaries: the paper's four headline metrics (§6.1.4).

use proteus_profiler::ModelFamily;
use proteus_sim::SimTime;

use crate::{Bucket, MetricsCollector, QuantileSketch};

/// Minimum served queries a bucket needs before its effective accuracy
/// contributes to the max-drop statistic; avoids declaring a 20 % "drop"
/// from a bucket that served three queries.
const MIN_SERVED_FOR_DROP: u64 = 10;

/// Whole-run metrics for one system under one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Total queries that arrived.
    pub total_arrived: u64,
    /// Total queries served (on time or late).
    pub total_served: u64,
    /// Total queries dropped.
    pub total_dropped: u64,
    /// Total SLO violations (dropped + served late).
    pub total_violations: u64,
    /// Mean served throughput in queries per second.
    pub avg_throughput_qps: f64,
    /// Mean normalized accuracy over all served queries, in `[0, 1]`.
    pub effective_accuracy: f64,
    /// Largest per-bucket dip of effective accuracy below 1.0 (the paper
    /// reports this as a percentage drop from 100 %).
    pub max_accuracy_drop: f64,
    /// `total_violations / total_arrived` (0 if nothing arrived).
    pub slo_violation_ratio: f64,
    /// Median served latency. `None` when built from buckets alone (the
    /// bucket series carries no latency distribution) or nothing served.
    pub latency_p50: Option<SimTime>,
    /// 95th-percentile served latency (same availability as `latency_p50`).
    pub latency_p95: Option<SimTime>,
    /// 99th-percentile served latency (same availability as `latency_p50`).
    pub latency_p99: Option<SimTime>,
}

impl RunSummary {
    /// Builds the summary from a collector, including latency percentiles
    /// from its sketch.
    pub fn from_collector(collector: &MetricsCollector) -> Self {
        let ts = collector.timeseries();
        let mut summary = Self::from_buckets(&ts, collector.interval().as_secs_f64());
        summary.set_latency(&collector.latency());
        summary
    }

    /// Sets the latency percentiles from a sketch of latencies in seconds.
    fn set_latency(&mut self, sketch: &QuantileSketch) {
        let at = |q| sketch.quantile(q).map(SimTime::from_secs_f64);
        self.latency_p50 = at(0.50);
        self.latency_p95 = at(0.95);
        self.latency_p99 = at(0.99);
    }

    /// Builds the summary from a bucket series with the given bucket width.
    pub fn from_buckets(buckets: &[Bucket], interval_secs: f64) -> Self {
        let total_arrived: u64 = buckets.iter().map(|b| b.arrived).sum();
        let total_served: u64 = buckets.iter().map(Bucket::served).sum();
        let total_dropped: u64 = buckets.iter().map(|b| b.dropped).sum();
        let total_violations: u64 = buckets.iter().map(Bucket::violations).sum();
        let accuracy_sum: f64 = buckets.iter().map(|b| b.accuracy_sum).sum();

        let span_secs = buckets.len() as f64 * interval_secs;
        let avg_throughput_qps = if span_secs > 0.0 {
            total_served as f64 / span_secs
        } else {
            0.0
        };
        let effective_accuracy = if total_served > 0 {
            accuracy_sum / total_served as f64
        } else {
            0.0
        };
        let max_accuracy_drop = buckets
            .iter()
            .filter(|b| b.served() >= MIN_SERVED_FOR_DROP)
            .filter_map(Bucket::effective_accuracy)
            .map(|a| 1.0 - a)
            .fold(0.0, f64::max);
        let slo_violation_ratio = if total_arrived > 0 {
            total_violations as f64 / total_arrived as f64
        } else {
            0.0
        };
        Self {
            total_arrived,
            total_served,
            total_dropped,
            total_violations,
            avg_throughput_qps,
            effective_accuracy,
            max_accuracy_drop,
            slo_violation_ratio,
            latency_p50: None,
            latency_p95: None,
            latency_p99: None,
        }
    }

    /// Max accuracy drop as a percentage (the unit Fig. 4/7/8 report).
    pub fn max_accuracy_drop_pct(&self) -> f64 {
        self.max_accuracy_drop * 100.0
    }

    /// Effective accuracy as a percentage.
    pub fn effective_accuracy_pct(&self) -> f64 {
        self.effective_accuracy * 100.0
    }
}

/// [`RunSummary`] restricted to one model family (Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySummary {
    /// The family this summary covers.
    pub family: ModelFamily,
    /// The family-restricted run metrics.
    pub summary: RunSummary,
}

impl FamilySummary {
    /// Builds the family summary, or `None` if no query of the family was
    /// observed.
    pub fn from_collector(collector: &MetricsCollector, family: ModelFamily) -> Option<Self> {
        let ts = collector.family_timeseries(family);
        let mut summary = RunSummary::from_buckets(&ts, collector.interval().as_secs_f64());
        if let Some(sketch) = collector.family_latency(family) {
            summary.set_latency(sketch);
        }
        (summary.total_arrived > 0).then_some(Self { family, summary })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_sim::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn summary_of_simple_run() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        for i in 0..20 {
            m.record_arrival(t(i * 40), ModelFamily::ResNet);
            m.record_served(t(i * 40 + 10), ModelFamily::ResNet, 0.9, true);
        }
        m.record_arrival(t(900), ModelFamily::ResNet);
        m.record_dropped(t(950), ModelFamily::ResNet);
        let s = m.summary();
        assert_eq!(s.total_arrived, 21);
        assert_eq!(s.total_served, 20);
        assert_eq!(s.total_dropped, 1);
        assert_eq!(s.total_violations, 1);
        assert!((s.effective_accuracy - 0.9).abs() < 1e-12);
        assert!((s.slo_violation_ratio - 1.0 / 21.0).abs() < 1e-12);
        assert!((s.avg_throughput_qps - 20.0).abs() < 1e-9);
        assert!((s.max_accuracy_drop - 0.1).abs() < 1e-12);
        assert!((s.max_accuracy_drop_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn max_drop_takes_worst_bucket() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        // Bucket 0: accuracy 1.0; bucket 1: accuracy 0.8.
        for i in 0..10 {
            m.record_served(t(i * 10), ModelFamily::ResNet, 1.0, true);
            m.record_served(t(1000 + i * 10), ModelFamily::ResNet, 0.8, true);
        }
        let s = m.summary();
        assert!((s.max_accuracy_drop - 0.2).abs() < 1e-12);
        assert!((s.effective_accuracy - 0.9).abs() < 1e-12);
    }

    #[test]
    fn sparse_buckets_do_not_count_toward_drop() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        for i in 0..10 {
            m.record_served(t(i * 10), ModelFamily::ResNet, 1.0, true);
        }
        // A lone low-accuracy straggler in bucket 1: below the MIN_SERVED
        // threshold, so it must not register as a 30 % "drop".
        m.record_served(t(1500), ModelFamily::ResNet, 0.7, true);
        let s = m.summary();
        assert_eq!(s.max_accuracy_drop, 0.0);
    }

    #[test]
    fn late_service_counts_as_violation_but_still_serves() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        m.record_arrival(t(0), ModelFamily::Bert);
        m.record_served(t(100), ModelFamily::Bert, 0.95, false);
        let s = m.summary();
        assert_eq!(s.total_served, 1);
        assert_eq!(s.total_violations, 1);
        assert_eq!(s.total_dropped, 0);
        assert_eq!(s.slo_violation_ratio, 1.0);
    }

    #[test]
    fn family_summary_filters() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        m.record_arrival(t(0), ModelFamily::ResNet);
        m.record_served(t(5), ModelFamily::ResNet, 1.0, true);
        m.record_arrival(t(0), ModelFamily::Gpt2);
        m.record_dropped(t(5), ModelFamily::Gpt2);
        let fams = m.family_summaries();
        assert_eq!(fams.len(), 2);
        let gpt = fams.iter().find(|f| f.family == ModelFamily::Gpt2).unwrap();
        assert_eq!(gpt.summary.slo_violation_ratio, 1.0);
        let res = fams
            .iter()
            .find(|f| f.family == ModelFamily::ResNet)
            .unwrap();
        assert_eq!(res.summary.slo_violation_ratio, 0.0);
        assert!(FamilySummary::from_collector(&m, ModelFamily::T5).is_none());
    }

    #[test]
    fn percentiles_come_from_the_sketch() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        for i in 1..=100u64 {
            m.record_arrival(t(0), ModelFamily::ResNet);
            m.record_served_latency(t(10), ModelFamily::ResNet, 1.0, true, t(i));
        }
        let s = m.summary();
        let (p50, p95, p99) = (
            s.latency_p50.unwrap(),
            s.latency_p95.unwrap(),
            s.latency_p99.unwrap(),
        );
        assert!(p50 <= p95 && p95 <= p99, "{p50:?} {p95:?} {p99:?}");
        // Nearest rank: p50 is the 50th smallest (50 ms), p99 the 99th;
        // the sketch is within 1 % of both.
        let within = |est: SimTime, exact: f64| (est.as_millis_f64() - exact).abs() <= 0.01 * exact;
        assert!(within(p50, 50.0), "p50 {p50:?}");
        assert!(within(p99, 99.0), "p99 {p99:?}");
        // Per-family percentiles surface through FamilySummary too.
        let fam = FamilySummary::from_collector(&m, ModelFamily::ResNet).unwrap();
        assert_eq!(fam.summary.latency_p99, s.latency_p99);
        // from_buckets alone has no latency distribution to draw from.
        let from_buckets = RunSummary::from_buckets(&m.timeseries(), 1.0);
        assert_eq!(from_buckets.latency_p50, None);
    }

    #[test]
    fn empty_run_is_all_zero() {
        let m = MetricsCollector::new(SimTime::from_secs(1));
        let s = m.summary();
        assert_eq!(s.total_arrived, 0);
        assert_eq!(s.avg_throughput_qps, 0.0);
        assert_eq!(s.slo_violation_ratio, 0.0);
        assert_eq!(s.max_accuracy_drop, 0.0);
    }
}
