//! Event ingestion and interval bucketing: the run's one record of every
//! arrival, serve and drop. The telemetry plane reads its rows and
//! latency sketches instead of recording queries itself.

use proteus_profiler::ModelFamily;
use proteus_sim::SimTime;

use crate::QuantileSketch;

/// Relative-error bound of every latency sketch of a run, the telemetry
/// plane's included.
pub const LATENCY_ALPHA: f64 = 0.01;
/// Grid buckets per latency sketch.
pub const LATENCY_BUCKETS: usize = 2048;

/// Counters for one `(interval, family)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Bucket {
    /// Queries that arrived during the interval.
    pub arrived: u64,
    /// Queries whose response completed during the interval, within SLO.
    pub served_on_time: u64,
    /// Queries whose response completed during the interval but late.
    pub served_late: u64,
    /// Queries dropped (expired or shed) during the interval.
    pub dropped: u64,
    /// Sum of normalized accuracy over all served queries (on time or late).
    pub accuracy_sum: f64,
}

impl Bucket {
    /// All queries that produced a response this interval.
    pub fn served(&self) -> u64 {
        self.served_on_time + self.served_late
    }

    /// Dropped plus late — the paper counts both as SLO violations.
    pub fn violations(&self) -> u64 {
        self.dropped + self.served_late
    }

    /// Mean accuracy of served queries, or `None` if nothing was served.
    pub fn effective_accuracy(&self) -> Option<f64> {
        let served = self.served();
        (served > 0).then(|| self.accuracy_sum / served as f64)
    }

    /// Adds `other`'s counters into this bucket.
    pub fn merge(&mut self, other: &Bucket) {
        self.arrived += other.arrived;
        self.served_on_time += other.served_on_time;
        self.served_late += other.served_late;
        self.dropped += other.dropped;
        self.accuracy_sum += other.accuracy_sum;
    }
}

/// Ingests per-query events and buckets them by time interval and family.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    interval: SimTime,
    /// Dense rows, one per interval, each a family-indexed array. The
    /// simulation records millions of events; direct indexing here replaces
    /// a hash lookup per query event (see DESIGN.md, "Hot path").
    cells: Vec<[Bucket; ModelFamily::COUNT]>,
    /// Served latencies in seconds, family-indexed, with exemplars. Each
    /// sample is recorded once, here; [`latency`](Self::latency) merges
    /// the families.
    latency_by_family: [QuantileSketch; ModelFamily::COUNT],
    end: SimTime,
    /// Row cache: events arrive in near-sorted time order, so consecutive
    /// records almost always land in the same interval. Caching the current
    /// row's half-open nanosecond span skips a `u64` division per event.
    /// `cached_span.0 > cached_span.1` encodes "no row cached".
    cached_span: (u64, u64),
    cached_idx: usize,
}

impl MetricsCollector {
    /// Creates a collector with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimTime) -> Self {
        assert!(interval > SimTime::ZERO, "bucket interval must be positive");
        Self {
            interval,
            cells: Vec::new(),
            latency_by_family: std::array::from_fn(|_| {
                QuantileSketch::new(LATENCY_ALPHA, LATENCY_BUCKETS).with_exemplars()
            }),
            end: SimTime::ZERO,
            cached_span: (1, 0),
            cached_idx: 0,
        }
    }

    /// The configured bucket width.
    pub fn interval(&self) -> SimTime {
        self.interval
    }

    fn bucket_index(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.interval.as_nanos()
    }

    fn cell(&mut self, at: SimTime, family: ModelFamily) -> &mut Bucket {
        self.end = self.end.max(at);
        let nanos = at.as_nanos();
        if nanos < self.cached_span.0 || nanos >= self.cached_span.1 {
            let idx = self.bucket_index(at) as usize;
            if idx >= self.cells.len() {
                self.cells
                    .resize_with(idx + 1, || [Bucket::default(); ModelFamily::COUNT]);
            }
            let width = self.interval.as_nanos();
            let start = idx as u64 * width;
            self.cached_span = (start, start + width);
            self.cached_idx = idx;
        }
        &mut self.cells[self.cached_idx][family.index()]
    }

    /// Records a query arrival.
    pub fn record_arrival(&mut self, at: SimTime, family: ModelFamily) {
        self.cell(at, family).arrived += 1;
    }

    /// Records a completed query: `accuracy` is the serving variant's
    /// normalized accuracy, `on_time` whether the response met its SLO.
    pub fn record_served(
        &mut self,
        at: SimTime,
        family: ModelFamily,
        accuracy: f64,
        on_time: bool,
    ) {
        let cell = self.cell(at, family);
        if on_time {
            cell.served_on_time += 1;
        } else {
            cell.served_late += 1;
        }
        cell.accuracy_sum += accuracy;
    }

    /// Like [`record_served`](Self::record_served), additionally recording
    /// the end-to-end response latency into the family's sketch.
    pub fn record_served_latency(
        &mut self,
        at: SimTime,
        family: ModelFamily,
        accuracy: f64,
        on_time: bool,
        latency: SimTime,
    ) {
        self.record_served(at, family, accuracy, on_time);
        self.latency_by_family[family.index()].record(latency.as_secs_f64());
    }

    /// Like [`record_served_latency`](Self::record_served_latency), also
    /// keeping `query` as its latency bucket's exemplar when that bucket
    /// is among the family sketch's highest.
    pub fn record_served_query(
        &mut self,
        at: SimTime,
        query: u64,
        family: ModelFamily,
        accuracy: f64,
        on_time: bool,
        latency: SimTime,
    ) {
        self.record_served(at, family, accuracy, on_time);
        self.latency_by_family[family.index()].record_exemplar(latency.as_secs_f64(), query);
    }

    /// The response-latency sketch (seconds) over all families: the merge
    /// of the per-family sketches, which equals one sketch fed every
    /// sample. It carries the exemplars of the highest buckets across
    /// families; where two families hold the same bucket, the later
    /// family's exemplar wins.
    pub fn latency(&self) -> QuantileSketch {
        let mut all = QuantileSketch::new(LATENCY_ALPHA, LATENCY_BUCKETS);
        for family in &self.latency_by_family {
            all.absorb(family);
        }
        all
    }

    /// Per-family response-latency sketch (seconds), if the family served
    /// any latency-recorded query.
    pub fn family_latency(&self, family: ModelFamily) -> Option<&QuantileSketch> {
        let sketch = &self.latency_by_family[family.index()];
        (sketch.count() > 0).then_some(sketch)
    }

    /// Records a dropped query (expired in queue or shed by the system).
    pub fn record_dropped(&mut self, at: SimTime, family: ModelFamily) {
        self.cell(at, family).dropped += 1;
    }

    /// Number of whole buckets covered so far (index of the last touched
    /// bucket plus one; zero if nothing was recorded).
    pub fn num_buckets(&self) -> u64 {
        if self.cells.is_empty() {
            0
        } else {
            self.bucket_index(self.end) + 1
        }
    }

    /// The aggregate bucket for one interval (all families merged).
    pub fn bucket(&self, index: u64) -> Bucket {
        let mut out = Bucket::default();
        if let Some(row) = usize::try_from(index).ok().and_then(|i| self.cells.get(i)) {
            for b in row {
                out.merge(b);
            }
        }
        out
    }

    /// The bucket for one `(interval, family)` cell.
    pub fn family_bucket(&self, index: u64, family: ModelFamily) -> Bucket {
        usize::try_from(index)
            .ok()
            .and_then(|i| self.cells.get(i))
            .map(|row| row[family.index()])
            .unwrap_or_default()
    }

    /// Aggregate timeseries over all buckets, one entry per interval.
    pub fn timeseries(&self) -> Vec<Bucket> {
        (0..self.num_buckets()).map(|i| self.bucket(i)).collect()
    }

    /// Timeseries for one family.
    pub fn family_timeseries(&self, family: ModelFamily) -> Vec<Bucket> {
        (0..self.num_buckets())
            .map(|i| self.family_bucket(i, family))
            .collect()
    }

    /// Condenses the run into the paper's four headline metrics.
    pub fn summary(&self) -> crate::RunSummary {
        crate::RunSummary::from_collector(self)
    }

    /// Per-family summaries (Fig. 9 breakdown).
    pub fn family_summaries(&self) -> Vec<crate::FamilySummary> {
        ModelFamily::ALL
            .into_iter()
            .filter_map(|f| crate::FamilySummary::from_collector(self, f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn buckets_split_by_interval() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        m.record_arrival(t(100), ModelFamily::ResNet);
        m.record_arrival(t(900), ModelFamily::ResNet);
        m.record_arrival(t(1100), ModelFamily::ResNet);
        assert_eq!(m.num_buckets(), 2);
        assert_eq!(m.bucket(0).arrived, 2);
        assert_eq!(m.bucket(1).arrived, 1);
    }

    #[test]
    fn families_are_separated() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        m.record_served(t(10), ModelFamily::ResNet, 0.9, true);
        m.record_served(t(20), ModelFamily::Bert, 0.8, false);
        assert_eq!(m.family_bucket(0, ModelFamily::ResNet).served(), 1);
        assert_eq!(m.family_bucket(0, ModelFamily::Bert).served_late, 1);
        let agg = m.bucket(0);
        assert_eq!(agg.served(), 2);
        assert_eq!(agg.violations(), 1);
        assert!((agg.effective_accuracy().unwrap() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn dropped_counts_as_violation() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        m.record_dropped(t(10), ModelFamily::T5);
        let b = m.bucket(0);
        assert_eq!(b.violations(), 1);
        assert_eq!(b.served(), 0);
        assert_eq!(b.effective_accuracy(), None);
    }

    #[test]
    fn timeseries_has_dense_indices() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        m.record_arrival(t(500), ModelFamily::ResNet);
        m.record_arrival(t(3500), ModelFamily::ResNet);
        let ts = m.timeseries();
        assert_eq!(ts.len(), 4);
        assert_eq!(ts[0].arrived, 1);
        assert_eq!(ts[1].arrived, 0);
        assert_eq!(ts[3].arrived, 1);
    }

    #[test]
    fn latency_recording_feeds_sketches() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        m.record_served_latency(t(10), ModelFamily::ResNet, 0.9, true, t(25));
        m.record_served_latency(t(20), ModelFamily::Bert, 0.8, false, t(75));
        assert_eq!(m.latency().count(), 2);
        assert_eq!(m.family_latency(ModelFamily::ResNet).unwrap().count(), 1);
        assert!(m.family_latency(ModelFamily::T5).is_none());
        assert_eq!(m.latency().max(), Some(0.075));
        // The bucket counters are updated too.
        assert_eq!(m.bucket(0).served(), 2);
        assert_eq!(m.bucket(0).served_late, 1);
    }

    #[test]
    fn served_queries_become_exemplars() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        m.record_served_query(t(10), 7, ModelFamily::ResNet, 0.9, true, t(25));
        m.record_served_query(t(20), 8, ModelFamily::Bert, 0.8, false, t(75));
        // The plain record keeps no exemplar.
        m.record_served_latency(t(30), ModelFamily::Bert, 0.8, true, t(900));
        let all = m.latency();
        assert_eq!(all.count(), 3);
        assert_eq!(all.exemplar_for(0.0).unwrap().query, 7);
        assert_eq!(all.exemplar_for(1.0).unwrap().query, 8);
        assert_eq!(m.bucket(0).served(), 3);
        assert_eq!(
            m.family_latency(ModelFamily::ResNet)
                .unwrap()
                .exemplar_for(1.0)
                .unwrap()
                .query,
            7
        );
    }

    #[test]
    fn merged_family_sketches_equal_one_sketch_of_every_sample() {
        let mut m = MetricsCollector::new(SimTime::from_secs(1));
        let mut single = QuantileSketch::new(LATENCY_ALPHA, LATENCY_BUCKETS);
        for i in 1..=900u64 {
            let latency = SimTime::from_micros(i * i * 7 % 2_000_000 + 50);
            let family = ModelFamily::from_index(i as usize % ModelFamily::COUNT);
            m.record_served_latency(t(i), family, 1.0, true, latency);
            single.record(latency.as_secs_f64());
        }
        let merged = m.latency();
        assert_eq!(merged.count(), single.count());
        assert_eq!(merged.max(), single.max());
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), single.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn empty_collector() {
        let m = MetricsCollector::new(SimTime::from_secs(1));
        assert_eq!(m.num_buckets(), 0);
        assert!(m.timeseries().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        MetricsCollector::new(SimTime::ZERO);
    }
}
