//! A DDSketch-style mergeable quantile sketch with a relative-error
//! guarantee and fixed memory.
//!
//! Values are bucketed on a logarithmic grid: bucket `k` covers
//! `(γ^(k-1), γ^k]` with `γ = (1+α)/(1-α)`. Reporting the multiplicative
//! midpoint `γ^k·2/(1+γ)` of the bucket containing the requested rank
//! bounds the relative error by `α` — independent of the distribution —
//! as long as the bucket was never collapsed. When the grid would exceed
//! `max_buckets`, the two *lowest* buckets are merged, so the guarantee
//! is retained for upper quantiles (the ones SLOs care about) and
//! memory stays bounded.

/// Values at or below this threshold land in the dedicated zero bucket
/// (the logarithmic grid cannot represent zero).
const MIN_TRACKABLE: f64 = 1e-12;

/// How many top grid buckets retain an exemplar when exemplar tracking is
/// on. Upper quantiles are the ones SLO debugging cares about, so only
/// the highest-valued buckets keep a concrete query to point at.
const EXEMPLAR_KEYS: usize = 8;

/// A concrete observation retained alongside the sketch: the query that
/// most recently landed in one of the top buckets, with its exact value.
/// Links an aggregate quantile (e.g. p99 latency) back to a specific
/// trace (`trace-query critpath <query>`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The query ID whose observation landed in the bucket.
    pub query: u64,
    /// The exact recorded value (not the bucket midpoint).
    pub value: f64,
}

/// Error merging two sketches with different grids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchMismatch;

impl std::fmt::Display for SketchMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cannot merge quantile sketches with different relative-error bounds")
    }
}

impl std::error::Error for SketchMismatch {}

/// A mergeable, relative-error-bounded quantile sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    ln_gamma: f64,
    max_buckets: usize,
    /// Grid key of `buckets[0]`.
    min_key: i64,
    buckets: Vec<u64>,
    /// Values `<= MIN_TRACKABLE` (including zero).
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// The lowest grid key [`record_exemplar`](Self::record_exemplar)
    /// may retain: `i64::MAX` while exemplar tracking is off (the default,
    /// so plain sketches keep none), `i64::MIN` until the store is full,
    /// then the store's lowest key.
    exemplar_floor: i64,
    /// Retained exemplars, sorted ascending by grid key; at most
    /// [`EXEMPLAR_KEYS`] entries, always the highest keys seen so far.
    exemplars: Vec<(i64, Exemplar)>,
}

impl QuantileSketch {
    /// Creates a sketch with relative-error bound `alpha` (clamped to
    /// `[1e-4, 0.5)`) and at most `max_buckets` grid buckets.
    pub fn new(alpha: f64, max_buckets: usize) -> Self {
        let alpha = alpha.clamp(1e-4, 0.499);
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            ln_gamma: gamma.ln(),
            max_buckets: max_buckets.max(2),
            min_key: 0,
            buckets: Vec::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            exemplar_floor: i64::MAX,
            exemplars: Vec::new(),
        }
    }

    /// Enables exemplar retention:
    /// [`record_exemplar`](Self::record_exemplar) will keep the latest
    /// query landing in each of the top `EXEMPLAR_KEYS` (8) grid buckets.
    pub fn with_exemplars(mut self) -> Self {
        self.exemplar_floor = i64::MIN;
        self
    }

    /// The configured relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest recorded value (exact, not bucketed), or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Grid buckets currently allocated (bounded by `max_buckets`).
    pub fn buckets_used(&self) -> usize {
        self.buckets.len()
    }

    fn key(&self, v: f64) -> i64 {
        // v > MIN_TRACKABLE here, so ln is finite.
        (v.ln() / self.ln_gamma).ceil() as i64
    }

    fn bucket_value(&self, key: i64) -> f64 {
        let gamma = self.ln_gamma.exp();
        (key as f64 * self.ln_gamma).exp() * 2.0 / (1.0 + gamma)
    }

    /// Records one value. Non-finite and negative values are clamped into
    /// the zero bucket rather than rejected (telemetry must not panic).
    pub fn record(&mut self, v: f64) {
        self.record_keyed(v);
    }

    /// [`record`](Self::record), returning the grid key `v` landed in, or
    /// `None` for the zero bucket.
    fn record_keyed(&mut self, v: f64) -> Option<i64> {
        let v = if v.is_finite() { v } else { 0.0 };
        self.count += 1;
        self.sum += v.max(0.0);
        self.min = self.min.min(v.max(0.0));
        self.max = self.max.max(v.max(0.0));
        if v <= MIN_TRACKABLE {
            self.zero_count += 1;
            return None;
        }
        let k = self.key(v);
        self.add_at_key(k, 1);
        Some(k)
    }

    /// Records one value attributed to a query, retaining it as the
    /// bucket's exemplar when exemplar tracking is on. Identical to
    /// [`record`](Self::record) otherwise.
    #[inline]
    pub fn record_exemplar(&mut self, v: f64, query: u64) {
        // Non-finite values land in the zero bucket, which keeps no
        // exemplar.
        let Some(key) = self.record_keyed(v) else {
            return;
        };
        // Tracking is off, or the store is full and `key` is below its
        // lowest key: it would be inserted at the bottom and evicted
        // straight away.
        if key < self.exemplar_floor {
            return;
        }
        match self.exemplars.binary_search_by_key(&key, |&(k, _)| k) {
            // Latest observation wins: a fresh trace is more likely to
            // still be in the recorded window than an early one.
            Ok(i) => self.exemplars[i].1 = Exemplar { query, value: v },
            Err(i) => {
                self.exemplars
                    .insert(i, (key, Exemplar { query, value: v }));
                if self.exemplars.len() > EXEMPLAR_KEYS {
                    // Evict the lowest key — mirrors the grid's policy of
                    // sacrificing the low tail to protect upper quantiles.
                    self.exemplars.remove(0);
                }
                if self.exemplars.len() == EXEMPLAR_KEYS {
                    self.exemplar_floor = self.exemplars[0].0;
                }
            }
        }
    }

    /// The exemplar for the `q`-quantile: the retained query whose bucket
    /// is at (or nearest above) the quantile's bucket. `None` when the
    /// sketch is empty, exemplar tracking is off, or the quantile falls
    /// in the zero bucket.
    pub fn exemplar_for(&self, q: f64) -> Option<Exemplar> {
        if self.count == 0 || self.exemplars.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zero_count {
            return None;
        }
        // Same walk as `quantile`, yielding the target grid key.
        let mut cum = self.zero_count;
        let mut target = self.min_key + self.buckets.len() as i64 - 1;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                target = self.min_key + i as i64;
                break;
            }
        }
        // Only the top buckets retain exemplars, so a low quantile may
        // resolve to a bucket without one; the nearest retained bucket
        // above it is the closest concrete trace. Fall back to the
        // highest retained bucket for quantiles above every exemplar.
        self.exemplars
            .iter()
            .find(|&&(k, _)| k >= target)
            .or_else(|| self.exemplars.last())
            .map(|&(_, e)| e)
    }

    fn add_at_key(&mut self, key: i64, n: u64) {
        if self.buckets.is_empty() {
            self.min_key = key;
            self.buckets.push(n);
            return;
        }
        if key < self.min_key {
            if self.buckets.len() + (self.min_key - key) as usize > self.max_buckets {
                // At capacity below: fold into the lowest kept bucket.
                // Only the bottom of the distribution loses its bound.
                self.buckets[0] += n;
                return;
            }
            let grow = (self.min_key - key) as usize;
            for _ in 0..grow {
                self.buckets.insert(0, 0);
            }
            self.min_key = key;
            self.buckets[0] += n;
            return;
        }
        let idx = (key - self.min_key) as usize;
        if idx >= self.buckets.len() {
            if idx >= self.max_buckets {
                // The new top bucket pushes the grid past capacity:
                // everything below the new bottom folds into the lowest
                // kept bucket (clamping only the low tail).
                let new_min_key = key - self.max_buckets as i64 + 1;
                let drop = ((new_min_key - self.min_key) as usize).min(self.buckets.len());
                let folded: u64 = self.buckets.drain(..drop).sum();
                self.min_key = new_min_key;
                match self.buckets.first_mut() {
                    Some(first) => *first += folded,
                    None => self.buckets.push(folded),
                }
                let idx = (key - self.min_key) as usize;
                if idx >= self.buckets.len() {
                    self.buckets.resize(idx + 1, 0);
                }
                self.buckets[idx] += n;
                return;
            }
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
    }

    /// The `q`-quantile (`q` clamped to `[0,1]`), or `None` if empty: the
    /// estimate for the `ceil(q·count)`-th smallest recorded value.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zero_count {
            return Some(self.min.max(0.0));
        }
        let mut cum = self.zero_count;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                let v = self.bucket_value(self.min_key + i as i64);
                return Some(v.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another sketch into this one (bucket-wise addition).
    ///
    /// # Errors
    ///
    /// Fails if the sketches were built with different `alpha` (their
    /// grids are incompatible).
    pub fn merge(&mut self, other: &QuantileSketch) -> Result<(), SketchMismatch> {
        if (self.alpha - other.alpha).abs() > 1e-12 {
            return Err(SketchMismatch);
        }
        self.absorb(other);
        Ok(())
    }

    /// [`merge`](Self::merge) for a sketch known to share this one's grid.
    pub(crate) fn absorb(&mut self, other: &QuantileSketch) {
        for (i, &n) in other.buckets.iter().enumerate() {
            if n > 0 {
                self.add_at_key(other.min_key + i as i64, n);
            }
        }
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if !other.exemplars.is_empty() {
            for &(k, e) in &other.exemplars {
                match self.exemplars.binary_search_by_key(&k, |&(key, _)| key) {
                    Ok(i) => self.exemplars[i].1 = e,
                    Err(i) => self.exemplars.insert(i, (k, e)),
                }
            }
            while self.exemplars.len() > EXEMPLAR_KEYS {
                self.exemplars.remove(0);
            }
            self.exemplar_floor = match self.exemplars.first() {
                Some(&(low, _)) if self.exemplars.len() == EXEMPLAR_KEYS => low,
                _ => i64::MIN,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(sketch: &QuantileSketch, sorted: &[f64], q: f64) {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let est = sketch.quantile(q).unwrap();
        let tol = sketch.alpha() * exact + 1e-9;
        assert!(
            (est - exact).abs() <= tol,
            "q={q}: est {est} vs exact {exact} (tol {tol})"
        );
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::new(0.01, 1024);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile(q), None);
        }
        assert_eq!(s.max(), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_value_is_every_quantile() {
        // The bucket estimate is clamped to the exact min and max, so one
        // sample comes back exactly, from 1 µs to past a day.
        for v in [1e-6, 0.037, 0.125, 200.0, 1e5] {
            let mut s = QuantileSketch::new(0.01, 1024);
            s.record(v);
            for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                assert_eq!(s.quantile(q), Some(v), "v={v} q={q}");
            }
            assert_eq!(s.max(), Some(v));
        }
    }

    #[test]
    fn zero_and_negative_values_go_to_the_zero_bucket() {
        let mut s = QuantileSketch::new(0.01, 1024);
        s.record(0.0);
        s.record(-3.0);
        s.record(f64::NAN);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(1.0), Some(0.0));
    }

    #[test]
    fn grid_quantiles_within_alpha_in_order_with_exact_max() {
        // Milliseconds, and latencies from 100 s to ~33 h.
        let millis: Vec<f64> = (1..=5000).map(|i| i as f64 * 1e-3).collect();
        let huge: Vec<f64> = (0..=240).map(|i| 100.0 * 1.03f64.powi(i)).collect();
        for values in [millis, huge] {
            let mut s = QuantileSketch::new(0.02, 4096);
            for &v in &values {
                s.record(v);
            }
            let mut prev = 0.0;
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_close(&s, &values, q);
                let est = s.quantile(q).unwrap();
                assert!(est >= prev, "q={q}: {est} < {prev}");
                prev = est;
            }
            assert_eq!(s.max(), values.last().copied());
        }
    }

    #[test]
    fn memory_stays_bounded_and_upper_quantiles_survive_collapse() {
        let mut s = QuantileSketch::new(0.01, 64);
        // Values spanning 12 decades need far more than 64 buckets.
        let mut values = Vec::new();
        let mut x = 1e-6f64;
        while x < 1e6 {
            values.push(x);
            s.record(x);
            x *= 1.19;
        }
        assert!(s.buckets_used() <= 64);
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // The top of the distribution is still accurate.
        for q in [0.95, 0.99, 1.0] {
            assert_close(&s, &values, q);
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = QuantileSketch::new(0.01, 2048);
        let mut b = QuantileSketch::new(0.01, 2048);
        let mut whole = QuantileSketch::new(0.01, 2048);
        for i in 1..=1000u64 {
            let v = (i as f64).sqrt() * 0.01;
            whole.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a.count(), whole.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::new(0.01, 64);
        let b = QuantileSketch::new(0.05, 64);
        assert_eq!(a.merge(&b), Err(SketchMismatch));
    }

    #[test]
    fn exemplars_link_upper_quantiles_to_queries() {
        let mut s = QuantileSketch::new(0.01, 1024).with_exemplars();
        // 100 queries with latency i ms; query 100 is the worst.
        for i in 1..=100u64 {
            s.record_exemplar(i as f64 * 1e-3, i);
        }
        let p99 = s.exemplar_for(0.99).unwrap();
        assert!(p99.query >= 93, "p99 exemplar too low: {:?}", p99);
        assert!((p99.value - p99.query as f64 * 1e-3).abs() < 1e-12);
        assert_eq!(s.exemplar_for(1.0).unwrap().query, 100);
        // Low quantiles fall below every retained bucket; the nearest
        // retained bucket above still yields a concrete query.
        assert!(s.exemplar_for(0.0).is_some());
        // The store stays bounded regardless of how many buckets exist.
        assert!(s.exemplars.len() <= EXEMPLAR_KEYS);
    }

    #[test]
    fn exemplars_are_opt_in_and_latest_wins() {
        let mut off = QuantileSketch::new(0.01, 1024);
        off.record_exemplar(0.5, 7);
        assert_eq!(off.exemplar_for(0.99), None);
        assert_eq!(off.count(), 1);

        let mut on = QuantileSketch::new(0.01, 1024).with_exemplars();
        // Two observations in the same grid bucket: the later query is
        // retained.
        on.record_exemplar(0.5, 7);
        on.record_exemplar(0.5, 8);
        assert_eq!(on.exemplar_for(1.0).unwrap().query, 8);
        // Zero-bucket observations never become exemplars.
        on.record_exemplar(0.0, 9);
        assert_eq!(on.exemplar_for(1.0).unwrap().query, 8);
    }

    /// The exemplar update without the full-store early return: insert,
    /// then evict the lowest key once the store overflows.
    fn insert_then_evict(store: &mut Vec<(i64, Exemplar)>, key: i64, e: Exemplar) {
        match store.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => store[i].1 = e,
            Err(i) => {
                store.insert(i, (key, e));
                if store.len() > EXEMPLAR_KEYS {
                    store.remove(0);
                }
            }
        }
    }

    proptest::proptest! {
        /// Skipping keys below a full store's lowest key retains the same
        /// exemplars as inserting and evicting them.
        #[test]
        fn early_return_keeps_the_insert_evict_exemplars(
            stream in proptest::collection::vec((0u64..5_000, 0u64..1_000), 0..400),
        ) {
            let mut sketch = QuantileSketch::new(0.01, 2048).with_exemplars();
            let mut reference = Vec::new();
            for &(tenth_ms, query) in &stream {
                let v = tenth_ms as f64 * 1e-4;
                sketch.record_exemplar(v, query);
                if v > MIN_TRACKABLE {
                    insert_then_evict(&mut reference, sketch.key(v), Exemplar { query, value: v });
                }
            }
            proptest::prop_assert_eq!(sketch.exemplars, reference);
        }
    }

    #[test]
    fn merge_carries_exemplars() {
        let mut a = QuantileSketch::new(0.01, 1024).with_exemplars();
        let mut b = QuantileSketch::new(0.01, 1024).with_exemplars();
        a.record_exemplar(0.1, 1);
        b.record_exemplar(10.0, 2);
        a.merge(&b).unwrap();
        assert_eq!(a.exemplar_for(1.0).unwrap().query, 2);
        // Merging into a plain sketch adopts the exemplars.
        let mut plain = QuantileSketch::new(0.01, 1024);
        plain.record(5.0);
        plain.merge(&b).unwrap();
        assert_eq!(plain.exemplar_for(1.0).unwrap().query, 2);
    }
}
