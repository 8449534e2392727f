//! Acceptance property: the quantile sketch honors its configured
//! relative-error bound against exact sorted percentiles, keeps its
//! quantiles in order and its max exact, across 100+ seeded distributions
//! of varying shape and size.

use proptest::test_runner::TestRng;
use proteus_metrics::QuantileSketch;

const QS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Exact quantile with the sketch's own rank convention:
/// rank = ceil(q * n) clamped to [1, n], 1-indexed into the sorted data.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Distribution shapes [`draw`] knows.
const SHAPES: u64 = 5;

/// Draws one sample from distribution shape `shape` (`0..SHAPES`).
fn draw(rng: &mut TestRng, shape: u64) -> f64 {
    match shape {
        // Uniform on [0, 1000).
        0 => rng.next_unit_f64() * 1000.0,
        // Log-scaled: ~6 decades, the shape of latencies in seconds.
        1 => 1e-5 * 10f64.powf(rng.next_unit_f64() * 6.0),
        // Bimodal: fast mode around 1.0, slow mode around 250.0.
        2 => {
            if rng.next_below(10) < 7 {
                0.5 + rng.next_unit_f64()
            } else {
                200.0 + rng.next_unit_f64() * 100.0
            }
        }
        // Latencies of 100 s and beyond, up to ~12 days.
        3 => 100.0 * 10f64.powf(rng.next_unit_f64() * 4.0),
        // Heavy constant block plus a thin tail (exercises dense buckets).
        _ => {
            if rng.next_below(100) < 90 {
                42.0
            } else {
                42.0 + rng.next_unit_f64() * 10_000.0
            }
        }
    }
}

fn check_distribution(case: u64, alpha: f64) {
    let mut rng = TestRng::for_case("sketch_property::relative_error", case);
    let shape = rng.next_below(SHAPES);
    let n = 1 + rng.next_below(2000) as usize;
    let mut sketch = QuantileSketch::new(alpha, 2048);
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        let v = draw(&mut rng, shape);
        sketch.record(v);
        data.push(v);
    }
    data.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut prev = 0.0;
    for q in QS {
        let exact = exact_quantile(&data, q);
        let est = sketch.quantile(q).expect("non-empty sketch");
        let tol = alpha * exact.abs() + 1e-9;
        assert!(
            (est - exact).abs() <= tol,
            "case {case} shape {shape} n {n} q {q}: est {est} vs exact {exact} (tol {tol})"
        );
        assert!(
            est >= prev,
            "case {case} q {q}: {est} below the lower quantile {prev}"
        );
        prev = est;
    }
    assert_eq!(sketch.max(), data.last().copied(), "case {case}: exact max");
}

#[test]
fn relative_error_bound_holds_on_120_seeded_distributions() {
    for case in 0..120 {
        check_distribution(case, 0.01);
    }
}

#[test]
fn relative_error_bound_holds_at_coarser_alpha() {
    for case in 0..40 {
        check_distribution(1000 + case, 0.05);
    }
}

#[test]
fn merged_sketches_stay_within_bound_of_pooled_exact() {
    for case in 0..30u64 {
        let mut rng = TestRng::for_case("sketch_property::merged", case);
        let shape_a = rng.next_below(SHAPES);
        let shape_b = rng.next_below(SHAPES);
        let na = 1 + rng.next_below(800) as usize;
        let nb = 1 + rng.next_below(800) as usize;
        let alpha = 0.02;
        let mut a = QuantileSketch::new(alpha, 2048);
        let mut b = QuantileSketch::new(alpha, 2048);
        let mut pooled = Vec::with_capacity(na + nb);
        for _ in 0..na {
            let v = draw(&mut rng, shape_a);
            a.record(v);
            pooled.push(v);
        }
        for _ in 0..nb {
            let v = draw(&mut rng, shape_b);
            b.record(v);
            pooled.push(v);
        }
        a.merge(&b).expect("same alpha merges");
        pooled.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for q in QS {
            let exact = exact_quantile(&pooled, q);
            let est = a.quantile(q).expect("non-empty merged sketch");
            let tol = alpha * exact.abs() + 1e-9;
            assert!(
                (est - exact).abs() <= tol,
                "merged case {case} q {q}: est {est} vs exact {exact} (tol {tol})"
            );
        }
    }
}
