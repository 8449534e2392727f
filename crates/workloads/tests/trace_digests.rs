//! Pins the trace generator's exact output.
//!
//! Each case builds a trace and checks its arrival count plus an FNV-1a
//! digest over every arrival's timestamp (ns), family rank and cost bits,
//! in stream order. Any change to the RNG draw order, the timestamp
//! rounding or the ordering of arrivals (including ties) moves a digest.

use proteus_profiler::ModelFamily;
use proteus_workloads::io::RecordedTrace;
use proteus_workloads::{
    BurstyTrace, DemandTrace, DiurnalTrace, FlatTrace, QueryArrival, TraceBuilder,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Arrival count and digest of `builder.build(trace)`.
fn digest(builder: &TraceBuilder, trace: &dyn DemandTrace) -> (usize, u64) {
    let families: &[ModelFamily] = builder.families();
    let arrivals: Vec<QueryArrival> = builder.build(trace);
    let hash = arrivals.iter().fold(FNV_OFFSET, |h, a| {
        let rank = families
            .iter()
            .position(|&f| f == a.family)
            .expect("arrival of a family outside the builder") as u32;
        let h = fnv1a(h, &a.at.as_nanos().to_le_bytes());
        let h = fnv1a(h, &rank.to_le_bytes());
        fnv1a(h, &a.cost.to_bits().to_le_bytes())
    });
    (arrivals.len(), hash)
}

#[test]
fn fig4_diurnal_trace_is_pinned() {
    let builder = TraceBuilder::new(TraceBuilder::paper_families()).seed(42);
    let trace = DiurnalTrace::paper_like(1440, 200.0, 1000.0, 42);
    assert_eq!(digest(&builder, &trace), (723_076, 0x9018_688b_d002_969e));
}

#[test]
fn fig5_bursty_trace_is_pinned() {
    let builder = TraceBuilder::new(TraceBuilder::paper_families()).seed(11);
    let trace = BurstyTrace::paper_like(200.0, 1100.0);
    assert_eq!(digest(&builder, &trace), (719_656, 0xda46_1c11_08e2_c173));
}

#[test]
fn variable_input_flat_trace_is_pinned() {
    let builder = TraceBuilder::new(TraceBuilder::paper_families())
        .seed(7)
        .variable_input_sizes(0.5);
    let trace = FlatTrace {
        qps: 400.0,
        secs: 60,
    };
    assert_eq!(digest(&builder, &trace), (23_816, 0x8d78_a24b_1b2d_06e0));
}

#[test]
fn recorded_trace_is_pinned() {
    let builder = TraceBuilder::new(vec![ModelFamily::Bert, ModelFamily::ResNet]).seed(3);
    let trace =
        RecordedTrace::from_series((0..90).map(|s| 20.0 + f64::from(s % 7) * 15.0).collect());
    assert_eq!(digest(&builder, &trace), (5_873, 0xd1cd_429c_3390_cc72));
}
