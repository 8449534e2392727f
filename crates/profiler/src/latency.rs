//! The synthetic latency model substituting for hardware profiling.

use crate::{DeviceType, VariantSpec};

/// Maps a variant's reference latency onto any device type and batch size.
///
/// The paper measures these numbers by running ONNX models on the physical
/// cluster; this model reproduces the qualitative structure of those
/// measurements:
///
/// * **Affine in the batch size** — `l(b) = overhead + base · (1 + (b-1)·μ)`
///   where `μ` is the device's marginal per-item cost. Accelerators amortize
///   batched work (`μ ≪ 1`); CPUs barely do (`μ ≈ 1`).
/// * **Per-device slowdown** — each device type scales a variant's V100
///   reference latency by a constant factor.
/// * **Transformer penalty on CPUs** — large-matmul NLP models run
///   disproportionately badly on CPUs.
///
/// # Examples
///
/// ```
/// use proteus_profiler::{DeviceType, LatencyModel, ModelFamily, ModelZoo};
///
/// let zoo = ModelZoo::paper_table3();
/// let model = LatencyModel::default();
/// let b0 = zoo.variants_of(ModelFamily::EfficientNet).next().unwrap();
/// let v100 = model.latency_ms(b0, DeviceType::V100, 1);
/// let cpu = model.latency_ms(b0, DeviceType::Cpu, 1);
/// assert!(cpu > 5.0 * v100);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct LatencyModel;

/// Extra slowdown multiplier applied to transformer families on CPUs.
const CPU_TRANSFORMER_PENALTY: f64 = 2.0;

impl LatencyModel {
    /// Inference latency of one batch, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero: an empty batch is never executed.
    pub fn latency_ms(&self, variant: &VariantSpec, device: DeviceType, batch: u32) -> f64 {
        assert!(batch > 0, "batch size must be at least 1");
        let mut base = variant.reference_latency_ms() * device.slowdown();
        if device == DeviceType::Cpu && variant.family().is_transformer() {
            base *= CPU_TRANSFORMER_PENALTY;
        }
        device.kernel_overhead_ms() + base * (1.0 + (batch as f64 - 1.0) * device.batch_marginal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelFamily, ModelZoo};

    fn zoo() -> ModelZoo {
        ModelZoo::paper_table3()
    }

    fn first(family: ModelFamily) -> VariantSpec {
        zoo().variants_of(family).next().unwrap().clone()
    }

    #[test]
    fn latency_increases_with_batch() {
        let m = LatencyModel::default();
        let v = first(ModelFamily::ResNet);
        for d in DeviceType::ALL {
            let mut prev = 0.0;
            for b in 1..=32 {
                let l = m.latency_ms(&v, d, b);
                assert!(l > prev, "latency must be strictly increasing in batch");
                prev = l;
            }
        }
    }

    #[test]
    fn device_speed_ordering() {
        let m = LatencyModel::default();
        let v = first(ModelFamily::EfficientNet);
        let v100 = m.latency_ms(&v, DeviceType::V100, 4);
        let gtx = m.latency_ms(&v, DeviceType::Gtx1080Ti, 4);
        let cpu = m.latency_ms(&v, DeviceType::Cpu, 4);
        assert!(v100 < gtx && gtx < cpu);
    }

    #[test]
    fn transformers_pay_cpu_penalty() {
        let m = LatencyModel::default();
        // Batch-1 latency past the kernel overhead, without any penalty.
        let unpenalized = |v: &VariantSpec, d: DeviceType| v.reference_latency_ms() * d.slowdown();
        let compute =
            |v: &VariantSpec, d: DeviceType| m.latency_ms(v, d, 1) - d.kernel_overhead_ms();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b;
        let bert = first(ModelFamily::Bert);
        assert!(bert.family().is_transformer());
        assert!(close(
            compute(&bert, DeviceType::Cpu),
            CPU_TRANSFORMER_PENALTY * unpenalized(&bert, DeviceType::Cpu)
        ));
        // GPU latency is unaffected by the CPU penalty, and so are the
        // other families on CPUs.
        assert!(close(
            compute(&bert, DeviceType::V100),
            unpenalized(&bert, DeviceType::V100)
        ));
        let resnet = first(ModelFamily::ResNet);
        assert!(close(
            compute(&resnet, DeviceType::Cpu),
            unpenalized(&resnet, DeviceType::Cpu)
        ));
    }

    #[test]
    fn batching_amortizes_on_gpu_more_than_cpu() {
        let m = LatencyModel::default();
        let v = first(ModelFamily::ResNet);
        // Per-item latency at batch 16 vs batch 1.
        let gain = |d: DeviceType| {
            let b1 = m.latency_ms(&v, d, 1);
            let b16 = m.latency_ms(&v, d, 16) / 16.0;
            b1 / b16
        };
        assert!(gain(DeviceType::V100) > gain(DeviceType::Cpu));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let m = LatencyModel::default();
        let v = first(ModelFamily::ResNet);
        m.latency_ms(&v, DeviceType::V100, 0);
    }
}
