//! Resource allocation plans and the MILP that produces them (§4).
//!
//! An [`AllocationPlan`] answers the three coupled questions of the paper:
//! which model variants to host (*model selection*), on which devices
//! (*model placement*), and what fraction of each application's queries each
//! device receives (*query assignment*, the `y(d,q)` of Table 1).
//!
//! [`milp`] builds the optimization of Eqs. 1–7 and decodes its solution
//! into a plan.

pub mod audit;
pub mod milp;

use proteus_profiler::{
    Cluster, DeviceId, DeviceType, ModelFamily, ModelZoo, ProfileStore, VariantId,
};

use crate::FamilyMap;

/// Everything an allocator needs to know about the serving environment.
#[derive(Debug, Clone, Copy)]
pub struct AllocContext<'a> {
    /// The fixed heterogeneous cluster.
    pub cluster: &'a Cluster,
    /// The registered model variants.
    pub zoo: &'a ModelZoo,
    /// Profiled latency/throughput/memory data.
    pub store: &'a ProfileStore,
    /// Devices currently down: allocators must place nothing on them and
    /// route nothing to them (empty = everything is alive).
    pub down: &'a [DeviceId],
}

impl AllocContext<'_> {
    /// Whether a device is alive and therefore placeable.
    pub fn is_up(&self, device: DeviceId) -> bool {
        !self.down.contains(&device)
    }

    /// Number of *live* devices of the given hardware type.
    pub fn up_count_of(&self, device_type: DeviceType) -> usize {
        self.cluster
            .of_type(device_type)
            .filter(|s| self.is_up(s.id))
            .count()
    }

    /// Number of live devices in the cluster.
    pub fn up_len(&self) -> usize {
        self.cluster.iter().filter(|s| self.is_up(s.id)).count()
    }

    /// Peak QPS of `variant` on `device`; 0 when the device is down or
    /// unknown.
    pub(crate) fn peak_qps(&self, variant: VariantId, device: DeviceId) -> f64 {
        match self.cluster.device(device) {
            Some(spec) if self.is_up(device) => self.store.peak_qps(variant, spec.device_type),
            _ => 0.0,
        }
    }
}

/// A complete resource-allocation decision: per-device variant assignment
/// plus per-family routing weights and the resulting capacity.
///
/// # Examples
///
/// ```
/// use proteus_core::AllocationPlan;
/// use proteus_profiler::{DeviceId, ModelFamily, VariantId};
///
/// let mut plan = AllocationPlan::empty(4);
/// let variant = VariantId { family: ModelFamily::ResNet, index: 0 };
/// plan.assign(DeviceId(2), Some(variant));
/// plan.set_routing(ModelFamily::ResNet, vec![(DeviceId(2), 1.0)]);
/// assert_eq!(plan.assignment(DeviceId(2)), Some(variant));
/// assert_eq!(plan.routing(ModelFamily::ResNet).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationPlan {
    assignments: Vec<Option<VariantId>>,
    routing: FamilyMap<Vec<(DeviceId, f64)>>,
    capacity: FamilyMap<f64>,
    /// Factor by which target demand had to be shrunk before the MILP became
    /// feasible (1.0 = full demand served; see §4 "Solving the MILP").
    shrink: f64,
}

impl AllocationPlan {
    /// An empty plan (no models hosted) for a cluster of `num_devices`.
    pub fn empty(num_devices: usize) -> Self {
        Self {
            assignments: vec![None; num_devices],
            routing: FamilyMap::default(),
            capacity: FamilyMap::default(),
            shrink: 1.0,
        }
    }

    /// Number of devices this plan covers.
    pub fn num_devices(&self) -> usize {
        self.assignments.len()
    }

    /// Assigns (or clears) the variant hosted on `device`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn assign(&mut self, device: DeviceId, variant: Option<VariantId>) {
        self.assignments[device.0 as usize] = variant;
    }

    /// The variant hosted on `device`, if any.
    ///
    /// Devices beyond the plan's range report `None` — a plan computed
    /// before an elastic device came online simply does not cover it yet.
    pub fn assignment(&self, device: DeviceId) -> Option<VariantId> {
        self.assignments.get(device.0 as usize).copied().flatten()
    }

    /// Iterates over `(device, variant)` for every hosting device.
    pub fn assignments(&self) -> impl Iterator<Item = (DeviceId, VariantId)> + '_ {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (DeviceId(i as u32), v)))
    }

    /// Replaces the routing entries for `family`.
    ///
    /// Entries are `(device, weight)` with non-negative weights; the router
    /// normalizes, so weights need not sum to one.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    pub fn set_routing(&mut self, family: ModelFamily, entries: Vec<(DeviceId, f64)>) {
        for &(d, w) in &entries {
            assert!(
                w.is_finite() && w >= 0.0,
                "routing weight for {family} on {d} must be non-negative, got {w}"
            );
        }
        self.routing[family] = entries;
    }

    /// The routing entries for `family` (empty = no host, queries dropped).
    pub fn routing(&self, family: ModelFamily) -> &[(DeviceId, f64)] {
        &self.routing[family]
    }

    /// Sets the planned serving capacity for `family` in QPS.
    pub fn set_capacity(&mut self, family: ModelFamily, qps: f64) {
        self.capacity[family] = qps;
    }

    /// Planned serving capacity of `family` in QPS.
    pub fn capacity(&self, family: ModelFamily) -> f64 {
        self.capacity[family]
    }

    /// Total planned capacity over all families.
    pub fn total_capacity(&self) -> f64 {
        self.capacity.total()
    }

    /// Records the demand shrink factor (≥ 1.0) applied before feasibility.
    pub fn set_shrink(&mut self, shrink: f64) {
        self.shrink = shrink;
    }

    /// Demand shrink factor applied before the MILP became feasible
    /// (1.0 = none).
    pub fn shrink(&self) -> f64 {
        self.shrink
    }

    /// The planned effective accuracy: capacity-weighted mean accuracy over
    /// hosting devices, per family.
    pub fn planned_accuracy(&self, ctx: &AllocContext<'_>) -> FamilyMap<f64> {
        let mut acc = FamilyMap::<f64>::default();
        let mut cap = FamilyMap::<f64>::default();
        for (device, variant) in self.assignments() {
            let Some(spec) = ctx.cluster.device(device) else {
                continue;
            };
            let qps = ctx.store.peak_qps(variant, spec.device_type);
            acc[variant.family] += qps * ctx.zoo.variant(variant).map_or(0.0, |v| v.accuracy());
            cap[variant.family] += qps;
        }
        FamilyMap::from_fn(|f| if cap[f] > 0.0 { acc[f] / cap[f] } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(family: ModelFamily, index: u8) -> VariantId {
        VariantId { family, index }
    }

    #[test]
    fn assignment_round_trip() {
        let mut plan = AllocationPlan::empty(3);
        assert_eq!(plan.num_devices(), 3);
        plan.assign(DeviceId(1), Some(vid(ModelFamily::ResNet, 2)));
        assert_eq!(
            plan.assignment(DeviceId(1)),
            Some(vid(ModelFamily::ResNet, 2))
        );
        assert_eq!(plan.assignment(DeviceId(0)), None);
        assert_eq!(plan.assignments().count(), 1);
        plan.assign(DeviceId(1), None);
        assert_eq!(plan.assignments().count(), 0);
    }

    #[test]
    fn capacity_bookkeeping() {
        let mut plan = AllocationPlan::empty(1);
        plan.set_capacity(ModelFamily::Bert, 120.0);
        assert_eq!(plan.capacity(ModelFamily::Bert), 120.0);
        assert_eq!(plan.capacity(ModelFamily::T5), 0.0);
        assert_eq!(plan.total_capacity(), 120.0);
        plan.set_shrink(1.1);
        assert_eq!(plan.shrink(), 1.1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_routing_weight_panics() {
        let mut plan = AllocationPlan::empty(1);
        plan.set_routing(ModelFamily::ResNet, vec![(DeviceId(0), -0.5)]);
    }
}
