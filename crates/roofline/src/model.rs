//! Roofline ceilings and measured points.

use logan_gpusim::{DeviceSpec, KernelStats};

/// The instruction roofline of a device.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionRoofline {
    /// Device name for reports.
    pub device: String,
    /// Peak warp-instruction issue rate, GIPS (V100: 489.6).
    pub peak_warp_gips: f64,
    /// Sustained integer warp GIPS (the INT32 plateau; V100: 244.8 by
    /// the paper's own formula — the paper prints 220.8).
    pub int_warp_gips: f64,
    /// HBM bandwidth, GB/s.
    pub hbm_bw_gbps: f64,
}

impl InstructionRoofline {
    /// Build from a device spec.
    pub fn from_spec(spec: &DeviceSpec) -> InstructionRoofline {
        InstructionRoofline {
            device: spec.name.clone(),
            peak_warp_gips: spec.warp_gips(),
            int_warp_gips: spec.int_warp_gips(),
            hbm_bw_gbps: spec.hbm_bw_gbps,
        }
    }

    /// Attainable warp GIPS at operational intensity `oi` (warp
    /// instructions per byte): `min(plateau, OI × BW)`.
    pub(crate) fn attainable_gips(&self, oi: f64) -> f64 {
        (oi * self.hbm_bw_gbps).min(self.int_warp_gips)
    }

    /// The ridge point: OI at which the memory slope meets the INT32
    /// plateau. Kernels to the right are compute-bound.
    pub fn ridge_oi(&self) -> f64 {
        self.int_warp_gips / self.hbm_bw_gbps
    }

    /// Is a kernel at intensity `oi` compute-bound on this device?
    pub fn is_compute_bound(&self, oi: f64) -> bool {
        oi >= self.ridge_oi()
    }
}

/// A measured kernel, positioned on the roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Operational intensity, warp instructions / HBM byte.
    pub oi: f64,
    /// Measured warp GIPS.
    pub gips: f64,
    /// Measured GCUPS (cells per second), for the biology-side reading.
    pub gcups: f64,
}

/// The paper's adapted ceiling (Eq. 1), aggregated form.
///
/// Eq. 1 averages, over the kernel's parallel iterations, the fraction
/// of issued lanes doing useful work:
///
/// `ceiling = f · mean_i(active_i) · B / (MAXR · ceil(T·B / MAXR))`
///
/// where `f` is the INT32 plateau, `B` scheduled blocks, `T` threads per
/// block and `MAXR` the INT32 core count. With `T·B ≫ MAXR` this reduces
/// to `f · mean(active)/T` — the idle-lane discount of anti-diagonals
/// narrower than the block; at small `T·B` the `ceil` term adds the
/// round-up loss of partially filled issue rounds.
pub fn adapted_ceiling(spec: &DeviceSpec, stats: &KernelStats) -> f64 {
    let f = spec.int_warp_gips();
    let b = stats.blocks as f64;
    let t = stats.threads_per_block as f64;
    if b == 0.0 || t == 0.0 || stats.total.iterations == 0 {
        return f;
    }
    let maxr = spec.int32_cores_total() as f64;
    let rounds = (t * b / maxr).ceil();
    let mean_active = stats.mean_active_threads();
    (f * mean_active * b / (maxr * rounds)).min(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_gpusim::BlockCounters;

    fn v100() -> InstructionRoofline {
        InstructionRoofline::from_spec(&DeviceSpec::v100())
    }

    #[test]
    fn ceilings_match_paper_constants() {
        let r = v100();
        assert!((r.peak_warp_gips - 489.6).abs() < 1e-9);
        assert!((r.int_warp_gips - 244.8).abs() < 1e-9);
        // Ridge ≈ 0.272 warp instructions per byte.
        assert!((r.ridge_oi() - 244.8 / 900.0).abs() < 1e-12);
    }

    #[test]
    fn attainable_is_min_of_bounds() {
        let r = v100();
        // Far left: memory slope.
        assert!((r.attainable_gips(0.01) - 9.0).abs() < 1e-9);
        // Far right: plateau.
        assert!((r.attainable_gips(100.0) - r.int_warp_gips).abs() < 1e-9);
        // At the ridge both agree.
        let ridge = r.ridge_oi();
        assert!((r.attainable_gips(ridge) - r.int_warp_gips).abs() < 1e-6);
        assert!(r.is_compute_bound(ridge));
        assert!(!r.is_compute_bound(ridge / 2.0));
    }

    fn stats_with(blocks: usize, threads: usize, iterations: u64, active_sum: u64) -> KernelStats {
        let per_block = BlockCounters {
            warp_instructions: 1000,
            iterations: iterations / blocks as u64,
            active_thread_sum: active_sum / blocks as u64,
            ..Default::default()
        };
        KernelStats::from_blocks(&vec![per_block; blocks], threads, 0)
    }

    #[test]
    fn adapted_ceiling_full_occupancy_saturated() {
        let spec = DeviceSpec::v100();
        // 100k blocks of 128 threads, every lane active every iteration.
        let stats = stats_with(100_000, 128, 1_000_000, 128_000_000);
        let c = adapted_ceiling(&spec, &stats);
        // T·B/MAXR = 2500 exactly; no rounding loss, no idle lanes.
        assert!((c - spec.int_warp_gips()).abs() < 1e-6, "{c}");
    }

    #[test]
    fn adapted_ceiling_discounts_idle_lanes() {
        let spec = DeviceSpec::v100();
        // Same shape but anti-diagonals only half as wide as the block.
        let stats = stats_with(100_000, 128, 1_000_000, 64_000_000);
        let c = adapted_ceiling(&spec, &stats);
        assert!((c - spec.int_warp_gips() / 2.0).abs() < 1e-6, "{c}");
    }

    #[test]
    fn adapted_ceiling_rounding_loss_at_small_grids() {
        let spec = DeviceSpec::v100();
        // One 32-thread block: 32/5120 of the device, one round.
        let stats = stats_with(1, 32, 100, 3200);
        let c = adapted_ceiling(&spec, &stats);
        let expect = spec.int_warp_gips() * 32.0 / 5120.0;
        assert!((c - expect).abs() < 1e-6, "{c} vs {expect}");
    }

    #[test]
    fn adapted_ceiling_never_exceeds_plateau() {
        let spec = DeviceSpec::v100();
        let stats = stats_with(7, 1024, 70, 70 * 1024);
        assert!(adapted_ceiling(&spec, &stats) <= spec.int_warp_gips());
    }

    #[test]
    fn empty_stats_default_to_plateau() {
        let spec = DeviceSpec::v100();
        let stats = KernelStats::default();
        assert_eq!(adapted_ceiling(&spec, &stats), spec.int_warp_gips());
    }
}
