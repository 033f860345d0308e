//! Every tunable constant of the performance model, with provenance.
//!
//! The simulation executes the real algorithms and *counts* their work;
//! these constants convert counted work into device cycles. They are set
//! **once**, from first-principles instruction counts cross-checked
//! against a single published operating point each, and are never varied
//! per experiment — all table/figure *shapes* emerge from measured work.
//! EXPERIMENTS.md discusses the residual absolute-number deviations.

/// Thread-level integer instructions per DP cell in the LOGAN kernel's
/// inner loop (Algorithm 2): character compare + select, three
/// dependency loads with address arithmetic, two adds, three max ops,
/// X-drop compare + select, store, local-max update, strided-loop
/// bookkeeping ≈ 26 architectural instructions; SIMT predication and
/// replay overhead observed on Volta-class GPUs adds ~60%. The resulting
/// 43 puts the kernel's compute ceiling at
/// `244.8 warp-GIPS × 32 / 43 ≈ 182 GCUPS`, immediately above the
/// paper's measured 181.6 GCUPS peak (§VI-B) — a saturated LOGAN run is
/// compute-bound at exactly that instruction mix.
pub(crate) const LOGAN_INSTR_PER_CELL: u32 = 43;

/// Extra per-cell instructions when the second sequence is *not*
/// reversed in memory (ablation of paper Fig. 6): uncoalesced accesses
/// cause transaction replays that occupy issue slots.
pub(crate) const STRIDED_REPLAY_INSTR: u32 = 8;

/// Serial warp instructions of the per-anti-diagonal epilogue executed
/// once per iteration regardless of width: bounds update, three-buffer
/// pointer rotation, memory fences and loop control (Algorithm 1 lines
/// 5–15 minus the trims). Fitted jointly with
/// [`LOGAN_INSTR_PER_CELL`] to the paper's Table II endpoints — the
/// X=10 row (2.2 s) is dominated by this constant (anti-diagonals are
/// ~15 cells wide but the iteration count is fixed at m+n), while the
/// X=5000 row (26.7 s) pins the per-cell term.
pub(crate) const BOUNDS_UPDATE_BASE_INSTR: u32 = 280;

/// Serial instructions per −∞ cell trimmed from the anti-diagonal ends
/// (`ReduceAntiDiagFromStart/End`).
pub(crate) const TRIM_INSTR_PER_CELL: u32 = 4;

/// Dependent-load stall cycles between consecutive anti-diagonals when
/// the three buffers live in HBM but hit L2 (store → cross-SM-visible
/// load on Volta ≈ 190–220 cycles).
pub(crate) const ITER_STALL_CYCLES_HBM: u64 = 200;

/// The same round trip through shared memory (§IV-B ablation).
pub(crate) const ITER_STALL_CYCLES_SHARED: u64 = 60;

/// Hot working set per LOGAN block, bytes per anti-diagonal cell: three
/// `i32` anti-diagonals plus the two character windows
/// (3×4 + 2 = 14).
pub(crate) const HOT_BYTES_PER_WIDTH: usize = 14;

/// Thread-level instructions per cell of the CUDASW++-style full
/// Smith–Waterman comparator: affine E/F recurrences and the query
/// profile lookups of a protein-capable kernel roughly double the X-drop
/// inner loop (CUDASW++ 3.0, Liu et al. 2013).
pub(crate) const FULLSW_INSTR_PER_CELL: u32 = 55;

/// CUDASW++ keeps its query profile in shared memory; the 64 KB
/// reservation limits residency to one block per SM — the occupancy
/// penalty behind its GPU-only GCUPS in Fig. 12.
pub(crate) const FULLSW_SHARED_PER_BLOCK: usize = 64 * 1024;

/// CUDASW++ block size (its published kernels use 256).
pub(crate) const FULLSW_THREADS: usize = 256;

/// Thread-level instructions per cell of the manymap-style banded
/// extension comparator (Feng et al. 2019): seed-chain-extend with
/// traceback bookkeeping in the inner loop.
pub(crate) const MANYMAP_INSTR_PER_CELL: u32 = 80;

/// manymap's fixed DP band half-width (minimap2's default `-r 500`).
pub(crate) const MANYMAP_BAND: usize = 500;

/// manymap block size.
pub(crate) const MANYMAP_THREADS: usize = 512;

/// Host-side CPU GCUPS added by CUDASW++'s hybrid CPU-SIMD mode
/// (Fig. 12 reports the hybrid line ≈ 115 GCUPS above GPU-only; this is
/// the published SIMD contribution of its Xeon host, not simulated).
pub const CUDASW_HYBRID_CPU_GCUPS: f64 = 115.0;

/// Per-GPU host setup seconds of the multi-GPU load balancer: context
/// switches, per-device buffer split and result collection (paper §IV-C
/// reports this overhead keeps 6-GPU runs at ~1.9 s even when kernels
/// take ~0.4 s; Table II's X=10 row implies ≈ 0.22 s per device).
pub const BALANCER_SETUP_S_PER_GPU: f64 = 0.22;

/// Host seconds charged per backend submission by the serving latency
/// model (`logan-serve`): one driver round-trip — argument marshaling,
/// stream launch, completion callback — per coalesced batch. Scaled
/// from the §IV-C balancer overhead (0.22 s covers per-device context
/// switch *plus* buffer split/collect over multi-second batches; a
/// single resident-context launch is ~two orders cheaper). This is the
/// constant per-request submission pays once per request and
/// coalescing pays once per batch.
pub const SERVE_BATCH_SETUP_S: f64 = 0.003;

/// BELLA host seconds per alignment spent in the overlap-detection
/// stage (k-mer counting + SpGEMM + binning), identical for CPU and GPU
/// alignment backends. Calibrated once against Table IV's X=5 CPU row:
/// 53.2 s total minus the modelled alignment time for 1.8 M calls
/// leaves ≈ 45 s of overlap stage → 25 µs per alignment.
pub const BELLA_OVERLAP_S_PER_PAIR: f64 = 25e-6;

/// BELLA → LOGAN host marshaling seconds per alignment: batching the
/// candidate set into device buffers (string copies, index tables)
/// before launch — the reason BELLA+LOGAN *loses* to BELLA+SeqAn at
/// X ≤ 10 in Table IV. Calibrated against Table IV's X=5 GPU row
/// (110.4 s ≈ overlap 45 s + marshal 54 s + kernel).
pub const BELLA_GPU_MARSHAL_S_PER_PAIR: f64 = 30e-6;

/// Fraction of X used to estimate the anti-diagonal band half-width for
/// residency/L2 planning (under unit scoring a deviation from the
/// optimal path costs ≈ 1.5 score per off-diagonal step: one gap plus
/// the forfeited ~0.5/base drift).
pub(crate) const BAND_HALFWIDTH_PER_X: f64 = 1.0 / 1.5;

#[cfg(test)]
mod tests {
    use super::*;
    use logan_gpusim::DeviceSpec;

    #[test]
    fn logan_compute_ceiling_near_paper_peak() {
        let spec = DeviceSpec::v100();
        let gcups_ceiling =
            spec.int_warp_gips() * spec.warp_size as f64 / LOGAN_INSTR_PER_CELL as f64;
        // Paper's measured peak is 181.6 GCUPS; the ceiling must sit just
        // above it (the kernel cannot beat its own instruction mix).
        assert!(
            gcups_ceiling > 181.6 && gcups_ceiling < 230.0,
            "{gcups_ceiling}"
        );
    }

    #[test]
    fn fullsw_occupancy_limited_gcups_near_published() {
        let spec = DeviceSpec::v100();
        // One 256-thread block per SM → 8 warps of 16 needed → 50% issue.
        let resident = spec.blocks_resident_per_sm(FULLSW_THREADS, FULLSW_SHARED_PER_BLOCK);
        assert_eq!(resident, 1);
        let eff = (FULLSW_THREADS as f64 / 32.0) / spec.warps_to_saturate_sm as f64;
        let gcups =
            eff * spec.int_warp_gips() * spec.warp_size as f64 / FULLSW_INSTR_PER_CELL as f64;
        // CUDASW++ GPU-only is ~70 GCUPS in Fig. 12.
        assert!(gcups > 55.0 && gcups < 90.0, "{gcups}");
    }

    #[test]
    fn manymap_gcups_near_published() {
        let spec = DeviceSpec::v100();
        let gcups = spec.int_warp_gips() * spec.warp_size as f64 / MANYMAP_INSTR_PER_CELL as f64;
        // Feng et al. report 96.5 GCUPS.
        assert!(gcups > 85.0 && gcups < 110.0, "{gcups}");
    }
}
