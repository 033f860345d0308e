//! Multi-GPU scaling: the load balancer across 1–8 simulated V100s.
//!
//! ```sh
//! cargo run --release --example multi_gpu_scaling
//! ```
//!
//! Aligns the same batch on growing GPU counts and prints simulated
//! batch time, per-device kernel time and aggregate GCUPS — reproducing
//! the §IV-C behaviour: kernels scale, the serial balancer setup does
//! not, so small batches stop scaling early (the paper's future-work
//! item).

use logan::prelude::*;

fn main() {
    let set = PairSet::generate(512, 0.15, 99);
    println!(
        "batch: {} pairs, {} total bases, X = 500\n",
        set.len(),
        set.total_bases()
    );

    println!(
        "{:>5} {:>14} {:>18} {:>12} {:>10}",
        "GPUs", "batch (s)", "max device (s)", "GCUPS", "speedup"
    );
    let mut t1 = 0.0f64;
    for gpus in [1usize, 2, 3, 4, 6, 8] {
        let multi = Fleet::static_gpus(gpus, DeviceSpec::v100(), LoganConfig::with_x(500));
        let (results, report) = multi.align_pairs_static(&set.pairs);
        assert_eq!(results.len(), set.len());
        let max_dev = report
            .per_worker
            .iter()
            .map(|r| r.sim_time_s)
            .fold(0.0f64, f64::max);
        if gpus == 1 {
            t1 = report.sim_time_s;
        }
        println!(
            "{:>5} {:>14.4} {:>18.4} {:>12.1} {:>9.2}x",
            gpus,
            report.sim_time_s,
            max_dev,
            report.gcups(),
            t1 / report.sim_time_s
        );
    }

    println!(
        "\nThe balancer charges {:.2} s of serial host setup per device \
         (calibrated in logan_core::calibration), so speedup saturates \
         once kernels get cheap — exactly Table II's small-X behaviour.",
        logan::core::calibration::BALANCER_SETUP_S_PER_GPU
    );
}
