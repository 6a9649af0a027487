//! GPU-pipeline integration: step accounting, stream semantics, and the
//! per-kernel structure of a cusFFT execution on the simulated device.

use std::sync::Arc;

use cusfft::{CusFft, Variant};
use gpu_sim::{DeviceSpec, GpuDevice};
use sfft_cpu::SfftParams;
use signal::{MagnitudeModel, SparseSignal};

fn run(variant: Variant, n: usize, k: usize) -> (cusfft::CusFftOutput, Arc<GpuDevice>) {
    let device = Arc::new(GpuDevice::k20x());
    let params = Arc::new(SfftParams::tuned(n, k));
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 17);
    let out = CusFft::new(device.clone(), params, variant).execute(&s.time, 23);
    (out, device)
}

#[test]
fn baseline_launches_expected_kernel_set() {
    let (_, device) = run(Variant::Baseline, 1 << 12, 8);
    let names: Vec<String> = device.records().iter().map(|r| r.name.clone()).collect();
    for expected in [
        "perm_filter_partition",
        "cufft_batched_loc",
        "cufft_batched_est",
        "magnitude",
        "cutoff_sort",
        "locate",
        "reconstruct",
    ] {
        assert!(
            names.iter().any(|n| n.starts_with(expected)),
            "missing kernel {expected}; launched: {names:?}"
        );
    }
    assert!(
        !names.iter().any(|n| n.starts_with("remap")),
        "baseline must not use the async layout"
    );
}

#[test]
fn optimized_launches_expected_kernel_set() {
    let (_, device) = run(Variant::Optimized, 1 << 12, 8);
    let names: Vec<String> = device.records().iter().map(|r| r.name.clone()).collect();
    for expected in [
        "remap",
        "exec",
        "bucket_reduce",
        "cutoff_select",
        "noise_floor",
    ] {
        assert!(
            names.iter().any(|n| n.starts_with(expected)),
            "missing kernel {expected}"
        );
    }
    assert!(
        !names.iter().any(|n| n.starts_with("cutoff_sort")),
        "optimized must use fast selection, not Thrust sort"
    );
}

#[test]
fn loop_count_matches_parameters() {
    let n = 1 << 12;
    let params = SfftParams::tuned(n, 8);
    let loops = params.loops_total();
    let (_, device) = run(Variant::Baseline, n, 8);
    let filters = device
        .records()
        .iter()
        .filter(|r| r.name.starts_with("perm_filter_partition"))
        .count();
    assert_eq!(filters, loops, "one filter kernel per loop");
    let sorts = device
        .records()
        .iter()
        .filter(|r| r.name.starts_with("cutoff_sort"))
        .count();
    assert_eq!(sorts, params.loops_loc, "one cutoff per location loop");
}

#[test]
fn elapsed_time_respects_schedule_bounds() {
    let (out, device) = run(Variant::Optimized, 1 << 13, 16);
    let records = device.records();
    let serial_sum: f64 = records.iter().map(|r| r.cost.total).sum();
    let longest: f64 = records.iter().map(|r| r.cost.total).fold(0.0, f64::max);
    // Fair-share device model: overlapping device kernels split bandwidth,
    // so the makespan sits between the longest op and the serial sum (the
    // reduce kernel's event dependencies keep it honest — before events
    // were added it could race ahead of the chunk execs).
    assert!(
        out.sim_time <= serial_sum + 1e-12,
        "makespan cannot exceed serial sum"
    );
    assert!(out.sim_time >= longest - 1e-15);
    assert!(out.sim_time > 0.0);
}

#[test]
fn transfers_are_charged_in_and_out() {
    let (out, device) = run(Variant::Baseline, 1 << 12, 8);
    let recs = device.records();
    // Input is device-resident by convention; its cost is reported
    // separately and must match the PCIe model.
    assert!(recs.iter().all(|r| !r.name.starts_with("htod")));
    assert!(out.input_transfer > 0.0);
    let expected = gpu_sim::transfer_time(
        device.spec(),
        (1usize << 12) * std::mem::size_of::<fft::Cplx>(),
    );
    assert!((out.input_transfer - expected).abs() < 1e-15);
    // Sparse results go back over PCIe.
    assert!(recs.iter().any(|r| r.name.starts_with("dtoh")));
}

#[test]
fn step_breakdown_sums_to_serial_total() {
    let (out, device) = run(Variant::Optimized, 1 << 12, 8);
    let serial_sum: f64 = device.records().iter().map(|r| r.cost.total).sum();
    assert!((out.steps.total() - serial_sum).abs() < 1e-12);
}

#[test]
fn bigger_devices_run_faster() {
    let n = 1 << 14;
    let k = 32;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 2);
    let params = Arc::new(SfftParams::tuned(n, k));

    let k20x = CusFft::new(
        Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x())),
        params.clone(),
        Variant::Optimized,
    )
    .execute(&s.time, 1);
    let k40 = CusFft::new(
        Arc::new(GpuDevice::new(DeviceSpec::tesla_k40())),
        params,
        Variant::Optimized,
    )
    .execute(&s.time, 1);
    assert!(
        k40.sim_time < k20x.sim_time,
        "K40 ({:.3e}) should beat K20x ({:.3e})",
        k40.sim_time,
        k20x.sim_time
    );
    assert_eq!(
        k40.recovered, k20x.recovered,
        "results are device-independent"
    );
}

#[test]
fn profiler_report_is_renderable() {
    let (_, device) = run(Variant::Optimized, 1 << 12, 8);
    let report = device.profile_report();
    assert!(report.contains("remap"));
    assert!(report.contains("reconstruct"));
    let recs = device.records();
    let mut kernels: Vec<&str> = recs.iter().map(|r| r.name.as_str()).collect();
    kernels.sort_unstable();
    kernels.dedup();
    assert!(kernels.len() >= 5);
    assert!(recs.iter().all(|r| r.cost.total >= 0.0));
}
