//! A tour of the `gpu-sim` device model as a standalone library: write a
//! CUDA-shaped kernel, launch it, inspect what the cost model believed
//! about it, and use the occupancy advisor — everything the cusFFT
//! kernels build on, demonstrated on a toy SAXPY and a histogram.
//!
//! ```text
//! cargo run --release --example device_model_tour
//! ```

use gpu_sim::{
    occupancy, suggest_block_size, DevAtomicU32, DeviceBuffer, GpuDevice, GpuError, LaunchConfig,
    DEFAULT_STREAM,
};

fn main() -> Result<(), GpuError> {
    let device = GpuDevice::k20x();
    println!("device: {}", device.spec().table_row());

    // --- 1. A coalesced map kernel: y = a*x + y (SAXPY). -----------------
    let n = 1 << 20;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let y: Vec<f64> = vec![1.0; n];
    let a = 2.0;

    let block = suggest_block_size(device.spec(), 0);
    println!("\noccupancy advisor suggests {block}-thread blocks");
    let cfg = LaunchConfig::for_elements(n, block);
    let occ = occupancy(device.spec(), cfg);
    println!(
        "predicted occupancy: {:.0}% ({} warps/SM, limited by {:?})",
        occ.fraction * 100.0,
        occ.warps_per_sm,
        occ.limited_by
    );

    let xb = DeviceBuffer::from_host(&x);
    let yb = DeviceBuffer::from_host(&y);
    let mut out: DeviceBuffer<f64> = device.try_alloc_zeroed(n, DEFAULT_STREAM)?;
    device.try_launch_map("saxpy", cfg, DEFAULT_STREAM, &mut out, |ctx, gm| {
        let i = ctx.global_id();
        let v = a * gm.ld(&xb, i) + gm.ld(&yb, i);
        gm.flops(2);
        v
    })?;
    assert_eq!(out.peek()[3], 2.0 * 3.0 + 1.0);

    // --- 2. The same traffic, scattered: watch the model react. ----------
    let stride = 999_983; // prime → full scatter
    let mut out2: DeviceBuffer<f64> = device.try_alloc_zeroed(n, DEFAULT_STREAM)?;
    device.try_launch_map(
        "saxpy_scattered",
        cfg,
        DEFAULT_STREAM,
        &mut out2,
        |ctx, gm| {
            let i = (ctx.global_id() * stride) % n;
            let v = a * gm.ld(&xb, i) + gm.ld(&yb, i);
            gm.flops(2);
            v
        },
    )?;

    // --- 3. A histogram with atomics. ------------------------------------
    let bins = DevAtomicU32::zeroed(64);
    device.try_launch_foreach("histogram", cfg, DEFAULT_STREAM, |ctx, gm| {
        let i = ctx.global_id();
        bins.fetch_add(gm, i % 64, 1);
    })?;
    assert!(bins.snapshot().iter().all(|&c| c as usize == n / 64));

    // --- 4. What did the device believe happened? ------------------------
    println!("\nper-kernel profile (simulated K20x):");
    print!("{}", device.profile_report());
    let records = device.records();
    let coal = records.iter().find(|r| r.name == "saxpy").unwrap();
    let scat = records.iter().find(|r| r.name == "saxpy_scattered").unwrap();
    println!(
        "scatter cost amplification: {:.1}x time, {:.1}x DRAM bytes",
        scat.cost.total / coal.cost.total,
        scat.stats.dram_bytes / coal.stats.dram_bytes
    );
    println!(
        "total simulated elapsed: {:.3} ms",
        device.elapsed() * 1e3
    );

    assert!(scat.cost.total > coal.cost.total);
    Ok(())
}
