//! GPS-style Doppler acquisition with a sparse FFT — after Hassanieh et
//! al., "Faster GPS via the Sparse Fourier Transform" (MobiCom 2012),
//! which the paper cites as a flagship sFFT application.
//!
//! A GPS receiver must find the Doppler shift of each satellite. After
//! wiping off the known PRN spreading code, the residual signal is a pure
//! tone at the Doppler frequency — i.e. a 1-sparse spectrum per
//! satellite, buried in noise. Searching many satellites means many such
//! sparse transforms, which is exactly the regime where a sparse FFT
//! beats a dense one.
//!
//! ```text
//! cargo run --release --example gps_acquisition
//! ```

use std::sync::Arc;

use cusfft::{CusFft, Variant};
use fft::cplx::Cplx;
use gpu_sim::GpuDevice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfft_cpu::SfftParams;
use signal::add_awgn;

/// Generates a ±1 PRN spreading sequence of length `n` from a seed.
fn prn_code(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect()
}

fn main() {
    let n = 1 << 16; // samples per acquisition window
    let satellites = 4;
    let mut rng = StdRng::seed_from_u64(7);

    println!("GPS acquisition: {satellites} satellites, n = {n} samples each");
    println!(
        "{:>5} {:>12} {:>12} {:>9}",
        "sat", "true doppler", "estimated", "status"
    );

    let params = Arc::new(SfftParams::tuned(n, 4));
    let device = Arc::new(GpuDevice::k20x());
    let plan = CusFft::new(device, params, Variant::Optimized);

    let mut total_sim = 0.0;
    let mut all_ok = true;
    for sat in 0..satellites {
        // Satellite transmits its PRN code; channel applies a Doppler
        // shift (a frequency offset) and noise.
        let code = prn_code(n, 1000 + sat as u64);
        let doppler = rng.gen_range(0..n);
        let mut rx: Vec<Cplx> = (0..n)
            .map(|t| {
                let carrier = Cplx::cis(
                    std::f64::consts::TAU * (doppler as u64 * t as u64 % n as u64) as f64
                        / n as f64,
                );
                carrier.scale(code[t])
            })
            .collect();
        add_awgn(&mut rx, 10.0, 55 + sat as u64);

        // Code wipe-off: multiply by the known PRN. What remains is the
        // Doppler tone — a 1-sparse spectrum.
        let wiped: Vec<Cplx> = rx.iter().zip(&code).map(|(s, &c)| s.scale(c)).collect();

        let out = plan.execute(&wiped, 11 + sat as u64);
        total_sim += out.sim_time;
        let est = out
            .recovered
            .iter()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .map(|&(f, _)| f);

        let ok = est == Some(doppler);
        all_ok &= ok;
        println!(
            "{sat:>5} {doppler:>12} {:>12} {:>9}",
            est.map_or("-".into(), |f| f.to_string()),
            if ok { "locked" } else { "MISSED" }
        );
    }

    println!(
        "\ntotal simulated acquisition time ({} satellites): {:.3} ms",
        satellites,
        total_sim * 1e3
    );
    assert!(all_ok, "acquisition failed for at least one satellite");
}
