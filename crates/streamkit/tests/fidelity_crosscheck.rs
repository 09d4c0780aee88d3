//! Cross-check the telemetry self-sampling φ against the paper path.
//!
//! `obskit::series::fidelity_phi` bins a series into obskit's log₂
//! buckets and `sampling::disparity` bins packet populations into
//! `nettrace::Histogram`s; both score φ with the one kernel,
//! `obskit::paired_phi`. This test pins the two binning paths to each
//! other: the same series pushed through `nettrace::Histogram` with
//! explicit log₂ edges and scored by `sampling::disparity` must produce
//! bit-identical φ, for every systematic stride the self-check uses
//! (k ∈ {2, 5, 10}).

use nettrace::{BinSpec, Histogram};

/// Log₂ bin edges matching obskit's histogram buckets: bin 0 = [0,2),
/// bin i = [2^i, 2^(i+1)), bin 63 = [2^63, ∞).
fn log2_edges() -> BinSpec {
    BinSpec::Edges((1..64).map(|i| 1u64 << i).collect())
}

fn synthetic_series(n: u64) -> Vec<f64> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut vals = Vec::with_capacity(n as usize);
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        // Mix a wide log-range (bit-shifted LCG output) with a slow
        // drift so downsampling has structure to distort.
        let v = (state >> 52) + i % 97;
        vals.push(v as f64);
    }
    vals
}

#[test]
fn obskit_fidelity_phi_matches_sampling_disparity() {
    let vals = synthetic_series(500);
    for k in [2usize, 5, 10] {
        let phi_series = obskit::fidelity_phi(&vals, k).expect("phi defined");
        let mut pop = Histogram::new(log2_edges());
        let mut smp = Histogram::new(log2_edges());
        for v in &vals {
            pop.observe(*v as u64);
        }
        for v in vals.iter().step_by(k) {
            smp.observe(*v as u64);
        }
        let report = sampling::disparity(&pop, &smp).expect("disparity defined");
        assert_eq!(
            phi_series.to_bits(),
            report.phi.to_bits(),
            "k={k}: series phi {phi_series} != disparity phi {}",
            report.phi
        );
        assert!((0.0..=std::f64::consts::SQRT_2).contains(&phi_series));
    }
}

#[test]
fn crosscheck_holds_on_skewed_and_constant_series() {
    // Constant: φ must be exactly 0 on both paths.
    let flat = vec![1024.0; 200];
    let phi = obskit::fidelity_phi(&flat, 5).unwrap();
    let mut pop = Histogram::new(log2_edges());
    let mut smp = Histogram::new(log2_edges());
    for v in &flat {
        pop.observe(*v as u64);
    }
    for v in flat.iter().step_by(5) {
        smp.observe(*v as u64);
    }
    let report = sampling::disparity(&pop, &smp).unwrap();
    assert_eq!(phi.to_bits(), report.phi.to_bits());
    assert!(phi.abs() < 1e-15);

    // Period-2 bimodal with k=2: the downsample sees one mode only;
    // both paths must agree on the (large) distortion.
    let mut bimodal = Vec::new();
    for i in 0..300u64 {
        bimodal.push(if i % 2 == 0 { 3.0 } else { 3.0e9 });
    }
    let phi = obskit::fidelity_phi(&bimodal, 2).unwrap();
    let mut pop = Histogram::new(log2_edges());
    let mut smp = Histogram::new(log2_edges());
    for v in &bimodal {
        pop.observe(*v as u64);
    }
    for v in bimodal.iter().step_by(2) {
        smp.observe(*v as u64);
    }
    let report = sampling::disparity(&pop, &smp).unwrap();
    assert_eq!(phi.to_bits(), report.phi.to_bits());
    assert!(phi > 0.5, "k=2 must visibly distort a period-2 series");
}
