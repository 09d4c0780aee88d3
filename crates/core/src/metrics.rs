//! The disparity-metric suite of the paper's §5.2.
//!
//! Given the parent population's binned distribution and a sample's
//! counts over the same bins, [`disparity`] computes every metric the
//! paper considers (Figure 3 plots them side by side):
//!
//! * **Pearson χ²** — `Σ (Oᵢ−Eᵢ)²/Eᵢ` with `Eᵢ` the population
//!   proportions scaled to the sample size; sensitive to sample size.
//! * **significance level** — upper-tail p-value of χ² at `B−1` degrees
//!   of freedom (the population is fully known; no fitted parameters).
//! * **cost** — the ℓ₁ distance between the population counts and the
//!   sample counts *scaled up by the inverse sampling fraction*: the
//!   absolute packet-count error a provider would make charging from the
//!   sample (the paper's billing example).
//! * **relative cost** — cost × sampling fraction, crediting cheaper
//!   samples for their resource savings.
//! * **Paxson X²** — `Σ (Oᵢ−Eᵢ)²/Eᵢ²`, size-invariant, and the derived
//!   average normalized deviation `k̄ = sqrt(X²/B)`.
//! * **φ (phi) coefficient** (Fleiss) — `sqrt(χ²ₚ/n)` where `χ²ₚ` is the
//!   *paired* chi-square `Σ (Eᵢ−Oᵢ)²/(Eᵢ+Oᵢ)` over bins where either
//!   side has mass; size-invariant, the paper's metric of choice.
//!   `φ = 0` means the sample reflects the population perfectly; the
//!   paired denominator bounds it above by `√2` (since
//!   `χ²ₚ ≤ Σ(Eᵢ+Oᵢ) = 2n`), so a completely disjoint sample scores
//!   `√2` rather than an unbounded (or, for mass in zero-expectation
//!   bins, silently ignored) value — the goodness-of-fit form previously
//!   used here exploded on near-empty expected bins and *missed* sample
//!   mass in impossible bins entirely.

use nettrace::Histogram;
use statkit::chi2::chi2_sf;

/// All disparity metrics between one sample and its parent population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisparityReport {
    /// Pearson χ² statistic.
    pub chi2: f64,
    /// Degrees of freedom used for the significance level.
    pub df: u32,
    /// χ² upper-tail significance level (p-value).
    pub significance: f64,
    /// ℓ₁ distance between population counts and scaled-up sample counts.
    pub cost: f64,
    /// `cost × sampling fraction`.
    pub relative_cost: f64,
    /// Paxson's size-invariant X².
    pub x2: f64,
    /// Average normalized deviation `k̄ = sqrt(X² / B)`.
    pub k_avg: f64,
    /// Fleiss' φ coefficient — the paper's primary score. Always finite
    /// and in `[0, √2]` for any nonempty sample.
    pub phi: f64,
    /// Sample size (packets).
    pub sample_size: u64,
    /// Sampling fraction `n/N`.
    pub fraction: f64,
}

impl DisparityReport {
    /// `1 − significance`, the form Figure 3 plots.
    #[must_use]
    pub fn one_minus_significance(&self) -> f64 {
        1.0 - self.significance
    }

    /// Whether a χ² test at level `alpha` would reject the hypothesis
    /// that the sample was drawn from the population distribution.
    #[must_use]
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.significance < alpha
    }
}

/// Compute the full disparity suite between a population histogram and a
/// sample histogram over the *same* bins. φ is [`obskit::paired_phi`]
/// of the two histograms' counts.
///
/// Returns `None` when the sample is empty (no metrics are defined) —
/// which legitimately happens at extreme sampling granularities over
/// short intervals, and which callers must surface rather than score.
///
/// # Panics
/// Panics if the bin specs differ, or if the population histogram is
/// empty (scoring against an empty population is a programming error).
#[must_use]
pub fn disparity(population: &Histogram, sample: &Histogram) -> Option<DisparityReport> {
    assert_eq!(
        population.spec(),
        sample.spec(),
        "population and sample must share bins"
    );
    assert!(
        population.total() > 0,
        "population histogram must be nonempty"
    );
    let phi = obskit::paired_phi(population.counts(), sample.counts())?;
    let n = sample.total();
    let big_n = population.total();
    let fraction = n as f64 / big_n as f64;

    let mut chi2 = 0.0;
    let mut x2 = 0.0;
    let mut cost = 0.0;
    let mut used_bins = 0u32;
    let bins = population.counts().len();

    for i in 0..bins {
        let pop = population.counts()[i] as f64;
        let obs = sample.counts()[i] as f64;
        let expected = pop * fraction;
        let d = obs - expected;
        if expected > 0.0 {
            chi2 += d * d / expected;
            x2 += d * d / (expected * expected);
            used_bins += 1;
        }
        // Cost compares the provider's scaled-up estimate against truth.
        cost += (obs / fraction - pop).abs();
    }
    // At least two informative bins are needed for a χ² df; with fewer,
    // the distribution is degenerate and φ is still well-defined via
    // chi2 (which will be 0 if the sample matches the single bin).
    let df = used_bins.saturating_sub(1).max(1);
    let significance = chi2_sf(df, chi2);
    if obskit::recording_enabled() {
        obskit::counter("sampling_disparity_tests_total").inc();
        obskit::counter("sampling_disparity_cells_evaluated_total").add(u64::from(used_bins));
    }
    Some(DisparityReport {
        chi2,
        df,
        significance,
        cost,
        relative_cost: cost * fraction,
        x2,
        k_avg: (x2 / bins as f64).sqrt(),
        phi,
        sample_size: n,
        fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::BinSpec;

    fn hist(counts: &[u64]) -> Histogram {
        // Edges chosen so bin i receives value 10*i.
        let edges: Vec<u64> = (1..counts.len() as u64).map(|i| i * 10).collect();
        let mut h = Histogram::new(BinSpec::Edges(edges));
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                h.observe(i as u64 * 10);
            }
        }
        h
    }

    #[test]
    fn perfect_proportional_sample_scores_zero() {
        let pop = hist(&[500, 300, 200]);
        let sam = hist(&[50, 30, 20]);
        let r = disparity(&pop, &sam).unwrap();
        assert_eq!(r.chi2, 0.0);
        assert_eq!(r.phi, 0.0);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.x2, 0.0);
        assert!((r.significance - 1.0).abs() < 1e-12);
        assert_eq!(r.sample_size, 100);
        assert!((r.fraction - 0.1).abs() < 1e-12);
        assert!(!r.rejects_at(0.05));
    }

    #[test]
    fn empty_sample_returns_none() {
        let pop = hist(&[10, 10]);
        let sam = hist(&[0, 0]);
        assert!(disparity(&pop, &sam).is_none());
    }

    #[test]
    fn known_chi2_value() {
        // Population proportions (0.5, 0.5); sample (60, 40) of 100.
        // E = (50, 50); chi2 = 100/50 + 100/50 = 4; df = 1.
        let pop = hist(&[500, 500]);
        let sam = hist(&[60, 40]);
        let r = disparity(&pop, &sam).unwrap();
        assert!((r.chi2 - 4.0).abs() < 1e-9);
        assert_eq!(r.df, 1);
        // p-value of chi2=4, df=1 ~ 0.0455 -> rejected at 0.05.
        assert!((r.significance - 0.0455).abs() < 0.001);
        assert!(r.rejects_at(0.05));
        assert!(!r.rejects_at(0.01));
        // Paired chi2 = 10²/(50+60) + 10²/(50+40) = 100/110 + 100/90;
        // phi = sqrt(chi2_paired / 100) ~ 0.1421 (the goodness-of-fit
        // form gave ~0.1414 here — near-identical on good samples).
        let paired = 100.0 / 110.0 + 100.0 / 90.0;
        assert!((r.phi - (paired / 100.0f64).sqrt()).abs() < 1e-12);
        // X2 = 100/2500 + 100/2500 = 0.08; k = sqrt(0.08/2) = 0.2.
        assert!((r.x2 - 0.08).abs() < 1e-12);
        assert!((r.k_avg - 0.2).abs() < 1e-12);
        // cost: scaled-up sample = (600, 400); |600-500| + |400-500| = 200.
        assert!((r.cost - 200.0).abs() < 1e-9);
        assert!((r.relative_cost - 20.0).abs() < 1e-9);
    }

    #[test]
    fn phi_is_size_invariant_chi2_is_not() {
        // Same proportional deviation at 10x the sample size: chi2 grows
        // ~10x, phi stays put. (The paper's §5.2 motivation.)
        let pop = hist(&[5000, 5000]);
        let small = hist(&[60, 40]);
        let large = hist(&[600, 400]);
        let rs = disparity(&pop, &small).unwrap();
        let rl = disparity(&pop, &large).unwrap();
        assert!(rl.chi2 > 9.0 * rs.chi2);
        assert!((rl.phi - rs.phi).abs() < 1e-9);
        assert!((rl.x2 - rs.x2).abs() < 0.05 * rs.x2.max(1e-12));
    }

    #[test]
    fn worse_samples_score_higher() {
        let pop = hist(&[800, 100, 100]);
        let good = hist(&[78, 11, 11]);
        let bad = hist(&[50, 25, 25]);
        let rg = disparity(&pop, &good).unwrap();
        let rb = disparity(&pop, &bad).unwrap();
        assert!(rb.phi > rg.phi);
        assert!(rb.cost > rg.cost);
        assert!(rb.x2 > rg.x2);
    }

    #[test]
    fn zero_population_bins_are_skipped() {
        let pop = hist(&[100, 0, 100]);
        let sam = hist(&[10, 0, 10]);
        let r = disparity(&pop, &sam).unwrap();
        assert_eq!(r.df, 1); // two informative bins
        assert_eq!(r.chi2, 0.0);
    }

    #[test]
    fn sample_mass_in_impossible_bin() {
        // A sample observation in a bin the population says is empty:
        // the goodness-of-fit chi2 skips it (E=0) but both phi and cost
        // must still charge for it — the old phi formula scored this
        // sample as if the impossible packet did not exist.
        let pop = hist(&[100, 0]);
        let sam = hist(&[9, 1]);
        let r = disparity(&pop, &sam).unwrap();
        assert!(r.cost > 0.0);
        // paired chi2 = (10-9)²/19 + (0-1)²/1; phi = sqrt(chi2_p/10).
        let expected_phi = ((1.0 / 19.0 + 1.0) / 10.0f64).sqrt();
        assert!((r.phi - expected_phi).abs() < 1e-12, "{}", r.phi);
    }

    #[test]
    fn phi_is_bounded_for_disjoint_distributions() {
        // Fully disjoint population and sample: the worst case. The old
        // goodness-of-fit phi was unbounded here (it blew up whenever
        // sample mass landed on near-empty expected bins); the paired
        // form caps at √2 exactly.
        let pop = hist(&[1_000_000, 1, 0]);
        let sam = hist(&[0, 0, 10]);
        let r = disparity(&pop, &sam).unwrap();
        assert!(r.phi.is_finite());
        assert!(r.phi <= 2.0f64.sqrt() + 1e-12, "{}", r.phi);
        assert!(
            r.phi > 1.0,
            "disjoint sample should score near √2: {}",
            r.phi
        );
    }

    #[test]
    fn phi_finite_and_bounded_property() {
        // Deterministic sweep over adversarial count shapes (the
        // faultkit state fuzzer covers random ones): φ must always be
        // finite and in [0, √2] for any nonempty population and sample.
        let shapes: &[(&[u64], &[u64])] = &[
            (&[1, 0, 0], &[0, 0, 1]),
            (&[u32::MAX as u64, 1], &[0, 1]),
            (&[1, 1, 1], &[1_000_000, 0, 0]),
            (&[5, 0, 5], &[0, 7, 0]),
            (&[1], &[1]),
        ];
        let bound = 2.0f64.sqrt() + 1e-12;
        for (p, s) in shapes {
            let r = disparity(&hist(p), &hist(s)).unwrap();
            assert!(r.phi.is_finite(), "{p:?}/{s:?}");
            assert!((0.0..=bound).contains(&r.phi), "{p:?}/{s:?}: {}", r.phi);
        }
    }

    #[test]
    #[should_panic(expected = "share bins")]
    fn mismatched_bins_panic() {
        let pop = hist(&[1, 2, 3]);
        let mut other = Histogram::new(BinSpec::paper_interarrival());
        other.observe(5);
        let _ = disparity(&pop, &other);
    }

    #[test]
    #[should_panic(expected = "must be nonempty")]
    fn empty_population_panics() {
        let pop = hist(&[0, 0]);
        let sam = hist(&[1, 1]);
        let _ = disparity(&pop, &sam);
    }
}
