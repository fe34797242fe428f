//! MINT security model (Section II-E; the paper defers to MINT's published
//! model \[33\]).
//!
//! MINT picks one of every `W` candidate activations uniformly. An attacker
//! row fed `a` of the `W` activations of a window escapes that window's
//! mitigation with probability `1 - a/W`; across a refresh window the
//! escape probability decays geometrically. The *tolerated* threshold is
//! the activation count at which the attack success probability over a
//! target horizon drops below a failure budget; the paper's configurations
//! fit the linear rule `TRHD ≈ 20·W` (`TRHS ≈ 40·W`), which
//! [`mirza_core::config::mint_tolerated_trhd`] encodes. This module
//! supplies the underlying probability math plus a Monte-Carlo validator.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use mirza_core::mint::MintSampler;
use rand::Rng;

/// Probability that a row which supplies `acts_per_window` of every
/// `w`-activation window escapes selection for `windows` consecutive
/// windows.
pub fn escape_probability(w: u32, acts_per_window: u32, windows: u32) -> f64 {
    assert!(acts_per_window <= w, "a window holds at most W activations");
    let per_window = 1.0 - f64::from(acts_per_window) / f64::from(w);
    per_window.powi(windows as i32)
}

/// Unmitigated activations an attacker can accumulate with failure
/// probability `p_fail`: the attacker dedicates whole windows to the row
/// (`a = W` per window would always be caught, so the optimum feeds fewer
/// rows per window; the paper's circular pattern feeds each row once per
/// `k`-row cycle). For a row fed once per window, escape per window is
/// `1 - 1/W` and the count grows by one per window:
/// `n(p) = ln(p) / ln(1 - 1/W)` activations.
pub fn unmitigated_acts_at(w: u32, p_fail: f64) -> f64 {
    assert!((0.0..1.0).contains(&p_fail) && p_fail > 0.0);
    p_fail.ln() / (1.0 - 1.0 / f64::from(w)).ln()
}

/// Monte-Carlo estimate of the maximum unmitigated activation run of a
/// single-row attacker against MINT-`w` over `trials` windows.
pub fn monte_carlo_max_run(w: u32, trials: u32, seed: u64) -> u32 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mint = MintSampler::new(w, rng.gen());
    let target = 0u32;
    let (mut run, mut max_run) = (0u32, 0u32);
    for i in 0..trials * w {
        let row = if i % w == 0 { target } else { 1 + (i % w) };
        let selected = mint.observe(row);
        if row == target {
            run += 1;
            if run > max_run {
                max_run = run;
            }
        }
        if selected == Some(target) {
            run = 0;
        }
    }
    max_run
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirza_core::config::mint_tolerated_trhd;

    #[test]
    fn escape_probability_basics() {
        assert_eq!(escape_probability(12, 12, 1), 0.0);
        assert_eq!(escape_probability(12, 0, 100), 1.0);
        let one = escape_probability(12, 1, 1);
        assert!((one - 11.0 / 12.0).abs() < 1e-12);
        // Decays geometrically.
        assert!(escape_probability(12, 1, 100) < escape_probability(12, 1, 10));
    }

    #[test]
    fn tolerated_threshold_is_conservative_against_the_probability_model() {
        // The linear rule 20*W corresponds to a failure probability below
        // ~0.2 even for a *single* window-per-ACT attacker (the realistic
        // bound is far smaller because mitigation also covers neighbors).
        for w in [8u32, 12, 16, 24] {
            let bound = f64::from(mint_tolerated_trhd(w));
            let p = escape_probability(w, 1, bound as u32);
            assert!(p < 0.2, "W={w}: escape prob {p} at bound {bound}");
        }
    }

    #[test]
    fn monte_carlo_tracks_the_analytic_tail() {
        // Over 50K windows, the longest unmitigated run should be in the
        // vicinity of n(1/50_000) and far below the 20*W bound only for
        // small failure budgets — i.e. the bound is not wildly loose.
        let w = 12u32;
        let max_run = monte_carlo_max_run(w, 50_000, 42);
        let expected = unmitigated_acts_at(w, 1.0 / 50_000.0);
        assert!(
            (f64::from(max_run) - expected).abs() < expected,
            "max run {max_run} vs expected ~{expected:.0}"
        );
        assert!(f64::from(max_run) < 1.5 * f64::from(mint_tolerated_trhd(w)));
    }

    #[test]
    #[should_panic(expected = "at most W")]
    fn rejects_overfull_window() {
        let _ = escape_probability(4, 5, 1);
    }
}
