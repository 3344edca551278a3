//! Algorithm 1 (§III.B.5): calculate the amount of data movement on each
//! source or destination device.
//!
//! A well-balanced wear is approached by iteratively balancing the pair of
//! devices with maximum and minimum model erase count (Eq. 4). Each outer
//! iteration sweeps ε upward in steps of 0.001 until shifting
//! `Δw = Wc_max · ε` pages (HDF) — or `Δu = u_max · ε` utilization (CDF) —
//! from the max device to the min device equalizes their erase estimates
//! (`Δe ≤ 0`), then commits that shift. The paper runs 500 iterations.
//!
//! The HDF variant holds the utilization array fixed ("the impact of
//! migration on disk utilization is ignored for HDF"); the CDF variant
//! symmetrically holds the write-page array fixed (§III.B.5).

use serde::{Deserialize, Serialize};

use crate::wear_model::WearModel;

/// Tunables of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Alg1Config {
    /// Outer iteration count ("total iteration step is set to 500").
    pub iterations: usize,
    /// ε grid step of the inner sweep (0.001 in the paper).
    pub eps_step: f64,
    /// CDF only: never raise a destination's utilization beyond this.
    pub dest_util_cap: f64,
    /// CDF only: never lower a source below 50 % utilization — below the
    /// knee of Fig. 3, "further reduction of the disk utilization has
    /// almost no effect on the wear frequency" (§III.B.5).
    pub min_source_utilization: f64,
    /// Stop iterating once the relative standard deviation of the model
    /// erase counts falls below this — the same "significant wear
    /// imbalance" test as the trigger (§III.B.2); further shuffling
    /// would move data for no wear benefit.
    pub stop_rsd: f64,
    /// CDF only: utilization a single migration round may shed from one
    /// device. When write intensities differ strongly, equalizing Eq. 4
    /// through utilization alone would drain hot sources straight to the
    /// 50 % floor — tens of percent of capacity in one round; this cap
    /// bounds the round (the same disk-saturation reasoning as §III.B.5's
    /// destination threshold) and leaves the rest to later rounds.
    pub max_shed_per_device: f64,
}

impl Default for Alg1Config {
    fn default() -> Self {
        Alg1Config {
            iterations: 500,
            eps_step: 0.001,
            stop_rsd: 0.05,
            dest_util_cap: 0.95,
            min_source_utilization: 0.50,
            max_shed_per_device: 0.015,
        }
    }
}

/// Result of the movement calculation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MovementAmounts {
    /// Per-device delta. HDF: ΔWc in pages (negative ⇒ shift that many
    /// page writes away). CDF: Δu as a utilization fraction (negative ⇒
    /// shed that share of capacity).
    pub delta: Vec<f64>,
    /// Model erase counts after the hypothetical rebalance (diagnostics).
    pub final_erases: Vec<f64>,
    /// Outer iterations actually used before convergence.
    pub iterations_used: usize,
}

/// HDF variant: returns ΔWc per device (pages).
///
/// HDF never moves utilization, so each device's Eq. 4 denominator
/// `Np · (1 − F(u))` is constant for the whole call: F(u) is inverted once
/// per device up front, and every probe after that costs one division.
pub fn calculate_hdf(
    wc_pages: &[f64],
    utilization: &[f64],
    model: &WearModel,
    cfg: &Alg1Config,
) -> MovementAmounts {
    validate_inputs(wc_pages, utilization);
    let n = wc_pages.len();
    let free: Vec<f64> = utilization
        .iter()
        .map(|&u| model.free_pages_per_erase(u))
        .collect();
    let erases = |i: usize, wc: f64| WearModel::erases_at(wc, free[i]);
    let mut wc = wc_pages.to_vec();
    let mut delta = vec![0.0; n];
    let mut used = 0;
    for _ in 0..cfg.iterations {
        let ec: Vec<f64> = (0..n).map(|i| erases(i, wc[i])).collect();
        if rsd(&ec) < cfg.stop_rsd {
            break;
        }
        let Some((x, y)) = max_min_pair(&ec, |_| true) else {
            break;
        };
        // Inner ε sweep: smallest shift that equalizes the pair.
        let mut shift = 0.0;
        let mut eps = 0.0;
        while eps < 1.0 {
            let dw = wc[x] * eps;
            let de = erases(x, wc[x] - dw) - erases(y, wc[y] + dw);
            if de <= 0.0 {
                shift = dw;
                break;
            }
            eps += cfg.eps_step;
        }
        if shift <= 0.0 {
            break; // pair already balanced ⇒ whole array converged
        }
        delta[x] -= shift;
        delta[y] += shift;
        wc[x] -= shift;
        wc[y] += shift;
        used += 1;
    }
    let final_erases = (0..n).map(|i| erases(i, wc[i])).collect();
    MovementAmounts {
        delta,
        final_erases,
        iterations_used: used,
    }
}

/// CDF variant: returns Δu per device (utilization fraction). Sources are
/// restricted to devices at or above `min_source_utilization`, and no
/// destination is pushed past `dest_util_cap`.
pub fn calculate_cdf(
    wc_pages: &[f64],
    utilization: &[f64],
    model: &WearModel,
    cfg: &Alg1Config,
) -> MovementAmounts {
    validate_inputs(wc_pages, utilization);
    let n = wc_pages.len();
    let mut u = utilization.to_vec();
    let mut delta = vec![0.0; n];
    let mut used = 0;
    for _ in 0..cfg.iterations {
        let ec: Vec<f64> = (0..n)
            .map(|i| model.erase_count(wc_pages[i], u[i]))
            .collect();
        if rsd(&ec) < cfg.stop_rsd {
            break;
        }
        // A source must sit above the 50 % floor and still have round
        // budget left.
        let Some((x, y)) = max_min_pair(&ec, |i| {
            u[i] >= cfg.min_source_utilization && -delta[i] < cfg.max_shed_per_device
        }) else {
            break;
        };
        // Per-device floor for this round: the 50 % rule or the shed cap,
        // whichever binds first.
        let floor = cfg
            .min_source_utilization
            .max(utilization[x] - cfg.max_shed_per_device);
        let mut shift = 0.0;
        let mut eps = 0.0;
        while eps < 1.0 {
            let du = u[x] * eps;
            if u[x] - du < floor || u[y] + du > cfg.dest_util_cap {
                // Hit a guard rail before equalizing: commit the largest
                // admissible shift.
                shift = (u[x] - floor).min(cfg.dest_util_cap - u[y]).max(0.0);
                break;
            }
            let de = model.erase_count(wc_pages[x], u[x] - du)
                - model.erase_count(wc_pages[y], u[y] + du);
            if de <= 0.0 {
                shift = du;
                break;
            }
            eps += cfg.eps_step;
        }
        if shift <= 1e-9 {
            break;
        }
        delta[x] -= shift;
        delta[y] += shift;
        u[x] -= shift;
        u[y] += shift;
        used += 1;
    }
    let final_erases = (0..n)
        .map(|i| model.erase_count(wc_pages[i], u[i]))
        .collect();
    MovementAmounts {
        delta,
        final_erases,
        iterations_used: used,
    }
}

fn validate_inputs(wc: &[f64], u: &[f64]) {
    assert_eq!(wc.len(), u.len(), "wc and u arrays must align");
    assert!(
        wc.iter().all(|w| w.is_finite() && *w >= 0.0),
        "write pages must be finite and non-negative"
    );
    assert!(
        u.iter().all(|x| (0.0..=1.0).contains(x)),
        "utilizations must be in [0, 1]"
    );
}

/// Relative standard deviation of a slice (0 for empty/zero-mean input).
fn rsd(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / values.len() as f64;
    var.sqrt() / mean
}

/// Indices of the devices with maximal and minimal erase count; the source
/// must additionally satisfy `source_ok`. `None` when no distinct
/// admissible pair with a strict gap exists.
fn max_min_pair(ec: &[f64], source_ok: impl Fn(usize) -> bool) -> Option<(usize, usize)> {
    let mut x: Option<usize> = None;
    let mut y: Option<usize> = None;
    for i in 0..ec.len() {
        if source_ok(i) && x.is_none_or(|x| ec[i] > ec[x]) {
            x = Some(i);
        }
        if y.is_none_or(|y| ec[i] < ec[y]) {
            y = Some(i);
        }
    }
    match (x, y) {
        (Some(x), Some(y)) if x != y && ec[x] > ec[y] => Some((x, y)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_cluster::metrics::rsd;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model() -> WearModel {
        WearModel::paper(32)
    }

    #[test]
    fn hdf_reduces_wear_imbalance() {
        let wc = [100_000.0, 20_000.0, 30_000.0, 10_000.0];
        let u = [0.7, 0.6, 0.65, 0.5];
        let m = model();
        let before: Vec<f64> = (0..4).map(|i| m.erase_count(wc[i], u[i])).collect();
        let out = calculate_hdf(&wc, &u, &m, &Alg1Config::default());
        assert!(
            rsd(out.final_erases.iter().copied()) < rsd(before.iter().copied()) * 0.2,
            "imbalance must shrink dramatically: {:?} -> {:?}",
            before,
            out.final_erases
        );
    }

    #[test]
    fn hdf_deltas_conserve_write_pages() {
        let wc = [50_000.0, 10_000.0, 5_000.0];
        let u = [0.7, 0.7, 0.7];
        let out = calculate_hdf(&wc, &u, &model(), &Alg1Config::default());
        let total: f64 = out.delta.iter().sum();
        assert!(total.abs() < 1e-6, "ΔWc must sum to zero, got {total}");
        // The hottest device sheds, the coldest gains.
        assert!(out.delta[0] < 0.0);
        assert!(out.delta[2] > 0.0);
    }

    #[test]
    fn equal_utilization_hdf_equalizes_wc() {
        let wc = [40_000.0, 0.0];
        let u = [0.6, 0.6];
        let out = calculate_hdf(&wc, &u, &model(), &Alg1Config::default());
        // With equal u, balance means equal Wc: each ends near 20 000.
        assert!((out.delta[0] + 20_000.0).abs() < 1_000.0, "{:?}", out.delta);
        assert!((out.delta[1] - 20_000.0).abs() < 1_000.0);
    }

    #[test]
    fn balanced_input_is_a_fixed_point() {
        let wc = [10_000.0; 4];
        let u = [0.6; 4];
        let out = calculate_hdf(&wc, &u, &model(), &Alg1Config::default());
        assert!(out.delta.iter().all(|d| *d == 0.0));
        assert_eq!(out.iterations_used, 0);
        let out = calculate_cdf(&wc, &u, &model(), &Alg1Config::default());
        assert!(out.delta.iter().all(|d| *d == 0.0));
    }

    #[test]
    fn hdf_respects_utilization_in_the_model() {
        // Same writes everywhere, but one device is much fuller: it has
        // the highest model wear, so HDF shifts writes away from it.
        let wc = [20_000.0; 3];
        let u = [0.95, 0.5, 0.5];
        let out = calculate_hdf(&wc, &u, &model(), &Alg1Config::default());
        assert!(out.delta[0] < 0.0, "{:?}", out.delta);
    }

    #[test]
    fn cdf_deltas_conserve_utilization() {
        let wc = [30_000.0, 30_000.0, 30_000.0];
        let u = [0.9, 0.6, 0.55];
        let out = calculate_cdf(&wc, &u, &model(), &Alg1Config::default());
        let total: f64 = out.delta.iter().sum();
        assert!(total.abs() < 1e-9);
        assert!(
            out.delta[0] < 0.0,
            "fullest device must shed: {:?}",
            out.delta
        );
    }

    #[test]
    fn cdf_never_drains_source_below_half() {
        let wc = [80_000.0, 10_000.0];
        let u = [0.55, 0.30];
        let cfg = Alg1Config::default();
        let out = calculate_cdf(&wc, &u, &model(), &cfg);
        assert!(u[0] + out.delta[0] >= cfg.min_source_utilization - 1e-9);
    }

    #[test]
    fn cdf_skips_sources_already_below_half() {
        // The wear-hottest device sits below 50 % utilization: CDF cannot
        // help it (§III.B.5), so no movement is planned from it.
        let wc = [90_000.0, 10_000.0];
        let u = [0.40, 0.60];
        let out = calculate_cdf(&wc, &u, &model(), &Alg1Config::default());
        assert!(out.delta[0] >= 0.0, "{:?}", out.delta);
    }

    #[test]
    fn cdf_respects_destination_cap() {
        let wc = [50_000.0, 50_000.0];
        let u = [0.94, 0.93];
        let cfg = Alg1Config::default();
        let out = calculate_cdf(&wc, &u, &model(), &cfg);
        assert!(u[1] + out.delta[1] <= cfg.dest_util_cap + 1e-9);
    }

    #[test]
    fn single_device_is_a_noop() {
        let out = calculate_hdf(&[1e5], &[0.7], &model(), &Alg1Config::default());
        assert_eq!(out.delta, vec![0.0]);
        let out = calculate_cdf(&[1e5], &[0.7], &model(), &Alg1Config::default());
        assert_eq!(out.delta, vec![0.0]);
    }

    #[test]
    fn iteration_budget_limits_work() {
        let wc = [100_000.0, 10.0, 20.0, 30.0];
        let u = [0.7; 4];
        let cfg = Alg1Config {
            iterations: 3,
            ..Default::default()
        };
        let out = calculate_hdf(&wc, &u, &model(), &cfg);
        assert!(out.iterations_used <= 3);
    }

    #[test]
    fn coarser_epsilon_still_converges_roughly() {
        let wc = [60_000.0, 10_000.0, 5_000.0];
        let u = [0.7, 0.6, 0.6];
        let fine = calculate_hdf(&wc, &u, &model(), &Alg1Config::default());
        let coarse = calculate_hdf(
            &wc,
            &u,
            &model(),
            &Alg1Config {
                eps_step: 0.01,
                ..Default::default()
            },
        );
        let r_fine = rsd(fine.final_erases.iter().copied());
        let r_coarse = rsd(coarse.final_erases.iter().copied());
        assert!(
            r_coarse < 0.15,
            "coarse grid should still balance: {r_coarse}"
        );
        assert!(r_fine <= r_coarse + 0.05);
    }

    /// The Algorithm 1 HDF loop as it stood before F(u) was hoisted out of
    /// the ε sweep: every probe prices both devices through
    /// [`WearModel::erase_count`], re-inverting F(u) each time. Kept
    /// verbatim as the bit-identity oracle for [`calculate_hdf`].
    fn calculate_hdf_reference(
        wc_pages: &[f64],
        utilization: &[f64],
        model: &WearModel,
        cfg: &Alg1Config,
    ) -> MovementAmounts {
        validate_inputs(wc_pages, utilization);
        let n = wc_pages.len();
        let mut wc = wc_pages.to_vec();
        let mut delta = vec![0.0; n];
        let mut used = 0;
        for _ in 0..cfg.iterations {
            let ec: Vec<f64> = (0..n)
                .map(|i| model.erase_count(wc[i], utilization[i]))
                .collect();
            if super::rsd(&ec) < cfg.stop_rsd {
                break;
            }
            let Some((x, y)) = max_min_pair(&ec, |_| true) else {
                break;
            };
            // Inner ε sweep: smallest shift that equalizes the pair.
            let mut shift = 0.0;
            let mut eps = 0.0;
            while eps < 1.0 {
                let dw = wc[x] * eps;
                let de = model.erase_count(wc[x] - dw, utilization[x])
                    - model.erase_count(wc[y] + dw, utilization[y]);
                if de <= 0.0 {
                    shift = dw;
                    break;
                }
                eps += cfg.eps_step;
            }
            if shift <= 0.0 {
                break; // pair already balanced ⇒ whole array converged
            }
            delta[x] -= shift;
            delta[y] += shift;
            wc[x] -= shift;
            wc[y] += shift;
            used += 1;
        }
        let final_erases = (0..n)
            .map(|i| model.erase_count(wc[i], utilization[i]))
            .collect();
        MovementAmounts {
            delta,
            final_erases,
            iterations_used: used,
        }
    }

    #[test]
    fn hdf_is_bit_identical_to_the_per_probe_reference() {
        // Utilizations from every regime of F(u): at or below σ (F = 0),
        // mid-range, and past the UR_MAX clamp (only reachable with σ = 0).
        let u_pool = [0.0, 0.1, 0.28, 0.3, 0.5, 0.62, 0.7, 0.85, 0.95, 0.9999, 1.0];
        let cfgs = [
            Alg1Config::default(),
            Alg1Config {
                eps_step: 0.0137,
                ..Default::default()
            },
            Alg1Config {
                iterations: 7,
                ..Default::default()
            },
            Alg1Config {
                stop_rsd: 0.0,
                iterations: 60,
                eps_step: 0.004,
                ..Default::default()
            },
            Alg1Config {
                stop_rsd: 0.3,
                ..Default::default()
            },
        ];
        let models = [
            WearModel::paper(32),
            WearModel::eq2(32),
            WearModel::paper(64),
        ];
        let mut rng = StdRng::seed_from_u64(0xeda1c0);
        let mut moved = 0;
        let mut cases = 0;
        for n in 1..=64usize {
            // Every n under the default tunables and one rotated variant.
            for k in [0, 1 + n % (cfgs.len() - 1)] {
                let (cfg, model) = (&cfgs[k], &models[(n + k) % models.len()]);
                let wc: Vec<f64> = (0..n)
                    .map(|_| match rng.gen_range(0..5u32) {
                        0 => 0.0,
                        1 => rng.gen_range(0..100u32) as f64,
                        _ => rng.gen_range(0.0..200_000.0),
                    })
                    .collect();
                let u: Vec<f64> = (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            u_pool[rng.gen_range(0..u_pool.len())]
                        } else {
                            rng.gen::<f64>()
                        }
                    })
                    .collect();
                let fast = calculate_hdf(&wc, &u, model, cfg);
                let reference = calculate_hdf_reference(&wc, &u, model, cfg);
                assert_eq!(fast, reference, "n {n} cfg {cfg:?} model {model:?}");
                // PartialEq on f64 treats 0.0 == -0.0; the bits must match too.
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast.delta), bits(&reference.delta));
                assert_eq!(bits(&fast.final_erases), bits(&reference.final_erases));
                moved += usize::from(fast.iterations_used > 0);
                cases += 1;
            }
        }
        // Most cases must actually run the ε sweep, not stop at the guards.
        assert!(
            moved > cases / 2,
            "only {moved} of {cases} cases moved data"
        );
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_arrays_panic() {
        calculate_hdf(&[1.0], &[0.5, 0.5], &model(), &Alg1Config::default());
    }
}
