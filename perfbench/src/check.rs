//! Correctness properties computed by the benchmark itself, apart from the
//! codec: nothing here calls into the compressor or compares against a
//! stored copy of earlier output.
//!
//! Every check returns `Err(reason)` on a miss; [`Tally`] turns each
//! operation's outcome into the `attempted` / `failed` counts.

/// Relative f32 rounding unit (2⁻²⁴).
const F32_UNIT: f64 = 1.0 / 16_777_216.0;

/// Per-operation outcome counter.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure reasons, echoed to stderr at the end of a run.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; a miss of any of its checks fails it.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{what}: {reason}"));
            }
        }
    }
}

/// Minimum and range of `x`, with a range floor of 1 for constant data.
pub fn extent(x: &[f32]) -> (f64, f64) {
    let (lo, hi) = x
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(f64::from(v)), hi.max(f64::from(v)))
        });
    let range = hi - lo;
    (lo, if range > 0.0 { range } else { 1.0 })
}

fn sum_sq_diff(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum()
}

/// Range-referenced PSNR in dB, computed in f64: `20·log10(range) −
/// 10·log10(MSE)`; infinite for an exact reconstruction.
pub fn psnr_db(original: &[f32], decoded: &[f32]) -> f64 {
    let mse = sum_sq_diff(original, decoded) / original.len() as f64;
    if mse == 0.0 {
        return f64::INFINITY;
    }
    let (_, range) = extent(original);
    20.0 * range.log10() - 10.0 * mse.log10()
}

/// Mean squared error of the range-normalized values `(x − min)/range`.
pub fn normalized_mse(original: &[f32], decoded: &[f32]) -> f64 {
    let (_, range) = extent(original);
    sum_sq_diff(original, decoded) / (range * range) / original.len() as f64
}

/// The model behind one DPZ artifact that the energy bound needs: the
/// retained rank `k`, the block count `m` (PCA features), the block length
/// `n` (PCA samples), the quantizer bound `p` and the TVE level requested.
#[derive(Debug, Clone, Copy)]
pub struct DpzModel {
    pub k: usize,
    pub m: usize,
    pub n: usize,
    pub p: f64,
    pub tve: f64,
}

/// Upper bound on [`normalized_mse`] for a DPZ error-bound artifact.
///
/// With `y = (x − min)/range − ½`, the block DCT and the PCA basis are
/// orthonormal, so the error energy splits into the dropped components
/// (at most `1 − tve` of the centered energy, itself at most `Σy²`) and
/// the quantization of the kept `n × k` scores (each moved by at most `p`).
/// Edge-replication padding to `m·n` values adds its own energy to `Σy²`;
/// with no padding the bound is `(1 − tve)·mean(y²) + k·p²/m`. An
/// allowance of a few f32 rounding units per value covers the f32 model
/// and output storage.
pub fn dpz_energy_bound(original: &[f32], model: DpzModel) -> f64 {
    let len = original.len();
    let (lo, range) = extent(original);
    let y = |v: f32| (f64::from(v) - lo) / range - 0.5;
    let pad = (model.m * model.n).saturating_sub(len) as f64;
    let last = original.last().map_or(0.0, |&v| y(v));
    let energy = original.iter().map(|&v| y(v) * y(v)).sum::<f64>() + pad * last * last;
    let quant = (model.n * model.k) as f64 * model.p * model.p;
    let peak = original
        .iter()
        .fold(0.0f64, |a, &v| a.max(f64::from(v).abs()))
        / range;
    let rounding = 16.0 * F32_UNIT * F32_UNIT * (energy / len as f64 + (1.0 + peak).powi(2));
    ((1.0 - model.tve) * energy + quant) / len as f64 + rounding
}

/// The DPZ energy bound as a check.
pub fn check_energy(original: &[f32], decoded: &[f32], model: DpzModel) -> Result<(), String> {
    let got = normalized_mse(original, decoded);
    let bound = dpz_energy_bound(original, model);
    if got <= bound {
        Ok(())
    } else {
        Err(format!(
            "normalized MSE {got:e} above the energy bound {bound:e} ({model:?})"
        ))
    }
}

/// Dims and value count survive the roundtrip.
pub fn check_shape(dims: &[usize], got_dims: &[usize], got_len: usize) -> Result<(), String> {
    let want: usize = dims.iter().product();
    if got_dims != dims || got_len != want {
        return Err(format!(
            "shape {got_dims:?}/{got_len} values, want {dims:?}/{want}"
        ));
    }
    Ok(())
}

/// Pointwise bound: `max |x − x̂| ≤ bound`, plus half an f32 unit of the
/// largest magnitude for the final f32 rounding.
pub fn check_pointwise(original: &[f32], decoded: &[f32], bound: f64) -> Result<(), String> {
    let peak = original
        .iter()
        .fold(0.0f64, |a, &v| a.max(f64::from(v).abs()));
    let worst = original
        .iter()
        .zip(decoded)
        .map(|(&x, &y)| (f64::from(x) - f64::from(y)).abs())
        .fold(0.0, f64::max);
    if worst <= bound + peak * F32_UNIT {
        Ok(())
    } else {
        Err(format!(
            "max error {worst:e} above the pointwise bound {bound:e}"
        ))
    }
}

/// Bit-identical values.
pub fn check_identical(want: &[f32], got: &[f32]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{} values, want {}", got.len(), want.len()));
    }
    match want
        .iter()
        .zip(got)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!("value {i} differs: {} vs {}", got[i], want[i])),
    }
}

/// A `Psnr` goal is met at no less than the request minus 0.5 dB.
pub fn check_psnr_goal(measured: f64, requested: f64) -> Result<(), String> {
    if measured >= requested - 0.5 {
        Ok(())
    } else {
        Err(format!(
            "PSNR {measured:.2} dB misses the {requested} dB goal"
        ))
    }
}

/// A `Ratio` goal is met within `target·(1 ± tol)`.
pub fn check_ratio_goal(measured: f64, target: f64, tol: f64) -> Result<(), String> {
    if measured >= target * (1.0 - tol) && measured <= target * (1.0 + tol) {
        Ok(())
    } else {
        Err(format!("ratio {measured:.3} outside {target} ± {tol}"))
    }
}

/// Row-major crop of `values` (shape `dims`) to `region`, one range per
/// dimension.
pub fn crop(values: &[f32], dims: &[usize], region: &[std::ops::Range<usize>]) -> Vec<f32> {
    let mut out = Vec::new();
    let mut idx: Vec<usize> = region.iter().map(|r| r.start).collect();
    if region.iter().any(|r| r.is_empty()) {
        return out;
    }
    loop {
        let flat = idx.iter().zip(dims).fold(0, |acc, (&i, &d)| acc * d + i);
        out.push(values[flat]);
        // Odometer over the region, last dimension fastest.
        let mut d = dims.len();
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < region[d].end {
                break;
            }
            idx[d] = region[d].start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psnr_of_a_hand_made_field() {
        // Range 4, every value off by 0.1: MSE 0.01, so
        // PSNR = 20·log10(4) − 10·log10(0.01) = 12.0412 + 20 dB.
        let x = [0.0f32, 1.0, 2.0, 3.0, 4.0];
        let y = [0.1f32, 1.1, 1.9, 3.1, 3.9];
        let want = 20.0 * 4f64.log10() + 20.0;
        assert!((psnr_db(&x, &y) - want).abs() < 1e-5);
        assert_eq!(psnr_db(&x, &x), f64::INFINITY);
        assert!((normalized_mse(&x, &y) - 0.01 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn energy_bound_of_a_hand_made_field() {
        // min 0, range 4: y = −½, −¼, 0, ¼, ½ and Σy² = 0.625. With m·n = 6
        // one padded copy of the last value adds ¼. TVE 0.9 keeps
        // 0.1·0.875; k = 1, n = 3, p = 0.01 adds 3e-4; both over 5 values.
        let x = [0.0f32, 1.0, 2.0, 3.0, 4.0];
        let model = DpzModel {
            k: 1,
            m: 2,
            n: 3,
            p: 0.01,
            tve: 0.9,
        };
        let want = (0.1 * 0.875 + 3e-4) / 5.0;
        let got = dpz_energy_bound(&x, model);
        assert!(got >= want && got - want < 1e-12, "{got} vs {want}");
        assert!(check_energy(&x, &x, model).is_ok());
        let far = [0.0f32, 1.0, 2.0, 3.0, 2.0];
        assert!(check_energy(&x, &far, model).is_err());
    }

    #[test]
    fn pointwise_identity_and_goal_checks() {
        let x = [0.0f32, 1.0, 2.0];
        assert!(check_pointwise(&x, &[0.01, 0.99, 2.0], 0.01).is_ok());
        assert!(check_pointwise(&x, &[0.02, 1.0, 2.0], 0.01).is_err());
        assert!(check_identical(&x, &x).is_ok());
        assert!(check_identical(&x, &[0.0, 1.0, -2.0]).is_err());
        assert!(check_psnr_goal(59.6, 60.0).is_ok());
        assert!(check_psnr_goal(59.4, 60.0).is_err());
        assert!(check_ratio_goal(8.7, 8.0, 0.1).is_ok());
        assert!(check_ratio_goal(8.9, 8.0, 0.1).is_err());
        assert!(check_shape(&[2, 3], &[2, 3], 6).is_ok());
        assert!(check_shape(&[2, 3], &[3, 2], 6).is_err());
    }

    #[test]
    fn crop_walks_the_region_row_major() {
        // 2×3×2 values 0..12; rows 1..2, cols 0..2, depth 1..2.
        let v: Vec<f32> = (0..12).map(|i| i as f32).collect();
        assert_eq!(crop(&v, &[2, 3, 2], &[1..2, 0..2, 1..2]), vec![7.0, 9.0]);
        let flat = 3..6;
        assert_eq!(
            crop(&v, &[12], std::slice::from_ref(&flat)),
            vec![3.0, 4.0, 5.0]
        );
    }

    #[test]
    fn tally_counts_each_miss_once() {
        let mut t = Tally::default();
        t.record("a", Ok(()));
        t.record("b", Err("bad".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.reasons, vec!["b: bad".to_string()]);
    }
}
