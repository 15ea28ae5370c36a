//! `snapshot`: the paper's pipeline in its Fig. 8 setting. A series of
//! same-shaped timesteps of three fields, each compressed to one DPZ1
//! stream under a strict and a loose error bound and decoded in full.

use crate::check::{self, DpzModel, Tally};
use crate::fields::{series, Field, Kind};
use crate::trace::Tracer;
use crate::{RoundAcc, Workload};
use dpz_core::{Compressed, DpzConfig, LosslessBackend, TveLevel};

/// Timesteps per run.
const TIMESTEPS: u64 = 8;

/// Shapes chosen so that no field takes more than half of a timestep's
/// compress time, and each factors exactly into DPZ blocks (no padding).
pub fn dims(kind: Kind) -> Vec<usize> {
    match kind {
        Kind::Cldhgh => vec![256, 512],
        Kind::Isotropic => vec![64, 32, 32],
        Kind::HaccVx => vec![32768],
    }
}

/// The two operating points, each with its quantizer bound `P`: DPZ-s
/// (strict, 2-byte indices, DEFLATE) and DPZ-l (loose, 1-byte indices,
/// tANS), both at the five-nines TVE level.
pub fn configs() -> [(DpzConfig, f64); 2] {
    let tve = TveLevel::FiveNines;
    let strict = DpzConfig::strict().with_tve(tve);
    let loose = DpzConfig::loose()
        .with_tve(tve)
        .with_lossless(LosslessBackend::Tans);
    [strict, loose].map(|cfg| (cfg, crate::error_bound(&cfg)))
}

pub struct Snapshot {
    fields: Vec<Field>,
}

/// Every timestep's fields, timestep by timestep.
pub fn inputs(seed: u64) -> Vec<Field> {
    series(seed, TIMESTEPS, dims)
}

impl Snapshot {
    pub fn new(fields: Vec<Field>) -> Snapshot {
        Snapshot { fields }
    }
}

/// Check one DPZ1 roundtrip: shape, then the energy bound of the model the
/// artifact reports.
pub fn verify(
    field: &Field,
    out: &Compressed,
    p: f64,
    tve: f64,
    decoded: &[f32],
    decoded_dims: &[usize],
) -> Result<(), String> {
    check::check_shape(&field.dims, decoded_dims, decoded.len())?;
    let s = &out.stats;
    let model = DpzModel {
        k: s.k,
        m: s.m,
        n: s.n,
        p,
        tve,
    };
    check::check_energy(&field.data, decoded, model)
}

impl Workload for Snapshot {
    fn fields(&self) -> &[Field] {
        &self.fields[..Kind::ALL.len()]
    }

    fn round(&mut self, tr: &mut Tracer, tally: &mut Tally, _round: u64, acc: &mut RoundAcc) {
        let tve = TveLevel::FiveNines.fraction();
        for field in &self.fields {
            for (cfg, p) in configs() {
                let (res, secs) = tr.time("dpz.compress", || {
                    dpz_core::compress(&field.data, &field.dims, &cfg)
                });
                acc.compressed(field.nbytes(), secs);
                let out = match res {
                    Ok(out) => out,
                    Err(e) => {
                        tally.record(field.kind.name(), Err(e.to_string()));
                        continue;
                    }
                };
                acc.artifact(field.nbytes(), out.bytes.len());
                let (dec, secs) = tr.time("dpz.decompress", || dpz_core::decompress(&out.bytes));
                acc.decoded(field.nbytes(), secs);
                acc.read(secs);
                let outcome = dec.map_err(|e| e.to_string()).and_then(|(values, dims)| {
                    verify(field, &out, p, tve, &values, &dims)?;
                    acc.psnr(check::psnr_db(&field.data, &values));
                    Ok(())
                });
                tally.record(field.kind.name(), outcome);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_decode_counts_as_a_failed_operation() {
        let field = Field::generate(Kind::Cldhgh, &[32, 64], 7);
        let (cfg, p) = configs()[0];
        let tve = TveLevel::FiveNines.fraction();
        let out = dpz_core::compress(&field.data, &field.dims, &cfg).unwrap();
        let (mut values, dims) = dpz_core::decompress(&out.bytes).unwrap();
        let mut tally = Tally::default();
        tally.record("clean", verify(&field, &out, p, tve, &values, &dims));
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "{:?}",
            tally.reasons
        );

        // Shift one value by a tenth of the range: the normalized MSE grows
        // by 0.01/len, far above the bound's quantization share.
        let (_, range) = check::extent(&field.data);
        values[100] += (0.1 * range) as f32;
        tally.record("corrupted", verify(&field, &out, p, tve, &values, &dims));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.reasons[0].contains("energy bound"));

        tally.record(
            "truncated",
            verify(&field, &out, p, tve, &values[1..], &dims),
        );
        assert_eq!(tally.failed, 2);
    }
}
