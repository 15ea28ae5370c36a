//! `targeted`: fields compressed to quality goals through the `Codec`
//! trait — DPZ, SZ, ZFP and the automatic selector — and decoded back
//! through the format `Registry`. The time goes to the ratio oracle, the
//! bound search, confirm and retry compressions, selector probes and the
//! SZ/ZFP baselines, none of which `snapshot` touches.

use crate::check::{self, Tally};
use crate::fields::{series, Field, Kind};
use crate::trace::Tracer;
use crate::{RoundAcc, Workload};
use dpz_codec::{AutoCodec, Codec, DpzCodec, QualityTarget, Registry, SzCodec, ZfpCodec};

/// The `Psnr` goal every codec reaches on every field (dB).
pub const PSNR_GOAL: f64 = 60.0;
/// Tolerance of every `Ratio` goal.
pub const RATIO_TOL: f64 = 0.1;
/// `RelBound` the SZ and ZFP baselines also run under.
pub const REL_BOUND: f64 = 1e-3;

pub fn dims(kind: Kind) -> Vec<usize> {
    match kind {
        Kind::Cldhgh => vec![180, 360],
        Kind::Isotropic => vec![32, 32, 32],
        Kind::HaccVx => vec![32768],
    }
}

/// The `Ratio` goal of each kind: one that every codec run under it
/// reaches on this kind and shape today.
fn ratio_target(kind: Kind) -> QualityTarget {
    let target = match kind {
        Kind::Cldhgh => 9.0,
        Kind::Isotropic => 3.0,
        Kind::HaccVx => 1.8,
    };
    QualityTarget::Ratio {
        target,
        tol: RATIO_TOL,
    }
}

/// The (codec, goal) operations run on one field. Pairings where the
/// program misses the goal on some or all seeds are left out (see the
/// `FOUND:` lines of CHANGES.md): SZ under `Ratio` on 2-D and 3-D fields
/// (its ratio search predicts from a 1-D view of the data) and so the
/// automatic codec under `Ratio` there too (it picks SZ on some seeds), DPZ
/// under `Ratio` on CLDHGH (the fixed-ratio loop gives up on reachable
/// goals for some seeds), and ZFP under `RelBound` (its fixed-accuracy
/// mode does not bound the pointwise error).
fn plan(kind: Kind) -> Vec<(usize, QualityTarget)> {
    let (dpz, sz, zfp, auto) = (0, 1, 2, 3);
    let psnr = QualityTarget::Psnr(PSNR_GOAL);
    let ratio = ratio_target(kind);
    let rel = QualityTarget::RelBound(REL_BOUND);
    let mut ops = vec![
        (dpz, psnr),
        (sz, psnr),
        (zfp, psnr),
        (auto, psnr),
        (zfp, ratio),
    ];
    match kind {
        Kind::Cldhgh => {}
        Kind::Isotropic => ops.push((dpz, ratio)),
        Kind::HaccVx => ops.extend([(dpz, ratio), (auto, ratio), (sz, ratio)]),
    }
    ops.push((sz, rel));
    ops
}

/// The goal check for one decoded artifact.
pub fn verify(
    field: &Field,
    goal: &QualityTarget,
    artifact_len: usize,
    decoded: &[f32],
    dims: &[usize],
) -> Result<(), String> {
    check::check_shape(&field.dims, dims, decoded.len())?;
    match *goal {
        QualityTarget::Psnr(db) => check::check_psnr_goal(check::psnr_db(&field.data, decoded), db),
        QualityTarget::Ratio { target, tol } => {
            check::check_ratio_goal(field.nbytes() / artifact_len as f64, target, tol)
        }
        QualityTarget::RelBound(rel) => {
            check::check_pointwise(&field.data, decoded, rel * check::extent(&field.data).1)
        }
        QualityTarget::ErrorBound(eb) => check::check_pointwise(&field.data, decoded, eb),
    }
}

pub struct Targeted {
    fields: Vec<Field>,
    codecs: [Box<dyn Codec>; 4],
    registry: Registry,
}

/// Two instances of every kind, so that a run averages over more than one
/// input per kind.
pub fn inputs(seed: u64) -> Vec<Field> {
    series(seed, 2, dims)
}

impl Targeted {
    pub fn new(fields: Vec<Field>) -> Targeted {
        Targeted {
            fields,
            codecs: [
                Box::new(DpzCodec::default()),
                Box::new(SzCodec::default()),
                Box::new(ZfpCodec::default()),
                Box::new(AutoCodec::new()),
            ],
            registry: Registry::builtin(),
        }
    }
}

impl Workload for Targeted {
    fn fields(&self) -> &[Field] {
        &self.fields[..Kind::ALL.len()]
    }

    fn round(&mut self, tr: &mut Tracer, tally: &mut Tally, _round: u64, acc: &mut RoundAcc) {
        for field in &self.fields {
            for (c, goal) in plan(field.kind) {
                let codec = &self.codecs[c];
                let mut artifact = Vec::new();
                let (res, secs) = tr.time("codec.compress_with_target", || {
                    codec.compress_with_target(&field.data, &field.dims, &goal, &mut artifact)
                });
                acc.compressed(field.nbytes(), secs);
                if let Err(e) = res {
                    tally.record(codec.name(), Err(format!("{goal:?}: {e}")));
                    continue;
                }
                acc.artifact(field.nbytes(), artifact.len());
                let (dec, secs) = tr.time("registry.decompress", || {
                    self.registry.decompress(&artifact)
                });
                acc.decoded(field.nbytes(), secs);
                acc.read(secs);
                let outcome = dec.map_err(|e| e.to_string()).and_then(|d| {
                    verify(field, &goal, artifact.len(), &d.values, &d.dims)?;
                    acc.psnr(check::psnr_db(&field.data, &d.values));
                    Ok(())
                });
                tally.record(
                    codec.name(),
                    outcome.map_err(|e| format!("{} {goal:?}: {e}", field.kind.name())),
                );
            }
        }
    }
}
