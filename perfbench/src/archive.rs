//! `archive`: writes beside reads on the seekable DPZC v4 container. Every
//! round re-writes each field as a chunked and a progressive container,
//! decodes the new chunked one in full, and reads the containers prepared
//! at set-up through random chunk and region reads over a `Read + Seek`
//! source and budgeted progressive decodes.

use crate::check::{self, DpzModel, Tally};
use crate::fields::{input_seed, series, Field, Kind};
use crate::trace::Tracer;
use crate::{RoundAcc, Workload};
use dpz_core::{ChunkedCompressed, DpzConfig, DpzError, TveLevel};
use dpz_data::rng::Xoshiro256;
use std::io::{Cursor, Read, Seek, SeekFrom};
use std::ops::Range;

/// Slabs per container, inside the 4–16 that DESIGN recommends.
pub const SLABS: usize = 8;
/// Random chunk and region reads per field and round.
const CHUNK_READS: usize = 6;
const REGION_READS: usize = 3;
/// Progressive budgets, as fractions of the container length; the last
/// is the whole container.
const BUDGETS: [f64; 4] = [0.125, 0.25, 0.5, 1.0];

pub fn dims(kind: Kind) -> Vec<usize> {
    match kind {
        Kind::Cldhgh => vec![256, 512],
        Kind::Isotropic => vec![64, 32, 32],
        Kind::HaccVx => vec![65536],
    }
}

pub fn config() -> DpzConfig {
    DpzConfig::strict().with_tve(TveLevel::FiveNines)
}

/// `Read + Seek` over a byte slice that counts the bytes pulled through it.
pub struct CountingReader<'a> {
    inner: Cursor<&'a [u8]>,
    pub bytes: usize,
}

impl<'a> CountingReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        CountingReader {
            inner: Cursor::new(bytes),
            bytes: 0,
        }
    }
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n;
        Ok(n)
    }
}

impl Seek for CountingReader<'_> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Values per slab row and rows per slab, by the slab rule the container
/// documents: `ceil(rows / slabs)` rows of the slowest axis per slab.
fn slab_geometry(dims: &[usize]) -> (usize, usize) {
    let row: usize = dims[1..].iter().product();
    (row, dims[0].div_ceil(SLABS))
}

/// Row range of slab `i`.
fn slab_rows(dims: &[usize], i: usize) -> Range<usize> {
    let (_, per) = slab_geometry(dims);
    (i * per).min(dims[0])..((i + 1) * per).min(dims[0])
}

struct Stored {
    chunked: Vec<u8>,
    progressive: Vec<u8>,
    /// Full decodes of the two prepared containers: the references the
    /// partial reads must match bit for bit.
    chunked_full: Vec<f32>,
    progressive_full: Vec<f32>,
}

pub struct Archive {
    seed: u64,
    fields: Vec<Field>,
    stored: Vec<Stored>,
}

/// Two instances of every kind, so that a run averages over more than one
/// input per kind.
pub fn inputs(seed: u64) -> Vec<Field> {
    series(seed, 2, dims)
}

impl Archive {
    /// Prepare the containers the reads use.
    pub fn new(seed: u64, fields: Vec<Field>) -> Result<Archive, DpzError> {
        let cfg = config();
        let mut stored = Vec::new();
        for field in &fields {
            let chunked = dpz_core::compress_chunked(&field.data, &field.dims, &cfg, SLABS)?.bytes;
            let progressive =
                dpz_core::compress_progressive(&field.data, &field.dims, &cfg, SLABS)?.bytes;
            let chunked_full = dpz_core::decompress_chunked(&chunked)?.0;
            let progressive_full = dpz_core::decompress_chunked(&progressive)?.0;
            stored.push(Stored {
                chunked,
                progressive,
                chunked_full,
                progressive_full,
            });
        }
        Ok(Archive {
            seed,
            fields,
            stored,
        })
    }
}

/// Energy bound per slab: each slab is its own DPZ1 stream with its own
/// range normalization and model.
fn verify_chunked(
    field: &Field,
    out: &ChunkedCompressed,
    decoded: &[f32],
    decoded_dims: &[usize],
) -> Result<(), String> {
    check::check_shape(&field.dims, decoded_dims, decoded.len())?;
    let (row, per) = slab_geometry(&field.dims);
    let slabs = field.dims[0].div_ceil(per);
    if out.chunk_stats.len() != slabs {
        return Err(format!(
            "{} chunk models, want {slabs}",
            out.chunk_stats.len()
        ));
    }
    let p = crate::error_bound(&config());
    for (i, s) in out.chunk_stats.iter().enumerate() {
        let rows = slab_rows(&field.dims, i);
        let span = rows.start * row..rows.end * row;
        let model = DpzModel {
            k: s.k,
            m: s.m,
            n: s.n,
            p,
            tve: TveLevel::FiveNines.fraction(),
        };
        check::check_energy(&field.data[span.clone()], &decoded[span], model)
            .map_err(|e| format!("slab {i}: {e}"))?;
    }
    Ok(())
}

/// A random region: along each axis a start and a non-empty extent, the
/// slowest axis spanning at most two slabs.
fn random_region(rng: &mut Xoshiro256, dims: &[usize]) -> Vec<Range<usize>> {
    let (_, per) = slab_geometry(dims);
    dims.iter()
        .enumerate()
        .map(|(axis, &d)| {
            let max_len = if axis == 0 { (2 * per).min(d) } else { d };
            let len = 1 + rng.below(max_len);
            let start = rng.below(d - len + 1);
            start..start + len
        })
        .collect()
}

impl Workload for Archive {
    fn fields(&self) -> &[Field] {
        &self.fields[..Kind::ALL.len()]
    }

    fn round(&mut self, tr: &mut Tracer, tally: &mut Tally, round: u64, acc: &mut RoundAcc) {
        let cfg = config();
        let mut rng = Xoshiro256::seed_from_u64(input_seed(self.seed, 1000 + round));
        for (field, item) in self.fields.iter().zip(&self.stored) {
            let name = field.kind.name();

            // Writes, and one full decode of the new chunked container.
            let (res, secs) = tr.time("chunked.compress", || {
                dpz_core::compress_chunked(&field.data, &field.dims, &cfg, SLABS)
            });
            acc.compressed(field.nbytes(), secs);
            let outcome = res.map_err(|e| e.to_string()).and_then(|out| {
                acc.artifact(field.nbytes(), out.bytes.len());
                let (dec, secs) = tr.time("chunked.full_decode", || {
                    dpz_core::decompress_chunked(&out.bytes)
                });
                acc.decoded(field.nbytes(), secs);
                let (values, dims) = dec.map_err(|e| e.to_string())?;
                verify_chunked(field, &out, &values, &dims)?;
                acc.psnr(check::psnr_db(&field.data, &values));
                Ok(())
            });
            tally.record(name, outcome);

            let (res, secs) = tr.time("progressive.compress", || {
                dpz_core::compress_progressive(&field.data, &field.dims, &cfg, SLABS)
            });
            acc.compressed(field.nbytes(), secs);
            let outcome = res.map_err(|e| e.to_string()).and_then(|out| {
                acc.artifact(field.nbytes(), out.bytes.len());
                let (full, dims) =
                    dpz_core::decompress_chunked(&out.bytes).map_err(|e| e.to_string())?;
                check::check_shape(&field.dims, &dims, full.len())?;
                let whole = dpz_core::decompress_progressive(&out.bytes, out.bytes.len())
                    .map_err(|e| e.to_string())?;
                check::check_identical(&full, &whole.values)
            });
            tally.record(name, outcome);

            // Random chunk reads against the prepared container.
            let (row, _) = slab_geometry(&field.dims);
            for _ in 0..CHUNK_READS {
                let i = rng.below(SLABS);
                let mut src = CountingReader::new(&item.chunked);
                let (res, secs) = tr.time("chunked.read_chunk", || {
                    dpz_core::decompress_chunk_from(&mut src, i)
                });
                acc.read(secs);
                let outcome = res.map_err(|e| e.to_string()).and_then(|(values, dims)| {
                    let rows = slab_rows(&field.dims, i);
                    let mut want_dims = field.dims.clone();
                    want_dims[0] = rows.len();
                    check::check_shape(&want_dims, &dims, values.len())?;
                    check::check_identical(
                        &item.chunked_full[rows.start * row..rows.end * row],
                        &values,
                    )
                });
                tally.record(name, outcome);
            }
            for _ in 0..REGION_READS {
                let region = random_region(&mut rng, &field.dims);
                let mut src = CountingReader::new(&item.chunked);
                let (res, secs) = tr.time("chunked.read_region", || {
                    dpz_core::decompress_region_from(&mut src, &region)
                });
                acc.read(secs);
                let outcome = res.map_err(|e| e.to_string()).and_then(|(values, dims)| {
                    let want_dims: Vec<usize> = region.iter().map(|r| r.len()).collect();
                    check::check_shape(&want_dims, &dims, values.len())?;
                    check::check_identical(
                        &check::crop(&item.chunked_full, &field.dims, &region),
                        &values,
                    )
                });
                tally.record(name, outcome);
            }

            // Budgeted progressive reads: error never rises with the budget,
            // and the whole container reproduces the full decode.
            let mut last_err = f64::INFINITY;
            for fraction in BUDGETS {
                let budget = (item.progressive.len() as f64 * fraction) as usize;
                let (res, _) = tr.time("progressive.read", || {
                    dpz_core::decompress_progressive(&item.progressive, budget)
                });
                let outcome = res.map_err(|e| e.to_string()).and_then(|p| {
                    check::check_shape(&field.dims, &p.dims, p.values.len())?;
                    let err = check::normalized_mse(&field.data, &p.values);
                    if err > last_err * (1.0 + 1e-9) {
                        return Err(format!("error {err:e} at budget {fraction} above {last_err:e} at a smaller one"));
                    }
                    last_err = err;
                    if fraction == 1.0 {
                        check::check_identical(&item.progressive_full, &p.values)?;
                    }
                    Ok(())
                });
                tally.record(name, outcome);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_stay_inside_the_field() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        for dims in [vec![256, 512], vec![64, 32, 32], vec![65536]] {
            for _ in 0..200 {
                let r = random_region(&mut rng, &dims);
                assert!(r
                    .iter()
                    .zip(&dims)
                    .all(|(r, &d)| !r.is_empty() && r.end <= d));
            }
        }
    }

    #[test]
    fn slab_rows_cover_the_slowest_axis() {
        let dims = [60, 7];
        let covered: usize = (0..SLABS).map(|i| slab_rows(&dims, i).len()).sum();
        assert_eq!(covered, 60);
        assert_eq!(slab_rows(&dims, 0), 0..8);
        assert_eq!(slab_rows(&dims, 7), 56..60);
    }
}
