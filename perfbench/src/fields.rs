//! Benchmark inputs: the three field kinds of the paper's Fig. 8 setting,
//! generated by `dpz-data` from seeds derived from the workload seed.

use dpz_data::synthetic::{
    climate2d, hacc1d, turbulence3d, ClimateField, HaccField, TurbulenceField,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// CESM-ATM high-cloud fraction, 2-D.
    Cldhgh,
    /// JHTDB isotropic turbulence, 3-D.
    Isotropic,
    /// HACC particle velocities, 1-D (noise-like: PCA keeps every component).
    HaccVx,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Cldhgh, Kind::Isotropic, Kind::HaccVx];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Cldhgh => "CLDHGH",
            Kind::Isotropic => "Isotropic",
            Kind::HaccVx => "HACC-vx",
        }
    }
}

pub struct Field {
    pub kind: Kind,
    pub dims: Vec<usize>,
    pub data: Vec<f32>,
}

impl Field {
    pub fn generate(kind: Kind, dims: &[usize], seed: u64) -> Field {
        let data = match kind {
            Kind::Cldhgh => climate2d(ClimateField::Cldhgh, dims[0], dims[1], seed),
            Kind::Isotropic => {
                turbulence3d(TurbulenceField::Isotropic, dims[0], dims[1], dims[2], seed)
            }
            Kind::HaccVx => hacc1d(HaccField::Vx, dims[0], seed),
        };
        Field {
            kind,
            dims: dims.to_vec(),
            data,
        }
    }

    pub fn nbytes(&self) -> f64 {
        (self.data.len() * 4) as f64
    }
}

/// Seed of input `index` of a workload run: distinct per index, fixed by
/// the workload seed.
pub fn input_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index)
}

/// `copies` instances of every kind, copy by copy, each copy from its own
/// seed: a series of same-shaped timesteps.
pub fn series(seed: u64, copies: u64, dims: fn(Kind) -> Vec<usize>) -> Vec<Field> {
    (0..copies)
        .flat_map(|c| Kind::ALL.map(|k| Field::generate(k, &dims(k), input_seed(seed, c))))
        .collect()
}
