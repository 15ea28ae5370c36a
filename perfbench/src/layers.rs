//! The traced run's layer pass: each layer's public entry point called on
//! every distinct field of the workload, with a span around each call. The
//! pass sums each layer metric over the fields; the report takes the
//! median over passes.

use crate::archive::{self, CountingReader};
use crate::check::{self, Tally};
use crate::fields::Field;
use crate::snapshot;
use crate::targeted;
use crate::trace::Tracer;
use dpz_codec::{AutoCodec, Codec, QualityTarget, Registry, SzCodec, ZfpCodec};
use dpz_core::container::{deserialize_with_info, serialize_with_backend};
use dpz_core::decompose::{dct_blocks_from_raw, idct_blocks_to_raw};
use dpz_core::quantize::{dequantize_scores, quantize_scores};
use dpz_core::{
    DpzError, LosslessBackend, PipelinePlan, RatioOracle, SamplingStrategy, Scheme, SeekableIndex,
    TveLevel,
};
use dpz_linalg::{Pca, PcaOptions, RangeFinderOptions};

/// Every per-layer metric with its unit, in report order.
pub const METRICS: [(&str, &str); 35] = [
    ("data.generate_s", "s"),
    ("decompose.dct_ms", "ms"),
    ("decompose.idct_ms", "ms"),
    ("pipeline.project_ms", "ms"),
    ("pipeline.encode_ms", "ms"),
    ("pca.fit_ms", "ms"),
    ("pca.k", "count"),
    ("pca.flops", "flop"),
    ("kernels.gemm_gflops", "GFLOP/s"),
    ("sampling.estimate_ms", "ms"),
    ("quantize.quantize_ms", "ms"),
    ("quantize.dequantize_ms", "ms"),
    ("quantize.outliers", "count"),
    ("lossless.encode_ms", "ms"),
    ("lossless.decode_ms", "ms"),
    ("lossless.packed_bytes", "bytes"),
    ("lossless.tans_sections", "count"),
    ("chunked.compress_ms", "ms"),
    ("chunked.index_ms", "ms"),
    ("chunked.read_bytes", "bytes"),
    ("chunked.progressive_ms", "ms"),
    ("pool.speedup", "x"),
    ("target.oracle_ms", "ms"),
    ("target.search_ms", "ms"),
    ("target.oracle_probes", "count"),
    ("target.confirm_compressions", "count"),
    ("auto.select_ms", "ms"),
    ("auto.selected_dpz", "count"),
    ("auto.selected_sz", "count"),
    ("auto.selected_zfp", "count"),
    ("registry.decode_ms", "ms"),
    ("sz.compress_ms", "ms"),
    ("sz.decompress_ms", "ms"),
    ("zfp.compress_ms", "ms"),
    ("zfp.decompress_ms", "ms"),
];

/// Metrics reported as a quotient of two per-pass sums:
/// `(metric, numerator, denominator, scale)`.
pub const QUOTIENTS: [(&str, &str, &str, f64); 2] = [
    (
        "kernels.gemm_gflops",
        "kernels.gemm_flop",
        "kernels.gemm_s",
        1e-9,
    ),
    (
        "chunked.read_bytes",
        "chunked.read_bytes_sum",
        "chunked.reads",
        1.0,
    ),
];

/// GEMM repetitions per field: enough to time the kernel over a
/// millisecond or more.
const GEMM_REPS: usize = 4;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// One layer pass over `fields`; each field counts as one operation.
pub fn pass(tr: &mut Tracer, tally: &mut Tally, fields: &[Field]) {
    tr.enter("layer_pass");
    // Counts that may legitimately stay 0 in a pass still get an entry.
    for name in [
        "auto.selected_dpz",
        "auto.selected_sz",
        "auto.selected_zfp",
        "quantize.outliers",
        "lossless.tans_sections",
    ] {
        tr.add(name, 0.0);
    }
    for field in fields {
        let outcome = field_pass(tr, field);
        tally.record(
            field.kind.name(),
            outcome.map_err(|e| format!("layer pass: {e}")),
        );
    }
    tr.exit();
    tr.finish_pass();
}

fn field_pass(tr: &mut Tracer, f: &Field) -> Result<(), String> {
    let [(cfg, p), (loose, _)] = snapshot::configs();
    let tve = TveLevel::FiveNines.fraction();
    let len = f.data.len();
    let plan = PipelinePlan::new(len, &cfg).map_err(err)?;
    let shape = plan.shape();
    let (lo, range) = check::extent(&f.data);

    // core::decompose — the DCT is orthonormal, so the inverse restores the
    // input up to rounding.
    let (coeffs, _) = tr.layer("decompose.dct_ms", || {
        dct_blocks_from_raw(&f.data, shape, lo, range, Vec::new())
    });
    let back = tr.layer("decompose.idct_ms", || {
        idct_blocks_to_raw(&coeffs, shape, lo, range, len)
    });
    check::check_pointwise(&f.data, &back, 1e-6 * range)?;

    // core::sampling
    tr.layer("sampling.estimate_ms", || {
        SamplingStrategy::default().estimate(&coeffs)
    })
    .map_err(err)?;

    // linalg::pca, routed as the pipeline routes a TVE-selected fit.
    let rf = RangeFinderOptions {
        oversample: 8,
        ..RangeFinderOptions::default()
    };
    let opts = PcaOptions { standardize: false };
    let k0 = (shape.m / 8).max(8);
    let fit = tr
        .layer("pca.fit_ms", || {
            Pca::fit_tve_randomized(&coeffs, opts, tve, k0, &rf, None)
        })
        .map_err(err)?;
    let k = fit.pca.k_for_tve(tve);
    let s = (k + rf.oversample).min(shape.m);
    let (n, m) = (shape.n as f64, shape.m as f64);
    // Flops of the fit from its shapes: four n×m×s products (sketch, one
    // power iteration, projection) on the randomized route; Gram plus a
    // dense eigensolve once the sketch reaches m/4.
    let flops = if s * 4 >= shape.m {
        2.0 * n * m * m + 4.0 * m * m * m
    } else {
        8.0 * n * m * s as f64
    };
    tr.add("pca.k", k as f64);
    tr.add("pca.flops", flops);

    // kernels: the fit's tall-skinny product shape, s×n times n×m.
    let w: Vec<f64> = (0..s * shape.n)
        .map(|i| ((i * 7919) % 1000) as f64 * 1e-3 - 0.5)
        .collect();
    let mut c = vec![0.0; s * shape.m];
    let ((), secs) = tr.time("kernels.gemm_thin", || {
        for _ in 0..GEMM_REPS {
            dpz_kernels::gemm::gemm_thin(&mut c, &w, s, coeffs.as_slice(), shape.n, shape.m);
        }
    });
    tr.add(
        "kernels.gemm_flop",
        2.0 * s as f64 * n * m * GEMM_REPS as f64,
    );
    tr.add("kernels.gemm_s", secs);

    // core::quantize: every dequantized score within P of the score, or
    // an escaped outlier kept as f32.
    let scores = match fit.scores {
        Some(sc) if sc.cols() >= k => sc.leading_cols(k),
        _ => fit.pca.transform(&coeffs, k).map_err(err)?,
    };
    let q = tr.layer("quantize.quantize_ms", || {
        quantize_scores(
            scores.as_slice(),
            Scheme::Custom {
                p,
                wide_index: true,
            },
        )
    });
    tr.add("quantize.outliers", q.outliers.len() as f64);
    let deq = tr.layer("quantize.dequantize_ms", || dequantize_scores(&q));
    let worst = scores
        .as_slice()
        .iter()
        .zip(&deq)
        .map(|(a, b)| (a - b).abs() - p.max(a.abs() * 1e-7))
        .fold(f64::MIN, f64::max);
    if worst > 0.0 {
        return Err(format!("dequantized score {worst:e} beyond its bound"));
    }

    // core::pipeline
    let outcome = tr
        .layer("pipeline.project_ms", || plan.project(&f.data, &f.dims))
        .map_err(err)?;
    let strict_out = tr.layer("pipeline.encode_ms", || plan.encode(outcome));
    let (values, dims) = dpz_core::decompress(&strict_out.bytes).map_err(err)?;
    snapshot::verify(f, &strict_out, p, tve, &values, &dims)?;

    // core::container + deflate, for both operating points' backends: a
    // decoded container re-serializes to the same bytes.
    let loose_out = dpz_core::compress(&f.data, &f.dims, &loose).map_err(err)?;
    for (bytes, backend) in [
        (&strict_out.bytes, cfg.lossless),
        (&loose_out.bytes, LosslessBackend::Tans),
    ] {
        let (data, info) = tr
            .layer("lossless.decode_ms", || deserialize_with_info(bytes))
            .map_err(err)?;
        tr.add("lossless.tans_sections", f64::from(info.tans_sections));
        let (again, sections) = tr.layer("lossless.encode_ms", || {
            serialize_with_backend(&data, backend)
        });
        tr.add("lossless.packed_bytes", sections.total_packed() as f64);
        if again != *bytes {
            return Err("a decoded container re-serializes to other bytes".into());
        }
    }

    // core::chunked
    let chunked = tr
        .layer("chunked.compress_ms", || {
            dpz_core::compress_chunked(&f.data, &f.dims, &cfg, archive::SLABS)
        })
        .map_err(err)?;
    let index = tr
        .layer("chunked.index_ms", || {
            SeekableIndex::read(&mut CountingReader::new(&chunked.bytes))
        })
        .map_err(err)?;
    for i in 0..index.chunk_count() {
        let mut src = CountingReader::new(&chunked.bytes);
        tr.time("chunked.read_chunk", || {
            dpz_core::decompress_chunk_from(&mut src, i)
        })
        .0
        .map_err(err)?;
        tr.add("chunked.read_bytes_sum", src.bytes as f64);
        tr.add("chunked.reads", 1.0);
    }
    let progressive =
        dpz_core::compress_progressive(&f.data, &f.dims, &cfg, archive::SLABS).map_err(err)?;
    let half = tr
        .layer("chunked.progressive_ms", || {
            dpz_core::decompress_progressive(&progressive.bytes, progressive.bytes.len() / 2)
        })
        .map_err(err)?;
    check::check_shape(&f.dims, &half.dims, half.values.len())?;

    // core::target: the fixed-ratio control loop's oracle, search and
    // confirm compressions. The goal sits a tenth above the strict
    // artifact's ratio, so its band holds the strict bound itself. This
    // pass measures what the loop costs: a typed `TargetUnreachable` is a
    // contract outcome here (whether goals are met is the `targeted`
    // workload's check), and the probe and confirm counts are the deltas of
    // the program's own counters, which every exit of the loop updates.
    let (target, tol) = (
        1.1 * f.nbytes() / strict_out.bytes.len() as f64,
        targeted::RATIO_TOL,
    );
    let goal = QualityTarget::Ratio { target, tol };
    let cfg_r = cfg.with_target(goal);
    let reg = dpz_telemetry::global();
    let probes = reg.counter("dpz_target_oracle_calls_total");
    let confirms = reg.counter_with("dpz_target_confirm_total", &[("mode", "ratio")]);
    let oracle = tr
        .layer("target.oracle_ms", || RatioOracle::build(&f.data, &cfg_r))
        .map_err(err)?;
    let before = probes.get();
    let search = tr.layer("target.search_ms", || {
        dpz_core::search_bound_for_ratio(
            |p| oracle.predict_cr(p, cfg_r.wide_for(p)),
            dpz_core::P_SEARCH_MIN,
            dpz_core::P_SEARCH_MAX,
            target,
            tol,
        )
    });
    tr.add("target.oracle_probes", (probes.get() - before) as f64);
    match search {
        Ok(_) | Err(DpzError::TargetUnreachable { .. }) => {}
        Err(e) => return Err(e.to_string()),
    }
    let before = confirms.get();
    let (out, _) = tr.time("target.compress", || {
        dpz_core::compress(&f.data, &f.dims, &cfg_r)
    });
    tr.add(
        "target.confirm_compressions",
        (confirms.get() - before) as f64,
    );
    match out {
        Ok(out) => check::check_ratio_goal(f.nbytes() / out.bytes.len() as f64, target, tol)?,
        Err(DpzError::TargetUnreachable { .. }) => {}
        Err(e) => return Err(e.to_string()),
    }

    // codec: the selector's probes and choice under both goals.
    let auto = AutoCodec::new();
    for goal in [QualityTarget::Psnr(targeted::PSNR_GOAL), goal] {
        let probes = tr
            .layer("auto.select_ms", || auto.probe_all(&f.data, &f.dims, &goal))
            .map_err(err)?;
        let winner = AutoCodec::select_probe(&probes, &goal).ok_or("no codec selected")?;
        match winner.codec {
            "dpz" => tr.add("auto.selected_dpz", 1.0),
            "sz" => tr.add("auto.selected_sz", 1.0),
            "zfp" => tr.add("auto.selected_zfp", 1.0),
            other => return Err(format!("unknown codec {other}")),
        }
    }

    // sz, zfp, then every artifact back through the registry.
    let rel = QualityTarget::RelBound(targeted::REL_BOUND);
    let bound = targeted::REL_BOUND * range;
    let mut sz = Vec::new();
    tr.layer("sz.compress_ms", || {
        SzCodec::default().compress_with_target(&f.data, &f.dims, &rel, &mut sz)
    })
    .map_err(err)?;
    let (values, _) = tr
        .layer("sz.decompress_ms", || dpz_sz::decompress(&sz))
        .map_err(|e| format!("{e:?}"))?;
    check::check_pointwise(&f.data, &values, bound)?;
    // ZFP runs under the PSNR goal: its fixed-accuracy mode does not bound
    // the pointwise error a relative bound asks for.
    let psnr = QualityTarget::Psnr(targeted::PSNR_GOAL);
    let mut zfp = Vec::new();
    tr.layer("zfp.compress_ms", || {
        ZfpCodec::default().compress_with_target(&f.data, &f.dims, &psnr, &mut zfp)
    })
    .map_err(err)?;
    let (values, _) = tr
        .layer("zfp.decompress_ms", || dpz_zfp::decompress(&zfp))
        .map_err(|e| format!("{e:?}"))?;
    check::check_psnr_goal(check::psnr_db(&f.data, &values), targeted::PSNR_GOAL)?;
    let registry = Registry::builtin();
    for bytes in [&strict_out.bytes, &sz, &zfp] {
        let d = tr
            .layer("registry.decode_ms", || registry.decompress(bytes))
            .map_err(err)?;
        check::check_shape(&f.dims, &d.dims, d.values.len())?;
    }
    Ok(())
}
