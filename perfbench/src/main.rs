//! End-to-end and per-layer benchmark of the DPZ workspace.
//!
//! ```text
//! dpz-perfbench --workload snapshot|archive|targeted --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! A run sets the workload up three times (generation, artifact
//! preparation, one warm-up round; `setup_s` is the median), then repeats
//! whole rounds of the workload's operations for `S` seconds, checking every
//! output. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the per-layer
//! ones, and `DIR` (default `.bench_out`) receives
//! `<workload>-<seed>.layers.json` (per-layer metrics, plus the end-to-end
//! metrics as measured under tracing) and `<workload>-<seed>.trace.json`
//! (a Chrome trace of the benchmark's spans).

mod archive;
mod check;
mod fields;
mod layers;
mod snapshot;
mod stats;
mod targeted;
mod trace;

use check::Tally;
use dpz_core::{DpzConfig, QualityTarget};
use fields::Field;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reads a run makes at least, so that `read_ms_p90` has ten reads beyond it.
const MIN_READS: usize = 100;

const WORKLOADS: [&str; 3] = ["snapshot", "archive", "targeted"];

/// One workload: a fixed list of operations per round over its inputs.
pub trait Workload {
    /// The distinct fields, one per kind, that the layer pass runs on.
    fn fields(&self) -> &[Field];
    /// Run one round, counting every operation in `tally` and its timings
    /// in `acc`.
    fn round(&mut self, tr: &mut Tracer, tally: &mut Tally, round: u64, acc: &mut RoundAcc);
}

/// The quantizer bound of an error-bound configuration.
pub fn error_bound(cfg: &DpzConfig) -> f64 {
    match cfg.target {
        QualityTarget::ErrorBound(p) => p,
        other => panic!("the benchmark's DPZ configurations use error bounds, not {other:?}"),
    }
}

/// What one round's operations measured.
pub struct RoundAcc {
    comp_bytes: f64,
    comp_secs: f64,
    dec_bytes: f64,
    dec_secs: f64,
    raw_bytes: f64,
    artifact_bytes: f64,
    min_psnr: f64,
    reads_ms: Vec<f64>,
}

impl RoundAcc {
    fn new() -> RoundAcc {
        RoundAcc {
            comp_bytes: 0.0,
            comp_secs: 0.0,
            dec_bytes: 0.0,
            dec_secs: 0.0,
            raw_bytes: 0.0,
            artifact_bytes: 0.0,
            min_psnr: f64::INFINITY,
            reads_ms: Vec::new(),
        }
    }

    /// A compress call over `input_bytes` of f32 input took `secs`.
    pub fn compressed(&mut self, input_bytes: f64, secs: f64) {
        self.comp_bytes += input_bytes;
        self.comp_secs += secs;
    }

    /// A full decode of `output_bytes` of f32 values took `secs`.
    pub fn decoded(&mut self, output_bytes: f64, secs: f64) {
        self.dec_bytes += output_bytes;
        self.dec_secs += secs;
    }

    /// An artifact of `len` bytes holds `input_bytes` of input.
    pub fn artifact(&mut self, input_bytes: f64, len: usize) {
        self.raw_bytes += input_bytes;
        self.artifact_bytes += len as f64;
    }

    pub fn psnr(&mut self, db: f64) {
        self.min_psnr = self.min_psnr.min(db);
    }

    /// One read (a random-access read, or a full decode where the workload
    /// has no random access) took `secs`.
    pub fn read(&mut self, secs: f64) {
        self.reads_ms.push(secs * 1e3);
    }
}

/// Per-round end-to-end figures of a run.
#[derive(Default)]
struct Rounds {
    compress_mbps: Vec<f64>,
    decompress_mbps: Vec<f64>,
    ratio: Vec<f64>,
    psnr_db: Vec<f64>,
    reads_ms: Vec<f64>,
}

impl Rounds {
    fn push(&mut self, acc: RoundAcc) {
        self.compress_mbps
            .push(acc.comp_bytes / acc.comp_secs / 1e6);
        self.decompress_mbps
            .push(acc.dec_bytes / acc.dec_secs / 1e6);
        self.ratio.push(acc.raw_bytes / acc.artifact_bytes);
        self.psnr_db.push(acc.min_psnr);
        self.reads_ms.extend(acc.reads_ms);
    }

    /// The end-to-end metrics: medians over rounds, read percentiles over
    /// every read of the run.
    fn metrics(&self, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("compress_mbps", stats::median(&self.compress_mbps), "MB/s"),
            (
                "decompress_mbps",
                stats::median(&self.decompress_mbps),
                "MB/s",
            ),
            ("ratio", stats::median(&self.ratio), "x"),
            ("psnr_db", stats::median(&self.psnr_db), "dB"),
            ("read_ms_p50", stats::quantile(&self.reads_ms, 0.5), "ms"),
            ("read_ms_p90", stats::quantile(&self.reads_ms, 0.9), "ms"),
            ("setup_s", setup_s, "s"),
        ]
    }

    /// Spread of the per-round throughputs inside this run: the quartile
    /// distance as a share of the median.
    fn spreads(&self) -> Vec<(&'static str, f64, &'static str)> {
        let spread = |v: &[f64]| {
            let (q1, q3) = stats::quartiles(v);
            (q3 - q1) / stats::median(v)
        };
        vec![
            ("compress_mbps", spread(&self.compress_mbps), "share"),
            ("decompress_mbps", spread(&self.decompress_mbps), "share"),
        ]
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    /// Pool workers; default 1, or every CPU for `archive`.
    threads: Option<usize>,
    /// Print the median chunked-compress seconds of the workload's fields
    /// and exit (the traced run's `pool.speedup` probe).
    pool_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        threads: None,
        pool_probe: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--pool-probe" {
            a.pool_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--out" => a.out = PathBuf::from(value),
            "--threads" => a.threads = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if (a.seconds.is_nan() || a.seconds <= 0.0) && !a.pool_probe {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Generate the inputs (timed apart, for `data.generate_s`) and prepare
/// the workload.
fn build(name: &str, seed: u64) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let inputs = match name {
        "snapshot" => snapshot::inputs(seed),
        "archive" => archive::inputs(seed),
        _ => targeted::inputs(seed),
    };
    let gen_s = start.elapsed().as_secs_f64();
    let w: Box<dyn Workload> = match name {
        "snapshot" => Box::new(snapshot::Snapshot::new(inputs)),
        "archive" => Box::new(archive::Archive::new(seed, inputs).map_err(|e| e.to_string())?),
        _ => Box::new(targeted::Targeted::new(inputs)),
    };
    Ok((w, gen_s))
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

/// Median chunked-compress seconds per pass over `fields` (5 passes after
/// one warm-up).
fn chunked_seconds(fields: &[Field]) -> Result<f64, String> {
    let cfg = archive::config();
    let mut passes = Vec::new();
    for rep in 0..6 {
        let start = Instant::now();
        for f in fields {
            dpz_core::compress_chunked(&f.data, &f.dims, &cfg, archive::SLABS)
                .map_err(|e| e.to_string())?;
        }
        if rep > 0 {
            passes.push(start.elapsed().as_secs_f64());
        }
    }
    Ok(stats::median(&passes))
}

/// Chunked compress time at one pool worker over the time at every CPU,
/// each measured in a child process of its own (the pool is sized once
/// per process).
fn pool_speedup(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let probe = |threads: usize| -> Result<f64, String> {
        let out = std::process::Command::new(&exe)
            .args([
                "--pool-probe",
                "--workload",
                &a.workload,
                "--seed",
                &a.seed.to_string(),
            ])
            .args(["--threads", &threads.to_string()])
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        text.trim().parse().map_err(|_| {
            format!(
                "pool probe failed: {text}{}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
    };
    Ok(probe(1)? / probe(nproc())?)
}

fn run(a: &Args) -> Result<String, String> {
    let threads = a
        .threads
        .unwrap_or(if a.workload == "archive" { nproc() } else { 1 });
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| e.to_string())?;

    let mut tr = Tracer::new(a.trace);
    let mut tally = Tally::default();
    if a.pool_probe {
        let (w, _) = build(&a.workload, a.seed)?;
        return Ok(chunked_seconds(w.fields())?.to_string());
    }

    // Set-up, three times over; the last one is kept.
    let mut setups = Vec::new();
    let mut generate = Vec::new();
    let mut workload = None;
    for i in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        let (mut w, gen_s) = build(&a.workload, a.seed)?;
        w.round(&mut tr, &mut tally, i as u64, &mut RoundAcc::new());
        setups.push(start.elapsed().as_secs_f64());
        generate.push(gen_s);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    let setup_s = stats::median(&setups);

    // Whole rounds until the time is up and enough reads were made.
    let mut rounds = Rounds::default();
    let start = Instant::now();
    let mut round = SETUPS as u64;
    while start.elapsed().as_secs_f64() < a.seconds || rounds.reads_ms.len() < MIN_READS {
        tr.enter("round");
        let mut acc = RoundAcc::new();
        w.round(&mut tr, &mut tally, round, &mut acc);
        tr.exit();
        rounds.push(acc);
        if tr.enabled() {
            layers::pass(&mut tr, &mut tally, w.fields());
        }
        round += 1;
    }
    let e2e = rounds.metrics(setup_s);

    let metrics = if a.trace {
        let mut per_layer = Vec::new();
        let speedup = pool_speedup(a)?;
        for (name, unit) in layers::METRICS {
            let value = match name {
                "data.generate_s" => stats::median(&generate),
                "pool.speedup" => speedup,
                _ => match layers::QUOTIENTS.iter().find(|q| q.0 == name) {
                    Some(&(_, num, den, scale)) => {
                        let (num, den) =
                            (tr.passes(num).unwrap_or(&[]), tr.passes(den).unwrap_or(&[]));
                        let q: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d * scale).collect();
                        stats::median(&q)
                    }
                    None => stats::median(
                        tr.passes(name)
                            .ok_or(format!("layer metric {name} never recorded"))?,
                    ),
                },
            };
            per_layer.push((name, value, unit));
        }
        let stem = format!("{}-{}", a.workload, a.seed);
        std::fs::create_dir_all(&a.out).map_err(|e| e.to_string())?;
        let report = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"threads\": {threads}, \"nproc\": {}, \"kernel_backend\": \"{}\", \"rounds\": {}, \"per_layer\": {}, \"traced_end_to_end\": {}, \"round_spread\": {}}}\n",
            a.workload,
            a.seed,
            nproc(),
            dpz_kernels::backend_name(),
            rounds.ratio.len(),
            json_metrics(&per_layer),
            json_metrics(&e2e),
            json_metrics(&rounds.spreads())
        );
        std::fs::write(a.out.join(format!("{stem}.layers.json")), report)
            .map_err(|e| e.to_string())?;
        std::fs::write(a.out.join(format!("{stem}.trace.json")), tr.chrome_trace())
            .map_err(|e| e.to_string())?;
        per_layer
    } else {
        e2e
    };

    for reason in &tally.reasons {
        eprintln!("failed: {reason}");
    }
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    ))
}

fn main() {
    let result = parse_args().and_then(|a| run(&a));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("dpz-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
