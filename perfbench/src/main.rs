//! `perfbench`: the FAST workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> <settings...>
//! ```
//!
//! Every run sets up three phases (FAST-Adaptive training, open-loop MLP
//! serving, batch-1 ResNet serving with hot reload) and runs all three, so
//! every end-to-end metric is measured on every workload; the workload
//! picks the phase that runs first and the length of the open-loop ladder. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` the per-layer ones. The last line
//! of standard output is the result object; the exit code is non-zero if
//! any output check failed. See `perfbench/README.md`.

mod b1;
mod config;
mod env;
mod json;
mod mlp;
mod stats;
mod trace;
mod train;

use config::{Config, Workload};
use json::Obj;
use std::time::Instant;
use trace::Recorder;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// End-to-end metrics, printed by `--trace 0`: name and unit.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("train_samples_per_s", "samples/s"),
    ("train_step_p50_ms", "ms"),
    ("train_step_p90_ms", "ms"),
    ("tta_s", "s"),
    ("sim_tta_s", "s"),
    ("final_acc_pct", "%"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_goodput_qps", "req/s"),
    ("serve_max_ok_qps", "req/s"),
    ("b1_p50_ms", "ms"),
    ("b1_p99_ms", "ms"),
    ("reload_p50_ms", "ms"),
];

/// Per-layer metrics, printed by `--trace 1`: name and unit. The
/// self-time rows (`step.*`, `mlp.*`, `b1.*`) of each table sum to its
/// whole, with an explicit `unattributed` row.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.batches_ms", "ms"),
    ("core.controller_ms", "ms"),
    ("core.promoted_frac", "ratio"),
    ("hw.sim_cycles_per_step", "count"),
    ("hw.meter_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optim_ms", "ms"),
    ("nn.eval_ms", "ms"),
    ("nn.macs_per_step", "count"),
    ("nn.gmacs_per_s", "GMAC/s"),
    ("nn.qgemm_prepare_ms", "ms"),
    ("nn.qgemm_execute_replay_ms", "ms"),
    ("nn.qgemm_gemms_replay", "count"),
    ("nn.qgemm_gemms_integer", "count"),
    ("tensor.im2col_ms", "ms"),
    ("tensor.col2im_ms", "ms"),
    ("step.core.controller", "ms"),
    ("step.nn.forward.self", "ms"),
    ("step.nn.loss", "ms"),
    ("step.nn.backward.self", "ms"),
    ("step.nn.optim", "ms"),
    ("step.qgemm.prepare", "ms"),
    ("step.qgemm.execute", "ms"),
    ("step.tensor.im2col", "ms"),
    ("step.tensor.col2im", "ms"),
    ("step.unattributed", "ms"),
    ("serve.submit_us", "us"),
    ("serve.queue_p50_us", "us"),
    ("serve.queue_p99_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.shed_frac", "ratio"),
    ("serve.missed_frac", "ratio"),
    ("serve.useful_frac", "ratio"),
    ("mlp.bench.gen_late", "us"),
    ("mlp.serve.queue", "us"),
    ("mlp.serve.service.self", "us"),
    ("mlp.qgemm.prepare", "us"),
    ("mlp.qgemm.execute", "us"),
    ("mlp.unattributed", "us"),
    ("serve.infer_direct_us", "us"),
    ("serve.dispatch_overhead_us", "us"),
    ("b1.serve.queue_p50_us", "us"),
    ("b1.serve.queue_p99_us", "us"),
    ("b1.serve.mean_batch", "count"),
    ("nn.qgemm_prepare_us_per_b1_request", "us"),
    ("nn.qgemm_execute_replay_us_per_b1_request", "us"),
    ("tensor.im2col_us_per_b1_request", "us"),
    ("b1.serve.submit_us", "us"),
    ("b1.serve.queue", "us"),
    ("b1.serve.service.self", "us"),
    ("b1.qgemm.prepare", "us"),
    ("b1.qgemm.execute", "us"),
    ("b1.tensor.im2col", "us"),
    ("b1.tensor.im2row", "us"),
    ("b1.unattributed", "us"),
    ("ckpt.artifact_bytes", "bytes"),
    ("ckpt.decode_ms", "ms"),
    ("serve.reload_call_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.gen_late_max_ms", "ms"),
    ("bench.calib_ms", "ms"),
    ("bench.calib_end_ms", "ms"),
    ("bench.trace_overhead_train_ms", "ms"),
    ("bench.trace_overhead_mlp_p50_us", "us"),
    ("bench.trace_overhead_b1_p50_us", "us"),
];

/// Operations attempted and failed, with the first failure messages.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (wrong output, error, or a missed hard target).
    pub failed: u64,
    /// Messages of the failures (the first few are printed).
    pub errors: Vec<String>,
}

impl Ops {
    /// Records one failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Report {
    e2e: Vec<(String, f64)>,
    layer: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, v: f64) {
        self.e2e.push((name.to_string(), v));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, v: f64) {
        self.layer.push((name.to_string(), v));
    }

    /// Records a self-time table; its rows are per-layer metrics.
    pub fn breakdown(&mut self, title: &str, rows: Vec<(String, f64)>) {
        self.notes
            .push(format!("{title}: {}", trace::rows_json(&rows)));
        self.layer.extend(rows);
    }

    /// Adds a human-readable line to the log.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// All three phases' inputs and models.
struct Setup {
    train: train::TrainSetup,
    mlp: mlp::MlpSetup,
    b1: b1::B1Setup,
}

impl Setup {
    fn build(cfg: &Config) -> Setup {
        Setup {
            train: train::TrainSetup::build(cfg.seed),
            mlp: mlp::MlpSetup::build(cfg, cfg.seed),
            b1: b1::B1Setup::build(cfg.seed),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Train,
    Mlp,
    B1,
}

/// The phase order of a workload: its own phase first.
fn phases(w: Workload) -> [Phase; 3] {
    match w {
        Workload::TrainResnet18 => [Phase::Train, Phase::Mlp, Phase::B1],
        Workload::ServeMlpPoisson => [Phase::Mlp, Phase::B1, Phase::Train],
    }
}

fn metrics_obj(declared: &[(&str, &str)], measured: &[(String, f64)], ops: &mut Ops) -> Obj {
    let mut metrics = Obj::new();
    for &(name, unit) in declared {
        match measured.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) if v.is_finite() => {
                let mut m = Obj::new();
                m.num("value", v).str("unit", unit);
                metrics.obj(name, m);
            }
            _ => ops.fail(format!("metric {name} was not measured")),
        }
    }
    metrics
}

fn run(cfg: &Config) -> (Ops, Report, Obj) {
    let mut report = Report::default();
    let mut ops = Ops::default();
    let calib_start = env::calib_ms();
    fast_telemetry::set_collection(cfg.trace);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(Setup::build(cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Setup { train, mlp, b1 } = setup.expect("at least one set-up");
    report.e2e("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN));

    let mut recorder = Recorder::new(cfg.trace);
    let (mut train, mut mlp, mut b1) = (Some(train), Some(mlp), Some(b1));
    for (i, phase) in phases(cfg.workload).into_iter().enumerate() {
        let primary = i == 0;
        let t = Instant::now();
        let (name, phase_ops) = match phase {
            Phase::Train => (
                "train",
                train::run(cfg, train.take().expect("once"), &mut recorder, &mut report),
            ),
            Phase::Mlp => (
                "mlp",
                mlp::run(
                    cfg,
                    mlp.take().expect("once"),
                    primary,
                    &mut recorder,
                    &mut report,
                ),
            ),
            Phase::B1 => (
                "b1",
                b1::run(cfg, b1.take().expect("once"), &mut recorder, &mut report),
            ),
        };
        report.note(format!(
            "phase {name} took {:.2} s",
            t.elapsed().as_secs_f64()
        ));
        ops.merge(phase_ops);
    }
    fast_telemetry::set_collection(false);
    let calib_end = env::calib_ms();
    report.e2e("peak_rss_mb", env::peak_rss_mb().unwrap_or(f64::NAN));
    report.layer("bench.calib_ms", calib_start);
    report.layer("bench.calib_end_ms", calib_end);

    let mut record = Obj::new();
    record.obj("config", cfg.to_json());
    record.obj("fingerprint", env::fingerprint(mlp::WORKERS, b1::WORKERS));
    record.num("calib_start_ms", calib_start);
    record.num("calib_end_ms", calib_end);
    if cfg.trace {
        let path = std::path::Path::new("perfbench").join("out").join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        match recorder.write_jsonl(&path) {
            Ok(()) => {
                record.str("spans_file", &path.to_string_lossy());
                record.num("spans", recorder.len() as f64);
            }
            Err(e) => ops.fail(format!("cannot write {}: {e}", path.display())),
        }
    }
    (ops, report, record)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (mut ops, report, record) = run(&cfg);
    for line in &report.notes {
        println!("# {line}");
    }
    println!("# record {}", record.render());
    let metrics = if cfg.trace {
        metrics_obj(PER_LAYER, &report.layer, &mut ops)
    } else {
        metrics_obj(&END_TO_END, &report.e2e, &mut ops)
    };
    for e in &ops.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = ops.failed == 0;
    let mut result = Obj::new();
    result
        .bool("correct", correct)
        .num("attempted", ops.attempted.max(1) as f64)
        .num("failed", ops.failed as f64)
        .obj("metrics", metrics);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) missing");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
