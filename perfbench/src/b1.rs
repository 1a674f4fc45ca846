//! Phase `b1`: one closed-loop client (one request outstanding) sends
//! a fixed number of batch-1 ResNet-18-lite (stem 16) requests through a
//! `Server`. Every
//! `reload_every` requests `Server::reload_model` installs the next of K
//! checkpoint artifacts built during set-up; each response is compared with
//! a direct eval forward of the artifact that must be serving it.

use crate::config::Config;
use crate::stats::{self, percentile};
use crate::trace::{Breakdown, ProgramTotals, Recorder};
use crate::{Ops, Report};
use fast_ckpt::{capture_state, Artifact, StateDict, SECTION_MODEL};
use fast_nn::models::{resnet_lite, ResNetConfig};
use fast_nn::{set_uniform_precision, Layer, LayerPrecision, Sequential, Session};
use fast_serve::{BatchConfig, CompiledModel, Server};
use fast_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Replica workers behind the batch-1 server.
pub const WORKERS: usize = 1;
const STEM: usize = 16;
const SIZE: usize = 16;
/// Distinct seed-generated request inputs.
const POOL: usize = 8;
/// Requests per run (at least 1 000, so p99 has ten beyond it).
const REQUESTS: usize = 2_000;
/// Requests between two hot reloads.
const RELOAD_EVERY: usize = 50;
/// Checkpoint artifacts built during set-up and cycled by the reloads.
const ARTIFACTS: usize = 3;
/// Requests per traced or untraced block of the traced pass.
const TRACE_BLOCK: usize = 25;

fn build_model(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = resnet_lite(ResNetConfig::resnet18(STEM, 10), &mut rng);
    set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
    m
}

/// Set-up of the batch-1 phase.
pub struct B1Setup {
    artifacts: Vec<Artifact>,
    inputs: Vec<Tensor>,
    /// `reference[k][i]`: artifact `k`'s eval output for input `i`.
    reference: Vec<Vec<Tensor>>,
    replica: CompiledModel,
    direct: CompiledModel,
}

impl B1Setup {
    /// Builds K artifacts (distinct weights from `seed`), the inputs and
    /// every (artifact, input) reference output, and compiles and warms
    /// the replica that starts out serving artifact 0's weights.
    pub fn build(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB1);
        let inputs: Vec<Tensor> = (0..POOL)
            .map(|_| {
                let v = (0..3 * SIZE * SIZE)
                    .map(|_| rng.gen_range(0.0f32..1.0))
                    .collect();
                Tensor::from_vec(vec![1, 3, SIZE, SIZE], v)
            })
            .collect();
        let model_seed = |k: usize| seed.wrapping_mul(1_000).wrapping_add(k as u64);
        let mut artifacts = Vec::with_capacity(ARTIFACTS);
        let mut reference = Vec::with_capacity(ARTIFACTS);
        for k in 0..ARTIFACTS {
            let mut model = build_model(model_seed(k));
            let mut artifact = Artifact::new();
            artifact.insert(SECTION_MODEL, capture_state(&mut model).to_bytes());
            artifacts.push(artifact);
            let mut eval = Session::eval(0);
            reference.push(inputs.iter().map(|x| model.forward(x, &mut eval)).collect());
        }
        let compiled = || {
            let mut c = CompiledModel::compile(build_model(model_seed(0)), 0);
            c.warm(&inputs[0]);
            c
        };
        let (replica, direct) = (compiled(), compiled());
        B1Setup {
            artifacts,
            inputs,
            reference,
            replica,
            direct,
        }
    }
}

/// Runs the phase and adds its metrics to `report`.
pub fn run(cfg: &Config, setup: B1Setup, trace: &mut Recorder, report: &mut Report) -> Ops {
    let B1Setup {
        artifacts,
        inputs,
        reference,
        replica,
        mut direct,
    } = setup;
    let mut ops = Ops::default();
    let traced = trace.enabled();
    let server = Server::start(vec![replica], BatchConfig::no_wait(1));

    let mut latency_ns = Vec::new();
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let mut reload_ns = Vec::new();
    let mut reload_call_ns = Vec::new();
    let mut submit_ns = 0.0f64;
    let mut prog = ProgramTotals::default();
    let mut traced_requests = 0usize;
    let mut live = 0usize;
    let mut reload_started: Option<Instant> = None;
    let mut block_start = ProgramTotals::default();
    let mut direct_ns = Vec::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xB1_0AD);

    for i in 0..REQUESTS {
        let trace_block = traced && (i / TRACE_BLOCK).is_multiple_of(2);
        if traced && i % TRACE_BLOCK == 0 {
            fast_telemetry::set_collection(trace_block);
            if trace_block {
                block_start = ProgramTotals::from_snapshot(&server.metrics_snapshot());
            }
        }
        if i > 0 && i.is_multiple_of(RELOAD_EVERY) {
            live = (live + 1) % artifacts.len();
            let t = Instant::now();
            ops.attempted += 1;
            if let Err(e) = server.reload_model("default", &artifacts[live]) {
                ops.fail(format!("reload {live} failed: {e}"));
            }
            let t_end = Instant::now();
            reload_call_ns.push(t_end.duration_since(t).as_nanos() as f64);
            trace.record(i as u64, "serve.reload_call", None, t, t_end);
            reload_started = Some(t);
        }
        let input = rng.gen_range(0..POOL);
        let t0 = Instant::now();
        let pending = server.submit(inputs[input].clone());
        let t1 = Instant::now();
        let outcome = pending.outcome();
        let done = Instant::now();
        ops.attempted += 1;
        match outcome.result {
            Ok(y) if y == reference[live][input] => {}
            Ok(_) => ops.fail(format!(
                "batch-1 response {i} differs from artifact {live}'s reference"
            )),
            Err(e) => ops.fail(format!("batch-1 request {i} failed: {e}")),
        }
        let ns = done.duration_since(t0).as_nanos() as f64;
        latency_ns.push(ns);
        if let Some(t) = reload_started.take() {
            reload_ns.push(done.duration_since(t).as_nanos() as f64);
        }
        if traced {
            if trace_block {
                traced_ns.push(ns);
                traced_requests += 1;
                submit_ns += t1.duration_since(t0).as_nanos() as f64;
                let req = trace.record(i as u64, "b1.request", None, t0, done);
                trace.record(i as u64, "serve.submit", req, t0, t1);
                trace.record(i as u64, "serve.wait", req, t1, done);
            } else {
                untraced_ns.push(ns);
                // The same forward outside the server, interleaved with the
                // served requests so both see the same machine.
                let x = &inputs[input];
                let t = Instant::now();
                let y = direct.infer(x);
                direct_ns.push(t.elapsed().as_nanos() as f64);
                if y != reference[0][input] {
                    ops.fail("direct batch-1 forward differs from the reference".into());
                }
            }
            if trace_block && (i + 1) % TRACE_BLOCK == 0 {
                let now = ProgramTotals::from_snapshot(&server.metrics_snapshot());
                prog.add(&now.since(&block_start));
            }
        }
    }
    let i = REQUESTS;
    if traced && (i / TRACE_BLOCK).is_multiple_of(2) && !i.is_multiple_of(TRACE_BLOCK) {
        let now = ProgramTotals::from_snapshot(&server.metrics_snapshot());
        prog.add(&now.since(&block_start));
    }
    fast_telemetry::set_collection(traced);
    let stats = server.shutdown();
    if stats.reload_failures > 0 {
        ops.fail(format!(
            "{} reloads rejected by a worker",
            stats.reload_failures
        ));
    }

    let n = latency_ns.len();
    let sorted = stats::sorted(latency_ns);
    if stats::samples_beyond(n, 0.99) < 10 {
        ops.fail(format!(
            "only {n} batch-1 requests, too few for a p99 with ten beyond"
        ));
    }
    if reload_ns.is_empty() {
        ops.fail("no reload completed in the batch-1 phase".into());
    }
    let ms = |ns: Option<f64>| ns.unwrap_or(f64::NAN) / 1e6;
    let b1_p50 = percentile(&sorted, 0.5);
    report.e2e("b1_p50_ms", ms(b1_p50));
    report.e2e("b1_p99_ms", ms(percentile(&sorted, 0.99)));
    report.e2e("reload_p50_ms", ms(stats::median(&reload_ns)));
    report.note(format!(
        "b1: {n} requests (highest supported tail {:?}), {} reloads, p50 {:.3} ms, p99 {:.3} ms",
        stats::highest_supported_tail(n),
        reload_ns.len(),
        ms(b1_p50),
        ms(percentile(&sorted, 0.99)),
    ));

    report.layer("serve.reload_call_ms", ms(stats::median(&reload_call_ns)));
    report.layer("ckpt.artifact_bytes", artifacts[0].to_bytes().len() as f64);
    report.layer(
        "b1.serve.queue_p50_us",
        stats::hist_percentile_us(&stats.queue_ns, 0.5),
    );
    report.layer(
        "b1.serve.queue_p99_us",
        stats::hist_percentile_us(&stats.queue_ns, 0.99),
    );
    report.layer("b1.serve.mean_batch", stats.mean_batch());
    if traced {
        // Decode time of the artifact's model section, timed outside the
        // server (the server decodes once more inside `reload_model`).
        let mut decode_ns = Vec::new();
        for a in &artifacts {
            let bytes = a
                .section(SECTION_MODEL)
                .expect("artifact has a model section");
            let t = Instant::now();
            match StateDict::from_bytes(bytes) {
                Ok(d) => drop(std::hint::black_box(d)),
                Err(e) => ops.fail(format!("artifact decode failed: {e}")),
            }
            decode_ns.push(t.elapsed().as_nanos() as f64);
        }
        report.layer("ckpt.decode_ms", ms(stats::median(&decode_ns)));

        let direct_p50 = stats::median(&direct_ns).unwrap_or(0.0);
        let untraced_p50 = stats::median(&untraced_ns).unwrap_or(0.0);
        report.layer("serve.infer_direct_us", direct_p50 / 1e3);
        report.layer(
            "serve.dispatch_overhead_us",
            (untraced_p50 - direct_p50) / 1e3,
        );
        let traced_p50 = stats::median(&traced_ns).unwrap_or(0.0);
        report.layer(
            "bench.trace_overhead_b1_p50_us",
            (traced_p50 - untraced_p50) / 1e3,
        );

        // One mean traced request: queue, the worker's own service time,
        // the program spans inside the forward, and the remainder (the
        // submit call up to the enqueue, response hand-off, client wake-up,
        // reload application).
        let k = traced_requests.max(1) as f64;
        let us = |ns: f64| ns / 1e3;
        report.layer("b1.serve.submit_us", us(submit_ns / k));
        let queue_mean = stats.queue_ns.mean_ns().unwrap_or(0.0);
        let service_mean = stats.service_ns.mean_ns().unwrap_or(0.0);
        let mut b = Breakdown::new();
        b.row("b1.serve.queue", us(queue_mean))
            .row(
                "b1.serve.service.self",
                us(service_mean - prog.total_ns() / k),
            )
            .program_rows(
                "b1.",
                &prog,
                1.0 / (1e3 * k),
                &["tensor.im2col", "tensor.im2row"],
            );
        let whole = traced_ns.iter().sum::<f64>() / k;
        report.breakdown(
            "batch-1 request (us, mean of traced requests)",
            b.close("b1.", us(whole)),
        );
        let per_req = |name: &str| us(prog.span(name) / k);
        report.layer(
            "nn.qgemm_prepare_us_per_b1_request",
            per_req("qgemm.prepare"),
        );
        report.layer(
            "nn.qgemm_execute_replay_us_per_b1_request",
            per_req("qgemm.execute.replay"),
        );
        report.layer("tensor.im2col_us_per_b1_request", per_req("tensor.im2col"));
    }
    ops
}
