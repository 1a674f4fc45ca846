//! Phase `train`: FAST-Adaptive (Algorithm 1 via `FastController`)
//! training of ResNet-18-lite on `SyntheticImages`, driven call by call so
//! each layer's share of a step is visible from outside.

use crate::config::Config;
use crate::stats::{percentile, sorted};
use crate::trace::{Breakdown, ProgramTotals, Recorder};
use crate::{Ops, Report};
use fast_bench::workloads::{CnnModel, ImageTask};
use fast_core::{collect_layer_work, CostMeter, DimScale, EpsilonSchedule, FastController};
use fast_data::SyntheticImages;
use fast_hw::SystemConfig;
use fast_nn::{
    accuracy_percent, softmax_cross_entropy, Layer, Sequential, Session, Sgd, TrainHook,
};
use fast_tensor::Tensor;
use std::time::Instant;

/// Image side, classes and batch size of the training workload.
const SIZE: usize = 16;
/// Seed of the model's initial weights. Fixed, unlike the data: across
/// initialisations held-out accuracy 20 steps after the learning-rate drop
/// ranged from 55% to 93%, so a seed-dependent initialisation would make
/// `tta_s` and `final_acc_pct` spread more than any bound allows.
const MODEL_INIT_SEED: u64 = 1;
const CLASSES: usize = 10;
const BATCH: usize = 32;
/// Training and held-out images generated from the seed.
const TRAIN_IMAGES: usize = 2560;
const TEST_IMAGES: usize = 512;
/// The fixed step budget (at least 100, so p90 has ten steps beyond it).
const STEPS: usize = 120;
/// SGD learning rate, dropped tenfold at `LR_DROP_STEP`.
const LR: f32 = 0.05;
const LR_DROP_STEP: usize = 80;
/// Steps between held-out evaluations until the target is met. Every
/// data seed tried was above 80% accuracy at step 100, 20 steps after the
/// drop, so the target is met at the same evaluation for every seed and
/// `tta_s` spreads only with the machine; slower convergence shows as a
/// later evaluation or as a failed run.
const EVAL_EVERY: usize = 100;

/// Everything the training phase needs, built during set-up.
pub struct TrainSetup {
    data: SyntheticImages,
    test: Vec<(Tensor, Vec<usize>)>,
    model: Sequential,
    seed: u64,
}

impl TrainSetup {
    /// Generates the dataset from `seed` and builds the model.
    pub fn build(seed: u64) -> Self {
        let task = ImageTask {
            classes: CLASSES,
            size: SIZE,
            train_n: TRAIN_IMAGES,
            test_n: TEST_IMAGES,
        };
        let data = task.dataset(seed);
        let test = data.test_batches(64);
        TrainSetup {
            data,
            test,
            model: CnnModel::ResNet18.build(task, MODEL_INIT_SEED),
            seed,
        }
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn since_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Per-step timings of the traced pass, in nanoseconds.
#[derive(Default)]
struct Traced {
    controller: f64,
    forward: f64,
    loss: f64,
    backward: f64,
    optim: f64,
    forward_prog: ProgramTotals,
    backward_prog: ProgramTotals,
    steps: usize,
    /// Wall time of the traced steps (even steps).
    step_ns: Vec<f64>,
    /// Wall time of the untraced steps (odd steps), for the overhead.
    untraced_step_ns: Vec<f64>,
}

/// Held-out accuracy (%) of `model` over `test`, in evaluation mode.
fn evaluate(model: &mut Sequential, session: &mut Session, test: &[(Tensor, Vec<usize>)]) -> f64 {
    session.train = false;
    let (mut correct, mut total) = (0.0f64, 0usize);
    for (x, labels) in test {
        let logits = model.forward(x, session);
        correct += accuracy_percent(&logits, labels) * labels.len() as f64;
        total += labels.len();
    }
    session.train = true;
    correct / total.max(1) as f64
}

/// Runs the phase and adds its metrics to `report`.
pub fn run(cfg: &Config, setup: TrainSetup, trace: &mut Recorder, report: &mut Report) -> Ops {
    let TrainSetup {
        data,
        test,
        mut model,
        seed,
    } = setup;
    let steps = STEPS;
    let mut ops = Ops::default();
    let mut session = Session::new(seed);
    let mut opt = Sgd::new(LR, 0.9, 5e-4);
    let mut ctl = FastController::new(steps, EpsilonSchedule::paper_default());
    let mut meter = CostMeter::new(SystemConfig::fast()).with_dim_scale(DimScale::CNN_PAPER);
    let traced = trace.enabled();
    let mut tr = Traced::default();

    let mut step_ns: Vec<f64> = Vec::with_capacity(steps);
    let (mut batches_ns, mut eval_ns, mut meter_ns) = (0.0f64, 0.0f64, 0.0f64);
    let mut evals = 0usize;
    let (mut promoted, mut settings_seen) = (0usize, 0usize);
    let mut macs_per_step = 0.0f64;
    let mut tta: Option<(f64, f64, usize)> = None;

    let start = Instant::now();
    let mut step = 0usize;
    let mut epoch = 0u64;
    while step < steps {
        let t = Instant::now();
        let batches = data.train_batches(BATCH, epoch);
        batches_ns += since_ns(t);
        epoch += 1;
        for (x, labels) in batches {
            if step == steps {
                break;
            }
            if step == LR_DROP_STEP {
                opt.set_lr(LR * 0.1);
            }
            // In the traced pass even steps are traced and odd steps run
            // with every collector off, so the overhead is measured in the
            // same process on the same model.
            let trace_step = traced && step.is_multiple_of(2);
            fast_telemetry::set_collection(trace_step);
            let loss;
            let t0 = Instant::now();
            if trace_step {
                let id = step as u64;
                let a = Instant::now();
                ctl.before_iteration(step, &mut model);
                let b = Instant::now();
                session.train = true;
                session.record_sensitivity = ctl.wants_sensitivity();
                let p0 = ProgramTotals::now();
                let c = Instant::now();
                let logits = model.forward(&x, &mut session);
                let d = Instant::now();
                let p1 = ProgramTotals::now();
                let e = Instant::now();
                let (l, grad) = softmax_cross_entropy(&logits, &labels);
                let f = Instant::now();
                let p2 = ProgramTotals::now();
                let g = Instant::now();
                model.backward(&grad, &mut session);
                let h = Instant::now();
                let p3 = ProgramTotals::now();
                let i = Instant::now();
                ctl.after_backward(step, &mut model);
                let j = Instant::now();
                opt.step(&mut model);
                let k = Instant::now();
                loss = l;
                let kids = [
                    trace.record(id, "core.controller", None, a, b),
                    trace.record(id, "nn.forward", None, c, d),
                    trace.record(id, "nn.loss", None, e, f),
                    trace.record(id, "nn.backward", None, g, h),
                    trace.record(id, "core.controller", None, i, j),
                    trace.record(id, "nn.optim", None, j, k),
                ];
                let parent = trace.record(id, "train.step", None, t0, k);
                trace.adopt(&kids, parent);
                let nanos = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as f64;
                tr.controller += nanos(a, b) + nanos(i, j);
                tr.forward += nanos(c, d);
                tr.loss += nanos(e, f);
                tr.backward += nanos(g, h);
                tr.optim += nanos(j, k);
                tr.forward_prog.add(&p1.since(&p0));
                tr.backward_prog.add(&p3.since(&p2));
                tr.steps += 1;
                tr.step_ns.push(nanos(t0, k));
            } else {
                ctl.before_iteration(step, &mut model);
                session.train = true;
                session.record_sensitivity = ctl.wants_sensitivity();
                let logits = model.forward(&x, &mut session);
                let (l, grad) = softmax_cross_entropy(&logits, &labels);
                model.backward(&grad, &mut session);
                ctl.after_backward(step, &mut model);
                opt.step(&mut model);
                loss = l;
                if traced {
                    tr.untraced_step_ns.push(since_ns(t0));
                }
            }
            step_ns.push(since_ns(t0));
            fast_telemetry::set_collection(traced);
            ops.attempted += 1;
            if !loss.is_finite() {
                ops.fail(format!("non-finite loss {loss} at step {step}"));
            }

            // The cost meter and the precision census are bookkeeping of
            // the benchmark, kept out of every wall-time metric.
            let t = Instant::now();
            meter.record(&mut model);
            for s in ctl.settings() {
                promoted += [s.w, s.a, s.g].iter().filter(|&&b| b == 4).count();
                settings_seen += 3;
            }
            if step == 0 {
                macs_per_step = collect_layer_work(&mut model)
                    .iter()
                    .map(|w| 3.0 * w.gemm.macs() as f64)
                    .sum();
            }
            meter_ns += since_ns(t);
            step += 1;

            if tta.is_none() && step.is_multiple_of(EVAL_EVERY) {
                let t = Instant::now();
                let acc = evaluate(&mut model, &mut session, &test);
                eval_ns += since_ns(t);
                evals += 1;
                ops.attempted += 1;
                if acc >= cfg.target_acc {
                    let wall = start.elapsed().as_nanos() as f64 - meter_ns;
                    tta = Some((wall, meter.total_seconds(), step));
                }
            }
        }
    }
    fast_telemetry::set_collection(traced);
    let t = Instant::now();
    let final_acc = evaluate(&mut model, &mut session, &test);
    eval_ns += since_ns(t);
    evals += 1;
    ops.attempted += 1;

    let Some((tta_ns, sim_tta_s, tta_step)) = tta else {
        ops.fail(format!(
            "accuracy target {}% not reached in {steps} steps (final {final_acc:.1}%)",
            cfg.target_acc
        ));
        return ops;
    };

    let n = step_ns.len();
    let train_ns: f64 = step_ns.iter().sum();
    let steps_sorted = sorted(step_ns);
    report.e2e("train_samples_per_s", (n * BATCH) as f64 / (train_ns / 1e9));
    report.e2e(
        "train_step_p50_ms",
        ms(percentile(&steps_sorted, 0.5).unwrap_or(0.0)),
    );
    report.e2e(
        "train_step_p90_ms",
        ms(percentile(&steps_sorted, 0.9).unwrap_or(0.0)),
    );
    report.e2e("tta_s", tta_ns / 1e9);
    report.e2e("sim_tta_s", sim_tta_s);
    report.e2e("final_acc_pct", final_acc);
    report.note(format!(
        "train: {n} steps (p90 over {n} samples), target {}% reached at step {tta_step}, final {final_acc:.2}%",
        cfg.target_acc
    ));

    let per_step = |ns: f64| ms(ns) / n as f64;
    report.layer("data.batches_ms", ms(batches_ns));
    report.layer("nn.eval_ms", ms(eval_ns) / evals as f64);
    report.layer("hw.meter_ms", per_step(meter_ns));
    report.layer(
        "hw.sim_cycles_per_step",
        meter.total_cycles as f64 / n as f64,
    );
    report.layer(
        "core.promoted_frac",
        promoted as f64 / settings_seen.max(1) as f64,
    );
    report.layer("nn.macs_per_step", macs_per_step);
    if traced && tr.steps > 0 {
        let k = tr.steps as f64;
        let step_mean: f64 = tr.step_ns.iter().sum::<f64>() / k;
        let mut prog = tr.forward_prog;
        prog.add(&tr.backward_prog);
        report.layer("core.controller_ms", ms(tr.controller) / k);
        report.layer("nn.forward_ms", ms(tr.forward) / k);
        report.layer("nn.backward_ms", ms(tr.backward) / k);
        report.layer("nn.optim_ms", ms(tr.optim) / k);
        report.layer(
            "nn.gmacs_per_s",
            macs_per_step / ((tr.forward + tr.backward) / k),
        );
        report.layer("nn.qgemm_prepare_ms", ms(prog.span("qgemm.prepare")) / k);
        report.layer(
            "nn.qgemm_execute_replay_ms",
            ms(prog.span("qgemm.execute.replay")) / k,
        );
        report.layer("nn.qgemm_gemms_replay", prog.gemms_replay / k);
        report.layer("nn.qgemm_gemms_integer", prog.gemms_integer / k);
        report.layer("tensor.im2col_ms", ms(prog.span("tensor.im2col")) / k);
        report.layer("tensor.col2im_ms", ms(prog.span("tensor.col2im")) / k);

        // Self-time table of one mean step: the benchmark spans minus the
        // program spans they enclosed, plus the program spans themselves.
        let mut b = Breakdown::new();
        b.row("step.core.controller", ms(tr.controller) / k)
            .row(
                "step.nn.forward.self",
                ms(tr.forward - tr.forward_prog.total_ns()) / k,
            )
            .row("step.nn.loss", ms(tr.loss) / k)
            .row(
                "step.nn.backward.self",
                ms(tr.backward - tr.backward_prog.total_ns()) / k,
            )
            .row("step.nn.optim", ms(tr.optim) / k)
            .program_rows(
                "step.",
                &prog,
                1.0 / (1e6 * k),
                &["tensor.im2col", "tensor.col2im"],
            );
        report.breakdown(
            "train step (ms, mean of traced steps)",
            b.close("step.", ms(step_mean)),
        );
        let untraced = crate::stats::median(&tr.untraced_step_ns).unwrap_or(0.0);
        let traced_p50 = crate::stats::median(&tr.step_ns).unwrap_or(0.0);
        report.layer("bench.trace_overhead_train_ms", ms(traced_p50 - untraced));
    }
    ops
}
