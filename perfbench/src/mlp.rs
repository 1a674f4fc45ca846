//! Phase `mlp`: one generator thread sends Poisson open-loop traffic to a
//! `Server` hosting the 64-256-256-10 HighBFP MLP, at each absolute rate of
//! the ladder in turn. Every request carries the SLO as its deadline and a
//! seed-generated input; every served response is compared with a direct
//! eval forward of the same model on the same input.

use crate::config::Config;
use crate::stats::{self, ArrivalTiming, Fate, Rung, SloTally, Windows};
use crate::trace::{Breakdown, ProgramTotals, Recorder};
use crate::{Ops, Report};
use fast_nn::models::mlp;
use fast_nn::{set_uniform_precision, Layer, LayerPrecision, Sequential, Session};
use fast_serve::{
    BatchConfig, CompiledModel, Pending, ServeError, ServeRequest, ServeStats, Server,
};
use fast_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Replica workers behind the MLP server.
pub const WORKERS: usize = 2;
const MAX_BATCH: usize = 32;
const DIMS: [usize; 4] = [64, 256, 256, 10];
/// Distinct seed-generated request inputs.
const POOL: usize = 256;
/// Length of each rung when this phase rides along another workload.
const COMPANION_RUNG_S: f64 = 1.5;
/// Unmeasured traffic at the rung's rate before its measured window: an
/// overloaded server's goodput ramps up over its first half second.
const WARMUP_S: f64 = 0.5;
/// Sub-windows per rung (see [`Windows`]).
const WINDOWS: usize = 5;
/// Fresh-server runs of the nominal rung; its latency metrics are their
/// median.
const NOMINAL_REPEATS: usize = 3;
/// Requests the nominal rung offers at least: 1 250 per window, so that a
/// Poisson window very rarely holds fewer than 1 000.
const NOMINAL_MIN_REQUESTS: f64 = 1_250.0 * WINDOWS as f64;

fn build_model(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D4C_5000);
    let mut m = mlp(&DIMS, &mut rng);
    set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
    m
}

/// Set-up of the MLP phase: a fresh replica set per rung, the input pool
/// and each input's reference output.
pub struct MlpSetup {
    replicas: Vec<Vec<CompiledModel>>,
    pool: Pool,
}

/// Seed-generated request inputs and their reference outputs.
struct Pool {
    inputs: Vec<Tensor>,
    reference: Vec<Tensor>,
}

impl MlpSetup {
    /// Builds a fresh replica set for every rung run (the nominal rung's
    /// repeats and the traced pass's untraced repeat included), generates
    /// the inputs from `seed` and computes their reference outputs.
    pub fn build(cfg: &Config, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1A9u64);
        let inputs: Vec<Tensor> = (0..POOL)
            .map(|_| {
                let v = (0..DIMS[0]).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                Tensor::from_vec(vec![1, DIMS[0]], v)
            })
            .collect();
        let mut direct = build_model(seed);
        let mut eval = Session::eval(0);
        let reference = inputs
            .iter()
            .map(|x| direct.forward(x, &mut eval))
            .collect();
        let servers = cfg.mlp_rates.len() + NOMINAL_REPEATS - 1 + usize::from(cfg.trace);
        let replicas = (0..servers)
            .map(|_| {
                (0..WORKERS)
                    .map(|_| {
                        let mut c = CompiledModel::compile(build_model(seed), 0);
                        c.warm(&inputs[0]);
                        c
                    })
                    .collect()
            })
            .collect();
        MlpSetup {
            replicas,
            pool: Pool { inputs, reference },
        }
    }
}

/// One measured rung.
struct RungRun {
    rung: Rung,
    tally: SloTally,
    windows: Windows,
    stats: ServeStats,
    lag_ns: Vec<f64>,
    submit_ns: f64,
    latency_mean_ns: f64,
    prog: ProgramTotals,
}

/// How long after a request's deadline the collector resolves it.
const SETTLE_SLACK: Duration = Duration::from_millis(5);
/// The collector's sleep granularity.
const COLLECT_TICK: Duration = Duration::from_millis(2);

/// A submitted request handed to the collector.
struct Submitted {
    due_at: Instant,
    submitted: Instant,
    returned: Instant,
    input: usize,
    pending: Pending,
}

/// What the collector learned about one rung's requests.
struct Collected {
    /// Requests resolved, warm-up included.
    attempted: u64,
    /// `(scheduled_ns, fate)` per measured request.
    fates: Vec<(u64, Fate)>,
    lag_ns: Vec<f64>,
    latency_sum: f64,
    /// `(id, due, submitted, returned, finished)` per request, when traced.
    spans: Vec<(u64, Instant, Instant, Instant, Instant)>,
    errors: Vec<String>,
}

/// Resolves every submitted request in order, checks served outputs
/// against the reference and classifies the fate of each request due at or
/// after `start` (earlier ones are the rung's warm-up: checked, not timed).
fn collect(
    rx: mpsc::Receiver<Submitted>,
    start: Instant,
    settle: Duration,
    pool: &Pool,
    keep_spans: bool,
) -> Collected {
    let mut c = Collected {
        attempted: 0,
        fates: Vec::new(),
        lag_ns: Vec::new(),
        latency_sum: 0.0,
        spans: Vec::new(),
        errors: Vec::new(),
    };
    let offset = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    for (id, s) in rx.into_iter().enumerate() {
        let measured = s.due_at >= start;
        // Resolve a request only once its deadline (plus slack) has passed,
        // in ticks: the collector then wakes a few hundred times a second
        // instead of once per response, and stays out of the workers' way.
        let settled_at = s.due_at + settle;
        let now = Instant::now();
        if settled_at > now {
            std::thread::sleep(settled_at - now + COLLECT_TICK);
        }
        let outcome = s.pending.outcome();
        let timing = ArrivalTiming {
            scheduled_ns: offset(s.due_at),
            submitted_ns: offset(s.submitted),
            finished_ns: offset(outcome.finished_at),
        };
        c.attempted += 1;
        let fate = match outcome.result {
            Ok(y) if y == pool.reference[s.input] => Fate::Served(timing.latency_ns()),
            Ok(_) => {
                c.errors
                    .push(format!("MLP response {id} differs from the reference"));
                Fate::Failed
            }
            Err(ServeError::Rejected { .. }) => Fate::Shed,
            Err(ServeError::DeadlineMissed { .. }) => Fate::Missed,
            Err(e) => {
                c.errors.push(format!("MLP request {id} failed: {e}"));
                Fate::Failed
            }
        };
        if !measured {
            continue;
        }
        c.lag_ns.push(timing.generator_lag_ns() as f64);
        if let Fate::Served(ns) = fate {
            c.latency_sum += ns as f64;
        }
        if keep_spans {
            c.spans.push((
                id as u64,
                s.due_at,
                s.submitted,
                s.returned,
                outcome.finished_at,
            ));
        }
        c.fates.push((timing.scheduled_ns, fate));
    }
    c
}

#[allow(clippy::too_many_arguments)]
fn run_rung(
    replicas: Vec<CompiledModel>,
    pool: &Pool,
    rate: f64,
    duration_s: f64,
    slo: Duration,
    seed: u64,
    trace: Option<&mut Recorder>,
    ops: &mut Ops,
) -> RungRun {
    let server = Server::start(replicas, BatchConfig::no_wait(MAX_BATCH));
    // Warm the admission estimator so the first overload arrivals are
    // judged, not queued blind.
    for (x, want) in pool.inputs.iter().zip(&pool.reference).take(4) {
        ops.attempted += 1;
        if &server.infer(x.clone()) != want {
            ops.fail("MLP warm-up response differs from the reference".into());
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = Vec::new();
    let mut at = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        at += -u.ln() / rate;
        if at >= WARMUP_S + duration_s {
            break;
        }
        schedule.push((Duration::from_secs_f64(at), rng.gen_range(0..POOL)));
    }
    let measured = schedule
        .iter()
        .filter(|(due, _)| due.as_secs_f64() >= WARMUP_S)
        .count();

    let mut p0 = ProgramTotals::default();
    let origin = Instant::now();
    let start = origin + Duration::from_secs_f64(WARMUP_S);
    let keep_spans = trace.as_ref().is_some_and(|t| t.enabled());
    // The generator never waits for a response: a collector thread resolves
    // the pending requests in submission order as they complete, so the
    // benchmark holds only the requests in flight.
    let (tx, rx) = mpsc::channel::<Submitted>();
    let (collected, submit_ns) = std::thread::scope(|scope| {
        let collector =
            scope.spawn(move || collect(rx, start, slo + SETTLE_SLACK, pool, keep_spans));
        let mut submit_ns = 0.0f64;
        let mut first_measured = true;
        for &(due, input) in &schedule {
            let due_at = origin + due;
            if keep_spans && first_measured && due_at >= start {
                first_measured = false;
                p0 = ProgramTotals::from_snapshot(&server.metrics_snapshot());
            }
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let submitted = Instant::now();
            let pending = server
                .submit_request(ServeRequest::new(pool.inputs[input].clone()).with_deadline(slo));
            let returned = Instant::now();
            submit_ns += returned.duration_since(submitted).as_nanos() as f64;
            let sent = tx.send(Submitted {
                due_at,
                submitted,
                returned,
                input,
                pending,
            });
            sent.expect("collector thread is alive");
        }
        drop(tx);
        let collected = collector.join().expect("collector thread panicked");
        (collected, submit_ns)
    });
    let Collected {
        attempted,
        fates,
        lag_ns,
        latency_sum,
        spans,
        errors,
    } = collected;
    ops.attempted += attempted;
    for e in errors {
        ops.fail(e);
    }
    if let Some(trace) = trace {
        for (id, due_at, submitted, returned, finished) in spans {
            let req = trace.record(id, "mlp.request", None, due_at, finished);
            trace.record(id, "serve.submit", req, submitted, returned);
        }
    }
    let prog = if keep_spans {
        ProgramTotals::from_snapshot(&server.metrics_snapshot()).since(&p0)
    } else {
        ProgramTotals::default()
    };
    let stats = server.shutdown();
    let slo_ns = slo.as_nanos() as u64;
    let all: Vec<Fate> = fates.iter().map(|&(_, f)| f).collect();
    let tally = SloTally::from_fates(&all, slo_ns);
    let duration_ns = (duration_s * 1e9) as u64;
    let windows = Windows::split(&fates, duration_ns, WINDOWS, slo_ns);
    let served = tally.served_ns.len().max(1) as f64;
    RungRun {
        rung: Rung {
            offered_qps: rate,
            achieved_qps: measured as f64 / duration_s,
            meets_slo: windows.meets_slo(slo_ns),
        },
        windows,
        stats,
        submit_ns: submit_ns / schedule.len().max(1) as f64,
        latency_mean_ns: latency_sum / served,
        lag_ns,
        prog,
        tally,
    }
}

/// One log line per measured rung.
fn rung_note(r: &RungRun) -> String {
    let window_p99_ms: Vec<Option<f64>> = r
        .windows
        .tallies
        .iter()
        .map(|t| stats::percentile(&t.served_ns, 0.99).map(|ns| (ns / 1e4).round() / 1e2))
        .collect();
    let window_goodput: Vec<f64> = r
        .windows
        .tallies
        .iter()
        .map(|t| t.goodput(r.windows.window_s).round())
        .collect();
    format!(
        "mlp rung {} req/s: achieved {:.0}, submitted {}, ok {}, late {}, shed {}, missed {}, failed {}, p50 {:.3} ms, p99 {:.3} ms ({} served, highest supported tail {:?}), mean batch {:.2}, generator lateness p99 {:.3} ms, per window: goodput {window_goodput:?} req/s, p99 {window_p99_ms:?} ms",
        r.rung.offered_qps,
        r.rung.achieved_qps,
        r.tally.submitted,
        r.tally.ok_within_slo,
        r.tally.served_late,
        r.tally.shed,
        r.tally.missed,
        r.tally.failed,
        stats::percentile(&r.tally.served_ns, 0.5).unwrap_or(f64::NAN) / 1e6,
        stats::percentile(&r.tally.served_ns, 0.99).unwrap_or(f64::NAN) / 1e6,
        r.tally.served_ns.len(),
        stats::highest_supported_tail(r.tally.served_ns.len()),
        r.stats.mean_batch(),
        stats::percentile(&stats::sorted(r.lag_ns.clone()), 0.99).unwrap_or(f64::NAN) / 1e6,
    )
}

/// Runs the ladder and adds its metrics to `report`.
pub fn run(
    cfg: &Config,
    setup: MlpSetup,
    primary: bool,
    trace: &mut Recorder,
    report: &mut Report,
) -> Ops {
    let mut ops = Ops::default();
    let rung_s = if primary {
        cfg.seconds / cfg.mlp_rates.len() as f64
    } else {
        COMPANION_RUNG_S
    };
    let slo = Duration::from_secs_f64(cfg.slo_ms / 1e3);
    let MlpSetup { mut replicas, pool } = setup;
    let mut next_server = || replicas.pop().expect("one replica set per rung");
    let mut runs = Vec::new();
    let mut untraced_nominal_p50 = None;
    for (i, &rate) in cfg.mlp_rates.iter().enumerate() {
        let is_nominal = rate == cfg.mlp_nominal;
        // The nominal rung runs long enough for every window's p99 to have
        // ten samples beyond it, and runs several times, each on a fresh
        // server: the tail moves with where the server's threads land, and
        // a median over fresh servers holds still where one server does not.
        let (rung_s, repeats) = if is_nominal {
            (rung_s.max(NOMINAL_MIN_REQUESTS / rate), NOMINAL_REPEATS)
        } else {
            (rung_s, 1)
        };
        for rep in 0..repeats {
            let seed = cfg
                .seed
                .wrapping_mul(31)
                .wrapping_add(i as u64)
                .wrapping_add(1_000 * rep as u64);
            let first_nominal = is_nominal && rep == 0;
            if trace.enabled() && first_nominal {
                // The nominal rung once more with every collector off:
                // traced minus untraced latency is the tracing overhead.
                fast_telemetry::set_collection(false);
                let r = run_rung(
                    next_server(),
                    &pool,
                    rate,
                    rung_s,
                    slo,
                    seed,
                    None,
                    &mut ops,
                );
                untraced_nominal_p50 = stats::percentile(&r.tally.served_ns, 0.5);
                fast_telemetry::set_collection(true);
            }
            // Request spans are kept for the first nominal run only, whose
            // breakdown they explain.
            let spans = first_nominal.then_some(&mut *trace);
            let r = run_rung(
                next_server(),
                &pool,
                rate,
                rung_s,
                slo,
                seed,
                spans,
                &mut ops,
            );
            report.note(rung_note(&r));
            runs.push(r);
        }
    }
    let nominals: Vec<&RungRun> = runs
        .iter()
        .filter(|r| r.rung.offered_qps == cfg.mlp_nominal)
        .collect();
    let nominal = nominals[0];
    let overload = runs
        .iter()
        .find(|r| r.rung.offered_qps == cfg.mlp_overload)
        .expect("overload rate is on the ladder");
    let served = &nominal.tally.served_ns;
    let thinnest = nominals
        .iter()
        .flat_map(|r| r.windows.tallies.iter().map(|t| t.served_ns.len()))
        .min();
    if stats::samples_beyond(thinnest.unwrap_or(0), 0.99) < 10 {
        ops.fail(format!(
            "a nominal window served {thinnest:?} requests, too few for a p99 with ten beyond"
        ));
    }
    let ms = |ns: Option<f64>| ns.unwrap_or(f64::NAN) / 1e6;
    let nominal_ns = |p: f64| {
        let per_run: Vec<f64> = nominals
            .iter()
            .filter_map(|r| r.windows.median_percentile_ns(p))
            .collect();
        stats::median(&per_run)
    };
    report.e2e("serve_p50_ms", ms(nominal_ns(0.5)));
    report.e2e("serve_p99_ms", ms(nominal_ns(0.99)));
    report.e2e(
        "serve_goodput_qps",
        overload.windows.median_goodput().unwrap_or(f64::NAN),
    );
    let rungs: Vec<Rung> = runs.iter().map(|r| r.rung.clone()).collect();
    match stats::max_ok_qps(&rungs) {
        Some(q) => report.e2e("serve_max_ok_qps", q),
        None => ops.fail("no ladder rate met the SLO".into()),
    }

    let us = |ns: f64| ns / 1e3;
    let q = &nominal.stats;
    report.layer("serve.submit_us", us(nominal.submit_ns));
    report.layer(
        "serve.queue_p50_us",
        stats::hist_percentile_us(&q.queue_ns, 0.5),
    );
    report.layer(
        "serve.queue_p99_us",
        stats::hist_percentile_us(&q.queue_ns, 0.99),
    );
    report.layer(
        "serve.service_p50_us",
        stats::hist_percentile_us(&q.service_ns, 0.5),
    );
    report.layer(
        "serve.service_p99_us",
        stats::hist_percentile_us(&q.service_ns, 0.99),
    );
    report.layer("serve.mean_batch", q.mean_batch());
    report.layer(
        "serve.peak_queue_depth",
        overload.stats.peak_queue_depth as f64,
    );
    report.layer("serve.shed_frac", overload.tally.shed_frac());
    report.layer("serve.missed_frac", overload.tally.missed_frac());
    report.layer("serve.useful_frac", overload.tally.useful_frac());
    let lags = stats::sorted(runs.iter().flat_map(|r| r.lag_ns.iter().copied()).collect());
    report.layer("bench.gen_late_p99_ms", ms(stats::percentile(&lags, 0.99)));
    report.layer("bench.gen_late_max_ms", ms(lags.last().copied()));

    if trace.enabled() {
        // One mean nominal-rate request, from its scheduled arrival to its
        // completion. The queue clock starts inside `submit_request`, so the
        // submit call has no row of its own (it is `serve.submit_us`). Program-span time is per served request (a batch's
        // forward split over its members); the rest of the service time is
        // the worker's own share, including waiting on batch-mates.
        let served_n = served.len().max(1) as f64;
        let lag_mean = nominal.lag_ns.iter().sum::<f64>() / nominal.lag_ns.len().max(1) as f64;
        let queue_mean = q.queue_ns.mean_ns().unwrap_or(0.0);
        let service_mean = q.service_ns.mean_ns().unwrap_or(0.0);
        let prog_per_req = nominal.prog.total_ns() / served_n;
        let mut b = Breakdown::new();
        b.row("mlp.bench.gen_late", us(lag_mean))
            .row("mlp.serve.queue", us(queue_mean))
            .row("mlp.serve.service.self", us(service_mean - prog_per_req))
            .program_rows("mlp.", &nominal.prog, 1.0 / (1e3 * served_n), &[]);
        report.breakdown(
            "mlp request at the nominal rate (us, mean)",
            b.close("mlp.", us(nominal.latency_mean_ns)),
        );
        if let Some(off) = untraced_nominal_p50 {
            let on = stats::percentile(served, 0.5).unwrap_or(off);
            report.layer("bench.trace_overhead_mlp_p50_us", us(on - off));
        }
    }
    ops
}
