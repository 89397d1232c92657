//! `clinic-mix`: a seeded open-loop Poisson load on a `seneca-fleet` fleet
//! serving the 1M and 4M models at the accuracy resolution.
//!
//! An interactive tenant with a latency objective is routed to 1M by its
//! Dice target. A batch tenant's bursts exceed what its 4M cell takes in
//! flight, and its Dice floor lets the excess downgrade onto 1M. When the
//! 1M cell is at its cap too, the fleet sheds the request and the batch
//! client sends it again a moment later, as a bulk job would. Frames
//! are tiny, so queueing, micro-batch forming, session and arena set-up,
//! routing and shedding are a large share of the work. The same INT8
//! executor as `paper-frame` runs, at another shape.
//!
//! The fleet is sized for two cores: 1 shard × 1 replica × 2 models, so
//! each model's replica can hold a core. The offered load keeps the host
//! well below saturation: at saturation the tail latency amplifies every
//! change in host speed and no two runs agree.
//!
//! No operation fails at this load, so `failed` is 0 on every run however
//! fast the host is. A late interactive answer misses the 50 ms objective
//! and lowers `slo_met_ratio`; it counts as failed only after the tenant's
//! hard deadline of 1 s, which also bounds how long the serving layer
//! keeps it queued. The intake queues are deep enough that a stall meets
//! that deadline before it fills them.

use crate::common::{
    bench_config, compile, compile_ms, deploy_median, fp32_labels, held_out, lower_ms, ms,
    not_exercised, prepare, qgraph_fingerprint, quantize, quantize_input_us, repeated_setup,
    report_batches, report_dpu, report_ledger, report_setup, secs, train, HeldOut, Model, Oracle,
    SegTally, StageTimes, PAPER_SIZE, SEARCH_LAYERS,
};
use crate::ledger::{igemm_peak, trace_overhead_pct, traced_batch, Ledger};
use crate::loadgen::{poisson_schedule, run_open_loop, Arrival, RetryPolicy, Sent, Stream};
use crate::report::Report;
use crate::stats::{ratio, summarize};
use crate::Args;
use seneca::backend::{Backend, BatchTiming, Prediction, QuantRefBackend, ThroughputReport};
use seneca::{PreparedData, Workflow};
use seneca_dpu::XModel;
use seneca_fleet::{
    Fleet, FleetBuilder, FleetConfig, FleetError, FleetTicket, ModelSpec, TenantSpec,
};
use seneca_metrics::literature::TABLE4;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_serve::{AdmissionPolicy, ServeConfig, ServeError, Timing};
use seneca_tensor::{Shape4, Tensor};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fleet shards; every model has one serving cell per shard. With one
/// shard the ring sends every key to it, so `fleet.shard_imbalance` is 1.
const SHARDS: usize = 1;
/// Replica threads per cell.
const REPLICAS: usize = 1;
/// Micro-batch size limit and forming window of every cell. An
/// interactive frame waits for the whole micro-batch it rides in; batches
/// of 4 made its tail track host speed at twice the rate of the median.
const MAX_BATCH: usize = 2;
const MAX_DELAY: Duration = Duration::from_millis(2);
/// Intake queue of every cell: more than the interactive stream sends in
/// one `DEADLINE`.
const QUEUE: usize = 64;
/// Batch-tier requests one cell takes in flight before the tenant
/// downgrades (or, with every cell at its cap, is shed). A slot is freed
/// when the generator's collector resolves the request.
const BATCH_INFLIGHT_CAP: usize = 3;
/// Interactive tenant: mean arrival rate, latency objective and hard
/// deadline.
const INTERACTIVE_FPS: f64 = 40.0;
const SLO: Duration = Duration::from_millis(50);
const DEADLINE: Duration = Duration::from_secs(1);
/// Batch tenant: mean arrival rate. Its Poisson bursts fill the 4M cell's
/// in-flight cap about one request in ten; those downgrade onto 1M.
const BATCH_FPS: f64 = 60.0;
/// Affinity keys (patients) the requests spread over.
const PATIENTS: u64 = 64;
/// The batch client's answer to a shed or refusal: the same request again,
/// once per batching window, for at most about a second.
const BATCH_RETRY: RetryPolicy = RetryPolicy { after: MAX_DELAY, limit: 500 };

/// A backend wrapper that logs every batch's timing (traced runs only).
struct TimedBackend {
    inner: QuantRefBackend,
    log: Mutex<Vec<(Duration, Duration)>>,
}

impl Backend for TimedBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn infer_batch(&self, images: &[Tensor]) -> Vec<Prediction> {
        self.infer_batch_timed(images).0
    }

    fn infer_batch_timed(&self, images: &[Tensor]) -> (Vec<Prediction>, BatchTiming) {
        let (preds, timing) = self.inner.infer_batch_timed(images);
        let sum = timing.per_frame.iter().sum();
        self.log.lock().expect("batch log poisoned").push((timing.wall, sum));
        (preds, timing)
    }

    fn throughput(&self, n_frames: usize, seed: u64) -> ThroughputReport {
        self.inner.throughput(n_frames, seed)
    }
}

struct Ready {
    data: PreparedData,
    nets: [UNet; 2],
    models: [Model; 2],
    xm: [Arc<XModel>; 2],
    timed: Option<[Arc<TimedBackend>; 2]>,
    fleet: Option<Fleet>,
    tenants: [usize; 2],
}

/// Routing metadata: the paper's Table IV INT8 Dice and FPS of a model
/// (absolute constants, never measured during the run).
fn table4(size: ModelSize) -> (f64, f64) {
    let row = TABLE4.iter().find(|r| r.model == size.label()).expect("Table IV row");
    (row.dsc_int8.mean, row.fps_int8.mean)
}

const SIZES: [ModelSize; 2] = [ModelSize::M1, ModelSize::M4];

/// From trained nets to deployments: PTQ, lowering (the backends) and
/// compilation for the B4096, for both models.
fn deploy(
    wf: &Workflow,
    nets: &[UNet; 2],
    data: &PreparedData,
    t: &mut StageTimes,
) -> ([Model; 2], [QuantRefBackend; 2], [Arc<XModel>; 2]) {
    let models = [0, 1].map(|i| quantize(wf, SIZES[i], &nets[i], data, t));
    let shape = Shape4::new(1, 1, wf.config.input_size, wf.config.input_size);
    let t0 = Instant::now();
    let backends = models.each_ref().map(|m| QuantRefBackend::new(m.qg.clone(), shape));
    t.lower += secs(t0);
    let xm = models.each_ref().map(|m| compile(&m.qg, PAPER_SIZE, t));
    (models, backends, xm)
}

fn fingerprint(models: &[Model; 2]) -> u64 {
    qgraph_fingerprint(&models[0].qg) ^ qgraph_fingerprint(&models[1].qg).rotate_left(1)
}

fn setup(wf: &Workflow, traced: bool, t: &mut StageTimes) -> Ready {
    let data = prepare(wf, t);
    let nets = SIZES.map(|size| train(wf, size, &data, t));
    let (models, backends, xm) = deploy(wf, &nets, &data, t);

    let t0 = Instant::now();
    let mut b = FleetBuilder::new(FleetConfig {
        shards: SHARDS,
        serve: ServeConfig {
            replicas: REPLICAS,
            max_batch: MAX_BATCH,
            max_delay: MAX_DELAY,
            queue_capacity: QUEUE,
            admission: AdmissionPolicy::RejectWhenFull,
        },
        batch_inflight_cap: BATCH_INFLIGHT_CAP,
    });
    let timed = traced.then(|| {
        backends.clone().map(|inner| Arc::new(TimedBackend { inner, log: Mutex::new(Vec::new()) }))
    });
    for (i, size) in SIZES.into_iter().enumerate() {
        let backend: Arc<dyn Backend> = match &timed {
            Some(tb) => tb[i].clone(),
            None => Arc::new(backends[i].clone()),
        };
        let (dice, fps) = table4(size);
        b.model(ModelSpec::from_fps(size.label(), dice, fps, backend));
    }
    let (dice_1m, dice_4m) = (table4(ModelSize::M1).0, table4(ModelSize::M4).0);
    let tenants = [
        b.tenant(TenantSpec::interactive("clinic", DEADLINE, dice_1m)),
        b.tenant(TenantSpec::batch("bulk", dice_4m).with_floor(dice_1m)),
    ];
    let fleet = b.start();
    t.other += secs(t0);
    Ready { data, nets, models, xm, timed, fleet: Some(fleet), tenants }
}

enum Pending {
    Admitted(FleetTicket),
    Refused(FleetError),
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    Served { model: usize, correct: bool },
    Refused,
    Shed,
    Errored,
}

#[derive(Debug, Clone, Copy)]
struct Resolved {
    end: End,
    timing: Timing,
    shard: usize,
}

fn resolve(oracles: &[Oracle; 2], frame: usize, p: Pending) -> Resolved {
    let refused = |end| Resolved { end, timing: Timing::default(), shard: usize::MAX };
    match p {
        Pending::Refused(FleetError::BatchShed) => refused(End::Shed),
        Pending::Refused(FleetError::Overloaded(_)) => refused(End::Refused),
        Pending::Refused(FleetError::UnknownTenant) => refused(End::Errored),
        Pending::Admitted(ticket) => {
            let (model, shard) = (ticket.model, ticket.shard);
            let resp = ticket.wait();
            let end = match &resp.result {
                Ok(pred) => End::Served { model, correct: oracles[model].matches(frame, pred) },
                Err(ServeError::DeadlineExpired) => End::Shed,
                Err(ServeError::QueueFull) => End::Refused,
                Err(_) => End::Errored,
            };
            Resolved { end, timing: resp.timing, shard }
        }
    }
}

/// Latency of a request from its due time to its response: generator
/// lateness, time spent turned away, the `submit` call, then the serving
/// layer's own submit-to-response time (which starts inside `submit`, so
/// the few µs of `submit` after the request is stamped count twice).
fn latency_ms(s: &Sent<Resolved>) -> f64 {
    ms(s.late + s.waited + s.submit + s.outcome.timing.total)
}

/// Whether the batch client sends the request again: the fleet shed it or
/// refused it for overload. Interactive requests are never sent twice.
fn turned_away(a: &Arrival, p: &Pending) -> bool {
    a.stream == 1
        && matches!(p, Pending::Refused(FleetError::BatchShed | FleetError::Overloaded(_)))
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) {
    let wf = Workflow::new(bench_config());
    let (mut ready, times) =
        repeated_setup(report, |t| setup(&wf, args.trace, t), |r| fingerprint(&r.models));
    report_setup(report, &times, args.trace);

    let ho: Vec<HeldOut> = held_out(&ready.data.test_by_patient);
    let images: Vec<Tensor> = ho.iter().map(|h| h.image.clone()).collect();
    let oracles = ready.models.each_ref().map(|m| Oracle::new(&m.qg, &images));
    let fp32 = ready.models.each_ref().map(|m| fp32_labels(&m.fg, &images));

    let streams = [
        Stream { rate: INTERACTIVE_FPS, frames: images.len(), patients: PATIENTS },
        Stream { rate: BATCH_FPS, frames: images.len(), patients: PATIENTS },
    ];
    // The measured window: one open-loop schedule from the seed.
    let schedule = poisson_schedule(args.seed, &streams, args.seconds);
    let mut payload: Vec<Option<Tensor>> =
        schedule.iter().map(|a| Some(images[a.frame].clone())).collect();
    let handle = ready.fleet.as_ref().expect("fleet started").handle();
    let (done, wall) = run_open_loop(
        &schedule,
        BATCH_RETRY,
        |i, a| {
            // A retry clones its frame again; first attempts use the copy
            // made before the window.
            let frame = payload[i].take().unwrap_or_else(|| images[a.frame].clone());
            match handle.submit(ready.tenants[a.stream], a.affinity, frame) {
                Ok(ticket) => Pending::Admitted(ticket),
                Err(e) => Pending::Refused(e),
            }
        },
        turned_away,
        |a, p| resolve(&oracles, a.frame, p),
    );
    let sent: Vec<(Arrival, Sent<Resolved>)> = schedule.into_iter().zip(done).collect();
    let stats = ready.fleet.take().expect("fleet started").shutdown();

    // Outcomes, latency from each request's due time, Dice of the answers.
    let mut lat_inter = Vec::new();
    let (mut ok_inter, mut ok_batch, mut ok_all) = (0u64, 0u64, 0u64);
    let mut tally = SegTally::default();
    for (a, s) in &sent {
        let r = &s.outcome;
        let o = &mut report.outcomes;
        match r.end {
            End::Served { correct: false, .. } => o.mismatched += 1,
            End::Served { model, correct: true } => {
                tally.add(
                    &oracles[model].labels[a.frame],
                    &ho[a.frame].labels,
                    &fp32[model][a.frame],
                );
                let l = latency_ms(s);
                if a.stream == 0 && l > ms(DEADLINE) {
                    o.deadline_missed += 1;
                    continue;
                }
                o.ok += 1;
                ok_all += 1;
                if a.stream == 0 {
                    lat_inter.push(l);
                    ok_inter += u64::from(l <= ms(SLO));
                } else {
                    ok_batch += 1;
                }
            }
            End::Refused => o.refused += 1,
            End::Shed => o.shed += 1,
            End::Errored => o.errored += 1,
        }
    }
    let sent_inter = sent.iter().filter(|(a, _)| a.stream == 0).count() as u64;
    let retries: u64 = sent.iter().map(|(_, s)| u64::from(s.retries)).sum();
    let wall_s = wall.as_secs_f64();
    eprintln!(
        "[perfbench] clinic-mix: {} requests ({sent_inter} interactive, {retries} batch retries) \
         in {wall_s:.2} s, {}",
        sent.len(),
        report.outcomes.to_json()
    );

    if args.trace {
        run_traced(args, report, &ready, &images, &oracles, &sent, &stats, wall);
        return;
    }
    if lat_inter.is_empty() {
        report.check(false, "no interactive request was answered");
        lat_inter.push(0.0);
    }
    let lat = summarize(&lat_inter);
    report.set("throughput_fps", ok_all as f64 / wall_s);
    report.set_from("latency_p50_ms", lat.median, &lat);
    report.set_from("latency_tail_ms", lat.tail, &lat);
    report.set("slo_met_ratio", ratio(ok_inter, sent_inter));
    report.set("batch_goodput_fps", ok_batch as f64 / wall_s);
    deploy_median(report, |t| fingerprint(&deploy(&wf, &ready.nets, &ready.data, t).0));
    report.set("dice_int8", tally.dice_pct());
    report.set("agreement_pct", tally.agreement_pct());
    report_dpu(report, &ready.xm[0], args.seed, false);
    let bytes: u64 = ready.xm.iter().map(|x| x.stats.weight_bytes).sum();
    report.set("weight_mb", bytes as f64 / 1e6);
    report.set("peak_rss_mb", crate::common::peak_rss_mb());
}

#[allow(clippy::too_many_arguments)]
fn run_traced(
    args: &Args,
    report: &mut Report,
    ready: &Ready,
    images: &[Tensor],
    oracles: &[Oracle; 2],
    sent: &[(Arrival, Sent<Resolved>)],
    stats: &seneca_fleet::FleetStats,
    wall: Duration,
) {
    let pct = |v: &mut Vec<f64>, q: f64| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        crate::stats::quantile_sorted(v, q)
    };

    // Serving layer: per-request queue wait and execute time, cell counters.
    let served: Vec<&Resolved> = sent
        .iter()
        .map(|(_, s)| &s.outcome)
        .filter(|r| matches!(r.end, End::Served { .. }))
        .collect();
    let mut queue: Vec<f64> = served.iter().map(|r| ms(r.timing.queue)).collect();
    let mut exec: Vec<f64> = served.iter().map(|r| ms(r.timing.execute)).collect();
    report.set("serve.queue_wait_ms_p50", pct(&mut queue, 0.5));
    report.set("serve.queue_wait_ms_p99", pct(&mut queue, 0.99));
    report.set("serve.execute_ms_p50", pct(&mut exec, 0.5));
    let cells: Vec<&seneca_serve::ServeStats> =
        stats.models.iter().flat_map(|m| m.per_shard.iter()).collect();
    let batches: u64 = cells.iter().map(|c| c.batches).sum();
    let batched: f64 = cells.iter().map(|c| c.mean_batch * c.batches as f64).sum();
    let submitted: u64 = cells.iter().map(|c| c.submitted).sum();
    report.set("serve.batch_size_mean", batched / batches.max(1) as f64);
    report.set("serve.rejected_ratio", ratio(cells.iter().map(|c| c.rejected).sum(), submitted));
    report.set(
        "serve.shed_expired_ratio",
        ratio(cells.iter().map(|c| c.shed_expired).sum(), submitted),
    );
    let timed = ready.timed.as_ref().expect("traced set-up wraps the backends");
    let logs: Vec<(Duration, Duration, usize)> = timed
        .iter()
        .flat_map(|t| t.log.lock().expect("batch log poisoned").clone())
        .map(|(w, f)| (w, f, 1))
        .collect();
    let busy: Duration = logs.iter().map(|l| l.0).sum();
    report.set(
        "serve.replica_busy_ratio",
        busy.as_secs_f64() / (wall.as_secs_f64() * (SHARDS * REPLICAS * 2) as f64),
    );
    report_batches(report, &logs);

    // Fleet layer: time inside `submit`, routing and shedding, shard spread.
    let mut submit: Vec<f64> = sent.iter().map(|(_, s)| s.submit.as_secs_f64() * 1e6).collect();
    report.set("fleet.submit_us_p50", pct(&mut submit, 0.5));
    report.set("fleet.submit_us_p99", pct(&mut submit, 0.99));
    let t_sub: u64 = stats.tenants.iter().map(|t| t.submitted).sum();
    let t_down: u64 = stats.tenants.iter().map(|t| t.downgraded).sum();
    report.set("fleet.downgraded_ratio", ratio(t_down, t_sub));
    let bulk = stats.tenant("bulk").expect("batch tenant registered");
    report.set("fleet.batch_shed_ratio", ratio(bulk.shed, bulk.submitted));
    let mut per_shard = [0u64; SHARDS];
    for (_, s) in sent.iter().filter(|(_, s)| s.outcome.shard < SHARDS) {
        per_shard[s.outcome.shard] += 1;
    }
    let mean = per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
    report.set(
        "fleet.shard_imbalance",
        per_shard.iter().copied().max().unwrap_or(0) as f64 / mean.max(1e-9),
    );
    let mut late: Vec<f64> = sent.iter().map(|(_, s)| ms(s.late)).collect();
    report.set("loadgen.late_ms_p99", pct(&mut late, 0.99));

    // IR layer: the interactive model node by node on the held-out frames,
    // one worker as in a serving replica.
    let m1 = &ready.models[0];
    let shape = images[0].shape();
    let lowered = seneca_ir::lower(m1.qg.to_ir(), shape, &seneca_ir::LowerOptions::reference());
    let xm_here = compile(&m1.qg, shape.h, &mut StageTimes::default());
    let mut ledger = Ledger::new(&lowered, &xm_here);
    let all: Vec<usize> = (0..images.len()).collect();
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(1) {
        let (preds, node_ns) = traced_batch(&lowered, &m1.qg, images, 1);
        oracles[0].score(report, &all, &preds);
        ledger.add(&node_ns, images.len() as u64);
    }
    let (hot, peak) = igemm_peak(&lowered, Duration::from_millis(300));
    eprintln!("[perfbench] igemm peak on node {hot}: {peak:.2} GMAC/s");
    report_ledger(report, &ledger, &lowered, peak);
    ledger.print("1M@32", peak);
    let q: Vec<_> = images.iter().map(|f| m1.qg.quantize_input(f)).collect();
    report.set("trace.overhead_pct", trace_overhead_pct(&lowered, &q, 10));
    report.set("quant.quantize_input_us", quantize_input_us(&m1.qg, &images[0]));
    report.set("ir.lower_ms", lower_ms(&m1.qg, shape, 5));
    report.set("dpu.compile_ms", compile_ms(&m1.qg, 5));
    report_dpu(report, &ready.xm[0], args.seed, true);
    not_exercised(report, &SEARCH_LAYERS);
}
