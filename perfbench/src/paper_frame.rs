//! `paper-frame`: offline closed-loop INT8 inference of the trained 1M
//! model at the paper's 256×256 geometry (Table IV), through
//! `Backend::infer_batch_timed` with a fixed batch size. The GEMM kernels
//! of `seneca-tensor` and the `seneca-ir` executor do nearly all the work;
//! serving, the fleet and the mixed-precision search do none.

use crate::common::{
    bench_config, compile, compile_ms, deploy_median, held_out, lower_ms, ms, not_exercised,
    paper_frames, prepare, qgraph_fingerprint, quantize, quantize_input_us, repeated_setup,
    report_batches, report_dpu, report_ledger, report_setup, secs, train, Model, Oracle, SegTally,
    StageTimes, PAPER_SIZE, SEARCH_LAYERS, SERVING_LAYERS,
};
use crate::ledger::{igemm_peak, trace_overhead_pct, traced_batch, Ledger};
use crate::loadgen::SplitMix64;
use crate::report::Report;
use crate::stats::summarize;
use crate::Args;
use seneca::backend::{Backend, QuantRefBackend};
use seneca::{PreparedData, Workflow};
use seneca_dpu::XModel;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_tensor::{Shape4, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames per `infer_batch` call.
const BATCH: usize = 4;
/// Host worker threads of the INT8 backend.
const THREADS: usize = 2;
/// Distinct 256×256 slices a run draws its frames from.
const DISTINCT: usize = 8;
/// Per-frame latency limit of the edge box (ms): a frame answered later
/// counts as a miss.
const FRAME_LIMIT_MS: f64 = 1000.0;

struct Ready {
    data: PreparedData,
    net: UNet,
    model: Model,
    backend: QuantRefBackend,
    xm: Arc<XModel>,
}

/// From a trained net to a deployment: PTQ, lowering (the backend), and
/// compilation for the B4096.
fn deploy(
    wf: &Workflow,
    net: &UNet,
    data: &PreparedData,
    t: &mut StageTimes,
) -> (Model, QuantRefBackend, Arc<XModel>) {
    let model = quantize(wf, ModelSize::M1, net, data, t);
    let t0 = Instant::now();
    let shape = Shape4::new(1, 1, PAPER_SIZE, PAPER_SIZE);
    let backend = QuantRefBackend::new(model.qg.clone(), shape).with_threads(THREADS);
    t.lower += secs(t0);
    let xm = compile(&model.qg, PAPER_SIZE, t);
    (model, backend, xm)
}

fn setup(wf: &Workflow, t: &mut StageTimes) -> Ready {
    let data = prepare(wf, t);
    let net = train(wf, ModelSize::M1, &data, t);
    let (model, backend, xm) = deploy(wf, &net, &data, t);
    Ready { data, net, model, backend, xm }
}

/// Scores the deployed model on every held-out slice at the accuracy
/// resolution, checking each answer against its oracle.
fn held_out_scores(ready: &Ready, report: &mut Report) -> SegTally {
    let ho = held_out(&ready.data.test_by_patient);
    let images: Vec<Tensor> = ho.iter().map(|h| h.image.clone()).collect();
    let oracle = Oracle::new(&ready.model.qg, &images);
    let fp32 = crate::common::fp32_labels(&ready.model.fg, &images);
    let b = QuantRefBackend::new(ready.model.qg.clone(), images[0].shape());
    let preds = b.infer_batch(&images);
    let mut tally = SegTally::default();
    for (i, p) in preds.iter().enumerate() {
        if oracle.matches(i, p) {
            report.outcomes.ok += 1;
            tally.add(&p.labels, &ho[i].labels, &fp32[i]);
        } else {
            report.outcomes.mismatched += 1;
        }
    }
    tally
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) {
    let wf = Workflow::new(bench_config());
    let (ready, times) =
        repeated_setup(report, |t| setup(&wf, t), |r| qgraph_fingerprint(&r.model.qg));
    report_setup(report, &times, args.trace);

    let mut rng = SplitMix64::new(args.seed);
    let frames = paper_frames(&wf.config, DISTINCT, |n| rng.below(n));
    let oracle = Oracle::new(&ready.model.qg, &frames);
    let mut next_batch = || -> (Vec<usize>, Vec<Tensor>) {
        let idx: Vec<usize> = (0..BATCH).map(|_| rng.below(DISTINCT as u64) as usize).collect();
        let batch = idx.iter().map(|&i| frames[i].clone()).collect();
        (idx, batch)
    };
    let _ = ready.backend.infer_batch(&frames[..1]); // warm-up

    if args.trace {
        run_traced(args, report, &ready, &frames, &oracle, &mut next_batch);
        return;
    }

    // The measured window: closed-loop batches, each checked bit for bit.
    let mut latencies = Vec::new();
    let mut wall = Duration::ZERO;
    let (mut done, mut ok) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed() < args.seconds {
        let (idx, batch) = next_batch();
        let (preds, timing) = ready.backend.infer_batch_timed(&batch);
        wall += timing.wall;
        if preds.len() != batch.len() || timing.per_frame.len() != batch.len() {
            report.outcomes.errored += batch.len() as u64;
            continue;
        }
        for ((i, p), d) in idx.iter().zip(&preds).zip(&timing.per_frame) {
            let l = ms(*d);
            latencies.push(l);
            done += 1;
            if !oracle.matches(*i, p) {
                report.outcomes.mismatched += 1;
            } else if l > FRAME_LIMIT_MS {
                report.outcomes.deadline_missed += 1;
            } else {
                report.outcomes.ok += 1;
                ok += 1;
            }
        }
    }
    let wall_s = wall.as_secs_f64().max(1e-9);
    let lat = summarize(&latencies);
    report.set("throughput_fps", done as f64 / wall_s);
    report.set_from("latency_p50_ms", lat.median, &lat);
    report.set_from("latency_tail_ms", lat.tail, &lat);
    report.set("slo_met_ratio", ok as f64 / done.max(1) as f64);
    report.set("batch_goodput_fps", ok as f64 / wall_s);
    deploy_median(report, |t| qgraph_fingerprint(&deploy(&wf, &ready.net, &ready.data, t).0.qg));

    let tally = held_out_scores(&ready, report);
    report.set("dice_int8", tally.dice_pct());
    report.set("agreement_pct", tally.agreement_pct());
    report_dpu(report, &ready.xm, args.seed, false);
    report.set("weight_mb", ready.xm.stats.weight_bytes as f64 / 1e6);
    report.set("peak_rss_mb", crate::common::peak_rss_mb());
}

fn run_traced(
    args: &Args,
    report: &mut Report,
    ready: &Ready,
    frames: &[Tensor],
    oracle: &Oracle,
    next_batch: &mut dyn FnMut() -> (Vec<usize>, Vec<Tensor>),
) {
    let qg = &ready.model.qg;
    let shape = frames[0].shape();
    let lowered = seneca_ir::lower(qg.to_ir(), shape, &seneca_ir::LowerOptions::reference());
    let mut ledger = Ledger::new(&lowered, &ready.xm);

    // The measured window, node by node on the same worker count.
    let t0 = Instant::now();
    while t0.elapsed() < args.seconds {
        let (idx, batch) = next_batch();
        let (preds, node_ns) = traced_batch(&lowered, qg, &batch, THREADS);
        oracle.score(report, &idx, &preds);
        ledger.add(&node_ns, batch.len() as u64);
    }

    // The backend layer on its own: a few untraced batches.
    let mut batches = Vec::new();
    for _ in 0..3 {
        let (idx, batch) = next_batch();
        let (preds, timing) = ready.backend.infer_batch_timed(&batch);
        oracle.score(report, &idx, &preds);
        let sum: Duration = timing.per_frame.iter().sum();
        batches.push((
            timing.wall,
            sum,
            seneca_backend::resolve_worker_threads(THREADS, batch.len()),
        ));
    }
    report_batches(report, &batches);

    let (hot, peak) = igemm_peak(&lowered, Duration::from_millis(500));
    eprintln!("[perfbench] igemm peak on node {hot}: {peak:.2} GMAC/s");
    report_ledger(report, &ledger, &lowered, peak);
    ledger.print("1M@256", peak);
    let q: Vec<_> = frames[..2].iter().map(|f| qg.quantize_input(f)).collect();
    report.set("trace.overhead_pct", trace_overhead_pct(&lowered, &q, 2));
    report.set("quant.quantize_input_us", quantize_input_us(qg, &frames[0]));
    report.set("ir.lower_ms", lower_ms(qg, shape, 3));
    report.set("dpu.compile_ms", compile_ms(qg, 5));
    report_dpu(report, &ready.xm, args.seed, true);
    not_exercised(report, &[&SEARCH_LAYERS[..], &SERVING_LAYERS[..]].concat());
}
