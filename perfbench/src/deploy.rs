//! `deploy-16m`: stages D + E on a 16M net trained in set-up — leveled PTQ
//! calibration, the greedy W4/W8 search with modeled B4096 cycles as its
//! cost, then lowering and compilation. `seneca-quant` (and its FP32
//! forward passes) and the `seneca-dpu` compiler and cost model do the
//! work; nothing is served and no 256×256 INT8 kernel runs. After the
//! measured window the deployment is validated on the held-out slices.

use crate::common::{
    bench_config, compile, fp32_labels, held_out, lower_ms, ms, not_exercised, prepare,
    qgraph_fingerprint, quantize_input_us, repeated_setup, report_batches, report_dpu,
    report_ledger, report_setup, secs, train, Oracle, SegTally, StageTimes, PAPER_SIZE,
    SERVING_LAYERS,
};
use crate::ledger::{igemm_peak, trace_overhead_pct, traced_batch, Ledger};
use crate::report::Report;
use crate::stats::{median, ratio, summarize};
use crate::Args;
use seneca::backend::{Backend, QuantRefBackend};
use seneca::{PreparedData, Workflow};
use seneca_dpu::{DpuArch, XModel};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_quant::ptq::argmax_agreement;
use seneca_quant::{
    calibrate, fuse, quantize_from_calibration, search_mixed_plan, Bitwidth, FusedGraph,
    MixedSearchResult, PtqConfig, QuantizedGraph,
};
use seneca_tensor::{Shape4, Tensor};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Argmax agreement the mixed plan may give up against uniform W8
/// (absolute fraction), as in the mixed-precision study.
const AGREEMENT_MARGIN: f64 = 0.02;
/// Calibration images the search scores agreement on.
const EVAL_IMAGES: usize = 4;
/// Host worker threads of the validation backend.
const THREADS: usize = 2;
/// Validation passes over the held-out slices: enough frames that a short
/// host stall moves few of the samples beyond the latency tail.
const PASSES: usize = 24;
/// Per-frame latency limit of the validation inference (ms).
const FRAME_LIMIT_MS: f64 = 250.0;

struct Ready {
    data: PreparedData,
    net: UNet,
}

fn setup(wf: &Workflow, t: &mut StageTimes) -> Ready {
    let data = prepare(wf, t);
    let net = train(wf, ModelSize::M16, &data, t);
    Ready { data, net }
}

/// One deployment and what it took.
struct Deployed {
    fg: FusedGraph,
    uniform: QuantizedGraph,
    mixed: QuantizedGraph,
    floor: f64,
    search: MixedSearchResult,
    backend: QuantRefBackend,
    xm: Arc<XModel>,
    deploy_s: f64,
    calibrate_s: f64,
    search_s: f64,
    evals: u64,
    compile_ms: Vec<f64>,
}

fn deploy(wf: &Workflow, ready: &Ready) -> Deployed {
    let t0 = Instant::now();
    let fg = fuse(&Graph::from_unet(&ready.net, ModelSize::M16.label()));
    let cfg = PtqConfig { max_images: wf.config.calibration_images, ..Default::default() };
    let report = calibrate(&fg, &ready.data.calibration, &cfg);
    let calibrate_s = secs(t0);

    let t1 = Instant::now();
    let eval = &ready.data.calibration[..EVAL_IMAGES.min(ready.data.calibration.len())];
    let uniform = quantize_from_calibration(&fg, &report, &vec![Bitwidth::W8; fg.nodes.len()]);
    let floor = argmax_agreement(&fg, &uniform, eval) - AGREEMENT_MARGIN;
    let shape = Shape4::new(1, 1, PAPER_SIZE, PAPER_SIZE);
    let compile_ms = RefCell::new(Vec::new());
    let cost = |qg: &QuantizedGraph| -> f64 {
        let t = Instant::now();
        let xm = seneca_dpu::compile(qg, shape, DpuArch::b4096_zcu104());
        compile_ms.borrow_mut().push(ms(t.elapsed()));
        xm.stats.compute_cycles as f64
    };
    let search = search_mixed_plan(&fg, &report, eval, floor, &cost);
    let search_s = secs(t1);

    let mixed = quantize_from_calibration(&fg, &report, &search.plan.wbits);
    let input = Shape4::new(1, 1, wf.config.input_size, wf.config.input_size);
    let backend = QuantRefBackend::new(mixed.clone(), input).with_threads(THREADS);
    let xm = compile(&mixed, PAPER_SIZE, &mut StageTimes::default());
    let deploy_s = secs(t0);
    let compile_ms = compile_ms.into_inner();
    Deployed {
        fg,
        uniform,
        mixed,
        floor,
        search,
        backend,
        xm,
        deploy_s,
        calibrate_s,
        search_s,
        evals: compile_ms.len() as u64,
        compile_ms,
    }
}

/// The deployment checks: the mixed plan cuts modeled cycles and weight
/// bytes against uniform W8 and holds agreement at or above its floor.
fn check_plan(report: &mut Report, d: &Deployed) {
    let u = seneca_dpu::compile(
        &d.uniform,
        Shape4::new(1, 1, PAPER_SIZE, PAPER_SIZE),
        DpuArch::b4096_zcu104(),
    );
    let (m, u) = (&d.xm.stats, &u.stats);
    report.check(d.search.plan.n_w4() > 0, "mixed plan put no layer at W4");
    report.check(
        m.compute_cycles < u.compute_cycles,
        format!("mixed plan cycles {} not below uniform W8 {}", m.compute_cycles, u.compute_cycles),
    );
    report.check(
        m.weight_bytes < u.weight_bytes,
        format!("mixed plan bytes {} not below uniform W8 {}", m.weight_bytes, u.weight_bytes),
    );
    report.check(
        d.search.agreement >= d.floor,
        format!("mixed plan agreement {} below floor {}", d.search.agreement, d.floor),
    );
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) {
    let wf = Workflow::new(bench_config());
    let (ready, times) = repeated_setup(
        report,
        |t| setup(&wf, t),
        |r| {
            let fg = fuse(&Graph::from_unet(&r.net, "16M"));
            let q = quantize_from_calibration(
                &fg,
                &calibrate(&fg, &r.data.calibration[..1], &PtqConfig::default()),
                &vec![Bitwidth::W8; fg.nodes.len()],
            );
            qgraph_fingerprint(&q)
        },
    );
    report_setup(report, &times, args.trace);

    // The measured window: whole deployments, back to back.
    // Each deployment is checked as it lands; only the last is kept, so
    // memory does not grow with the number that fit in the window.
    let (mut secs_all, mut prints) = (Vec::new(), Vec::new());
    let mut last: Option<Deployed> = None;
    let t0 = Instant::now();
    while last.is_none() || (t0.elapsed() < args.seconds && !args.trace) {
        drop(last.take());
        let d = deploy(&wf, &ready);
        eprintln!(
            "[perfbench] deploy: {:.2} s (calibrate {:.2} s, search {:.2} s, {} evals, {}/{} W4)",
            d.deploy_s,
            d.calibrate_s,
            d.search_s,
            d.evals,
            d.search.plan.n_w4(),
            d.search.steps.len()
        );
        check_plan(report, &d);
        secs_all.push(d.deploy_s);
        prints.push(qgraph_fingerprint(&d.mixed));
        last = Some(d);
    }
    report.check(prints.windows(2).all(|w| w[0] == w[1]), "repeated deployments differ");
    let d = last.expect("one deployment");

    // Validation: the deployed INT8 model on every held-out slice.
    let ho = held_out(&ready.data.test_by_patient);
    let images: Vec<Tensor> = ho.iter().map(|h| h.image.clone()).collect();
    let oracle = Oracle::new(&d.mixed, &images);
    let fp32 = fp32_labels(&d.fg, &images);

    if args.trace {
        run_traced(args, report, &d, &images, &oracle);
        return;
    }
    let _ = d.backend.infer_batch(&images[..1]); // warm-up
    let mut latencies = Vec::new();
    let mut wall = Duration::ZERO;
    let mut ok = 0u64;
    let mut tally = SegTally::default();
    for pass in 0..PASSES {
        let (preds, timing) = d.backend.infer_batch_timed(&images);
        wall += timing.wall;
        for (i, (p, t)) in preds.iter().zip(&timing.per_frame).enumerate() {
            latencies.push(ms(*t));
            if !oracle.matches(i, p) {
                report.outcomes.mismatched += 1;
                continue;
            }
            if pass == 0 {
                tally.add(&p.labels, &ho[i].labels, &fp32[i]);
            }
            if ms(*t) > FRAME_LIMIT_MS {
                report.outcomes.deadline_missed += 1;
            } else {
                report.outcomes.ok += 1;
                ok += 1;
            }
        }
    }
    let frames = (PASSES * images.len()) as f64;
    let wall_s = wall.as_secs_f64().max(1e-9);
    let lat = summarize(&latencies);
    report.set("throughput_fps", frames / wall_s);
    report.set_from("latency_p50_ms", lat.median, &lat);
    report.set_from("latency_tail_ms", lat.tail, &lat);
    report.set("slo_met_ratio", ok as f64 / frames);
    report.set("batch_goodput_fps", ok as f64 / wall_s);
    report.set_from("deploy_s", median(&secs_all), &summarize(&secs_all));
    report.set("dice_int8", tally.dice_pct());
    report.set("agreement_pct", tally.agreement_pct());
    report_dpu(report, &d.xm, args.seed, false);
    report.set("weight_mb", d.xm.stats.weight_bytes as f64 / 1e6);
    report.set("peak_rss_mb", crate::common::peak_rss_mb());
}

fn run_traced(args: &Args, report: &mut Report, d: &Deployed, images: &[Tensor], oracle: &Oracle) {
    report.set("quant.calibrate_s", d.calibrate_s);
    report.set("quant.search_s", d.search_s);
    report.set("quant.search_evals", d.evals as f64);
    let accepted = d.search.steps.iter().filter(|s| s.accepted).count() as u64;
    report.set("quant.search_accept_ratio", ratio(accepted, d.search.steps.len() as u64));
    report.set("dpu.compile_ms", median(&d.compile_ms));

    // IR layer: the deployed mixed plan node by node on the held-out slices.
    let shape = images[0].shape();
    let lowered = seneca_ir::lower(d.mixed.to_ir(), shape, &seneca_ir::LowerOptions::reference());
    let xm_here = compile(&d.mixed, shape.h, &mut StageTimes::default());
    let mut ledger = Ledger::new(&lowered, &xm_here);
    let all: Vec<usize> = (0..images.len()).collect();
    for _ in 0..PASSES {
        let (preds, node_ns) = traced_batch(&lowered, &d.mixed, images, THREADS);
        oracle.score(report, &all, &preds);
        ledger.add(&node_ns, images.len() as u64);
    }
    let mut batches = Vec::new();
    for _ in 0..3 {
        let (preds, timing) = d.backend.infer_batch_timed(images);
        oracle.score(report, &all, &preds);
        let sum: Duration = timing.per_frame.iter().sum();
        batches.push((
            timing.wall,
            sum,
            seneca_backend::resolve_worker_threads(THREADS, images.len()),
        ));
    }
    report_batches(report, &batches);
    let (hot, peak) = igemm_peak(&lowered, Duration::from_millis(300));
    eprintln!("[perfbench] igemm peak on node {hot}: {peak:.2} GMAC/s");
    report_ledger(report, &ledger, &lowered, peak);
    ledger.print("16M-mixed@32", peak);
    let q: Vec<_> = images.iter().map(|f| d.mixed.quantize_input(f)).collect();
    report.set("trace.overhead_pct", trace_overhead_pct(&lowered, &q, 3));
    report.set("quant.quantize_input_us", quantize_input_us(&d.mixed, &images[0]));
    report.set("ir.lower_ms", lower_ms(&d.mixed, shape, 3));
    report_dpu(report, &d.xm, args.seed, true);
    not_exercised(report, &SERVING_LAYERS);
}
