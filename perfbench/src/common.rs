//! Set-up shared by every workload: the benchmark configuration, training
//! and quantization from the seed config, the INT8 oracle, segmentation
//! tallies, modeled DPU figures and process facts.

use crate::report::Report;
use crate::stats::median;
use seneca::workflow::TestPatient;
use seneca::{PreparedData, SenecaConfig, Workflow};
use seneca_backend::Prediction;
use seneca_data::dataset::{SplitKind, SyntheticCtOrg};
use seneca_data::preprocess::preprocess;
use seneca_dpu::runtime::{DpuRunner, RuntimeConfig};
use seneca_dpu::{DpuArch, XModel};
use seneca_metrics::seg::{confusion, Confusion};
use seneca_nn::graph::Graph;
use seneca_nn::unet::{ModelSize, UNet};
use seneca_quant::{
    calibrate, fuse, quantize_from_calibration, Bitwidth, FusedGraph, PtqConfig, QOp,
    QuantizedGraph,
};
use seneca_tensor::activation::{argmax_channels, argmax_channels_i8};
use seneca_tensor::{QTensor, Shape4, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Organ classes scored by Dice (labels `1..=5`; 0 is background).
pub const ORGANS: u8 = 5;

/// The paper's deployment geometry (Table IV runs at 256×256).
pub const PAPER_SIZE: usize = 256;

/// Frames per modeled DPU throughput run (the paper's Table IV count).
pub const DPU_FRAMES: usize = 2000;

/// Complete set-ups per run; set-up time is reported as their median.
pub const SETUP_REPEATS: usize = 3;

/// The benchmark's fixed configuration: `SenecaConfig::fast()` with half
/// the training slices and two epochs, so that three complete set-ups of
/// every workload fit in one run, and every held-out slice kept for
/// scoring. It is the same on every run; the workload seed never changes
/// it, so every seed trains the same models.
pub fn bench_config() -> SenecaConfig {
    let mut cfg = SenecaConfig::fast();
    cfg.train_stride = 6;
    cfg.train.epochs = 2;
    cfg.test_stride = 1;
    cfg
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Fingerprint of a configuration (hash of its full debug form).
pub fn config_fingerprint(cfg: &SenecaConfig) -> String {
    format!("{:016x}", fnv1a(format!("{cfg:?}").as_bytes(), FNV_BASIS))
}

/// Fingerprint of a quantized graph's every weight, bias, fix position and
/// bitwidth: equal fingerprints mean bit-identical deployments.
pub fn qgraph_fingerprint(qg: &QuantizedGraph) -> u64 {
    let mut h = fnv1a(&qg.input_fp.to_le_bytes(), FNV_BASIS);
    h = fnv1a(&qg.output_fp.to_le_bytes(), h);
    for node in &qg.nodes {
        h = fnv1a(node.op.mnemonic().as_bytes(), h);
        match &node.op {
            QOp::Conv(p) | QOp::TConv(p) => {
                let w: Vec<u8> = p.w.data().iter().map(|&v| v as u8).collect();
                h = fnv1a(&w, h);
                for b in &p.bias {
                    h = fnv1a(&b.to_le_bytes(), h);
                }
                h = fnv1a(&[p.relu as u8, (p.wbits == Bitwidth::W4) as u8], h);
                for v in [p.in_fp, p.out_fp, p.w.fix_pos()] {
                    h = fnv1a(&v.to_le_bytes(), h);
                }
            }
            QOp::Concat { shift_a, shift_b, out_fp } => {
                for v in [shift_a, shift_b, out_fp] {
                    h = fnv1a(&v.to_le_bytes(), h);
                }
            }
            QOp::Input | QOp::MaxPool2x2 => {}
        }
    }
    h
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// A trained and post-training-quantized model.
pub struct Model {
    /// Fused FP32 graph (BN folded, ReLU fused) the quantizer works on.
    pub fg: FusedGraph,
    /// Uniform-W8 quantized graph.
    pub qg: QuantizedGraph,
}

/// Wall time of each set-up stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Stage A: `Workflow::prepare_data`.
    pub prepare: f64,
    /// Stages B + C: `Workflow::train_model`.
    pub train: f64,
    /// PTQ calibration (`seneca_quant::calibrate`).
    pub calibrate: f64,
    /// Building the quantized graph from the calibration.
    pub quantize: f64,
    /// IR lowering (backend construction).
    pub lower: f64,
    /// DPU compilation.
    pub compile: f64,
    /// Other set-up work (fleet start).
    pub other: f64,
}

impl StageTimes {
    /// Whole set-up.
    pub fn total(&self) -> f64 {
        self.prepare
            + self.train
            + self.calibrate
            + self.quantize
            + self.lower
            + self.compile
            + self.other
    }

    /// From a trained net to a compiled deployment: PTQ, lowering and
    /// compilation.
    pub fn deploy(&self) -> f64 {
        self.calibrate + self.quantize + self.lower + self.compile
    }
}

/// Median of one stage over several set-ups.
pub fn stage_median(times: &[StageTimes], f: impl Fn(&StageTimes) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>())
}

/// Stage A with its time.
pub fn prepare(wf: &Workflow, t: &mut StageTimes) -> PreparedData {
    let t0 = Instant::now();
    let data = wf.prepare_data();
    t.prepare += secs(t0);
    data
}

/// Stages B + C for one size, with their time.
pub fn train(wf: &Workflow, size: ModelSize, data: &PreparedData, t: &mut StageTimes) -> UNet {
    let t0 = Instant::now();
    let net = wf.train_model(size, data);
    t.train += secs(t0);
    net
}

/// Post-training quantization of a trained net — the same steps as
/// `Workflow::quantize`, timed per phase.
pub fn quantize(
    wf: &Workflow,
    size: ModelSize,
    net: &UNet,
    data: &PreparedData,
    t: &mut StageTimes,
) -> Model {
    let t0 = Instant::now();
    let fg = fuse(&Graph::from_unet(net, size.label()));
    let cfg = PtqConfig { max_images: wf.config.calibration_images, ..Default::default() };
    let report = calibrate(&fg, &data.calibration, &cfg);
    t.calibrate += secs(t0);
    let t0 = Instant::now();
    let qg = quantize_from_calibration(&fg, &report, &vec![Bitwidth::W8; fg.nodes.len()]);
    t.quantize += secs(t0);
    Model { fg, qg }
}

/// Compiles for the B4096 at `size`×`size`, with its time.
pub fn compile(qg: &QuantizedGraph, size: usize, t: &mut StageTimes) -> Arc<XModel> {
    let t0 = Instant::now();
    let xm = seneca_dpu::compile(qg, Shape4::new(1, 1, size, size), DpuArch::b4096_zcu104());
    t.compile += secs(t0);
    Arc::new(xm)
}

/// One held-out slice with its ground truth.
pub struct HeldOut {
    /// Preprocessed image at the accuracy resolution.
    pub image: Tensor,
    /// Ground-truth labels.
    pub labels: Vec<u8>,
}

/// Every held-out slice of the prepared test split, in patient order.
pub fn held_out(patients: &[TestPatient]) -> Vec<HeldOut> {
    patients
        .iter()
        .flat_map(|p| {
            p.images
                .iter()
                .zip(&p.labels)
                .map(|(image, labels)| HeldOut { image: image.clone(), labels: labels.clone() })
        })
        .collect()
}

/// Preprocessed CT slices at the paper's 256×256 geometry: the benchmark
/// cohort re-rendered at a 256-pixel raster (no downsampling), slices
/// picked by `pick` from the test patients' volumes.
pub fn paper_frames(cfg: &SenecaConfig, n: usize, mut pick: impl FnMut(u64) -> u64) -> Vec<Tensor> {
    let mut cohort = cfg.cohort.clone();
    cohort.slice_size = PAPER_SIZE;
    let ds = SyntheticCtOrg::new(cohort);
    let patients = ds.patients(SplitKind::Test);
    assert!(!patients.is_empty(), "the cohort has no test patients");
    let mut volumes: Vec<Option<seneca_data::volume::Volume>> =
        patients.iter().map(|_| None).collect();
    (0..n)
        .map(|_| {
            let p = pick(patients.len() as u64) as usize;
            let vol = volumes[p].get_or_insert_with(|| ds.volume(patients[p]));
            let z = pick(vol.depth as u64) as usize;
            let s = preprocess(&vol.slice(z), 1);
            Tensor::from_vec(Shape4::new(1, 1, s.height, s.width), s.pixels)
        })
        .collect()
}

/// The INT8 oracle: each distinct input's logits from the graph's own
/// node-walk executor (`QuantizedGraph::execute`), which shares no
/// planning, packing or scheduling code with the served path.
pub struct Oracle {
    /// INT8 logits per input.
    pub logits: Vec<QTensor>,
    /// Argmax labels per input.
    pub labels: Vec<Vec<u8>>,
}

impl Oracle {
    /// Precomputes the oracle for `frames`.
    pub fn new(qg: &QuantizedGraph, frames: &[Tensor]) -> Self {
        let logits: Vec<QTensor> =
            frames.iter().map(|f| qg.execute(&qg.quantize_input(f))).collect();
        let labels = logits.iter().map(|q| argmax_channels_i8(q.shape(), q.data())).collect();
        Self { logits, labels }
    }

    /// Whether a prediction is bit-identical to input `i`'s oracle: the
    /// INT8 logits (shape, fix position, every byte) and the labels.
    pub fn matches(&self, i: usize, pred: &Prediction) -> bool {
        let Some(q) = pred.as_i8() else { return false };
        let o = &self.logits[i];
        q.shape() == o.shape()
            && q.fix_pos() == o.fix_pos()
            && q.data() == o.data()
            && pred.labels == self.labels[i]
    }

    /// Scores the answers to inputs `idx` (in order): each input is one
    /// attempted operation, answered correctly, mismatched, or errored
    /// when no answer came back.
    pub fn score(&self, report: &mut Report, idx: &[usize], preds: &[Prediction]) {
        for (k, &i) in idx.iter().enumerate() {
            match preds.get(k) {
                Some(p) if self.matches(i, p) => report.outcomes.ok += 1,
                Some(_) => report.outcomes.mismatched += 1,
                None => report.outcomes.errored += 1,
            }
        }
    }
}

/// FP32 argmax labels of a fused graph for each frame.
pub fn fp32_labels(fg: &FusedGraph, frames: &[Tensor]) -> Vec<Vec<u8>> {
    frames.iter().map(|f| argmax_channels(&fg.execute(f))).collect()
}

/// Pooled segmentation scores over many label maps: per-organ confusion
/// counts and pixel agreement with a reference labelling.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegTally {
    organs: [Confusion; ORGANS as usize],
    agree: u64,
    pixels: u64,
}

impl SegTally {
    /// Adds one prediction scored against its ground truth and against a
    /// reference labelling (the FP32 model's argmax).
    pub fn add(&mut self, pred: &[u8], truth: &[u8], reference: &[u8]) {
        for (c, conf) in self.organs.iter_mut().enumerate() {
            conf.merge(&confusion(pred, truth, c as u8 + 1));
        }
        self.agree += pred.iter().zip(reference).filter(|(a, b)| a == b).count() as u64;
        self.pixels += pred.len() as u64;
    }

    /// Global Dice (%): per-organ Dice weighted by ground-truth pixels, the
    /// paper's §IV-C definition, over every pooled pixel.
    pub fn dice_pct(&self) -> f64 {
        let (mut num, mut den) = (0.0, 0.0);
        for c in &self.organs {
            if let Some(d) = c.dice() {
                let w = (c.tp + c.fn_) as f64;
                num += d * w;
                den += w;
            }
        }
        if den == 0.0 {
            0.0
        } else {
            100.0 * num / den
        }
    }

    /// Argmax agreement with the reference labelling (%).
    pub fn agreement_pct(&self) -> f64 {
        100.0 * crate::stats::ratio(self.agree, self.pixels)
    }
}

/// Modeled B4096 figures of an xmodel at its compiled geometry.
#[derive(Debug, Clone, Copy)]
pub struct DpuModeled {
    /// Modeled frames per second.
    pub fps: f64,
    /// Modeled frames per second per watt.
    pub fps_per_w: f64,
    /// Whether two runs with the same seed gave identical figures.
    pub exact: bool,
    /// Host time of one simulated frame (µs).
    pub sim_host_us: f64,
}

/// `DpuRunner::run_throughput` over [`DPU_FRAMES`] frames at the default
/// runtime configuration, twice with the same seed.
pub fn dpu_modeled(xm: &Arc<XModel>, seed: u64) -> DpuModeled {
    let runner = DpuRunner::new(Arc::clone(xm), RuntimeConfig::default());
    let t0 = Instant::now();
    let a = runner.run_throughput(DPU_FRAMES, seed);
    let sim_host_us = t0.elapsed().as_secs_f64() * 1e6 / DPU_FRAMES as f64;
    let b = runner.run_throughput(DPU_FRAMES, seed);
    DpuModeled {
        fps: a.fps,
        fps_per_w: a.fps / a.watt,
        exact: a.fps == b.fps && a.watt == b.watt && a.frames == b.frames,
        sim_host_us,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Available hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds of a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs a workload's complete set-up [`SETUP_REPEATS`] times and keeps the
/// last result. Every repeat must deploy bit-identical models (`fp`
/// fingerprints them); a difference fails the run's checks.
pub fn repeated_setup<R>(
    report: &mut Report,
    mut setup: impl FnMut(&mut StageTimes) -> R,
    fp: impl Fn(&R) -> u64,
) -> (R, Vec<StageTimes>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut prints = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        drop(last.take()); // free the previous repeat before building the next
        let mut t = StageTimes::default();
        let r = setup(&mut t);
        eprintln!("[perfbench] set-up {}/{SETUP_REPEATS}: {:.2} s ({t:?})", rep + 1, t.total());
        prints.push(fp(&r));
        times.push(t);
        last = Some(r);
    }
    report.check(
        prints.windows(2).all(|w| w[0] == w[1]),
        format!("set-up repeats deployed different models: {prints:x?}"),
    );
    (last.expect("at least one set-up"), times)
}

/// Deployments timed for `deploy_s` after set-up: at least this many, and
/// for at least [`DEPLOY_MIN_TIME`], so that a short host stall moves the
/// median of a fast deployment little.
pub const DEPLOY_REPEATS: usize = 15;
/// Least wall time spent on the deployments timed for `deploy_s`.
pub const DEPLOY_MIN_TIME: Duration = Duration::from_secs(5);

/// Median wall time (s) of the deployments of already trained nets that
/// fill [`DEPLOY_REPEATS`] and [`DEPLOY_MIN_TIME`]. `deploy` runs one
/// deployment, adds its stage times and returns its fingerprint; every
/// repeat must deploy the same bits.
pub fn deploy_median(report: &mut Report, mut deploy: impl FnMut(&mut StageTimes) -> u64) {
    let (mut secs, mut prints) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while secs.len() < DEPLOY_REPEATS || t0.elapsed() < DEPLOY_MIN_TIME {
        let mut t = StageTimes::default();
        prints.push(deploy(&mut t));
        secs.push(t.deploy());
    }
    report.check(prints.windows(2).all(|w| w[0] == w[1]), "repeated deployments differ");
    let s = crate::stats::summarize(&secs);
    report.set_from("deploy_s", s.median, &s);
}

/// Set-up metrics every workload reports: `setup_s` in the end-to-end
/// run, the stage times in the traced run.
pub fn report_setup(report: &mut Report, times: &[StageTimes], trace: bool) {
    if trace {
        report.set("data.prepare_s", stage_median(times, |t| t.prepare));
        report.set("nn.train_s", stage_median(times, |t| t.train));
        report.set("quant.calibrate_s", stage_median(times, |t| t.calibrate));
    } else {
        let totals: Vec<f64> = times.iter().map(StageTimes::total).collect();
        report.set_from("setup_s", median(&totals), &crate::stats::summarize(&totals));
    }
}

/// Modeled DPU metrics of the deployed xmodel at 256×256, with the
/// exactness check.
pub fn report_dpu(report: &mut Report, xm: &Arc<XModel>, seed: u64, trace: bool) {
    let d = dpu_modeled(xm, seed);
    report.check(d.exact, "modeled DPU figures differ between two runs with the same seed");
    if trace {
        let profile = seneca_dpu::profile::profile(xm, &xm.arch);
        report.set("dpu.cycles_per_frame", xm.stats.compute_cycles as f64);
        report.set("dpu.memory_bound_layers", profile.memory_bound_layers() as f64);
        report.set("dpu.ddr_mb_per_frame", xm.stats.fm_traffic_bytes as f64 / 1e6);
        report.set("dpu.sim_host_us_per_frame", d.sim_host_us);
    } else {
        report.set("dpu_fps_modeled", d.fps);
        report.set("dpu_fps_per_w_modeled", d.fps_per_w);
    }
}

/// Median wall time of `n` calls of `f` (s).
fn median_time(n: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            secs(t0)
        })
        .collect();
    median(&v)
}

/// Median wall time of `n` DPU compilations at 256×256 (ms).
pub fn compile_ms(qg: &QuantizedGraph, n: usize) -> f64 {
    let shape = Shape4::new(1, 1, PAPER_SIZE, PAPER_SIZE);
    1e3 * median_time(n, || {
        std::hint::black_box(seneca_dpu::compile(qg, shape, DpuArch::b4096_zcu104()));
    })
}

/// Median wall time of `n` IR lowerings (ms).
pub fn lower_ms(qg: &QuantizedGraph, shape: Shape4, n: usize) -> f64 {
    let opts = seneca_ir::LowerOptions::reference();
    1e3 * median_time(n, || {
        std::hint::black_box(seneca_ir::lower(qg.to_ir(), shape, &opts));
    })
}

/// Median time of one `QuantizedGraph::quantize_input` call (µs).
pub fn quantize_input_us(qg: &QuantizedGraph, frame: &Tensor) -> f64 {
    1e6 * median_time(200, || {
        std::hint::black_box(qg.quantize_input(frame));
    })
}

/// Records per-layer metrics a workload does not exercise as 0 and names
/// them on one line.
pub fn not_exercised(report: &mut Report, names: &[&str]) {
    for n in names {
        report.set(n, 0.0);
    }
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    println!("{{\"not_exercised\": [{}]}}", quoted.join(", "));
}

/// Per-layer metrics of the serving and fleet layers (clinic-mix only).
pub const SERVING_LAYERS: [&str; 13] = [
    "serve.queue_wait_ms_p50",
    "serve.queue_wait_ms_p99",
    "serve.execute_ms_p50",
    "serve.batch_size_mean",
    "serve.replica_busy_ratio",
    "serve.rejected_ratio",
    "serve.shed_expired_ratio",
    "fleet.submit_us_p50",
    "fleet.submit_us_p99",
    "fleet.downgraded_ratio",
    "fleet.batch_shed_ratio",
    "fleet.shard_imbalance",
    "loadgen.late_ms_p99",
];

/// Per-layer metrics of the mixed-precision search (deploy-16m only).
pub const SEARCH_LAYERS: [&str; 3] =
    ["quant.search_s", "quant.search_evals", "quant.search_accept_ratio"];

/// Ledger-derived per-layer metrics of one lowered program.
pub fn report_ledger(
    report: &mut Report,
    ledger: &crate::ledger::Ledger,
    lowered: &seneca_ir::Lowered,
    peak_gmacs: f64,
) {
    for op in ["qconv", "qtconv", "qmaxpool", "qconcat"] {
        report.set(&format!("ir.{op}.ms_per_frame"), ledger.op_ms_per_frame(op));
    }
    report.set("ir.qconv.gmacs", ledger.op_gmacs("qconv"));
    report.set("ir.qtconv.gmacs", ledger.op_gmacs("qtconv"));
    report.set("ir.qconv.pct_of_peak", 100.0 * ledger.op_gmacs("qconv") / peak_gmacs);
    report.set("tensor.igemm_peak_gmacs", peak_gmacs);
    report.set("ir.peak_arena_bytes", lowered.plan().peak_arena_bytes(1) as f64);
    report.set("ir.packed_weight_bytes", lowered.packed_weight_bytes() as f64);
}

/// `backend.*` metrics from `(wall, per-frame sum, workers)` of batches:
/// batch wall, and the wall not covered by frame execution (session
/// start, arena allocation), with per-frame time shared evenly over the
/// batch's workers.
pub fn report_batches(report: &mut Report, batches: &[(Duration, Duration, usize)]) {
    let walls: Vec<f64> = batches.iter().map(|b| ms(b.0)).collect();
    let over: Vec<f64> =
        batches.iter().map(|(w, f, k)| ms(*w) - ms(*f) / (*k).max(1) as f64).collect();
    report.set("backend.infer_batch_ms", median(&walls));
    report.set("backend.batch_overhead_ms", median(&over));
}
