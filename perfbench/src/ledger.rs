//! The traced run's per-node ledger.
//!
//! INT8 execution is driven node by node through the lowered program's
//! public entry points (`Lowered::load_input_i8` + `execute_node_i8`, the
//! loop `execute_i8_into` runs), with a clock read around every node. Each
//! row pairs the measured host time with the node's MAC count, its
//! achieved GMAC/s against the isolated `igemm_conv_packed` peak of the
//! hottest conv shape, and the B4096 model's cycles and bound for the same
//! node. Nothing inside the crates is instrumented.

use crate::common::ms;
use seneca_backend::Prediction;
use seneca_dpu::isa::DpuInstr;
use seneca_dpu::profile::{profile, Bound};
use seneca_dpu::XModel;
use seneca_ir::{ConvKernel, IrOp, Lowered, QScratch};
use seneca_quant::QuantizedGraph;
use seneca_tensor::gemm::PackedA;
use seneca_tensor::igemm::igemm_conv_packed;
use seneca_tensor::im2col::ConvGeom;
use seneca_tensor::{QTensor, Tensor};
use std::time::{Duration, Instant};

/// Static facts of one node plus its accumulated host time.
#[derive(Debug, Clone)]
pub struct Row {
    /// IR node id (equal to the quantized-graph node id).
    pub id: usize,
    /// Op mnemonic (`qconv`, `qtconv`, `qmaxpool`, `qconcat`).
    pub op: &'static str,
    /// Multiply-accumulates per frame (0 for pool and concat).
    pub macs: u64,
    /// Modeled B4096 array cycles per frame.
    pub dpu_cycles: u64,
    /// Modeled bounding engine.
    pub dpu_bound: Option<Bound>,
    /// Host time summed over every traced frame (ns).
    pub ns: u64,
}

/// Per-node host time over a number of frames.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// One row per executed node, in execution order.
    pub rows: Vec<Row>,
    /// Frames traced.
    pub frames: u64,
}

/// MACs of one node at the lowered geometry.
fn node_macs(lowered: &Lowered, id: usize) -> u64 {
    let node = &lowered.module().nodes[id];
    let shapes = lowered.shapes();
    match &node.op {
        IrOp::Conv(a) => {
            let o = shapes[id];
            (o.h * o.w * a.kernel.c_out(false) * a.kernel.c_in(false) * 9) as u64
        }
        IrOp::TConv(a) => {
            let i = shapes[node.inputs[0]];
            (i.h * i.w * a.kernel.c_out(true) * a.kernel.c_in(true) * 4) as u64
        }
        _ => 0,
    }
}

impl Ledger {
    /// Empty ledger for a lowered INT8 program; `xm` must be compiled from
    /// the same graph at the same geometry.
    pub fn new(lowered: &Lowered, xm: &XModel) -> Self {
        let m = lowered.module();
        assert_eq!(
            m.nodes.len(),
            xm.qgraph.nodes.len(),
            "lowered module and xmodel disagree on node ids"
        );
        let mut rows: Vec<Row> = (1..m.nodes.len())
            .map(|id| Row {
                id,
                op: m.nodes[id].op.mnemonic(m.dtype),
                macs: node_macs(lowered, id),
                dpu_cycles: 0,
                dpu_bound: None,
                ns: 0,
            })
            .collect();
        let ns_per_cycle = xm.arch.ns_per_cycle();
        for layer in profile(xm, &xm.arch).layers {
            let node = match xm.instrs[layer.instr_index] {
                DpuInstr::Conv { node, .. }
                | DpuInstr::Pool { node, .. }
                | DpuInstr::Elew { node, .. } => node,
                _ => continue,
            };
            if let Some(row) = rows.iter_mut().find(|r| r.id == node) {
                row.dpu_cycles += (layer.compute_ns as f64 / ns_per_cycle).round() as u64;
                row.dpu_bound = Some(layer.bound);
            }
        }
        Self { rows, frames: 0 }
    }

    /// Adds per-node times (indexed by node id) for `frames` frames.
    pub fn add(&mut self, node_ns: &[u64], frames: u64) {
        for row in &mut self.rows {
            row.ns += node_ns[row.id];
        }
        self.frames += frames;
    }

    /// Host milliseconds per frame spent in nodes of one op.
    pub fn op_ms_per_frame(&self, op: &str) -> f64 {
        let ns: u64 = self.rows.iter().filter(|r| r.op == op).map(|r| r.ns).sum();
        ns as f64 / 1e6 / self.frames.max(1) as f64
    }

    /// Achieved GMAC/s of one op over the traced frames.
    pub fn op_gmacs(&self, op: &str) -> f64 {
        let rows = self.rows.iter().filter(|r| r.op == op);
        let (macs, ns) = rows.fold((0u64, 0u64), |(m, n), r| (m + r.macs, n + r.ns));
        if ns == 0 {
            0.0
        } else {
            (macs * self.frames) as f64 / ns as f64
        }
    }

    /// Prints one JSON line per node.
    pub fn print(&self, label: &str, peak_gmacs: f64) {
        for r in &self.rows {
            let ms_frame = r.ns as f64 / 1e6 / self.frames.max(1) as f64;
            let gmacs = if r.ns == 0 { 0.0 } else { (r.macs * self.frames) as f64 / r.ns as f64 };
            let pct = if peak_gmacs > 0.0 { 100.0 * gmacs / peak_gmacs } else { 0.0 };
            let bound = r.dpu_bound.map_or("none".to_string(), |b| format!("{b:?}").to_lowercase());
            println!(
                "{{\"ledger\": \"{label}\", \"node\": {}, \"op\": \"{}\", \"macs\": {}, \
                 \"ms_per_frame\": {ms_frame}, \"gmacs\": {gmacs}, \"pct_of_peak\": {pct}, \
                 \"dpu_cycles\": {}, \"dpu_bound\": \"{bound}\", \"frames\": {}}}",
                r.id, r.op, r.macs, r.dpu_cycles, self.frames
            );
        }
    }
}

/// Runs one quantized frame node by node, adding each node's host time to
/// `node_ns[id]`. Returns a copy of the output logits.
pub fn execute_traced(
    lowered: &Lowered,
    q: &QTensor,
    scratch: &mut QScratch,
    node_ns: &mut [u64],
) -> QTensor {
    lowered.load_input_i8(q, scratch);
    let n = lowered.module().nodes.len();
    let mut t = Instant::now();
    for (id, slot) in node_ns.iter_mut().enumerate().take(n).skip(1) {
        lowered.execute_node_i8(id, scratch);
        let now = Instant::now();
        *slot += (now - t).as_nanos() as u64;
        t = now;
    }
    lowered.node_output_i8(lowered.module().output, scratch).to_qtensor()
}

/// The traced counterpart of `QuantRefBackend::infer_batch`: `threads`
/// workers (frames dealt round-robin), each with its own arena, quantize
/// → node-by-node execution → argmax. Returns predictions in input order
/// and per-node host time summed over every frame.
pub fn traced_batch(
    lowered: &Lowered,
    qg: &QuantizedGraph,
    images: &[Tensor],
    threads: usize,
) -> (Vec<Prediction>, Vec<u64>) {
    let n_nodes = lowered.module().nodes.len();
    let threads = threads.clamp(1, images.len().max(1));
    // Per worker: (frame index, prediction) pairs and per-node times.
    type WorkerOut = (Vec<(usize, Prediction)>, Vec<u64>);
    let per_worker: Vec<WorkerOut> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    let mut scratch = lowered.make_scratch_i8();
                    let mut ns = vec![0u64; n_nodes];
                    let mut out = Vec::new();
                    for i in (w..images.len()).step_by(threads) {
                        let q = qg.quantize_input(&images[i]);
                        let logits = execute_traced(lowered, &q, &mut scratch, &mut ns);
                        out.push((i, Prediction::from_i8(logits)));
                    }
                    (out, ns)
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().expect("traced worker panicked")).collect()
    });
    let mut node_ns = vec![0u64; n_nodes];
    let mut preds: Vec<(usize, Prediction)> = Vec::with_capacity(images.len());
    for (out, ns) in per_worker {
        for (a, b) in node_ns.iter_mut().zip(&ns) {
            *a += b;
        }
        preds.extend(out);
    }
    preds.sort_by_key(|(i, _)| *i);
    (preds.into_iter().map(|(_, p)| p).collect(), node_ns)
}

/// Tracing overhead on identical work: per-frame time of the node-by-node
/// traced loop against the untraced `execute_i8_into`, one thread,
/// alternating frame by frame so that drift hits both sides. Percent.
pub fn trace_overhead_pct(lowered: &Lowered, frames: &[QTensor], rounds: usize) -> f64 {
    let mut scratch = lowered.make_scratch_i8();
    let mut node_ns = vec![0u64; lowered.module().nodes.len()];
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let _ = lowered.execute_i8_into(&frames[0], &mut scratch); // warm-up
    for r in 0..rounds {
        for (k, q) in frames.iter().enumerate() {
            let run_plain = |scratch: &mut QScratch| {
                let t = Instant::now();
                std::hint::black_box(lowered.execute_i8_into(q, scratch).data()[0]);
                t.elapsed()
            };
            if (r + k) % 2 == 0 {
                plain += run_plain(&mut scratch);
                let t = Instant::now();
                std::hint::black_box(execute_traced(lowered, q, &mut scratch, &mut node_ns));
                traced += t.elapsed();
            } else {
                let t = Instant::now();
                std::hint::black_box(execute_traced(lowered, q, &mut scratch, &mut node_ns));
                traced += t.elapsed();
                plain += run_plain(&mut scratch);
            }
        }
    }
    100.0 * (traced.as_secs_f64() / plain.as_secs_f64().max(1e-12) - 1.0)
}

/// The hottest 3×3 conv of a lowered program (most MACs) and its
/// `igemm_conv_packed` rate timed alone, in GMAC/s: the denominator of
/// `pct_of_peak`. Weights are packed here from the node's own INT8
/// weights; the input is a fixed byte pattern of the node's input shape.
pub fn igemm_peak(lowered: &Lowered, budget: Duration) -> (usize, f64) {
    let m = lowered.module();
    let id = (1..m.nodes.len())
        .filter(|&i| matches!(m.nodes[i].op, IrOp::Conv(_)))
        .max_by_key(|&i| node_macs(lowered, i))
        .expect("the model has a conv");
    let IrOp::Conv(a) = &m.nodes[id].op else { unreachable!() };
    let ConvKernel::I8 { w, bias, .. } = &a.kernel else { panic!("FP32 kernel in an INT8 module") };
    let xs = lowered.shapes()[m.nodes[id].inputs[0]];
    let geom = ConvGeom { c_in: xs.c, h: xs.h, w: xs.w, k: 3, pad: 1, stride: 1 };
    let c_out = a.kernel.c_out(false);
    let pa = PackedA::pack(c_out, geom.col_rows(), w.data());
    let x: Vec<i8> = (0..xs.c * xs.h * xs.w).map(|i| ((i * 37) % 255) as i8).collect();
    let mut out = vec![0i8; c_out * geom.col_cols()];
    let shift = a.kernel.shift();
    let mut call = || {
        let t = Instant::now();
        igemm_conv_packed(&pa, &geom, &x, bias, shift, a.relu, &mut out);
        std::hint::black_box(out[0]);
        t.elapsed()
    };
    call(); // warm-up: thread-local pack buffers, page-in
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < 5 || (t0.elapsed() < budget && times.len() < 1000) {
        times.push(ms(call()));
    }
    let med_ms = crate::stats::median(&times);
    (id, node_macs(lowered, id) as f64 / (med_ms * 1e6))
}
