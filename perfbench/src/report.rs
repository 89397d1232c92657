//! Metric names, units and the result lines the benchmark prints.

use crate::stats::{Outcomes, Summary};
use std::collections::BTreeMap;

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics: printed by every workload's untraced run.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("throughput_fps", "frames/s", "higher"),
    def("latency_p50_ms", "ms", "lower"),
    def("latency_tail_ms", "ms", "lower"),
    def("slo_met_ratio", "ratio", "higher"),
    def("batch_goodput_fps", "frames/s", "higher"),
    def("deploy_s", "s", "lower"),
    def("dice_int8", "%", "higher"),
    def("agreement_pct", "%", "higher"),
    def("dpu_fps_modeled", "frames/s", "higher"),
    def("dpu_fps_per_w_modeled", "frames/s/W", "higher"),
    def("weight_mb", "MB", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics: printed by every workload's traced run. A layer the
/// workload does not exercise reads 0 and is named on the `not_exercised`
/// line.
pub const PER_LAYER: &[Def] = &[
    def("data.prepare_s", "s", "lower"),
    def("nn.train_s", "s", "lower"),
    def("quant.calibrate_s", "s", "lower"),
    def("quant.search_s", "s", "lower"),
    def("quant.search_evals", "count", "lower"),
    def("quant.search_accept_ratio", "ratio", "higher"),
    def("quant.quantize_input_us", "us", "lower"),
    def("ir.lower_ms", "ms", "lower"),
    def("ir.qconv.ms_per_frame", "ms", "lower"),
    def("ir.qtconv.ms_per_frame", "ms", "lower"),
    def("ir.qmaxpool.ms_per_frame", "ms", "lower"),
    def("ir.qconcat.ms_per_frame", "ms", "lower"),
    def("ir.qconv.gmacs", "GMAC/s", "higher"),
    def("ir.qtconv.gmacs", "GMAC/s", "higher"),
    def("ir.qconv.pct_of_peak", "%", "higher"),
    def("ir.peak_arena_bytes", "bytes", "lower"),
    def("ir.packed_weight_bytes", "bytes", "lower"),
    def("tensor.igemm_peak_gmacs", "GMAC/s", "higher"),
    def("backend.infer_batch_ms", "ms", "lower"),
    def("backend.batch_overhead_ms", "ms", "lower"),
    def("serve.queue_wait_ms_p50", "ms", "lower"),
    def("serve.queue_wait_ms_p99", "ms", "lower"),
    def("serve.execute_ms_p50", "ms", "lower"),
    def("serve.batch_size_mean", "frames", "higher"),
    def("serve.replica_busy_ratio", "ratio", "lower"),
    def("serve.rejected_ratio", "ratio", "lower"),
    def("serve.shed_expired_ratio", "ratio", "lower"),
    def("fleet.submit_us_p50", "us", "lower"),
    def("fleet.submit_us_p99", "us", "lower"),
    def("fleet.downgraded_ratio", "ratio", "lower"),
    def("fleet.batch_shed_ratio", "ratio", "lower"),
    def("fleet.shard_imbalance", "ratio", "lower"),
    def("dpu.compile_ms", "ms", "lower"),
    def("dpu.cycles_per_frame", "cycles", "lower"),
    def("dpu.memory_bound_layers", "count", "lower"),
    def("dpu.ddr_mb_per_frame", "MB", "lower"),
    def("dpu.sim_host_us_per_frame", "us", "lower"),
    def("loadgen.late_ms_p99", "ms", "lower"),
    def("trace.overhead_pct", "%", "lower"),
];

fn find(name: &str) -> &'static Def {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// A run's measured metrics plus its outcome counts.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Outcome counts of every operation the run attempted.
    pub outcomes: Outcomes,
    /// Correctness checks that failed (each a short reason).
    pub check_failures: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = find(name);
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values.insert(d.name, value);
    }

    /// Records a metric measured from a sample and prints its summary line.
    pub fn set_from(&mut self, name: &str, value: f64, s: &Summary) {
        self.set(name, value);
        let d = find(name);
        println!(
            "{{\"metric\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"samples\": {}, \
             \"median\": {}, \"q1\": {}, \"q3\": {}, \"tail_q\": {}, \"tail\": {}, \
             \"tail_beyond\": {}}}",
            d.name, d.unit, d.better, s.count, s.median, s.q1, s.q3, s.tail_q, s.tail, s.beyond
        );
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("[perfbench] CHECK FAILED: {what}");
            self.check_failures.push(what);
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.outcomes.mismatched == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric of
    /// `defs`. Panics when one is missing, so a run never prints a partial
    /// result.
    pub fn final_line(&self, defs: &[Def]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v =
                    self.values.get(d.name).unwrap_or_else(|| panic!("{} not measured", d.name));
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, v, d.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.outcomes.attempted().max(1),
            self.outcomes.failed(),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn final_line_has_every_metric_once() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        r.outcomes.ok = 3;
        let line = r.final_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for d in END_TO_END {
            assert_eq!(line.matches(&format!("\"{}\":", d.name)).count(), 1);
        }
    }
}
