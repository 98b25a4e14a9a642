//! The per-layer metrics of the traced run: one fixed table, so every
//! traced run prints every metric (zero where its workload does not touch
//! the layer) and `BENCHMARK.json` can be checked against it.

use crate::report::Report;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;

/// Every per-layer metric: name and unit. `BENCHMARK.json` gives each one's
/// direction.
pub const PER_LAYER: &[(&str, &str)] = &[
    // frame / protocol / client / service — per request
    ("client.request_encode_us", "us"),
    ("frame.us", "us"),
    ("protocol.request_decode_us", "us"),
    ("service.key_us", "us"),
    ("cache.probe_us", "us"),
    ("service.handle_us", "us"),
    ("protocol.reply_encode_us", "us"),
    ("client.reply_decode_us", "us"),
    ("net.unattributed_us", "us"),
    ("protocol.request_bytes", "B"),
    ("protocol.reply_bytes", "B"),
    // cache / admission — service counters of the loopback phase
    ("cache.mem_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("service.solved", "count"),
    ("service.incremental", "count"),
    ("admission.rejected", "count"),
    ("service.solve_errors", "count"),
    ("cache.mem_hit_ratio", "ratio"),
    ("cache.store_us", "us"),
    ("cache.artifacts_us", "us"),
    // resynth — per edit
    ("resynth.us", "us"),
    ("resynth.modes_reused", "count"),
    ("resynth.modes_resolved", "count"),
    ("resynth.warm_started_modes", "count"),
    ("resynth.milp_nodes", "count"),
    ("resynth.simplex_iterations", "count"),
    ("resynth.reuse_ratio", "ratio"),
    // synthesis / analyze / ilp / milp / validate / export — per system
    ("analyze.us", "us"),
    ("synthesis.us", "us"),
    ("ilp.build_us", "us"),
    ("milp.solve_us", "us"),
    ("validate.us", "us"),
    ("export.schedule_encode_us", "us"),
    ("synthesis.max_wave_width", "count"),
    ("milp.nodes", "count"),
    ("simplex.iterations", "count"),
    ("simplex.devex_resets", "count"),
    ("presolve.rows_removed", "count"),
    ("presolve.cols_removed", "count"),
    ("cuts.added", "count"),
    ("cuts.rounds", "count"),
    ("branch.pseudocost", "count"),
    ("branch.strong_probes", "count"),
    ("pump.incumbents", "count"),
    ("ilp.attempts", "count"),
    ("ilp.variables", "count"),
    ("ilp.constraints", "count"),
    ("analyze.fast_fails", "count"),
    ("milp.us_per_node", "us"),
    ("simplex.us_per_iteration", "us"),
    ("ilp.useful_attempt_ratio", "ratio"),
    ("pump.hit_ratio", "ratio"),
    ("schedule.rounds", "count"),
    ("schedule.latency_ms", "ms"),
    // runtime / netsim
    ("runtime.build_us", "us"),
    ("runtime.mode_change_us", "us"),
    ("runtime.round_us", "us"),
    ("netsim.flood_us", "us"),
    ("runtime.beacon_codec_ns", "ns"),
    ("runtime.rounds", "count"),
    ("runtime.beacons_missed", "count"),
    ("runtime.beacons_corrupted", "count"),
    ("runtime.rounds_skipped", "count"),
    ("runtime.messages_attempted", "count"),
    ("runtime.messages_delivered", "count"),
    ("runtime.collisions", "count"),
    ("runtime.resync_dropouts", "count"),
    ("runtime.rejoins", "count"),
    ("runtime.host_crash_rounds", "count"),
    ("runtime.mode_changes", "count"),
    ("runtime.safety_violations", "count"),
    ("runtime.delivery_ratio", "ratio"),
    ("runtime.radio_duty", "ratio"),
    // the trace itself — per operation of the replay
    ("trace.e2e_us", "us"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Span name → the per-layer metric carrying its self time.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("client.request_encode", "client.request_encode_us"),
    ("frame", "frame.us"),
    ("protocol.request_decode", "protocol.request_decode_us"),
    ("service.key", "service.key_us"),
    ("cache.probe", "cache.probe_us"),
    ("service.handle", "service.handle_us"),
    ("protocol.reply_encode", "protocol.reply_encode_us"),
    ("client.reply_decode", "client.reply_decode_us"),
    ("cache.store", "cache.store_us"),
    ("cache.artifacts", "cache.artifacts_us"),
    ("resynth", "resynth.us"),
    ("analyze", "analyze.us"),
    ("synthesis", "synthesis.us"),
    ("ilp.build", "ilp.build_us"),
    ("milp.solve", "milp.solve_us"),
    ("validate", "validate.us"),
    ("export.schedule_encode", "export.schedule_encode_us"),
    ("runtime.build", "runtime.build_us"),
    ("runtime.mode_change", "runtime.mode_change_us"),
    ("runtime.rounds", "runtime.round_us"),
    ("netsim.flood", "netsim.flood_us"),
    ("runtime.beacon_codec", "runtime.beacon_codec_ns"),
];

/// Largest share of a traced replay that may lie outside every span.
pub const MAX_UNATTRIBUTED: f64 = 0.10;

/// Per-layer values collected by one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets metric `name`, which must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Sets every span's self time per operation (µs), the unattributed
    /// bucket and the in-process end-to-end time of the traced replay.
    ///
    /// Self times sum to the top-level spans' durations by construction, so
    /// layers plus `unattributed` equal the end-to-end time by definition.
    /// What can fail is coverage: the check is that the time outside every
    /// span — loop work and the benchmark's own checks — is no more than
    /// [`MAX_UNATTRIBUTED`] of the replay, so layer time cannot silently fall
    /// outside the spans.
    pub fn absorb_trace(&mut self, tracer: &Tracer, traced_s: f64, ops: f64, report: &mut Report) {
        let e2e_ns = traced_s * 1e9;
        for (span, time) in tracer.self_times() {
            let Some(&(_, metric)) = SPAN_METRICS.iter().find(|(s, _)| *s == span) else {
                report.check(false, || format!("span {span} has no per-layer metric"));
                continue;
            };
            self.set(metric, time.self_ns as f64 / 1e3 / ops);
        }
        let unattributed_ns = e2e_ns - tracer.attributed_ns() as f64;
        self.set("trace.unattributed_us", unattributed_ns / 1e3 / ops);
        self.set("trace.e2e_us", e2e_ns / 1e3 / ops);
        let share = unattributed_ns / e2e_ns.max(1.0);
        report.check((0.0..=MAX_UNATTRIBUTED).contains(&share), || {
            format!(
                "trace.unattributed_us is {:.1}% of the traced replay, outside 0-{:.0}%",
                100.0 * share,
                100.0 * MAX_UNATTRIBUTED
            )
        });
        report.note(format!(
            "layers: {:.1}% of the traced replay attributed, {:.1}% unattributed",
            100.0 * (1.0 - share),
            100.0 * share
        ));
    }

    /// Self time per call of `span` in `unit_ns` units, or 0 when absent.
    pub fn per_call(tracer: &Tracer, span: &str, count: f64, unit_ns: f64) -> f64 {
        tracer
            .self_times()
            .get(span)
            .map_or(0.0, |t| t.self_ns as f64 / unit_ns / count.max(1.0))
    }

    /// Writes the spans next to the run's other outputs.
    pub fn write_spans(&self, tracer: &Tracer, path: &Path, report: &mut Report) {
        if let Err(e) = tracer.write_jsonl(path) {
            report.check(false, || {
                format!("writing spans to {}: {e}", path.display())
            });
        } else {
            report.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            ));
        }
    }

    /// Moves every per-layer metric into the report, zero where unset.
    pub fn into_report(self, report: &mut Report) {
        for &(name, _) in PER_LAYER {
            report.metric(name, self.values.get(name).copied().unwrap_or(0.0));
        }
    }
}
