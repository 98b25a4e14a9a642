//! What one workload run hands back to `main`: metrics with units, output
//! checks, work counters that must repeat exactly, and human-readable notes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The result of one benchmark run of one workload.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → value, in the unit the metric tables of `main.rs` and
    /// `layers.rs` give it.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed: errors, refusals and wrong outputs.
    pub failed: u64,
    /// Failed output checks, by name, with what was found.
    pub failures: Vec<String>,
    /// Lines printed before the result, for a human reader.
    pub notes: Vec<String>,
    /// Work counters that must read the same on every run with the same
    /// seed, by name.
    pub counters: BTreeMap<String, u64>,
}

impl Report {
    /// Records metric `name`.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records `op_p50_us`, the median latency of the workload's headline
    /// operation, from `micros` (a uniform sample of `count` operations),
    /// and notes its tail.
    pub fn op_latency(&mut self, what: &str, micros: &[f64], count: u64) {
        let p50 = crate::pct::median(micros).unwrap_or(0.0);
        self.metric("op_p50_us", p50);
        self.latency_note(what, micros, count);
    }

    /// Notes a latency distribution: p50, p90, p99, the maximum, and the
    /// highest percentile with at least ten samples beyond it, with the
    /// sample count and the number of operations sampled.
    pub fn latency_note(&mut self, what: &str, micros: &[f64], count: u64) {
        let sorted = crate::pct::sorted(micros.to_vec());
        let Some(tail) = crate::pct::highest_supported(&sorted) else {
            return;
        };
        let at = |p| crate::pct::percentile(&sorted, p).unwrap_or(0.0);
        self.note(format!(
            "{what}: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, max {:.1} us; supported tail p{} = {:.1} us; n={} of {count}",
            at(50.0),
            at(90.0),
            at(99.0),
            at(100.0),
            tail.percentile,
            tail.value,
            tail.samples
        ));
    }

    /// Records a failed output check unless `ok`. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a work counter that must repeat exactly across runs.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Checks that a counter measured again inside this run matches the
    /// first reading; drift is a failed check named after the counter.
    pub fn repeat_counter(&mut self, name: &str, value: u64) {
        match self.counters.get(name) {
            Some(&first) if first != value => self.failures.push(format!(
                "counter drift within the run: {name} = {first}, then {value}"
            )),
            Some(_) => {}
            None => {
                self.counters.insert(name.to_string(), value);
            }
        }
    }
}

/// Runs `setup` `times` times and returns the last result with the median
/// wall time, in seconds, of all repetitions.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        seconds.push(start.elapsed().as_secs_f64());
    }
    let median = crate::pct::median(&seconds).unwrap_or(0.0);
    (last.expect("at least one set-up ran"), median)
}

/// The deadline of a timed window of `seconds` starting now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
