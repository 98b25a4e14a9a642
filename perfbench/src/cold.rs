//! `cold_synthesis`: in-process `synthesize_system` (ILP backend,
//! `AnalyzeFirst` on, no cache) in repeated passes over a fixed set, each
//! pass in a seeded order, plus its traced replay.

use crate::inputs::{self, cold_set, ColdCase};
use crate::layers::Layers;
use crate::pct;
use crate::report::{deadline, timed_setup, Report};
use crate::trace::{paired, Tracer};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use ttw_analyze::analyze_system;
use ttw_core::export::system_schedule_to_json;
use ttw_core::ilp::build_ilp_inherited;
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer, SystemSynthesisError};
use ttw_core::validate::validate_system_schedule;
use ttw_core::{InheritedOffsets, ScheduleError, SystemSchedule};
use ttw_milp::{SolveParams, Status};
use ttw_netsim::rng::SplitMix64;

type Outcome = Result<SystemSchedule, Box<SystemSynthesisError>>;

/// Checks one outcome against the case's known verdict and the validator;
/// `true` when it is correct.
fn check_outcome(report: &mut Report, index: usize, case: &ColdCase, outcome: &Outcome) -> bool {
    let scenario = &case.scenario;
    match (outcome, case.infeasible) {
        (Ok(schedule), false) => {
            let violations =
                validate_system_schedule(&scenario.system, &scenario.scheduler_config(), schedule);
            report.check(violations.is_empty(), || {
                format!("case {index}: {} validator violations", violations.len())
            })
        }
        (Err(e), true) => report.check(
            matches!(e.error, ScheduleError::Infeasible { .. })
                && e.partial.total_analyze_fast_fails() >= 1,
            || format!("case {index}: infeasible, but not rejected by the analyzer: {e}"),
        ),
        (Ok(_), true) => report.check(false, || {
            format!("case {index}: an infeasible scenario was scheduled")
        }),
        (Err(e), false) => report.check(false, || format!("case {index}: {e}")),
    }
}

/// Work counters of one outcome that must repeat exactly.
fn pin_counters(report: &mut Report, index: usize, outcome: &Outcome) {
    let schedule = match outcome {
        Ok(schedule) => schedule,
        Err(e) => &e.partial,
    };
    report.repeat_counter(
        &format!("case.{index:02}.milp_nodes"),
        schedule.total_milp_nodes() as u64,
    );
    report.repeat_counter(
        &format!("case.{index:02}.simplex_iterations"),
        schedule.total_simplex_iterations() as u64,
    );
}

/// Sum of `R_M` over the scheduled modes and of the application latencies
/// (ms) over them: the energy and latency the paper's synthesis minimises.
fn schedule_quality(schedule: &SystemSchedule) -> (usize, f64) {
    schedule
        .iter()
        .fold((0, 0.0), |(rounds, latency_ms), (_, mode)| {
            (
                rounds + mode.num_rounds(),
                latency_ms + mode.total_latency / 1e3,
            )
        })
}

fn synthesize(case: &ColdCase) -> Outcome {
    let scenario = &case.scenario;
    synthesize_system(
        &scenario.system,
        &scenario.graph,
        &scenario.scheduler_config(),
        &IlpSynthesizer::default(),
    )
}

/// `cold_synthesis`, untraced: end-to-end metrics.
pub fn cold_synthesis(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (cases, setup_s) = timed_setup(3, || {
        let cases = cold_set();
        // Let lazy start-up costs (allocator arenas, page faults on the
        // solver's code) land before the timed window.
        let warm_up = ColdCase {
            scenario: inputs::warm_up(),
            infeasible: false,
        };
        let _ = synthesize(&warm_up);
        cases
    });
    report.metric("setup_s", setup_s);

    let end = deadline(seconds);
    let mut pass_seconds = Vec::new();
    let mut samples = Vec::new();
    // Each case is the same deterministic work on every pass (its counters
    // are pinned), and interference from outside the process only ever adds
    // time, so a case's fastest pass is its least disturbed cost.
    let mut fastest = vec![f64::INFINITY; cases.len()];
    let (mut rounds, mut latency_ms) = (0, 0.0);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let mut rng = SplitMix64::new(inputs::derive(seed, 250));
    let start = Instant::now();
    loop {
        inputs::shuffle(&mut order, &mut rng);
        let pass_start = Instant::now();
        for &i in &order {
            let case = &cases[i];
            let t = Instant::now();
            let outcome = synthesize(case);
            let micros = t.elapsed().as_secs_f64() * 1e6;
            samples.push(micros);
            fastest[i] = fastest[i].min(micros);
            report.attempted += 1;
            if !check_outcome(&mut report, i, case, &outcome) {
                report.failed += 1;
            }
            pin_counters(&mut report, i, &outcome);
            if let (true, Ok(schedule)) = (pass_seconds.is_empty(), &outcome) {
                let (r, l) = schedule_quality(schedule);
                rounds += r;
                latency_ms += l;
            }
        }
        pass_seconds.push(pass_start.elapsed().as_secs_f64());
        if Instant::now() >= end {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.counter("sched_rounds", rounds as u64);
    report.counter("sched_latency_ns", (latency_ms * 1e6).round() as u64);

    let passes = pass_seconds.len();
    report.op_latency(
        &format!("one system, fastest of {passes} passes"),
        &fastest,
        cases.len() as u64,
    );
    report.latency_note("one system, every pass", &samples, samples.len() as u64);
    let fastest_pass = pass_seconds.iter().copied().fold(f64::INFINITY, f64::min);
    report.metric("throughput_per_s", cases.len() as f64 / fastest_pass);
    report.note(format!(
        "synth_total_s {:.4} s (median of {passes} passes over {} cases); {:.3} systems/s over the whole run",
        pct::median(&pass_seconds).unwrap_or(0.0),
        cases.len(),
        samples.len() as f64 / elapsed
    ));
    report.note(format!(
        "sched_rounds {rounds} count; sched_latency_ms {latency_ms:.3} ms over {} cases",
        cases.len()
    ));
    report
}

/// What the traced half of the replay adds up over the cases.
#[derive(Default)]
struct ColdTotals {
    /// `SynthesisStats` fields in the order of [`STAT_METRICS`].
    stats: [usize; 14],
    max_wave: usize,
    cases: usize,
    modes: usize,
    rounds: usize,
    latency_ms: f64,
}

/// Per-layer metrics carrying the summed `SynthesisStats` fields.
const STAT_METRICS: [&str; 14] = [
    "milp.nodes",
    "simplex.iterations",
    "simplex.devex_resets",
    "presolve.rows_removed",
    "presolve.cols_removed",
    "cuts.added",
    "cuts.rounds",
    "branch.pseudocost",
    "branch.strong_probes",
    "pump.incumbents",
    "ilp.attempts",
    "ilp.variables",
    "ilp.constraints",
    "analyze.fast_fails",
];

/// Replays case `index` through every layer of the synthesis path, in
/// pipeline order: analyze, synthesize, then each mode's final-`R_M` model
/// (pinned exactly as the pipeline pinned it) built and solved once more on
/// its own, validate, export.
fn cold_replay(
    tracer: &mut Tracer,
    index: usize,
    case: &ColdCase,
    totals: &mut ColdTotals,
    report: &mut Report,
) {
    tracer.set_request(index as u64);
    let s = &case.scenario;
    let config = s.scheduler_config();
    let analysis = tracer.span("analyze", |_| analyze_system(&s.system, &s.graph, &config));
    black_box(analysis);
    let outcome = tracer.span("synthesis", |_| synthesize(case));
    if !check_outcome(report, index, case, &outcome) {
        report.failed += 1;
    }
    pin_counters(report, index, &outcome);
    let waves = s.graph.synthesis_waves(&s.system);
    totals.max_wave = waves
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .max(totals.max_wave);
    totals.cases += 1;
    let schedule = match &outcome {
        Ok(schedule) => schedule,
        Err(e) => &e.partial,
    };
    for stats in schedule.stats.values() {
        let fields = [
            stats.milp_nodes,
            stats.simplex_iterations,
            stats.devex_resets,
            stats.presolve_rows_removed,
            stats.presolve_cols_removed,
            stats.cuts_added,
            stats.cut_rounds,
            stats.pseudocost_branchings,
            stats.strong_branch_probes,
            stats.pump_incumbents,
            stats.rounds_attempted.len(),
            stats.variables,
            stats.constraints,
            stats.analyze_fast_fails,
        ];
        for (sum, value) in totals.stats.iter_mut().zip(fields) {
            *sum += value;
        }
    }
    let Ok(schedule) = outcome else { return };
    totals.modes += schedule.num_modes();
    let (rounds, latency_ms) = schedule_quality(&schedule);
    totals.rounds += rounds;
    totals.latency_ms += latency_ms;
    // The testkit caps `max_nodes` for its scenarios so that a pathological
    // draw fails fast. The pipeline solved every final model within that
    // cap, but the same model solved on its own can need more nodes, so it
    // is re-solved under the solver's default budget: the check below is on
    // the model, not on the cap.
    let mut resolve_config = config.clone();
    resolve_config.solver.max_nodes = SolveParams::default().max_nodes;
    for (mode, mode_schedule) in schedule.iter() {
        let mut inherited = InheritedOffsets::none();
        for (&app, &donor) in schedule.inheritance.get(&mode).into_iter().flatten() {
            if let Some(donor_schedule) = schedule.get(donor) {
                inherited.import_application(&s.system, app, donor_schedule);
            }
        }
        let built = tracer.span("ilp.build", |_| {
            build_ilp_inherited(
                &s.system,
                mode,
                &resolve_config,
                mode_schedule.num_rounds(),
                &inherited,
            )
        });
        let solved = match built {
            Ok(mut instance) => tracer.span("milp.solve", |_| instance.solve()).ok(),
            Err(_) => None,
        };
        report.check(
            matches!(solved, Some(ref sol) if sol.status == Status::Optimal),
            || {
                format!(
                    "case {index}: the final model of mode {mode} does not re-solve to optimality"
                )
            },
        );
    }
    let violations = tracer.span("validate", |_| {
        validate_system_schedule(&s.system, &config, &schedule)
    });
    black_box(violations);
    let encoded = tracer.span("export.schedule_encode", |_| {
        system_schedule_to_json(&schedule)
    });
    report.check(encoded.is_ok(), || {
        format!("case {index}: schedule does not encode")
    });
}

/// `cold_synthesis`, traced: the set replayed case by case, untraced and
/// traced in turn, for at least one full pass.
pub fn cold_synthesis_traced(seed: u64, seconds: f64, trace_out: &Path) -> Report {
    let mut report = Report::default();
    let cases = cold_set();
    let mut order: Vec<usize> = (0..cases.len()).collect();
    inputs::shuffle(&mut order, &mut SplitMix64::new(inputs::derive(seed, 250)));
    let mut layers = Layers::default();

    let mut tracer = Tracer::new(true);
    let mut totals = ColdTotals::default();
    let run = paired(&mut tracer, seconds / 2.0, cases.len(), |tracer, chunk| {
        let index = order[chunk % cases.len()];
        let mut scratch = ColdTotals::default();
        let sink = if tracer.enabled() {
            &mut totals
        } else {
            &mut scratch
        };
        cold_replay(tracer, index, &cases[index], sink, &mut report);
    });
    report.attempted += 2 * run.chunks as u64;

    let n = totals.cases as f64;
    for (name, sum) in STAT_METRICS.into_iter().zip(totals.stats) {
        layers.set(name, sum as f64 / n);
    }
    let attempts = totals.stats[10].max(1) as f64;
    layers.set("synthesis.max_wave_width", totals.max_wave as f64);
    layers.set("ilp.useful_attempt_ratio", totals.modes as f64 / attempts);
    layers.set("pump.hit_ratio", totals.stats[9] as f64 / attempts);
    layers.set("schedule.rounds", totals.rounds as f64 / n);
    layers.set("schedule.latency_ms", totals.latency_ms / n);
    let synthesis_us = Layers::per_call(&tracer, "synthesis", 1.0, 1e3);
    layers.set(
        "milp.us_per_node",
        synthesis_us / totals.stats[0].max(1) as f64,
    );
    layers.set(
        "simplex.us_per_iteration",
        synthesis_us / totals.stats[1].max(1) as f64,
    );
    layers.absorb_trace(&tracer, run.traced_s, n, &mut report);
    layers.set("trace.overhead_frac", run.overhead_frac());
    report.note(format!(
        "replayed {} cases in-process: {:.1} us untraced, {:.1} us traced per case",
        totals.cases,
        run.plain_s * 1e6 / n,
        run.traced_s * 1e6 / n
    ));
    layers.write_spans(&tracer, trace_out, &mut report);
    layers.into_report(&mut report);
    report
}
