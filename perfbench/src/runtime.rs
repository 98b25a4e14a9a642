//! `runtime_faults`: a synthesized multi-mode system simulated under seeded
//! compound fault plans with a seeded mode-change storm, alternating the
//! two safe beacon-loss policies, plus its traced replay.

use crate::inputs::{self, runtime_fixture, RuntimeFixture};
use crate::layers::Layers;
use crate::pct::Samples;
use crate::report::{deadline, timed_setup, Report};
use crate::trace::{paired, Tracer};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use ttw_core::ModeId;
use ttw_netsim::rng::SplitMix64;
use ttw_netsim::{simulate_flood, FaultPlan, FloodConfig, LinkModel, Topology};
use ttw_runtime::{Beacon, BeaconLossPolicy, RuntimeStats, Simulation, SimulationConfig};
use ttw_testkit::{generate_fault_plan, FaultKind};

/// Distinct fault plans per run; each is run under both policies.
const PLANS: usize = 64;
/// Storms in one plan x policy cycle. The first two cycles of every run
/// pin their counters: the second must repeat the first exactly.
const CYCLE: usize = 2 * PLANS;
/// Hyperperiods per storm, one mode-change request before each.
const STORM_HYPERPERIODS: usize = 8;
/// Hop diameter of the clustered topology.
const DIAMETER: usize = 4;
/// Fault-free per-link loss floor.
const BASE_LINK_LOSS: f64 = 0.05;
/// Miss budget of the `Resync` policy.
const RESYNC_MAX_MISSES: u32 = 2;

struct Setup {
    fixture: RuntimeFixture,
    modes: Vec<ModeId>,
    plans: Vec<FaultPlan>,
}

fn setup(seed: u64) -> Setup {
    let fixture = runtime_fixture();
    let modes = fixture.scenario.modes();
    let probe = build(&fixture, BeaconLossPolicy::SkipRound, None, 0);
    let horizon = probe.rounds_per_hyperperiod() * STORM_HYPERPERIODS;
    let nodes = fixture.scenario.system.num_nodes();
    let plans = (0..PLANS as u64)
        .map(|j| {
            generate_fault_plan(
                FaultKind::Compound,
                nodes,
                horizon,
                inputs::derive(seed, 600 + j),
            )
        })
        .collect();
    Setup {
        fixture,
        modes,
        plans,
    }
}

fn policy(op: usize) -> BeaconLossPolicy {
    if (op / PLANS).is_multiple_of(2) {
        BeaconLossPolicy::SkipRound
    } else {
        BeaconLossPolicy::Resync {
            max_misses: RESYNC_MAX_MISSES,
        }
    }
}

fn build(
    fixture: &RuntimeFixture,
    policy: BeaconLossPolicy,
    plan: Option<FaultPlan>,
    seed: u64,
) -> Simulation {
    let config = SimulationConfig {
        link_loss: BASE_LINK_LOSS,
        seed,
        policy,
        faults: plan,
        ..SimulationConfig::default()
    };
    Simulation::clustered_from_system_schedule(
        &fixture.scenario.system,
        &fixture.schedule,
        fixture.scenario.graph.root(),
        DIAMETER,
        config,
    )
    .expect("the synthesized schedule simulates")
}

/// One storm: the operation both runs time. Returns the finished
/// simulation and the mode-change requests it refused.
fn storm(tracer: &mut Tracer, setup: &Setup, seed: u64, op: usize) -> (Simulation, usize) {
    let slot = op % CYCLE;
    let plan = setup.plans[op % PLANS].clone();
    let mut sim = tracer.span("runtime.build", |_| {
        build(
            &setup.fixture,
            policy(op),
            Some(plan),
            inputs::derive(seed, 650 + slot as u64),
        )
    });
    let mut rng = SplitMix64::new(inputs::derive(seed, 700 + slot as u64));
    let mut refused = 0;
    for _ in 0..STORM_HYPERPERIODS {
        let target = setup.modes[rng.next_u64() as usize % setup.modes.len()];
        if tracer
            .span("runtime.mode_change", |_| sim.request_mode_change(target))
            .is_err()
        {
            refused += 1;
        }
        let rounds = sim.rounds_per_hyperperiod();
        tracer.span("runtime.rounds", |_| {
            sim.run_rounds(rounds);
        });
    }
    (sim, refused)
}

/// The `RuntimeStats` counters plus the safety monitor's total, by their
/// per-layer metric names.
const COUNTERS: [&str; 12] = [
    "runtime.rounds",
    "runtime.beacons_missed",
    "runtime.beacons_corrupted",
    "runtime.rounds_skipped",
    "runtime.messages_attempted",
    "runtime.messages_delivered",
    "runtime.collisions",
    "runtime.resync_dropouts",
    "runtime.rejoins",
    "runtime.host_crash_rounds",
    "runtime.mode_changes",
    "runtime.safety_violations",
];

fn counter_values(sim: &Simulation) -> [usize; 12] {
    let s: &RuntimeStats = sim.stats();
    [
        s.rounds_executed,
        s.beacons_missed,
        s.beacons_corrupted,
        s.rounds_skipped,
        s.messages_attempted,
        s.messages_delivered,
        s.collisions,
        s.resync_dropouts,
        s.rejoins,
        s.host_crash_rounds,
        s.mode_changes,
        sim.safety().total_violations(),
    ]
}

/// Checks one finished storm, and pins its counters when `pin`; `true`
/// when correct.
fn check_storm(
    report: &mut Report,
    op: usize,
    sim: &Simulation,
    refused: usize,
    pin: bool,
) -> bool {
    if pin {
        let slot = op % CYCLE;
        for (name, value) in COUNTERS.iter().zip(counter_values(sim)) {
            report.repeat_counter(&format!("storm.{slot:03}.{name}"), value as u64);
        }
    }
    let violations = sim.safety().total_violations();
    let collisions = sim.stats().collisions;
    report.check(violations == 0 && collisions == 0 && refused == 0, || {
        format!(
            "storm {op} ({:?}): {violations} safety violations, {collisions} collisions, {refused} refused mode changes",
            policy(op)
        )
    })
}

/// Delivery ratio and mean radio duty cycle over a set of storms.
#[derive(Default)]
struct Reliability {
    attempted: usize,
    delivered: usize,
    duty_sum: f64,
    storms: usize,
}

impl Reliability {
    fn absorb(&mut self, sim: &Simulation) {
        let stats = sim.stats();
        self.attempted += stats.messages_attempted;
        self.delivered += stats.messages_delivered;
        self.duty_sum += sim
            .radio()
            .average_duty_cycle(stats.elapsed_micros as f64 / 1e6);
        self.storms += 1;
    }

    fn delivery_ratio(&self) -> f64 {
        self.delivered as f64 / self.attempted.max(1) as f64
    }

    fn radio_duty(&self) -> f64 {
        self.duty_sum / self.storms.max(1) as f64
    }
}

/// `runtime_faults`, untraced: end-to-end metrics.
pub fn runtime_faults(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (setup, setup_s) = timed_setup(3, || setup(seed));
    report.metric("setup_s", setup_s);

    // Every slot of the plan x policy cycle is the same deterministic storm
    // on every cycle (its counters are pinned), and interference from
    // outside the process only ever adds time, so the gated figures are
    // each slot's fastest storm and the fastest full cycle.
    let end = deadline(seconds);
    let mut samples = Samples::default();
    let mut fastest = vec![f64::INFINITY; CYCLE];
    let (mut cycle_s, mut fastest_cycle_s, mut cycle_rounds) = (0.0, f64::INFINITY, 0);
    let mut first_cycle = Reliability::default();
    let mut plain = Tracer::new(false);
    let start = Instant::now();
    let mut op = 0;
    while Instant::now() < end || op < 2 * CYCLE {
        let t = Instant::now();
        let (sim, refused) = storm(&mut plain, &setup, seed, op);
        let storm_s = t.elapsed().as_secs_f64();
        let rounds = sim.stats().rounds_executed;
        samples.record(storm_s * 1e6, start.elapsed().as_secs_f64(), rounds as f64);
        let slot = op % CYCLE;
        fastest[slot] = fastest[slot].min(storm_s * 1e6);
        cycle_s += storm_s;
        if slot + 1 == CYCLE {
            fastest_cycle_s = f64::min(fastest_cycle_s, cycle_s);
            cycle_s = 0.0;
        }
        report.attempted += 1;
        if !check_storm(&mut report, op, &sim, refused, op < 2 * CYCLE) {
            report.failed += 1;
        }
        if op < CYCLE {
            first_cycle.absorb(&sim);
            cycle_rounds += rounds;
        }
        op += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let (delivery, duty) = (first_cycle.delivery_ratio(), first_cycle.radio_duty());
    report.counter("delivery_ratio_ppm", (delivery * 1e6).round() as u64);
    report.counter("radio_duty_ppm", (duty * 1e6).round() as u64);

    report.op_latency(
        &format!(
            "storm (build + 8 hyperperiods), fastest of {} cycles",
            op / CYCLE
        ),
        &fastest,
        CYCLE as u64,
    );
    report.latency_note(
        "storm (build + 8 hyperperiods), every storm",
        samples.latencies(),
        samples.count(),
    );
    let rate = cycle_rounds as f64 / fastest_cycle_s;
    report.metric("throughput_per_s", rate);
    report.note(format!(
        "sim_rounds_per_s {rate:.1} 1/s in the fastest cycle, {:.1} 1/s as the median over one-second windows",
        samples.rate(elapsed)
    ));
    report.note(format!(
        "delivery_ratio {delivery:.6}; radio_duty {duty:.6} (over the {CYCLE} storms of one plan x policy cycle)"
    ));
    report
}

/// Replays the storms `ops` through the runtime, plus one Glossy flood per
/// executed round on the same topology and one beacon encode/decode per
/// round. Adds the rounds executed and the mode changes requested to
/// `counts`.
fn runtime_replay(
    tracer: &mut Tracer,
    setup: &Setup,
    seed: u64,
    ops: std::ops::Range<usize>,
    counts: &mut (usize, usize),
    report: &mut Report,
) {
    let nodes = setup.fixture.scenario.system.num_nodes() + 1;
    let topology = Topology::clustered_line(DIAMETER, nodes.div_ceil(DIAMETER + 1).max(1));
    let mut links =
        LinkModel::uniform(BASE_LINK_LOSS, inputs::derive(seed, 800 + ops.start as u64));
    let flood = FloodConfig::default();
    for op in ops {
        tracer.set_request(op as u64);
        let (sim, refused) = storm(tracer, setup, seed, op);
        if !check_storm(report, op, &sim, refused, op < 2 * CYCLE) {
            report.failed += 1;
        }
        let rounds = sim.stats().rounds_executed;
        tracer.span("netsim.flood", |_| {
            for _ in 0..rounds {
                black_box(simulate_flood(&topology, &mut links, 0, &flood));
            }
        });
        let codec_ok = tracer.span("runtime.beacon_codec", |_| {
            (0..rounds).all(|r| {
                let beacon = Beacon {
                    round_id: r as u8,
                    mode_id: (op % 4) as u8,
                    trigger: r % 2 == 0,
                };
                Beacon::decode(beacon.encode()) == Ok(beacon)
            })
        });
        report.check(codec_ok, || {
            format!("storm {op}: a beacon did not round-trip")
        });
        counts.0 += rounds;
        counts.1 += STORM_HYPERPERIODS;
    }
}

/// `runtime_faults`, traced: storms replayed untraced and traced in turn,
/// one plan x policy cycle per chunk.
pub fn runtime_faults_traced(seed: u64, seconds: f64, trace_out: &Path) -> Report {
    let mut report = Report::default();
    let setup = setup(seed);
    let mut layers = Layers::default();

    let mut tracer = Tracer::new(true);
    let mut counts = (0, 0);
    let run = paired(&mut tracer, seconds / 2.0, 1, |tracer, chunk| {
        let ops = chunk * CYCLE..(chunk + 1) * CYCLE;
        let mut scratch = (0, 0);
        let sink = if tracer.enabled() {
            &mut counts
        } else {
            &mut scratch
        };
        runtime_replay(tracer, &setup, seed, ops, sink, &mut report);
    });
    let ops = run.chunks * CYCLE;
    let (rounds, changes) = counts;
    report.attempted += 2 * ops as u64;

    layers.absorb_trace(&tracer, run.traced_s, ops as f64, &mut report);
    layers.set(
        "runtime.build_us",
        Layers::per_call(&tracer, "runtime.build", ops as f64, 1e3),
    );
    layers.set(
        "runtime.mode_change_us",
        Layers::per_call(&tracer, "runtime.mode_change", changes as f64, 1e3),
    );
    layers.set(
        "runtime.round_us",
        Layers::per_call(&tracer, "runtime.rounds", rounds as f64, 1e3),
    );
    layers.set(
        "netsim.flood_us",
        Layers::per_call(&tracer, "netsim.flood", rounds as f64, 1e3),
    );
    layers.set(
        "runtime.beacon_codec_ns",
        Layers::per_call(&tracer, "runtime.beacon_codec", rounds as f64, 1.0),
    );
    // Counters per storm, over one plan x policy cycle.
    let sims: Vec<Simulation> = (0..CYCLE)
        .map(|op| storm(&mut Tracer::new(false), &setup, seed, op).0)
        .collect();
    let mut sums = [0usize; 12];
    for sim in &sims {
        for (sum, value) in sums.iter_mut().zip(counter_values(sim)) {
            *sum += value;
        }
    }
    for (name, sum) in COUNTERS.into_iter().zip(sums) {
        layers.set(name, sum as f64 / sims.len() as f64);
    }
    let mut reliability = Reliability::default();
    for sim in &sims {
        reliability.absorb(sim);
    }
    layers.set("runtime.delivery_ratio", reliability.delivery_ratio());
    layers.set("runtime.radio_duty", reliability.radio_duty());
    layers.set("trace.overhead_frac", run.overhead_frac());
    report.note(format!(
        "replayed {ops} storms in-process: {:.1} us untraced, {:.1} us traced per storm",
        run.plain_s * 1e6 / ops as f64,
        run.traced_s * 1e6 / ops as f64
    ));
    layers.write_spans(&tracer, trace_out, &mut report);
    layers.into_report(&mut report);
    report
}
