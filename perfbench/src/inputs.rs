//! Workload inputs. Everything the system under test receives is generated
//! here, from the workload seed or from a fixed reference stream; the same
//! seed always gives the same inputs.

use ttw_core::synthesis::{synthesize_system, IlpSynthesizer};
use ttw_core::{System, SystemSchedule, TaskId};
use ttw_netsim::rng::SplitMix64;
use ttw_service::{BackendKind, BudgetCaps, SynthesizeRequest};
use ttw_testkit::{generate, GeneratorConfig, GraphShape, InfeasibleKind, Scenario};

/// A decorrelated sub-seed for input stream `stream` of workload seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Shuffles `order` in place (Fisher–Yates).
pub fn shuffle(order: &mut [usize], rng: &mut SplitMix64) {
    for j in (1..order.len()).rev() {
        order.swap(j, rng.next_u64() as usize % (j + 1));
    }
}

/// A synthesis request for `scenario` on the ILP backend, no budget caps.
pub fn request_for(scenario: &Scenario) -> SynthesizeRequest {
    request_with(scenario.system.clone(), scenario)
}

/// A synthesis request for `system` over `scenario`'s graph and config.
pub fn request_with(system: System, scenario: &Scenario) -> SynthesizeRequest {
    SynthesizeRequest {
        system,
        graph: scenario.graph.clone(),
        config: scenario.scheduler_config(),
        backend: BackendKind::Ilp,
        budget: BudgetCaps::default(),
    }
}

/// Stream of the reference systems that do not vary with the seed.
const REFERENCE: u64 = 0x7477_7731;

/// The `warm_hits` working set, the same for every seed: a
/// `GeneratorConfig::bench` chain and diamond for every mode count 2, 4, …,
/// 16 of the reference stream. The seed drives the request sequence.
pub fn working_set() -> Vec<Scenario> {
    let mut set = Vec::new();
    for (s, shape) in [GraphShape::Chain, GraphShape::Diamond]
        .into_iter()
        .enumerate()
    {
        for k in 0..8u64 {
            set.push(generate(
                &GeneratorConfig::bench(2 + 2 * k as usize, shape),
                derive(REFERENCE, 100 + 16 * s as u64 + k),
            ));
        }
    }
    set
}

/// One `cold_synthesis` scenario with its known verdict.
pub struct ColdCase {
    /// The scenario.
    pub scenario: Scenario,
    /// `true` for the `GeneratorConfig::infeasible` family.
    pub infeasible: bool,
}

/// Mode counts of the feasible `cold_synthesis` cases, per shape.
pub const COLD_MODE_COUNTS: [usize; 8] = [2, 4, 6, 8, 10, 12, 14, 16];

/// The `cold_synthesis` set, the same for every seed: a
/// `GeneratorConfig::bench` chain and diamond of the reference stream for
/// every mode count in [`COLD_MODE_COUNTS`], plus one scenario of every
/// `GeneratorConfig::infeasible` kind, which the analyzer must reject
/// before any ILP is built. The seed drives the order of every pass.
pub fn cold_set() -> Vec<ColdCase> {
    let mut cases = Vec::new();
    for (s, shape) in [GraphShape::Chain, GraphShape::Diamond]
        .into_iter()
        .enumerate()
    {
        for (i, &n) in COLD_MODE_COUNTS.iter().enumerate() {
            let sub = derive(REFERENCE, 200 + 16 * s as u64 + i as u64);
            cases.push(ColdCase {
                scenario: generate(&GeneratorConfig::bench(n, shape), sub),
                infeasible: false,
            });
        }
    }
    let kinds = [
        InfeasibleKind::OverUtilized,
        InfeasibleKind::ImpossibleDeadline,
        InfeasibleKind::OverCapacityRounds,
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let shape = if i % 2 == 0 {
            GraphShape::Chain
        } else {
            GraphShape::Diamond
        };
        cases.push(ColdCase {
            scenario: generate(
                &GeneratorConfig::infeasible(4, shape, kind),
                derive(REFERENCE, 300 + i as u64),
            ),
            infeasible: true,
        });
    }
    cases
}

/// The `edit_stream` chain, the same for every seed: the first feasible
/// 8-mode `GeneratorConfig::small` chain of stream 400 of seed 1, whose
/// edits are quick enough for a p99 from one run. The seed drives the edit
/// walk and the reads. Lowering a WCET never makes a feasible system
/// infeasible, so every edit of the walk stays feasible.
pub fn edit_chain() -> Scenario {
    first_feasible(1, 400, GeneratorConfig::small(8, GraphShape::Chain)).0
}

/// A fixed `GeneratorConfig::bench` chain, synthesized once before timing
/// so that lazy start-up costs do not land in the first timed operation.
pub fn warm_up() -> Scenario {
    generate(
        &GeneratorConfig::bench(2, GraphShape::Chain),
        derive(REFERENCE, 450),
    )
}

/// The first scenario of `family` on stream `stream` of `seed` that the ILP
/// backend schedules, with its schedule.
fn first_feasible(seed: u64, stream: u64, family: GeneratorConfig) -> (Scenario, SystemSchedule) {
    for attempt in 0..64 {
        let scenario = generate(&family, derive(seed, stream + 1000 * attempt));
        if let Ok(schedule) = synthesize_system(
            &scenario.system,
            &scenario.graph,
            &scenario.scheduler_config(),
            &IlpSynthesizer::default(),
        ) {
            return (scenario, schedule);
        }
    }
    panic!("no feasible scenario in 64 attempts for seed {seed}");
}

/// Tasks of the applications that run in exactly one mode of `system` —
/// the ones an admission edit may touch without disturbing inheritance.
pub fn private_tasks(system: &System) -> Vec<TaskId> {
    let mut tasks = Vec::new();
    for (app_id, app) in system.applications() {
        if system.modes_of_application(app_id).len() == 1 {
            tasks.extend(app.tasks.iter().copied());
        }
    }
    tasks
}

/// The seeded edit walk: edit `k` lowers the WCET of task `walk[k]` by 1 µs
/// on top of edits `0..k`. Each step picks uniformly among the `tasks`
/// whose WCET is still above 1 µs; the walk ends after `len` steps or when
/// no task can be lowered any more.
pub fn edit_walk(seed: u64, system: &System, tasks: &[TaskId], len: usize) -> Vec<TaskId> {
    let mut rng = SplitMix64::new(derive(seed, 401));
    let mut wcet: Vec<_> = tasks.iter().map(|&t| system.task(t).wcet).collect();
    let mut walk = Vec::with_capacity(len);
    while walk.len() < len {
        let open: Vec<usize> = (0..tasks.len()).filter(|&i| wcet[i] > 1).collect();
        if open.is_empty() {
            break;
        }
        let i = open[rng.next_u64() as usize % open.len()];
        wcet[i] -= 1;
        walk.push(tasks[i]);
    }
    walk
}

/// The system after the first `k` edits of `walk`.
pub fn edited(base: &System, walk: &[TaskId], k: usize) -> System {
    let mut system = base.clone();
    for &task in &walk[..k] {
        let wcet = system.task(task).wcet;
        system
            .set_task_wcet(task, wcet - 1)
            .expect("edit walks stay far above zero WCET");
    }
    system
}

/// The `runtime_faults` fixture: a synthesized 4-mode system.
pub struct RuntimeFixture {
    /// The system.
    pub scenario: Scenario,
    /// Its schedule.
    pub schedule: SystemSchedule,
}

/// Synthesizes the `runtime_faults` system, the same for every seed: the
/// first feasible `GeneratorConfig::small` 4-mode diamond of the reference
/// stream. The seed drives the fault plans and the mode-change storms.
pub fn runtime_fixture() -> RuntimeFixture {
    let (scenario, schedule) = first_feasible(
        REFERENCE,
        500,
        GeneratorConfig::small(4, GraphShape::Diamond),
    );
    RuntimeFixture { scenario, schedule }
}
