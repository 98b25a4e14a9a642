//! The two service workloads, `warm_hits` and `edit_stream`: a real
//! `ServerHandle` on loopback TCP driven by two closed-loop `Client`
//! connections, plus their in-process traced replays.

use crate::inputs::{self, edited, request_for, request_with};
use crate::layers::Layers;
use crate::pct::Samples;
use crate::report::{deadline, timed_setup, Report};
use crate::trace::{paired, Tracer};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ttw_core::cache::{synthesis_key, ScheduleCache};
use ttw_core::export::system_schedule_to_json;
use ttw_core::resynth::resynthesize_system;
use ttw_core::synthesis::{synthesize_system, IlpSynthesizer, Synthesizer};
use ttw_core::validate::validate_system_schedule;
use ttw_core::{SystemSchedule, TaskId};
use ttw_netsim::rng::SplitMix64;
use ttw_service::frame::{read_frame, write_frame};
use ttw_service::{
    Client, Request, Response, ResynthesizeRequest, SchedulerService, ServedFrom, ServerHandle,
    ServiceConfig, StatsSnapshot,
};
use ttw_testkit::Scenario;

/// Closed-loop client connections per service workload (= cores here).
const CONNECTIONS: usize = 2;
/// Memory-tier cap of the `edit_stream` cache, far below the keys a run
/// creates, so reads of old edits come back from disk.
const EDIT_MEMORY_CAP: usize = 48;
/// Upper bound on the edits one run can walk.
const MAX_EDITS: usize = 200_000;
/// Edits whose per-edit solver counters are pinned across runs.
const PINNED_EDITS: usize = 64;
/// Requests per chunk of the paired `warm_hits` replay.
const WARM_CHUNK: usize = 16;
/// Edits per chunk of the paired `edit_stream` replay.
const EDIT_CHUNK: usize = 8;

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// A server on loopback plus the temp directory of its disk tier, removed
/// on drop.
struct Server {
    handle: ServerHandle,
    service: Arc<SchedulerService>,
    _dir: Option<TempDir>,
}

impl Server {
    fn start(config: ServiceConfig, dir: Option<TempDir>) -> Server {
        let service = Arc::new(SchedulerService::new(config));
        let handle =
            ServerHandle::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
        Server {
            handle,
            service,
            _dir: dir,
        }
    }
}

/// A scratch directory under the run's output directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, empty directory `name` under `root`.
    fn new(root: &Path, name: &str) -> TempDir {
        let path = root.join(format!("tmp-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        TempDir(path)
    }

    /// Its path.
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The round trips one client thread measured, plus its failures.
#[derive(Default)]
struct ClientLog {
    samples: Samples,
    failed: u64,
    failures: Vec<String>,
}

impl ClientLog {
    /// Times one round trip that started at `t`, in a window opened at
    /// `window`.
    fn record(&mut self, t: Instant, window: Instant) {
        self.samples.record(
            t.elapsed().as_secs_f64() * 1e6,
            window.elapsed().as_secs_f64(),
            1.0,
        );
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(what);
        }
    }
}

fn schedule_of(response: Response) -> Result<ttw_service::ScheduleReply, String> {
    match response {
        Response::Schedule(reply) => Ok(*reply),
        Response::Error { message } => Err(format!("server error: {message}")),
        Response::Stats(_) => Err("unexpected stats reply".into()),
        Response::ShutdownAck => Err("unexpected shutdown ack".into()),
    }
}

fn check_stats(report: &mut Report, snapshot: &StatsSnapshot) {
    report.check(snapshot.reconciles(), || {
        format!("service counters do not reconcile: {snapshot:?}")
    });
}

fn stats_layers(layers: &mut Layers, snapshot: &StatsSnapshot) {
    layers.set("cache.mem_hits", snapshot.cache_mem_hits as f64);
    layers.set("cache.disk_hits", snapshot.cache_disk_hits as f64);
    layers.set("cache.misses", snapshot.cache_misses as f64);
    layers.set("cache.evictions", snapshot.cache_evictions as f64);
    layers.set("service.solved", snapshot.solved as f64);
    layers.set("service.incremental", snapshot.incremental as f64);
    layers.set("admission.rejected", snapshot.rejected as f64);
    layers.set("service.solve_errors", snapshot.solve_errors as f64);
    let probes = snapshot.cache_hits + snapshot.cache_misses + snapshot.cache_corrupt;
    layers.set(
        "cache.mem_hit_ratio",
        snapshot.cache_mem_hits as f64 / probes.max(1) as f64,
    );
}

// ---------------------------------------------------------------- warm_hits

struct WarmSetup {
    server: Server,
    requests: Vec<Request>,
    prefill: Vec<SystemSchedule>,
    prefill_json: Vec<String>,
    prefill_nodes: Vec<usize>,
}

/// Generates the working set, starts a memory-only server and fills its
/// cache through two client connections.
fn warm_setup() -> WarmSetup {
    let scenarios = inputs::working_set();
    let server = Server::start(ServiceConfig::default(), None);
    let addr = server.handle.addr();
    let requests: Vec<Request> = scenarios
        .iter()
        .map(|s| Request::Synthesize(Box::new(request_for(s))))
        .collect();
    let replies: Vec<(usize, ttw_service::ScheduleReply)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let requests = &requests;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut out = Vec::new();
                    for (i, request) in requests.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let reply = client
                            .roundtrip(request)
                            .map_err(|e| e.to_string())
                            .and_then(schedule_of)
                            .unwrap_or_else(|e| panic!("pre-fill of system {i} failed: {e}"));
                        out.push((i, reply));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("pre-fill thread"))
            .collect()
    });
    let mut prefill = vec![SystemSchedule::default(); requests.len()];
    let mut prefill_nodes = vec![0; requests.len()];
    for (i, reply) in replies {
        assert_eq!(reply.served, ServedFrom::Solved, "pre-fill must solve");
        prefill_nodes[i] = reply.request_milp_nodes;
        prefill[i] = reply.schedule;
    }
    let prefill_json = prefill
        .iter()
        .map(|s| system_schedule_to_json(s).expect("encode schedule"))
        .collect();
    WarmSetup {
        server,
        requests,
        prefill,
        prefill_json,
        prefill_nodes,
    }
}

/// What the closed loop of `warm_hits` measured.
struct WarmLogs {
    logs: Vec<ClientLog>,
    /// Fastest good round trip of each working-set system, µs.
    fastest: Vec<f64>,
    /// Requests per second over the connections together: the sum of each
    /// connection's rate in its fastest clean pass over the working set.
    pass_rate: f64,
}

/// Drives the closed loop for `seconds`. Each connection sends the working
/// set in passes, each pass in a fresh seeded order, so every pass does the
/// same work.
fn warm_loop(setup: &WarmSetup, seed: u64, seconds: f64) -> WarmLogs {
    let addr = setup.server.handle.addr();
    let end = deadline(seconds);
    let start = Instant::now();
    let threads = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(inputs::derive(seed, 150 + c as u64));
                    let mut client = Client::connect(addr).expect("connect");
                    let mut log = ClientLog::default();
                    let mut fastest = vec![f64::INFINITY; setup.requests.len()];
                    let mut fastest_pass = f64::INFINITY;
                    let mut order: Vec<usize> = (0..setup.requests.len()).collect();
                    let mut byte_checked = HashSet::new();
                    'run: while Instant::now() < end {
                        inputs::shuffle(&mut order, &mut rng);
                        let pass = Instant::now();
                        let failed_before = log.failed;
                        for &i in &order {
                            if Instant::now() >= end {
                                break 'run;
                            }
                            let t = Instant::now();
                            let result = client.roundtrip(&setup.requests[i]);
                            let micros = t.elapsed().as_secs_f64() * 1e6;
                            log.record(t, start);
                            let reply =
                                match result.map_err(|e| e.to_string()).and_then(schedule_of) {
                                    Ok(reply) => reply,
                                    Err(e) => {
                                        log.fail(e);
                                        continue;
                                    }
                                };
                            if reply.served != ServedFrom::Memory || reply.request_milp_nodes != 0 {
                                log.fail(format!(
                                    "system {i}: served {:?} with {} nodes, want a memory hit",
                                    reply.served, reply.request_milp_nodes
                                ));
                            } else if reply.schedule != setup.prefill[i] {
                                log.fail(format!("system {i}: reply differs from the pre-fill"));
                            } else if byte_checked.insert(i)
                                && system_schedule_to_json(&reply.schedule).ok().as_deref()
                                    != Some(setup.prefill_json[i].as_str())
                            {
                                log.fail(format!(
                                    "system {i}: reply bytes differ from the pre-fill"
                                ));
                            } else {
                                fastest[i] = fastest[i].min(micros);
                            }
                        }
                        if log.failed == failed_before {
                            fastest_pass = fastest_pass.min(pass.elapsed().as_secs_f64());
                        }
                    }
                    (log, fastest, fastest_pass)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let mut fastest = vec![f64::INFINITY; setup.requests.len()];
    let mut pass_rate = 0.0;
    let mut logs = Vec::new();
    for (log, mine, fastest_pass) in threads {
        for (best, value) in fastest.iter_mut().zip(mine) {
            *best = best.min(value);
        }
        if fastest_pass.is_finite() {
            pass_rate += setup.requests.len() as f64 / fastest_pass;
        }
        logs.push(log);
    }
    WarmLogs {
        logs,
        fastest,
        pass_rate,
    }
}

/// Folds the client logs into the report; returns their merged samples.
fn absorb_logs(report: &mut Report, logs: Vec<ClientLog>) -> Samples {
    let mut all = Samples::default();
    for mut log in logs {
        report.attempted += log.samples.count();
        report.failed += log.failed;
        report.failures.append(&mut log.failures);
        all.merge(log.samples);
    }
    all
}

fn warm_counters(report: &mut Report, setup: &WarmSetup) {
    for (i, nodes) in setup.prefill_nodes.iter().enumerate() {
        report.counter(format!("prefill.{i:02}.milp_nodes"), *nodes as u64);
        report.counter(
            format!("prefill.{i:02}.reply_json_bytes"),
            setup.prefill_json[i].len() as u64,
        );
    }
}

/// `warm_hits`, untraced: end-to-end metrics.
pub fn warm_hits(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (setup, setup_s) = timed_setup(3, warm_setup);
    report.metric("setup_s", setup_s);
    warm_counters(&mut report, &setup);

    let window = Instant::now();
    let WarmLogs {
        logs,
        fastest,
        pass_rate,
    } = warm_loop(&setup, seed, seconds);
    let elapsed = window.elapsed().as_secs_f64();
    let samples = absorb_logs(&mut report, logs);
    let snapshot = setup.server.service.snapshot();
    check_stats(&mut report, &snapshot);
    report.check(snapshot.solved == setup.requests.len(), || {
        format!(
            "{} solves for {} pre-filled systems",
            snapshot.solved,
            setup.requests.len()
        )
    });
    let served = (report.attempted - report.failed) as usize;
    report.check(snapshot.cache_mem_hits == served, || {
        format!(
            "{} memory hits for {served} good requests",
            snapshot.cache_mem_hits
        )
    });
    report.check(fastest.iter().all(|f| f.is_finite()), || {
        "a working-set system was never served correctly".into()
    });
    report.op_latency(
        "read (synthesize round trip), fastest per system",
        &fastest,
        fastest.len() as u64,
    );
    report.latency_note(
        "read (synthesize round trip), every request",
        samples.latencies(),
        samples.count(),
    );
    report.check(pass_rate > 0.0, || {
        "no clean pass over the working set".into()
    });
    report.metric("throughput_per_s", pass_rate);
    report.note(format!(
        "req_rps {pass_rate:.1} 1/s in each connection's fastest pass over the working set, {:.1} 1/s as the median over one-second windows, over {} connections; reply bytes on the wire {}",
        samples.rate(elapsed),
        CONNECTIONS,
        snapshot.reply_bytes
    ));
    report
}

/// One in-process replay of warm requests through every layer the loopback
/// path crosses, in pipeline order. `service.key` and `cache.probe` time
/// `request_key` and a probe of the service's cache on their own;
/// `handle_synthesize` computes the key and probes again inside
/// `service.handle`, so its self time includes both.
fn warm_replay(
    tracer: &mut Tracer,
    service: &SchedulerService,
    setup: &WarmSetup,
    order: &[usize],
    bytes: &mut (usize, usize),
) -> u64 {
    let mut failed = 0;
    for (id, &i) in order.iter().enumerate() {
        tracer.set_request(id as u64);
        let request = &setup.requests[i];
        let encoded = tracer.span("client.request_encode", |_| request.to_json());
        let payload = tracer.span("frame", |_| frame_roundtrip(encoded.as_bytes()));
        let decoded = tracer.span("protocol.request_decode", |_| {
            Request::from_json(&payload).expect("request decodes")
        });
        let Request::Synthesize(decoded) = decoded else {
            unreachable!("warm replay sends synthesize requests")
        };
        let key = tracer.span("service.key", |_| service.request_key(&decoded));
        black_box(tracer.span("cache.probe", |_| service.cache().probe(&key)));
        let reply = tracer.span("service.handle", |_| service.handle_synthesize(&decoded));
        let Ok(reply) = reply else {
            failed += 1;
            continue;
        };
        let response = Response::Schedule(Box::new(reply));
        let encoded_reply = tracer.span("protocol.reply_encode", |_| response.to_json());
        let reply_payload = tracer.span("frame", |_| frame_roundtrip(encoded_reply.as_bytes()));
        let decoded_reply = tracer.span("client.reply_decode", |_| {
            Response::from_json(&reply_payload).expect("reply decodes")
        });
        bytes.0 += payload.len();
        bytes.1 += reply_payload.len();
        match decoded_reply {
            Response::Schedule(r) if r.schedule == setup.prefill[i] => {}
            _ => failed += 1,
        }
    }
    failed
}

/// Writes one frame into memory and reads it back.
fn frame_roundtrip(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut wire, payload).expect("in-memory frame write");
    read_frame(&mut wire.as_slice())
        .expect("in-memory frame read")
        .expect("one frame")
}

/// `warm_hits`, traced: loopback phase for the cache counters and the
/// round trip, then the same requests replayed in-process untraced and
/// traced.
pub fn warm_hits_traced(seed: u64, seconds: f64, trace_out: &Path) -> Report {
    let mut report = Report::default();
    let setup = warm_setup();
    let mut layers = Layers::default();

    let loopback = absorb_logs(&mut report, warm_loop(&setup, seed, seconds / 3.0).logs);
    let snapshot = setup.server.service.snapshot();
    check_stats(&mut report, &snapshot);
    stats_layers(&mut layers, &snapshot);
    let loopback_mean = mean(loopback.latencies());

    // In-process copy of the service state: same keys, same schedules.
    let service = SchedulerService::in_memory();
    for (request, schedule) in setup.requests.iter().zip(&setup.prefill) {
        let Request::Synthesize(request) = request else {
            unreachable!()
        };
        service
            .cache()
            .store(&service.request_key(request), schedule);
    }
    let mut tracer = Tracer::new(true);
    let mut bytes = (0, 0);
    let mut requests = 0;
    let mut failed = 0;
    let run = paired(&mut tracer, seconds / 2.0, 1, |tracer, chunk| {
        let mut rng = SplitMix64::new(inputs::derive(seed, 1000 + chunk as u64));
        let order: Vec<usize> = (0..WARM_CHUNK)
            .map(|_| rng.next_u64() as usize % setup.requests.len())
            .collect();
        let mut chunk_bytes = (0, 0);
        failed += warm_replay(tracer, &service, &setup, &order, &mut chunk_bytes);
        if tracer.enabled() {
            bytes.0 += chunk_bytes.0;
            bytes.1 += chunk_bytes.1;
            requests += order.len();
        }
    });
    report.failed += failed;
    report.attempted += 2 * requests as u64;

    let n = requests as f64;
    layers.absorb_trace(&tracer, run.traced_s, n, &mut report);
    layers.set("protocol.request_bytes", bytes.0 as f64 / n);
    layers.set("protocol.reply_bytes", bytes.1 as f64 / n);
    // One request's in-process cost: the replay less the key and probe it
    // runs a second time beside `handle_synthesize`.
    let duplicated_us = Layers::per_call(&tracer, "service.key", n, 1e3)
        + Layers::per_call(&tracer, "cache.probe", n, 1e3);
    let in_process_us = run.plain_s * 1e6 / n - duplicated_us;
    layers.set("net.unattributed_us", loopback_mean - in_process_us);
    layers.set("trace.overhead_frac", run.overhead_frac());
    report.note(format!(
        "replayed {requests} requests in-process: {:.1} us untraced, {:.1} us traced, {in_process_us:.1} us per request without the duplicated key and probe; loopback mean {loopback_mean:.1} us",
        run.plain_s * 1e6 / n,
        run.traced_s * 1e6 / n,
    ));
    layers.write_spans(&tracer, trace_out, &mut report);
    layers.into_report(&mut report);
    report
}

// ---------------------------------------------------------------- edit_stream

struct EditSetup {
    server: Server,
    scenario: Scenario,
    walk: Vec<TaskId>,
    base_key: String,
}

fn edit_setup(seed: u64, root: &Path) -> EditSetup {
    let scenario = inputs::edit_chain();
    let tasks = inputs::private_tasks(&scenario.system);
    assert!(!tasks.is_empty(), "the chain has private applications");
    let walk = inputs::edit_walk(seed, &scenario.system, &tasks, MAX_EDITS);
    let dir = TempDir::new(root, "edit-cache");
    let config = ServiceConfig {
        cache_dir: Some(dir.path().to_path_buf()),
        memory_cap: Some(EDIT_MEMORY_CAP),
        ..ServiceConfig::default()
    };
    let server = Server::start(config, Some(dir));
    let request = request_for(&scenario);
    let base_key = server.service.request_key(&request);
    let mut client = Client::connect(server.handle.addr()).expect("connect");
    let reply = client
        .roundtrip(&Request::Synthesize(Box::new(request)))
        .map_err(|e| e.to_string())
        .and_then(schedule_of)
        .unwrap_or_else(|e| panic!("edit chain does not synthesize: {e}"));
    assert_eq!(reply.served, ServedFrom::Solved);
    EditSetup {
        server,
        scenario,
        walk,
        base_key,
    }
}

struct EditLogs {
    writes: ClientLog,
    /// Fastest good edit of each task the walk edits, µs.
    fastest_per_task: Vec<(TaskId, f64)>,
    reads: ClientLog,
    write_nodes: Vec<usize>,
    disk_reads: usize,
    elapsed: f64,
}

/// The writer walks the edit sequence with `resynthesize`; the reader
/// re-requests seeded-random earlier edits with `synthesize`.
fn edit_loop(setup: &EditSetup, seed: u64, seconds: f64) -> EditLogs {
    let addr = setup.server.handle.addr();
    let service = &setup.server.service;
    let scenario = &setup.scenario;
    let config = scenario.scheduler_config();
    let published = AtomicUsize::new(0);
    let end = deadline(seconds);
    let start = Instant::now();
    let (writer, reader) = std::thread::scope(|scope| {
        let published = &published;
        let config = &config;
        let writer = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut log = ClientLog::default();
            let mut nodes = Vec::new();
            let mut fastest: Vec<(TaskId, f64)> = Vec::new();
            let mut system = scenario.system.clone();
            let mut predecessor = setup.base_key.clone();
            let mut k = 0;
            while Instant::now() < end && k < setup.walk.len() {
                let task = setup.walk[k];
                let wcet = system.task(task).wcet;
                system.set_task_wcet(task, wcet - 1).expect("positive WCET");
                let base = request_with(system.clone(), scenario);
                let key = service.request_key(&base);
                let request = Request::Resynthesize(Box::new(ResynthesizeRequest {
                    base,
                    predecessor: std::mem::replace(&mut predecessor, key),
                }));
                let t = Instant::now();
                let result = client.roundtrip(&request);
                let micros = t.elapsed().as_secs_f64() * 1e6;
                log.record(t, start);
                k += 1;
                match result.map_err(|e| e.to_string()).and_then(schedule_of) {
                    Ok(reply) if reply.served == ServedFrom::Incremental => {
                        nodes.push(reply.request_milp_nodes);
                        let violations = validate_system_schedule(&system, config, &reply.schedule);
                        if !violations.is_empty() {
                            log.fail(format!(
                                "edit {k}: {} validator violations",
                                violations.len()
                            ));
                        } else if let Some(entry) = fastest.iter_mut().find(|(t, _)| *t == task) {
                            entry.1 = entry.1.min(micros);
                        } else {
                            fastest.push((task, micros));
                        }
                    }
                    Ok(reply) => log.fail(format!(
                        "edit {k}: served {:?}, want incremental",
                        reply.served
                    )),
                    Err(e) => log.fail(format!("edit {k}: {e}")),
                }
                published.store(k, Ordering::Release);
            }
            (log, nodes, fastest)
        });
        let reader = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut rng = SplitMix64::new(inputs::derive(seed, 450));
            let mut log = ClientLog::default();
            let mut disk = 0;
            while Instant::now() < end {
                let k = rng.next_u64() as usize % (published.load(Ordering::Acquire) + 1);
                let system = edited(&scenario.system, &setup.walk, k);
                let request = Request::Synthesize(Box::new(request_with(system.clone(), scenario)));
                let t = Instant::now();
                let result = client.roundtrip(&request);
                log.record(t, start);
                match result.map_err(|e| e.to_string()).and_then(schedule_of) {
                    Ok(reply) if reply.served.is_warm() && reply.request_milp_nodes == 0 => {
                        disk += usize::from(reply.served == ServedFrom::Disk);
                        let violations = validate_system_schedule(&system, config, &reply.schedule);
                        if !violations.is_empty() {
                            log.fail(format!(
                                "read of edit {k}: {} validator violations",
                                violations.len()
                            ));
                        }
                    }
                    Ok(reply) => log.fail(format!(
                        "read of edit {k}: served {:?} with {} nodes, want a cache hit",
                        reply.served, reply.request_milp_nodes
                    )),
                    Err(e) => log.fail(format!("read of edit {k}: {e}")),
                }
            }
            (log, disk)
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    EditLogs {
        writes: writer.0,
        write_nodes: writer.1,
        fastest_per_task: writer.2,
        reads: reader.0,
        disk_reads: reader.1,
        elapsed: start.elapsed().as_secs_f64(),
    }
}

fn check_edit_stats(report: &mut Report, snapshot: &StatsSnapshot, writes: usize) {
    check_stats(report, snapshot);
    report.check(
        snapshot.solved == 1 && snapshot.incremental == writes,
        || {
            format!(
                "{} solves and {} incremental solves for 1 base system and {writes} edits",
                snapshot.solved, snapshot.incremental
            )
        },
    );
    report.check(snapshot.rejected == 0 && snapshot.solve_errors == 0, || {
        format!(
            "{} rejected and {} failed solves",
            snapshot.rejected, snapshot.solve_errors
        )
    });
}

/// `edit_stream`, untraced: end-to-end metrics.
pub fn edit_stream(seed: u64, seconds: f64, root: &Path) -> Report {
    let mut report = Report::default();
    let (setup, setup_s) = timed_setup(3, || edit_setup(seed, root));
    report.metric("setup_s", setup_s);

    let logs = edit_loop(&setup, seed, seconds);
    setup.server.service.cache().flush();
    let snapshot = setup.server.service.snapshot();
    let (writes, reads) = (logs.writes.samples.count(), logs.reads.samples.count());
    check_edit_stats(&mut report, &snapshot, writes as usize);
    for (k, nodes) in logs.write_nodes.iter().take(PINNED_EDITS).enumerate() {
        report.counter(format!("edit.{k:03}.milp_nodes"), *nodes as u64);
    }
    let (disk_reads, elapsed) = (logs.disk_reads, logs.elapsed);
    let fastest: Vec<f64> = logs.fastest_per_task.iter().map(|&(_, f)| f).collect();
    report.op_latency(
        "write (resynthesize round trip), fastest per edited task",
        &fastest,
        fastest.len() as u64,
    );
    report.latency_note(
        "write (resynthesize round trip), every edit",
        logs.writes.samples.latencies(),
        writes,
    );
    report.latency_note(
        "read (synthesize round trip)",
        logs.reads.samples.latencies(),
        reads,
    );
    let all = absorb_logs(&mut report, vec![logs.writes, logs.reads]);
    let rate = all.rate(elapsed);
    report.metric("throughput_per_s", rate);
    report.note(format!(
        "req_rps {rate:.1} 1/s as the median over one-second windows; {writes} edits admitted to {} tasks, {reads} reads ({disk_reads} from disk); evictions {}",
        fastest.len(),
        snapshot.cache_evictions
    ));
    report
}

/// One half of the paired edit replay: its own caches and in-process
/// service in fresh directories, and its own position in the walk.
struct EditReplay {
    cache: ScheduleCache,
    mirror: ScheduleCache,
    service: SchedulerService,
    system: ttw_core::System,
    keys: Vec<String>,
    rng: SplitMix64,
    /// modes reused, re-solved, warm-started; solver nodes and pivots.
    totals: [usize; 5],
    edits: usize,
    _dirs: (TempDir, TempDir, TempDir),
}

impl EditReplay {
    /// A replay starting from the base system stored exactly as the
    /// service's `synthesize` path stores it: schedule only, no warm-start
    /// artifacts.
    fn new(root: &Path, tag: &str, setup: &EditSetup, base: &SystemSchedule, seed: u64) -> Self {
        let dirs = (
            TempDir::new(root, &format!("replay-{tag}")),
            TempDir::new(root, &format!("mirror-{tag}")),
            TempDir::new(root, &format!("service-{tag}")),
        );
        let cache = ScheduleCache::new(dirs.0.path()).with_memory_cap(EDIT_MEMORY_CAP);
        let mirror = ScheduleCache::new(dirs.1.path()).with_memory_cap(EDIT_MEMORY_CAP);
        let service = SchedulerService::new(ServiceConfig {
            cache_dir: Some(dirs.2.path().to_path_buf()),
            memory_cap: Some(EDIT_MEMORY_CAP),
            ..ServiceConfig::default()
        });
        cache.store(&setup.base_key, base);
        service.cache().store(&setup.base_key, base);
        EditReplay {
            cache,
            mirror,
            service,
            system: setup.scenario.system.clone(),
            keys: vec![setup.base_key.clone()],
            rng: SplitMix64::new(inputs::derive(seed, 470)),
            totals: [0; 5],
            edits: 0,
            _dirs: dirs,
        }
    }

    /// Replays the next `count` edits of the walk: key, `resynthesize_system`
    /// called directly, artifact read, a store into a second cache, the same
    /// edit admitted by an in-process service (`handle_resynthesize`, which
    /// keys, probes, admits, re-solves and stores again), a reader probe of
    /// an earlier edit, validation and reply encoding.
    fn advance(
        &mut self,
        tracer: &mut Tracer,
        setup: &EditSetup,
        count: usize,
        report: &mut Report,
    ) {
        let scenario = &setup.scenario;
        let config = scenario.scheduler_config();
        let backend = IlpSynthesizer::default();
        for _ in 0..count {
            let k = self.edits;
            if k >= setup.walk.len() {
                return;
            }
            self.edits += 1;
            tracer.set_request(k as u64);
            let task = setup.walk[k];
            let wcet = self.system.task(task).wcet;
            self.system
                .set_task_wcet(task, wcet - 1)
                .expect("positive WCET");
            let system = &self.system;
            let key = tracer.span("service.key", |_| {
                synthesis_key(system, &scenario.graph, &config, backend.name())
            });
            let predecessor = self.keys.last().expect("base key");
            let cache = &self.cache;
            let result = tracer.span("resynth", |_| {
                resynthesize_system(
                    system,
                    &scenario.graph,
                    &config,
                    &backend,
                    cache,
                    predecessor,
                )
            });
            let (schedule, resynth) = match result {
                Ok(done) => done,
                Err(e) => {
                    report.failed += 1;
                    report.check(false, || format!("replayed edit {k}: {e}"));
                    continue;
                }
            };
            let artifacts = tracer.span("cache.artifacts", |_| cache.artifacts(&key));
            report.check(artifacts.is_some(), || {
                format!("replayed edit {k}: no warm-start artifacts stored")
            });
            let mirror = &self.mirror;
            tracer.span("cache.store", |_| {
                mirror.store_with_artifacts(&key, &schedule, artifacts.as_deref())
            });
            let request = ResynthesizeRequest {
                base: request_with(system.clone(), scenario),
                predecessor: predecessor.clone(),
            };
            let service = &self.service;
            match tracer.span("service.handle", |_| service.handle_resynthesize(&request)) {
                Ok(reply) if reply.served == ServedFrom::Incremental => {
                    report.check(reply.schedule == schedule, || {
                        format!("replayed edit {k}: the service and resynthesize_system disagree")
                    });
                }
                Ok(reply) => {
                    report.check(false, || {
                        format!(
                            "replayed edit {k}: served {:?}, want incremental",
                            reply.served
                        )
                    });
                }
                Err(e) => {
                    report.check(false, || format!("replayed edit {k}: service error {e}"));
                }
            }
            let earlier = &self.keys[self.rng.next_u64() as usize % self.keys.len()];
            let probed = tracer.span("cache.probe", |_| cache.probe(earlier));
            report.check(probed.schedule().is_some(), || {
                format!("replayed edit {k}: an earlier edit is missing from the cache")
            });
            let violations = tracer.span("validate", |_| {
                validate_system_schedule(system, &config, &schedule)
            });
            report.check(violations.is_empty(), || {
                format!(
                    "replayed edit {k}: {} validator violations",
                    violations.len()
                )
            });
            let encoded = tracer.span("export.schedule_encode", |_| {
                system_schedule_to_json(&schedule)
            });
            report.check(encoded.is_ok(), || {
                format!("replayed edit {k}: schedule does not encode")
            });
            if k < PINNED_EDITS {
                let pins = [
                    ("milp_nodes", resynth.solved_milp_nodes),
                    ("simplex_iterations", resynth.solved_simplex_iterations),
                    ("modes_reused", resynth.modes_reused),
                    ("modes_resolved", resynth.modes_resolved),
                    ("warm_started_modes", resynth.warm_started_modes),
                ];
                for (name, value) in pins {
                    report.repeat_counter(&format!("resynth.{k:03}.{name}"), value as u64);
                }
            }
            let counts = [
                resynth.modes_reused,
                resynth.modes_resolved,
                resynth.warm_started_modes,
                resynth.solved_milp_nodes,
                resynth.solved_simplex_iterations,
            ];
            for (total, value) in self.totals.iter_mut().zip(counts) {
                *total += value;
            }
            self.keys.push(key);
        }
    }

    fn finish(self, layers: &mut Layers) {
        self.cache.flush();
        self.mirror.flush();
        self.service.cache().flush();
        let n = self.edits.max(1) as f64;
        let [reused, resolved, warm, nodes, pivots] = self.totals;
        layers.set("resynth.modes_reused", reused as f64 / n);
        layers.set("resynth.modes_resolved", resolved as f64 / n);
        layers.set("resynth.warm_started_modes", warm as f64 / n);
        layers.set("resynth.milp_nodes", nodes as f64 / n);
        layers.set("resynth.simplex_iterations", pivots as f64 / n);
        layers.set(
            "resynth.reuse_ratio",
            reused as f64 / (reused + resolved).max(1) as f64,
        );
    }
}

/// `edit_stream`, traced: loopback phase for the service counters, then the
/// writer's edit walk replayed in-process, untraced and traced in turn.
pub fn edit_stream_traced(seed: u64, seconds: f64, root: &Path, trace_out: &Path) -> Report {
    let mut report = Report::default();
    let setup = edit_setup(seed, root);
    let mut layers = Layers::default();

    let logs = edit_loop(&setup, seed, seconds / 3.0);
    setup.server.service.cache().flush();
    let snapshot = setup.server.service.snapshot();
    check_edit_stats(&mut report, &snapshot, logs.writes.samples.count() as usize);
    stats_layers(&mut layers, &snapshot);
    let write_nodes = logs.write_nodes.clone();
    let writes_mean = mean(logs.writes.samples.latencies());
    absorb_logs(&mut report, vec![logs.writes, logs.reads]);

    let scenario = &setup.scenario;
    let base = synthesize_system(
        &scenario.system,
        &scenario.graph,
        &scenario.scheduler_config(),
        &IlpSynthesizer::default(),
    )
    .expect("edit chain synthesizes");
    let mut halves = (
        EditReplay::new(root, "plain", &setup, &base, seed),
        EditReplay::new(root, "traced", &setup, &base, seed),
    );
    let mut tracer = Tracer::new(true);
    let run = paired(&mut tracer, seconds / 2.0, 1, |tracer, _| {
        let half = if tracer.enabled() {
            &mut halves.1
        } else {
            &mut halves.0
        };
        half.advance(tracer, &setup, EDIT_CHUNK, &mut report);
    });
    let edits = halves.1.edits;
    report.attempted += 2 * edits as u64;
    halves.0.finish(&mut Layers::default());
    halves.1.finish(&mut layers);

    // The loopback writer and the direct replay solved the same edits.
    for (k, nodes) in write_nodes.iter().take(PINNED_EDITS.min(edits)).enumerate() {
        report.repeat_counter(&format!("resynth.{k:03}.milp_nodes"), *nodes as u64);
    }
    let n = edits as f64;
    layers.absorb_trace(&tracer, run.traced_s, n, &mut report);
    layers.set("trace.overhead_frac", run.overhead_frac());
    report.note(format!(
        "replayed {edits} edits in-process: {:.1} us untraced, {:.1} us traced; loopback write mean {writes_mean:.1} us",
        run.plain_s * 1e6 / n,
        run.traced_s * 1e6 / n,
    ));
    layers.write_spans(&tracer, trace_out, &mut report);
    layers.into_report(&mut report);
    report
}
