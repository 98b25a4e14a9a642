//! The TTW benchmark: one seeded workload per process, over the public APIs
//! of `ttw-service`, `ttw-core`, `ttw-analyze`, `ttw-milp`, `ttw-runtime` and
//! `ttw-netsim`.
//!
//! ```text
//! ttw-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of the traced replay. The process exits non-zero when an output check
//! fails. See `perfbench/README.md`.

mod cold;
mod inputs;
mod layers;
mod pct;
mod report;
mod runtime;
mod service_load;
mod trace;

use layers::PER_LAYER;
use report::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every end-to-end metric: name and unit. Every workload reports all of
/// them; `README.md` gives each one's meaning per workload and
/// `BENCHMARK.json` its direction.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_us", "us"),
    ("throughput_per_s", "1/s"),
];

const WORKLOADS: [&str; 4] = [
    "warm_hits",
    "edit_stream",
    "cold_synthesis",
    "runtime_faults",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        raw.insert(name.to_string(), value);
    }
    let get = |name: &str| raw.get(name).ok_or_else(|| format!("missing --{name}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let out = raw
        .get("out")
        .map_or_else(|| PathBuf::from(".bench_build/perfbench"), PathBuf::from);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

fn run(args: &Args) -> Report {
    let spans = args
        .out
        .join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let (seed, seconds, out) = (args.seed, args.seconds, args.out.as_path());
    match (args.workload.as_str(), args.trace) {
        ("warm_hits", false) => service_load::warm_hits(seed, seconds),
        ("warm_hits", true) => service_load::warm_hits_traced(seed, seconds, &spans),
        ("edit_stream", false) => service_load::edit_stream(seed, seconds, out),
        ("edit_stream", true) => service_load::edit_stream_traced(seed, seconds, out, &spans),
        ("cold_synthesis", false) => cold::cold_synthesis(seed, seconds),
        ("cold_synthesis", true) => cold::cold_synthesis_traced(seed, seconds, &spans),
        ("runtime_faults", false) => runtime::runtime_faults(seed, seconds),
        ("runtime_faults", true) => runtime::runtime_faults_traced(seed, seconds, &spans),
        _ => unreachable!("workload names are validated"),
    }
}

/// FNV-1a of this executable, so that counters are only ever compared
/// between runs of the same build.
fn build_id() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares this run's work counters with the last run of the same build,
/// workload, seed and mode in `out`, then records them. Counters of a run
/// that stopped earlier are compared on the names both runs have.
fn check_drift(report: &mut Report, args: &Args) {
    let path = args.out.join("counters").join(format!(
        "{:016x}-{}-seed{}-trace{}.txt",
        build_id(),
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut drifted = Vec::new();
        for line in text.lines() {
            let Some((name, value)) = line.split_once(' ') else {
                continue;
            };
            let Ok(before) = value.parse::<u64>() else {
                continue;
            };
            if let Some(&now) = report.counters.get(name) {
                if now != before {
                    drifted.push(format!("{name}: {before} -> {now}"));
                }
            }
        }
        if !drifted.is_empty() {
            report.failures.push(format!(
                "work counters drifted since the previous run with this seed: {}",
                drifted.join(", ")
            ));
        }
    }
    let text: String = report
        .counters
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        report
            .failures
            .push(format!("recording counters in {}: {e}", path.display()));
    }
}

/// The metrics this mode must print, in order.
fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ttw-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&args);
    if !args.trace {
        match report::peak_rss_mb() {
            Some(mb) => report.metric("peak_rss_mb", mb),
            None => report
                .failures
                .push("peak RSS unavailable (no /proc)".into()),
        }
    }
    check_drift(&mut report, &args);

    let mut metrics = Vec::new();
    for &(name, unit) in expected(args.trace) {
        match report.metrics.get(name) {
            // Names and units are fixed ASCII identifiers: no escaping.
            Some(&value) if value.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )),
            Some(&value) => report.failures.push(format!("metric {name} is {value}")),
            None => report
                .failures
                .push(format!("metric {name} was not measured")),
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for &(name, unit) in expected(args.trace) {
        if let Some(value) = report.metrics.get(name) {
            println!("{name} = {value} {unit}");
        }
    }
    for failure in &report.failures {
        println!("FAILED CHECK: {failure}");
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
