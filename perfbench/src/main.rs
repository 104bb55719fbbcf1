//! `perfbench`: the hoiho learn/serve benchmark.
//!
//! ```text
//! perfbench --workload <learn_itdk200k|serve_line_batch32|serve_http_single|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench pin
//! ```
//!
//! Run it through `perfbench/run.sh` from the repository root, which
//! builds the release `hoiho` binary and this program first. See
//! `perfbench/README.md` for the workloads, the metrics and what each
//! layer metric is expected to move.

mod learn;
mod pin;
mod serve;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed on every untraced run of every workload.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_per_s",
    "latency_ms",
    "peak_rss_mb",
    "ppv",
    "coverage",
];

/// Per-layer metrics, printed on every traced run.
pub const PER_LAYER: &[&str] = &[
    "itdk.parse_corpus_s",
    "itdk.rss_after_parse_mb",
    "itdk.rtt_samples",
    "itdk.routers",
    "itdk.corpus_digest_distinct",
    "rttsim.filter_vps_s",
    "rttsim.spoofed_vps",
    "core.train_s",
    "core.rss_after_train_mb",
    "core.learn_suffix_cpu_s",
    "core.learn_suffix_max_s",
    "core.phase1_s",
    "core.phase2_s",
    "core.phase3_s",
    "core.phase4_s",
    "core.hints_s",
    "core.eval_evaluations",
    "core.eval_hosts",
    "core.base_regexes",
    "core.decode_hit_rate",
    "core.feas_hit_rate",
    "core.artifact_write_s",
    "core.artifact_bytes",
    "core.artifact_digest_distinct",
    "psl.route_ns",
    "core.extract_ns",
    "core.geolocate_ns",
    "serve.lookup_ns",
    "serve.proto.parse_request_ns",
    "serve.proto.render_ns",
    "serve.proto.parse_http_ns",
    "serve.outside_share",
    "serve.connections_opened",
    "core.artifact_parse_ms",
    "serve.index_build_ms",
    "serve.metrics_series",
    "serve.hit_share",
    "serve.shard_miss_share",
    "serve.regex_miss_share",
    "serve.loadgen_late_p99_us",
    "trace_overhead_share",
];

pub const WORKLOADS: &[&str] = &["learn_itdk200k", "serve_line_batch32", "serve_http_single"];

/// Everything a workload needs to know about this invocation.
pub struct Ctx {
    /// The release `hoiho` binary under test.
    pub hoiho: PathBuf,
    /// Scratch directory for this run; removed at exit.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Hard stop for every child process of this run.
    pub deadline: Instant,
}

/// One run's findings: the metrics of the last line, plus a record of
/// digests, counters and the metrics under the names the doc uses.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub record: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a value (already JSON) under `key`.
    pub fn note(&mut self, key: &str, json: String) {
        self.record.push((key.to_string(), json));
    }

    pub fn note_num(&mut self, key: &str, v: f64) {
        self.note(key, json_num(v));
    }

    /// A check that failed; the run reports `correct: false`.
    pub fn fail(&mut self, msg: String) {
        eprintln!("perfbench: check failed: {msg}");
        self.failures.push(msg);
    }
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {}, or all)",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn hoiho_binary() -> Result<PathBuf, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let bin = PathBuf::from(target).join("release").join("hoiho");
    if !bin.is_file() {
        return Err(format!(
            "{} not found: run through perfbench/run.sh from the repository root",
            bin.display()
        ));
    }
    Ok(bin)
}

fn run_one(workload: &str, args: &Args, hoiho: &Path) -> Result<bool, String> {
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        hoiho: hoiho.to_path_buf(),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        deadline: Instant::now() + Duration::from_secs(170),
    };
    let result = if args.trace {
        trace::run(&ctx, workload)
    } else {
        match workload {
            "learn_itdk200k" => learn::run(&ctx),
            "serve_line_batch32" => serve::run_line(&ctx),
            _ => serve::run_http(&ctx),
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = result?;
    emit(workload, args, &report)
}

/// Print the human-readable table and the record, then the result
/// object as the last line. Returns whether the run was correct.
fn emit(workload: &str, args: &Args, report: &Report) -> Result<bool, String> {
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    for name in expected {
        let Some((_, v, _)) = report.metrics.iter().find(|(n, _, _)| n == name) else {
            return Err(format!("workload {workload} did not measure {name}"));
        };
        if !v.is_finite() {
            return Err(format!("workload {workload}: {name} is not a number ({v})"));
        }
    }
    let correct = report.failed == 0 && report.failures.is_empty() && report.attempted > 0;
    println!(
        "== {workload} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    for (name, v, unit) in &report.metrics {
        println!("  {name:<34} {v:>16.6} {unit}");
    }
    for (k, v) in &report.record {
        if !v.starts_with('{') && !v.starts_with('[') {
            println!("  {k:<34} {v}");
        }
    }
    println!(
        "  attempted {} failed {} failed_share {} correct {correct}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    let mut record = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"failures\":[{}]",
        args.seed,
        args.seconds,
        args.trace as u8,
        util::fingerprint(),
        report.attempted,
        report.failed,
        report
            .failures
            .iter()
            .map(|f| util::json_str(f))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (k, v) in &report.record {
        record.push_str(&format!(",{}:{v}", util::json_str(k)));
    }
    record.push('}');
    println!("record {record}");
    let records = PathBuf::from(".bench_work").join("records");
    if std::fs::create_dir_all(&records).is_ok() {
        let file = records.join(format!(
            "{workload}-seed{}-trace{}-{}.json",
            args.seed,
            args.trace as u8,
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs())
        ));
        let _ = std::fs::write(file, format!("{record}\n"));
    }
    let metrics: Vec<String> = expected
        .iter()
        .map(|name| {
            let (_, v, unit) = report
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("checked above");
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !Path::new("crates").is_dir() || !Path::new("Cargo.toml").is_file() {
        return Err("run from the repository root (crates/ and Cargo.toml not found)".into());
    }
    let hoiho = hoiho_binary()?;
    if argv.first().map(String::as_str) == Some("pin") {
        pin::run(&hoiho)?;
        return Ok(true);
    }
    let args = parse_args(&argv)?;
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for w in workloads {
        all_correct &= run_one(w, &args, &hoiho)?;
    }
    Ok(all_correct)
}

fn main() {
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
