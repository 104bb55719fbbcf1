//! `learn_itdk200k`: a seeded 200k-router IPv4 corpus file goes through
//! `hoiho learn --threads 2`, file to file.

use crate::util::{self, digest, digest_file, distinct, wait_child};
use crate::{json_num, Ctx, Report};
use hoiho::artifact::{parse_artifacts, write_artifacts};
use hoiho::Geolocator;
use hoiho_baselines::harness::CORRECT_RADIUS_KM;
use hoiho_geodb::GeoDb;
use hoiho_itdk::Corpus;
use hoiho_psl::PublicSuffixList;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Routers in the generated corpus (`CorpusSpec::ipv4_aug2020` shape).
pub const ROUTERS: usize = 200_000;
/// Times set-up (`hoiho generate`) runs per benchmark run; `setup_s`
/// is their median.
pub const SETUP_REPEATS: usize = 3;
/// Worker threads `hoiho learn` runs with.
pub const LEARN_THREADS: usize = 2;
/// Fewest learn jobs a run measures, however long each takes.
const MIN_JOBS: usize = 2;

/// The seeded corpus, written by `hoiho generate` `SETUP_REPEATS`
/// times (the last write is the one learned from).
pub struct Setup {
    pub corpus: PathBuf,
    pub walls_s: Vec<f64>,
    pub digests: Vec<String>,
}

pub fn generate_corpus(ctx: &Ctx, report: &mut Report) -> Result<Setup, String> {
    let corpus = ctx.work.join("corpus.txt");
    let mut walls_s = Vec::new();
    let mut digests = Vec::new();
    let mut corpus_bytes = 0;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let child = Command::new(&ctx.hoiho)
            .args(["generate", "--routers", &ROUTERS.to_string()])
            .args(["--seed", &ctx.seed.to_string(), "--out"])
            .arg(&corpus)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", ctx.hoiho.display()))?;
        let exit = wait_child(child, ctx.deadline).map_err(|e| e.to_string())?;
        walls_s.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        if !exit.ok() {
            report.failed += 1;
            return Err(format!("hoiho generate #{i} failed: {exit:?}"));
        }
        let (d, bytes) = digest_file(&corpus).map_err(|e| e.to_string())?;
        digests.push(d);
        corpus_bytes = bytes;
    }
    report.note_num("corpus_bytes", corpus_bytes as f64);
    report.note(
        "itdk.corpus_digests",
        format!(
            "[{}]",
            digests
                .iter()
                .map(|d| format!("\"{d}\""))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    report.note_num("itdk.corpus_digest_distinct", distinct(&digests) as f64);
    Ok(Setup {
        corpus,
        walls_s,
        digests,
    })
}

/// One `hoiho learn` process: its wall time, kernel accounting, output
/// digest and the program's own work counters.
pub struct Job {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub cpu_s: f64,
    pub artifact: PathBuf,
    pub artifact_digest: String,
    pub counters: Vec<(String, u64)>,
}

/// Counters every learn job records (they should repeat exactly on a
/// deterministic learner).
pub const WORK_COUNTERS: &[&str] = &[
    "eval.evaluations",
    "eval.hosts",
    "builder.base_regexes",
    "evalctx.decode.hit",
    "evalctx.decode.miss",
    "evalctx.feas.hit",
    "evalctx.feas.miss",
];

fn learn_job(ctx: &Ctx, corpus: &Path, i: usize) -> Result<Job, String> {
    let artifact = ctx.work.join(format!("artifact-{i}.txt"));
    let metrics = ctx.work.join(format!("metrics-{i}.jsonl"));
    let t = Instant::now();
    let child = Command::new(&ctx.hoiho)
        .arg("learn")
        .arg("--corpus")
        .arg(corpus)
        .arg("--out")
        .arg(&artifact)
        .args(["--threads", &LEARN_THREADS.to_string(), "--metrics"])
        .arg(&metrics)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", ctx.hoiho.display()))?;
    let exit = wait_child(child, ctx.deadline).map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    if !exit.ok() {
        return Err(format!("hoiho learn job {i} failed: {exit:?}"));
    }
    let bytes = std::fs::read(&artifact).map_err(|e| format!("job {i}: {e}"))?;
    let jsonl = std::fs::read_to_string(&metrics).map_err(|e| format!("job {i}: {e}"))?;
    let counters = WORK_COUNTERS
        .iter()
        .map(|name| (name.to_string(), jsonl_counter(&jsonl, name).unwrap_or(0)))
        .collect();
    Ok(Job {
        wall_s,
        peak_rss_mb: exit.peak_rss_mb,
        cpu_s: exit.cpu_s,
        artifact,
        artifact_digest: digest(&bytes),
        counters,
    })
}

/// The value of counter `name` in a `--metrics` JSON-lines file.
fn jsonl_counter(jsonl: &str, name: &str) -> Option<u64> {
    let key = format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":");
    jsonl.lines().find_map(|l| {
        l.strip_prefix(&key)?
            .trim_end_matches('}')
            .trim()
            .parse()
            .ok()
    })
}

/// Artifact quality against the generator's ground truth (the corpus
/// file carries every router's true location).
pub struct Accuracy {
    /// Geolocated hostnames within 40 km of truth ÷ geolocated hostnames.
    pub ppv: f64,
    /// Routers with a hostname the artifact geolocates ÷ routers with a
    /// hostname.
    pub coverage: f64,
    /// The same over routers with a hostname that carries a geohint (the
    /// generator's truth): how many of the locatable routers the
    /// learner locates. Unlike `coverage`, it does not swing with the
    /// share of operators a seed gives geographic naming conventions.
    pub geohint_coverage: f64,
    pub geolocated_hostnames: usize,
}

pub fn accuracy(db: &GeoDb, psl: &PublicSuffixList, corpus: &Corpus, geo: &Geolocator) -> Accuracy {
    let (mut tp, mut answered, mut with_host, mut covered) = (0usize, 0usize, 0usize, 0usize);
    let (mut with_hint, mut hint_covered) = (0usize, 0usize);
    for r in &corpus.routers {
        if !r.has_hostname() {
            continue;
        }
        with_host += 1;
        let truth = db.location(r.location).coords;
        let mut hit = false;
        let hinted = r
            .interfaces
            .iter()
            .any(|i| i.hostname.is_some() && i.truth.as_ref().is_some_and(|t| t.hint.is_some()));
        for h in r.hostnames() {
            if let Some(inf) = geo.geolocate(db, psl, h) {
                answered += 1;
                hit = true;
                if db.location(inf.location).coords.distance_km(&truth) <= CORRECT_RADIUS_KM {
                    tp += 1;
                }
            }
        }
        covered += hit as usize;
        with_hint += hinted as usize;
        hint_covered += (hinted && hit) as usize;
    }
    Accuracy {
        ppv: tp as f64 / answered.max(1) as f64,
        coverage: covered as f64 / with_host.max(1) as f64,
        geohint_coverage: hint_covered as f64 / with_hint.max(1) as f64,
        geolocated_hostnames: answered,
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let setup = generate_corpus(ctx, &mut report)?;

    // Measure: back-to-back learn jobs until the window is spent.
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < ctx.seconds {
        report.attempted += 1;
        match learn_job(ctx, &setup.corpus, jobs.len()) {
            Ok(j) => jobs.push(j),
            Err(e) => {
                report.failed += 1;
                report.fail(e);
                break;
            }
        }
    }
    if jobs.is_empty() {
        return Err("no learn job completed".into());
    }

    // Check every artifact (outside the timed window): it parses, and
    // writing the parsed form back reproduces the file byte for byte.
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let text = std::fs::read_to_string(&setup.corpus).map_err(|e| e.to_string())?;
    let corpus = hoiho_itdk::format::parse_corpus(&text).map_err(|e| e.to_string())?;
    drop(text);
    let mut accs = Vec::new();
    for (i, j) in jobs.iter().enumerate() {
        let art = std::fs::read_to_string(&j.artifact).map_err(|e| e.to_string())?;
        match parse_artifacts(&art, &db) {
            Ok(geo) => {
                if write_artifacts(&geo, &db) != art {
                    report.failed += 1;
                    report.fail(format!("job {i}: artifact does not round-trip"));
                }
                if geo.is_empty() {
                    report.failed += 1;
                    report.fail(format!("job {i}: artifact has no conventions"));
                }
                accs.push(accuracy(&db, &psl, &corpus, &geo));
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("job {i}: artifact does not parse: {e}"));
            }
        }
    }
    if accs.is_empty() {
        return Err("no learn artifact parsed".into());
    }

    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let wall = util::median(&walls);
    let ppv = util::median(&accs.iter().map(|a| a.ppv).collect::<Vec<_>>());
    let coverage = util::median(&accs.iter().map(|a| a.coverage).collect::<Vec<_>>());
    let hint_coverage = util::median(&accs.iter().map(|a| a.geohint_coverage).collect::<Vec<_>>());
    let rss = util::median(&jobs.iter().map(|j| j.peak_rss_mb).collect::<Vec<_>>());
    report.metric("setup_s", util::median(&setup.walls_s), "s");
    report.metric("throughput_per_s", corpus.len() as f64 / wall, "1/s");
    report.metric("latency_ms", wall * 1e3, "ms");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("ppv", ppv, "ratio");
    report.metric("coverage", hint_coverage, "ratio");

    report.note_num("learn_wall_s", wall);
    report.note_num("learn_peak_rss_mb", rss);
    report.note_num("learn_ppv", ppv);
    report.note_num("learn_coverage", coverage);
    report.note_num("learn_geohint_coverage", hint_coverage);
    report.note_num("learn_jobs", jobs.len() as f64);
    report.note_num("routers", corpus.len() as f64);
    report.note_num("geolocated_hostnames", accs[0].geolocated_hostnames as f64);
    let digests: Vec<String> = jobs.iter().map(|j| j.artifact_digest.clone()).collect();
    report.note_num("core.artifact_digest_distinct", distinct(&digests) as f64);
    let job_json: Vec<String> = jobs
        .iter()
        .map(|j| {
            let counters: Vec<String> = j
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            format!(
                "{{\"wall_s\":{},\"cpu_s\":{},\"peak_rss_mb\":{},\"artifact_digest\":\"{}\",\"corpus_digest\":\"{}\",\"counters\":{{{}}}}}",
                json_num(j.wall_s),
                json_num(j.cpu_s),
                json_num(j.peak_rss_mb),
                j.artifact_digest,
                setup.digests.last().expect("setup ran"),
                counters.join(",")
            )
        })
        .collect();
    report.note("learn_runs", format!("[{}]", job_json.join(",")));
    Ok(report)
}
