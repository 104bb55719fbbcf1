//! `perfbench pin`: produce the serve workloads' fixed inputs once.
//!
//! Neither `hoiho generate` nor `hoiho learn` is byte-reproducible from
//! a seed, so the serve workloads do not regenerate their artifact and
//! hostname sample per run: they read `perfbench/pinned/`, whose digests
//! `MANIFEST` records and every run verifies. Re-pinning changes the
//! serve baseline; compare two commits only on the same pinned files.

use crate::serve::PINNED_DIR;
use crate::util::{digest, wait_child, SplitMix};
use hoiho_geodb::GeoDb;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The seed of the pinned corpus and sample, recorded in `MANIFEST`.
pub const SEED: u64 = 20_200_801;
/// Hostnames in the pinned sample the query streams draw from.
pub const SAMPLE: usize = 8192;

fn hoiho(bin: &Path, args: &[&str]) -> Result<(), String> {
    let child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let exit =
        wait_child(child, Instant::now() + Duration::from_secs(600)).map_err(|e| e.to_string())?;
    if !exit.ok() {
        return Err(format!("hoiho {} failed: {exit:?}", args[0]));
    }
    Ok(())
}

pub fn run(bin: &Path) -> Result<(), String> {
    let seed = SEED;
    let work = PathBuf::from(".bench_work").join("pin");
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(PINNED_DIR).map_err(|e| e.to_string())?;
    let corpus_path = work.join("corpus.txt");
    let corpus_arg = corpus_path.to_string_lossy().into_owned();
    let artifact = format!("{PINNED_DIR}/artifact.txt");
    let routers = crate::learn::ROUTERS.to_string();
    let seed_s = seed.to_string();
    hoiho(
        bin,
        &[
            "generate",
            "--routers",
            &routers,
            "--seed",
            &seed_s,
            "--out",
            &corpus_arg,
        ],
    )?;
    hoiho(
        bin,
        &[
            "learn",
            "--corpus",
            &corpus_arg,
            "--out",
            &artifact,
            "--threads",
            "2",
        ],
    )?;

    let db = GeoDb::builtin();
    let text = std::fs::read_to_string(&corpus_path).map_err(|e| e.to_string())?;
    let corpus = hoiho_itdk::format::parse_corpus(&text).map_err(|e| e.to_string())?;
    drop(text);
    let mut all: Vec<(String, f64, f64)> = Vec::new();
    for r in &corpus.routers {
        let c = db.location(r.location).coords;
        for h in r.hostnames() {
            // Streams embed hostnames verbatim in JSON and URLs.
            if h.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'-')
            {
                all.push((h.to_string(), c.lat(), c.lon()));
            }
        }
    }
    if all.len() < SAMPLE {
        return Err(format!("corpus has only {} usable hostnames", all.len()));
    }
    // Partial Fisher-Yates with the benchmark's own generator.
    let mut rng = SplitMix::new(seed);
    for i in 0..SAMPLE {
        let j = i + rng.below((all.len() - i) as u64) as usize;
        all.swap(i, j);
    }
    let mut hosts = String::new();
    for (h, lat, lon) in &all[..SAMPLE] {
        let _ = writeln!(hosts, "{h}\t{lat:.6}\t{lon:.6}");
    }
    let hosts_path = format!("{PINNED_DIR}/hosts.tsv");
    std::fs::write(&hosts_path, &hosts).map_err(|e| e.to_string())?;
    let art = std::fs::read_to_string(&artifact).map_err(|e| e.to_string())?;
    let manifest = format!(
        "# Fixed inputs of the serve workloads, written by `perfbench pin` (seed {seed}):\n\
         # `hoiho generate --routers {routers} --seed {seed}` (CorpusSpec::ipv4_aug2020),\n\
         # `hoiho learn --threads 2` on it, and {SAMPLE} of its hostnames sampled\n\
         # uniformly with SplitMix64({seed}). hosts.tsv: hostname, true lat, true lon.\n\
         artifact.txt fnv1a64={} bytes={}\n\
         hosts.tsv fnv1a64={} bytes={}\n",
        digest(art.as_bytes()),
        art.len(),
        digest(hosts.as_bytes()),
        hosts.len()
    );
    std::fs::write(format!("{PINNED_DIR}/MANIFEST"), manifest).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&work);
    eprintln!(
        "pinned {} suffix artifact and {SAMPLE} hostnames (of {}) in {PINNED_DIR}",
        art.lines().filter(|l| l.starts_with("suffix ")).count(),
        all.len()
    );
    Ok(())
}
