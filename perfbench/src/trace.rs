//! The traced run: every layer's public functions called in pipeline
//! order from this file, single-threaded, on the same seed and pinned
//! inputs as the untraced workloads. Layer times come from this file's
//! timers or from span *totals* of the program's existing spans, never
//! from histogram quantiles. Span and counter data stay in memory until
//! the run ends.
//!
//! The traced run covers every layer whatever `--workload` names, so
//! each traced result carries every per-layer metric.

use crate::learn;
use crate::serve::{self, Pinned, Reference};
use crate::util::{self, digest, distinct, self_status_mb};
use crate::{Ctx, Report};
use hoiho::artifact::{parse_artifacts, write_artifacts};
use hoiho::train::build_training_sets;
use hoiho::{Geolocator, Hoiho, HoihoOptions, LearnReport};
use hoiho_geodb::GeoDb;
use hoiho_itdk::format::parse_corpus;
use hoiho_obs::Snapshot;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::{proto, LookupIndex};
use std::hint::black_box;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sequential HTTP requests whose client-observed latency is compared
/// with the in-process cost of one request.
const HTTP_PROBE: usize = 2000;
/// Open-loop seconds at the ladder's latency rate, to read how late the
/// load generator runs.
const LOADGEN_PROBE: Duration = Duration::from_secs(1);
/// Allowance for run-to-run noise between the traced and untraced
/// learn pipelines in the layer-sum self-check.
const SELF_CHECK_NOISE: f64 = 0.10;

pub fn run(ctx: &Ctx, workload: &str) -> Result<Report, String> {
    let mut report = Report::default();
    report.note("traced_for_workload", format!("\"{workload}\""));
    learn_layers(ctx, &mut report)?;
    serve_layers(ctx, &mut report)?;
    Ok(report)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Counter value gained between two snapshots.
fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// Total seconds spent in spans named `name` (on any path) between two
/// snapshots.
fn span_total_s(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let total = |s: &Snapshot| -> u64 {
        s.spans
            .iter()
            .filter(|a| a.path.rsplit('/').next() == Some(name))
            .map(|a| a.total_us)
            .sum()
    };
    total(after).saturating_sub(total(before)) as f64 / 1e6
}

/// The learn pipeline as `Hoiho::learn_corpus` runs it, one layer call
/// at a time.
struct TracedLearn {
    total_s: f64,
    layer_sum_s: f64,
    artifact: String,
    spoofed_vps: Vec<hoiho_rtt::VpId>,
}

fn traced_learn(
    db: &GeoDb,
    psl: &PublicSuffixList,
    text: &str,
    report: &mut Report,
) -> Result<TracedLearn, String> {
    let reg = hoiho_obs::global();
    let before = reg.snapshot();
    reg.set_enabled(true);
    let all = Instant::now();

    let t = Instant::now();
    let corpus = parse_corpus(text).map_err(|e| e.to_string())?;
    let parse_s = secs(t.elapsed());
    report.metric("itdk.parse_corpus_s", parse_s, "s");
    report.metric("itdk.rss_after_parse_mb", self_status_mb("VmRSS"), "MiB");
    report.metric("itdk.routers", corpus.len() as f64, "count");
    let samples: usize = corpus
        .routers
        .iter()
        .map(|r| r.rtts.len() + r.traceroute_rtts.len())
        .sum();
    report.metric("itdk.rtt_samples", samples as f64, "count");

    // The VP spoof filter with the thresholds learn_corpus uses; the
    // caller checks the VPs it discards against learn_corpus's own.
    let opts = HoihoOptions {
        threads: 1,
        ..Default::default()
    };
    let t = Instant::now();
    let spoofed = if opts.filter_spoofed_vps {
        let refs: Vec<&hoiho_rtt::RouterRtts> = corpus.routers.iter().map(|r| &r.rtts).collect();
        hoiho_rtt::fault::detect_spoofing_vps_blind(&corpus.vps, &refs, 5.0, 5.0, 20)
    } else {
        Vec::new()
    };
    let clean = (!spoofed.is_empty()).then(|| {
        let mut c = corpus.clone();
        for r in &mut c.routers {
            r.rtts = hoiho_rtt::fault::strip_vps(&r.rtts, &spoofed);
            r.traceroute_rtts = hoiho_rtt::fault::strip_vps(&r.traceroute_rtts, &spoofed);
        }
        c
    });
    let filter_s = secs(t.elapsed());
    report.metric("rttsim.filter_vps_s", filter_s, "s");
    report.metric("rttsim.spoofed_vps", spoofed.len() as f64, "count");
    let corpus = clean.unwrap_or(corpus);

    let t = Instant::now();
    let sets = build_training_sets(db, psl, &corpus, &opts.policy);
    let train_s = secs(t.elapsed());
    report.metric("core.train_s", train_s, "s");
    report.metric("core.rss_after_train_mb", self_status_mb("VmRSS"), "MiB");

    let hoiho = Hoiho::with_options(db, psl, opts);
    let mut results = Vec::with_capacity(sets.len());
    let mut suffix_s = Vec::with_capacity(sets.len());
    for s in &sets {
        let t = Instant::now();
        results.push(hoiho.learn_suffix(&corpus.vps, s));
        suffix_s.push(secs(t.elapsed()));
    }
    let suffix_cpu: f64 = suffix_s.iter().sum();
    report.metric("core.learn_suffix_cpu_s", suffix_cpu, "s");
    report.metric("core.learn_suffix_max_s", util::max(&suffix_s), "s");

    let geo = Geolocator::from_report(&LearnReport {
        label: corpus.label.clone(),
        results,
        total_routers: corpus.len(),
        routers_with_hostname: 0,
        routers_with_apparent: 0,
        routers_geolocated: 0,
        routers_extrapolated: 0,
        spoofed_vps: spoofed.clone(),
    });
    let t = Instant::now();
    let artifact = write_artifacts(&geo, db);
    let write_s = secs(t.elapsed());
    report.metric("core.artifact_write_s", write_s, "s");
    report.metric("core.artifact_bytes", artifact.len() as f64, "bytes");
    let total_s = secs(all.elapsed());

    reg.set_enabled(false);
    let after = reg.snapshot();
    for (metric, span) in [
        ("core.phase1_s", "learn.suffix.phase1"),
        ("core.phase2_s", "learn.suffix.phase2"),
        ("core.phase3_s", "learn.suffix.phase3"),
        ("core.phase4_s", "learn.suffix.phase4"),
        ("core.hints_s", "learn.suffix.hints"),
    ] {
        report.metric(metric, span_total_s(&before, &after, span), "s");
    }
    let c = |name| counter_delta(&before, &after, name) as f64;
    report.metric("core.eval_evaluations", c("eval.evaluations"), "count");
    report.metric("core.eval_hosts", c("eval.hosts"), "count");
    report.metric("core.base_regexes", c("builder.base_regexes"), "count");
    let rate = |hit: f64, miss: f64| hit / (hit + miss).max(1.0);
    report.metric(
        "core.decode_hit_rate",
        rate(c("evalctx.decode.hit"), c("evalctx.decode.miss")),
        "ratio",
    );
    report.metric(
        "core.feas_hit_rate",
        rate(c("evalctx.feas.hit"), c("evalctx.feas.miss")),
        "ratio",
    );
    Ok(TracedLearn {
        total_s,
        layer_sum_s: parse_s + filter_s + train_s + suffix_cpu + write_s,
        artifact,
        spoofed_vps: spoofed,
    })
}

/// The same pipeline through the program's own entry point, with
/// observability off: the untraced total the overhead is measured
/// against, the artifact, and the VPs `learn_corpus` discarded.
fn untraced_learn(
    db: &GeoDb,
    psl: &PublicSuffixList,
    text: &str,
) -> Result<(f64, String, Vec<hoiho_rtt::VpId>), String> {
    let t = Instant::now();
    let corpus = parse_corpus(text).map_err(|e| e.to_string())?;
    let learned = Hoiho::with_options(
        db,
        psl,
        HoihoOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .learn_corpus(&corpus);
    let artifact = write_artifacts(&Geolocator::from_report(&learned), db);
    Ok((secs(t.elapsed()), artifact, learned.spoofed_vps))
}

fn learn_layers(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let setup = learn::generate_corpus(ctx, report)?;
    report.metric(
        "itdk.corpus_digest_distinct",
        distinct(&setup.digests) as f64,
        "count",
    );
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    let text = std::fs::read_to_string(&setup.corpus).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&setup.corpus);

    // Traced first, so the RSS readings start from a clean heap.
    let traced = traced_learn(&db, &psl, &text, report)?;
    let (untraced_s, untraced_art, untraced_spoofed) = untraced_learn(&db, &psl, &text)?;
    drop(text);
    // The traced run repeats learn_corpus's VP filter layer by layer; if
    // the program's filter changes, the two would time different
    // pipelines.
    if traced.spoofed_vps != untraced_spoofed {
        report.fail(format!(
            "traced VP filter discarded {:?}, learn_corpus discarded {:?}",
            traced.spoofed_vps, untraced_spoofed
        ));
    }
    report.attempted += 2;
    for (name, art) in [("traced", &traced.artifact), ("untraced", &untraced_art)] {
        match parse_artifacts(art, &db) {
            Ok(g) if write_artifacts(&g, &db) == *art => {}
            _ => {
                report.failed += 1;
                report.fail(format!("{name} in-process artifact does not round-trip"));
            }
        }
    }
    let digests = vec![
        digest(traced.artifact.as_bytes()),
        digest(untraced_art.as_bytes()),
    ];
    report.metric(
        "core.artifact_digest_distinct",
        distinct(&digests) as f64,
        "count",
    );
    report.note(
        "core.artifact_digests",
        format!("[\"{}\",\"{}\"]", digests[0], digests[1]),
    );

    let overhead = (traced.total_s - untraced_s) / untraced_s;
    report.metric("trace_overhead_share", overhead, "ratio");
    report.note_num("traced_learn_s", traced.total_s);
    report.note_num("untraced_learn_s", untraced_s);
    report.note_num("traced_layer_sum_s", traced.layer_sum_s);
    // Self-check: the layers account for the pipeline. Their sum may
    // differ from the untraced total by the tracing overhead plus the
    // noise between two runs.
    let gap = (traced.layer_sum_s - untraced_s).abs() / untraced_s;
    report.note_num("layer_sum_gap_share", gap);
    if gap > overhead.abs() + SELF_CHECK_NOISE {
        report.fail(format!(
            "traced layer sum {:.3}s is {:.1}% from the untraced total {:.3}s \
             (overhead {:.1}% + noise allowance {:.0}%)",
            traced.layer_sum_s,
            gap * 100.0,
            untraced_s,
            overhead * 100.0,
            SELF_CHECK_NOISE * 100.0
        ));
    }
    Ok(())
}

/// Nanoseconds per operation of `pass`, which performs `ops`
/// operations: passes are repeated until a sample lasts at least 20 ms,
/// and the median of five samples is reported.
fn ns_per_op<T>(ops: usize, mut pass: impl FnMut() -> T) -> f64 {
    let mut reps = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(pass());
        }
        if t.elapsed() >= Duration::from_millis(20) {
            break;
        }
        reps *= 2;
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(pass());
            }
            t.elapsed().as_nanos() as f64 / (reps * ops) as f64
        })
        .collect();
    util::median(&samples)
}

fn median_ms<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    util::median(&samples)
}

/// A Prometheus sample value from a `/metrics` body.
fn prom_value(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

fn scrape(addr: std::net::SocketAddr) -> Result<String, String> {
    let mut buf = Vec::new();
    serve::http_exchange(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
        &mut buf,
    )
    .map_err(|e| format!("GET /metrics: {e}"))?;
    let text = String::from_utf8_lossy(&buf).into_owned();
    text.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| "GET /metrics: no body".to_string())
}

fn serve_layers(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pinned: Pinned = serve::load_pinned()?;
    let r: Reference = serve::reference(&pinned)?;
    let stream = serve::check_stream(report, ctx.seed, pinned.hosts.len());
    report.note(
        "query_stream_digest",
        format!("\"{}\"", serve::stream_digest(&pinned, &stream)),
    );
    let db = Arc::new(GeoDb::builtin());
    let psl = Arc::new(PublicSuffixList::builtin());

    // Index set-up layers.
    let parse_ms = median_ms(5, || parse_artifacts(&pinned.artifact, &db));
    let geo = parse_artifacts(&pinned.artifact, &db).map_err(|e| e.to_string())?;
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let g = geo.clone();
            let t = Instant::now();
            black_box(LookupIndex::new(Arc::clone(&db), Arc::clone(&psl), g));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.metric("core.artifact_parse_ms", parse_ms, "ms");
    report.metric("serve.index_build_ms", util::median(&builds), "ms");

    // Per-lookup layers over the seed's stream.
    let hosts: Vec<&str> = stream
        .iter()
        .map(|&i| pinned.hosts[i as usize].as_str())
        .collect();
    let n = hosts.len() as f64;
    let routed: Vec<(&str, &hoiho::SuffixGeo)> = hosts
        .iter()
        .filter_map(|h| Some((*h, geo.suffix(psl.registerable_suffix_of(h)?)?)))
        .collect();
    let route_ns = ns_per_op(hosts.len(), || {
        hosts
            .iter()
            .filter(|h| psl.registerable_suffix_of(black_box(h)).is_some())
            .count()
    });
    let extract_ns = ns_per_op(routed.len().max(1), || {
        routed
            .iter()
            .filter(|(h, g)| g.nc.extract(black_box(h)).is_some())
            .count()
    });
    let geolocate_ns = ns_per_op(routed.len().max(1), || {
        routed
            .iter()
            .filter(|(h, g)| g.geolocate(&db, black_box(h)).is_some())
            .count()
    });
    let index = &r.index;
    let mut scratch = String::new();
    let lookup_ns = ns_per_op(hosts.len(), || {
        hosts
            .iter()
            .filter(|h| index.lookup(black_box(h), &mut scratch).is_some())
            .count()
    });
    let answers: Vec<_> = hosts
        .iter()
        .map(|h| index.lookup(h, &mut scratch))
        .collect();
    let mut out = String::with_capacity(256);
    let render_ns = ns_per_op(hosts.len(), || {
        let mut bytes = 0;
        for (h, a) in hosts.iter().zip(&answers) {
            out.clear();
            proto::render_result(index.db(), h, a.as_ref(), &mut out);
            bytes += out.len();
        }
        bytes
    });
    let batch_lines: Vec<String> = hosts
        .chunks(serve::BATCH)
        .map(|c| {
            let q: Vec<String> = c.iter().map(|h| format!("\"{h}\"")).collect();
            format!("{{\"batch\":[{}]}}", q.join(","))
        })
        .collect();
    let parse_request_ns = ns_per_op(batch_lines.len(), || {
        batch_lines
            .iter()
            .map(|l| proto::parse_request(black_box(l)))
            .filter(|r| matches!(r, proto::Request::Batch(_)))
            .count()
    });
    let http_lines: Vec<String> = hosts
        .iter()
        .map(|h| format!("GET /lookup?h={h} HTTP/1.1"))
        .collect();
    let parse_http_ns = ns_per_op(http_lines.len(), || {
        http_lines
            .iter()
            .filter_map(|l| proto::query_param(&proto::parse_http_request(black_box(l)).query, "h"))
            .count()
    });
    let bodies: Vec<String> = hosts
        .iter()
        .zip(&answers)
        .map(|(h, a)| {
            let mut s = String::new();
            proto::render_result(index.db(), h, a.as_ref(), &mut s);
            s.push('\n');
            s
        })
        .collect();
    let respond_ns = ns_per_op(bodies.len(), || {
        bodies
            .iter()
            .map(|b| proto::http_response("200 OK", "application/json", black_box(b)).len())
            .sum::<usize>()
    });
    report.metric("psl.route_ns", route_ns, "ns");
    report.metric("core.extract_ns", extract_ns, "ns");
    report.metric("core.geolocate_ns", geolocate_ns, "ns");
    report.metric("serve.lookup_ns", lookup_ns, "ns");
    report.metric("serve.proto.parse_request_ns", parse_request_ns, "ns");
    report.metric("serve.proto.render_ns", render_ns, "ns");
    report.metric("serve.proto.parse_http_ns", parse_http_ns, "ns");
    report.note_num("serve.proto.http_response_ns", respond_ns);

    let hits = answers.iter().filter(|a| a.is_some()).count() as f64;
    let routed_n = routed.len() as f64;
    report.metric("serve.hit_share", hits / n, "ratio");
    report.metric("serve.shard_miss_share", (n - routed_n) / n, "ratio");
    report.metric("serve.regex_miss_share", (routed_n - hits) / n, "ratio");

    // The live server: client-observed cost of one HTTP request against
    // the in-process cost, connections accepted, and /metrics size.
    let cases = serve::http_cases(&pinned, &r, &stream);
    let in_flight = serve::workers();
    // Client and server on their own CPUs, as in the untraced HTTP runs.
    let pin = util::pin_cpu(true).map_err(|e| format!("cannot pin to a CPU: {e}"))?;
    let server = serve::spawn_server(ctx, &pinned.artifact_path, 0)?;
    pin.rotate(0, server.pid())
        .map_err(|e| format!("cannot move to a CPU: {e}"))?;
    let probe = (|| -> Result<(f64, f64, f64, f64), String> {
        let before = scrape(server.addr)?;
        let mut lat_ns = Vec::with_capacity(HTTP_PROBE);
        let mut buf = Vec::with_capacity(512);
        for case in cases.iter().take(HTTP_PROBE) {
            report.attempted += 1;
            let t = Instant::now();
            let io = serve::http_exchange(server.addr, &case.request, &mut buf);
            lat_ns.push(t.elapsed().as_nanos() as f64);
            if io.is_err() || buf != case.expected {
                report.failed += 1;
            }
        }
        let after = scrape(server.addr)?;
        let accepted = |b: &str| prom_value(b, "hoiho_serve_conn_accepted").unwrap_or(0.0);
        // The second scrape's own connection is counted in `after`.
        let opened = accepted(&after) - accepted(&before) - 1.0;
        let series = after
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count() as f64;
        let next = AtomicUsize::new(HTTP_PROBE);
        let mut mismatches = Vec::new();
        let rung = serve::open_loop(
            server.addr,
            &cases,
            &next,
            serve::LADDER[serve::LATENCY_RUNG],
            LOADGEN_PROBE,
            in_flight,
            &mut mismatches,
        );
        report.attempted += rung.sent as u64;
        report.failed += rung.failed as u64;
        Ok((
            util::median(&lat_ns),
            opened,
            series,
            util::quantile(&rung.gen_late_us, 0.99),
        ))
    })();
    let stopped = serve::stop_server(server);
    let (client_ns, opened, series, late_p99) = probe?;
    stopped?;
    let in_process_ns = parse_http_ns + lookup_ns + render_ns + respond_ns;
    report.metric(
        "serve.outside_share",
        1.0 - in_process_ns / client_ns,
        "ratio",
    );
    report.metric("serve.connections_opened", opened, "count");
    report.metric("serve.metrics_series", series, "count");
    report.metric("serve.loadgen_late_p99_us", late_p99, "us");
    report.note_num("serve.http_client_p50_ns", client_ns);
    Ok(())
}
