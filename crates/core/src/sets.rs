//! Stage 3, phase 4: building regex sets (appendix A).
//!
//! Ranks candidate regexes by descending ATP and greedily combines them
//! into multi-regex naming conventions when the combination raises ATP,
//! every member regex keeps at least three unique geohints, and PPV does
//! not drop more than 10 points below the starting regex's.

use crate::convention::{GeoRegex, NamingConvention};
use crate::eval::{eval_nc, EvalResult, Outcome};
use crate::evalctx::EvalContext;
use std::collections::HashSet;

/// How many top-ranked regexes participate in set building (bounds the
/// quadratic combination search).
pub const MAX_COMBINE: usize = 24;

/// Minimum unique geohints each member regex must contribute.
pub const MIN_UNIQUE_PER_REGEX: usize = 3;

/// Build candidate NCs from ranked single regexes. `ranked` must be
/// sorted by descending ATP and hold each pattern once. Returns all
/// singles plus improved combinations, each with its evaluation.
pub fn build_sets<'a>(
    ctx: &EvalContext<'a>,
    ranked: &[(GeoRegex, EvalResult<'a>)],
) -> Vec<(NamingConvention, EvalResult<'a>)> {
    let ranked = &ranked[..ranked.len().min(MAX_COMBINE)];
    let mut out: Vec<(NamingConvention, EvalResult)> = ranked
        .iter()
        .map(|(r, e)| {
            (
                NamingConvention {
                    suffix: ctx.suffix.into(),
                    regexes: vec![r.clone()],
                },
                e.clone(),
            )
        })
        .collect();
    if out.is_empty() {
        return out;
    }

    // Greedy expansion from the top-ranked regex. Members are tracked by
    // their index in `ranked`, which is unique per pattern.
    let start_ppv = out[0].1.metrics.ppv();
    let mut current = out[0].clone();
    let mut members = vec![0];
    let mut grew = true;
    while grew {
        grew = false;
        for (i, (cand, _)) in ranked.iter().enumerate() {
            if members.contains(&i) {
                continue;
            }
            let mut nc = current.0.clone();
            nc.regexes.push(cand.clone());
            let eval = eval_nc(ctx, &nc, None);
            if eval.metrics.atp() <= current.1.metrics.atp() {
                continue;
            }
            if eval.metrics.ppv() + 1e-9 < start_ppv - 0.10 {
                continue;
            }
            if !members_have_unique_hints(&nc, &eval) {
                continue;
            }
            current = (nc, eval);
            members.push(i);
            out.push(current.clone());
            grew = true;
            break;
        }
    }
    out
}

/// Each regex of the NC must extract ≥3 unique geohints among its TPs.
fn members_have_unique_hints(nc: &NamingConvention, eval: &EvalResult) -> bool {
    let mut uniq: Vec<HashSet<&str>> = vec![HashSet::new(); nc.regexes.len()];
    for (ext, outcome, which) in &eval.per_host {
        if let (Some(e), Outcome::Tp, Some(w)) = (ext, outcome, which) {
            uniq[*w].insert(&e.hint);
        }
    }
    uniq.iter().all(|u| u.len() >= MIN_UNIQUE_PER_REGEX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convention::{CaptureRole, Plan};
    use crate::eval::eval_regex;
    use crate::train::TrainHost;
    use hoiho_geodb::GeoDb;
    use hoiho_geotypes::{Coordinates, GeohintType, Rtt};
    use hoiho_regex::Regex;
    use hoiho_rtt::{ConsistencyPolicy, RouterRtts, VpId, VpSet};

    fn world() -> (GeoDb, VpSet) {
        let db = GeoDb::builtin();
        let mut vps = VpSet::new();
        vps.add("lcy-gb", Coordinates::new(51.5, 0.05));
        (db, vps)
    }

    /// One `(router, hostname, ms from the VP)` row per host.
    type Row = (u32, &'static str, f64);

    /// Each row's router RTTs: one sample from the single VP.
    fn pings(rows: &[Row]) -> Vec<RouterRtts> {
        rows.iter()
            .map(|&(_, _, ms)| {
                let mut rtts = RouterRtts::new();
                rtts.record(VpId(0), Rtt::from_ms(ms));
                rtts
            })
            .collect()
    }

    /// Tagged training hosts over `rows`, borrowing `rtts` (from
    /// [`pings`] of the same rows).
    fn hosts<'r>(
        db: &GeoDb,
        vps: &VpSet,
        rows: &[Row],
        rtts: &'r [RouterRtts],
    ) -> Vec<TrainHost<'r>> {
        rows.iter()
            .zip(rtts)
            .map(|(&(router, hostname, _), rtts)| {
                let parts: Vec<&str> = hostname.split('.').collect();
                let prefix = parts[..parts.len() - 2].join(".");
                let tags =
                    crate::apparent::tag_prefix(db, vps, rtts, &prefix, &ConsistencyPolicy::STRICT);
                TrainHost {
                    hostname: hostname.into(),
                    prefix,
                    router,
                    rtts,
                    tags,
                }
            })
            .collect()
    }

    /// Two naming forms within one suffix (IATA and city); phase 4 must
    /// combine both regexes into one NC with higher ATP.
    #[test]
    fn combines_two_forms() {
        let (db, vps) = world();
        let rows = [
            // IATA-form hosts (European cities feasible from a London VP).
            (1, "a.cr1.lhr1.example.net", 2.0),
            (2, "b.cr1.cdg2.example.net", 5.0),
            (3, "c.cr2.fra1.example.net", 9.0),
            (4, "d.cr2.ams3.example.net", 6.0),
            // City-form hosts.
            (5, "e.gw1.brussels.example.net", 6.0),
            (6, "f.gw2.dresden.example.net", 14.0),
            (7, "g.gw1.prague.example.net", 13.0),
            (8, "h.gw3.madrid.example.net", 14.0),
        ];
        let rtts = pings(&rows);
        let hosts = hosts(&db, &vps, &rows, &rtts);
        let iata = GeoRegex {
            regex: Regex::parse(r"^[^\.]+\.cr\d+\.([a-z]{3})\d+\.example\.net$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::Iata)],
            },
        };
        let city = GeoRegex {
            regex: Regex::parse(r"^[^\.]+\.gw\d+\.([a-z]+)\.example\.net$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::CityName)],
            },
        };
        let policy = ConsistencyPolicy::STRICT;
        let ctx = EvalContext::new(&db, &vps, &policy, "example.net", &hosts);
        let ranked: Vec<(GeoRegex, EvalResult)> = [iata, city]
            .into_iter()
            .map(|r| {
                let e = eval_regex(&ctx, &r, None);
                (r, e)
            })
            .collect();
        let sets = build_sets(&ctx, &ranked);
        let best = sets
            .iter()
            .max_by_key(|(_, e)| e.metrics.atp())
            .expect("candidates");
        assert_eq!(best.0.regexes.len(), 2, "both forms combined");
        assert_eq!(best.1.metrics.tp, 8);
        assert_eq!(best.1.metrics.fn_, 0);
    }

    /// A junk regex whose TPs span fewer than three unique hints must
    /// not join the set.
    #[test]
    fn rejects_low_diversity_member() {
        let (db, vps) = world();
        let rows = [
            (1, "a.cr1.lhr1.example.net", 2.0),
            (2, "b.cr1.cdg2.example.net", 5.0),
            (3, "c.cr2.fra1.example.net", 9.0),
            (4, "d.gw1.brussels.example.net", 6.0),
        ];
        let rtts = pings(&rows);
        let hosts = hosts(&db, &vps, &rows, &rtts);
        let iata = GeoRegex {
            regex: Regex::parse(r"^[^\.]+\.cr\d+\.([a-z]{3})\d+\.example\.net$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::Iata)],
            },
        };
        // Only one unique hint achievable for the city regex here.
        let city = GeoRegex {
            regex: Regex::parse(r"^[^\.]+\.gw\d+\.([a-z]+)\.example\.net$").unwrap(),
            plan: Plan {
                roles: vec![CaptureRole::Hint(GeohintType::CityName)],
            },
        };
        let policy = ConsistencyPolicy::STRICT;
        let ctx = EvalContext::new(&db, &vps, &policy, "example.net", &hosts);
        let ranked: Vec<(GeoRegex, EvalResult)> = [iata, city]
            .into_iter()
            .map(|r| {
                let e = eval_regex(&ctx, &r, None);
                (r, e)
            })
            .collect();
        let sets = build_sets(&ctx, &ranked);
        for (nc, _) in &sets {
            assert_eq!(nc.regexes.len(), 1, "no combination should form");
        }
    }
}
