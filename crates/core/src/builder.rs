//! Stage 3, phases 1–3: generating candidate regexes (appendix A).
//!
//! - **Phase 1** builds base regexes from each tagged hostname: the
//!   geohint is captured with its type's class (`([a-z]{3})` for IATA),
//!   tagged country/state labels are captured with `([a-z]{2})`, and the
//!   rest of the hostname becomes punctuation-excluding components
//!   (`[^\.]+`) or a single `.+`.
//! - **Phase 2** merges regexes that differ only by a `\d+` into a
//!   single regex with `\d*`.
//! - **Phase 3** specialises generic components into character-class
//!   sequences learned from what the component actually matched
//!   (`[^\.]+` → `\d+`, `[a-z]{2}`, `[a-z]+\d+`, …).

use crate::apparent::Tag;
use crate::convention::{CaptureRole, GeoRegex, Plan};
use crate::tokenize::{labels, tokenize, Token, TokenKind};
use crate::train::TrainHost;
use hoiho_geotypes::GeohintType;
use hoiho_regex::{Ast, CharClass, Quant, Regex};

/// Phase 1: base regexes for every tag of one hostname.
pub fn base_regexes_for_host(prefix: &str, tags: &[Tag], suffix: &str) -> Vec<GeoRegex> {
    let mut out = Vec::new();
    let toks = tokenize(prefix);
    let labs = labels(prefix);
    for tag in tags {
        let Some(hint_label) = labs
            .iter()
            .position(|&(s, e)| tag.start >= s && tag.start < e)
        else {
            continue;
        };
        // Per-label pieces: (ast, roles) — `None` ast means "generic
        // slot" to be filled per variant.
        #[derive(Clone)]
        enum Piece {
            Fixed(Ast, Vec<CaptureRole>),
            Generic(String), // label text, for the literal variant
        }
        let mut pieces: Vec<Piece> = Vec::new();
        let mut cc_left_of_hint = false;
        for (li, &(ls, le)) in labs.iter().enumerate() {
            let text = &prefix[ls..le];
            if li == hint_label {
                let Some((ast, roles)) = render_hint_label(&toks, li, tag) else {
                    pieces.clear();
                    break;
                };
                pieces.push(Piece::Fixed(ast, roles));
            } else if tag.cc_texts.iter().any(|c| c == text) {
                if li < hint_label {
                    cc_left_of_hint = true;
                }
                pieces.push(Piece::Fixed(
                    Ast::capture(Ast::class(
                        CharClass::Alpha,
                        Quant::exactly(text.len() as u32),
                    )),
                    vec![CaptureRole::CcOrState],
                ));
            } else {
                pieces.push(Piece::Generic(text.to_string()));
            }
        }
        if pieces.is_empty() {
            continue;
        }

        // Variants: {collapse leading generics to `.+`} × {trailing
        // generics literal or [^\.]+}.
        let lead_choices: &[bool] = if hint_label > 0 && !cc_left_of_hint {
            &[true, false]
        } else {
            &[false]
        };
        for &collapse_lead in lead_choices {
            for &literal_tail in &[false, true] {
                let mut items: Vec<Ast> = Vec::new();
                let mut roles: Vec<CaptureRole> = Vec::new();
                let mut collapsed = false;
                for (li, piece) in pieces.iter().enumerate() {
                    let ast = match piece {
                        Piece::Fixed(a, rs) => {
                            roles.extend(rs.iter().copied());
                            Some(a.clone())
                        }
                        Piece::Generic(text) => {
                            if collapse_lead && li < hint_label {
                                // All leading generics collapse into one
                                // `.+`.
                                if collapsed {
                                    None
                                } else {
                                    collapsed = true;
                                    Some(Ast::class(CharClass::Any, Quant::PLUS))
                                }
                            } else if literal_tail && li > hint_label && !text.is_empty() {
                                Some(Ast::lit(text.clone()))
                            } else {
                                Some(Ast::class(CharClass::NotDot, Quant::PLUS))
                            }
                        }
                    };
                    if let Some(a) = ast {
                        if !items.is_empty() {
                            items.push(Ast::lit("."));
                        }
                        items.push(a);
                    }
                }
                items.push(Ast::lit(format!(".{suffix}")));
                let regex = Regex::from_ast(Ast::seq(items));
                out.push(GeoRegex {
                    regex,
                    plan: Plan {
                        roles: roles.clone(),
                    },
                });
            }
        }
    }
    // Dedup by pattern text.
    let mut seen = std::collections::HashSet::new();
    out.retain(|r| seen.insert(r.regex.as_pattern()));
    if hoiho_obs::enabled() {
        hoiho_obs::counter!("builder.base_regexes").add(out.len() as u64);
    }
    out
}

/// Render the label containing the hint: captures for the hint (and the
/// split CLLI half), classes for everything else.
fn render_hint_label(
    toks: &[Token<'_>],
    label: usize,
    tag: &Tag,
) -> Option<(Ast, Vec<CaptureRole>)> {
    let mut items: Vec<Ast> = Vec::new();
    let mut roles: Vec<CaptureRole> = Vec::new();
    if tag.ty == GeohintType::Facility {
        // The whole label is the hint: one capture containing the run
        // structure (e.g. `(\d+[a-z]+)` for `1118thave`).
        let mut inner: Vec<Ast> = Vec::new();
        for t in toks.iter().filter(|t| t.label == label && t.text != ".") {
            inner.push(match t.kind {
                TokenKind::Digit => Ast::class(CharClass::Digit, Quant::PLUS),
                TokenKind::Alpha => Ast::class(CharClass::Alpha, Quant::PLUS),
                TokenKind::Punct => Ast::lit(t.text),
            });
        }
        if inner.is_empty() {
            return None;
        }
        return Some((
            Ast::capture(Ast::seq(inner)),
            vec![CaptureRole::Hint(GeohintType::Facility)],
        ));
    }

    for t in toks.iter().filter(|t| t.label == label && t.text != ".") {
        if t.start == tag.start {
            // The run carrying the hint (or its 4-letter half).
            let split = tag.split.is_some();
            let width = (tag.end - tag.start) as u32;
            match tag.ty {
                GeohintType::CityName => {
                    items.push(Ast::capture(Ast::class(CharClass::Alpha, Quant::PLUS)));
                    roles.push(CaptureRole::Hint(GeohintType::CityName));
                }
                ty => {
                    items.push(Ast::capture(Ast::class(
                        CharClass::Alpha,
                        Quant::exactly(width),
                    )));
                    roles.push(if split {
                        CaptureRole::ClliFour
                    } else {
                        CaptureRole::Hint(ty)
                    });
                }
            }
            // A longer alphabetic run continues after the hint (fig 6d).
            if t.end > tag.end {
                items.push(Ast::class(CharClass::Alpha, Quant::PLUS));
            }
        } else if tag.split == Some((t.start, t.end)) {
            items.push(Ast::capture(Ast::class(
                CharClass::Alpha,
                Quant::exactly(2),
            )));
            roles.push(CaptureRole::ClliTwo);
        } else {
            items.push(match t.kind {
                TokenKind::Digit => Ast::class(CharClass::Digit, Quant::PLUS),
                TokenKind::Alpha => Ast::class(CharClass::Alpha, Quant::PLUS),
                TokenKind::Punct => Ast::lit(t.text),
            });
        }
    }
    if roles.is_empty() {
        return None;
    }
    Some((Ast::seq(items), roles))
}

/// Phase 2: merge pairs that differ only by a `\d+` node into a `\d*`
/// regex. Returns newly created regexes.
pub fn merge_digit_optional<'a>(
    cands: impl Iterator<Item = &'a GeoRegex> + Clone,
) -> Vec<GeoRegex> {
    use std::collections::HashMap;
    // Pattern text → candidate plans (plans must also agree).
    let mut by_pattern: HashMap<String, Vec<&Plan>> = HashMap::new();
    for c in cands.clone() {
        by_pattern
            .entry(c.regex.as_pattern())
            .or_default()
            .push(&c.plan);
    }
    let mut out = Vec::new();
    let mut emitted = std::collections::HashSet::new();
    for c in cands {
        let Ast::Seq(items) = c.regex.ast() else {
            continue;
        };
        for (i, node) in items.iter().enumerate() {
            if !matches!(node, Ast::Class(CharClass::Digit, q) if *q == Quant::PLUS) {
                continue;
            }
            // The same regex without this \d+.
            let mut without = items.clone();
            without.remove(i);
            let without_pat = Regex::from_ast(Ast::seq(without)).as_pattern();
            let Some(peers) = by_pattern.get(&without_pat) else {
                continue;
            };
            if !peers.iter().any(|&plan| *plan == c.plan) {
                continue;
            }
            // Merge: make the digits optional.
            let mut merged = items.clone();
            merged[i] = Ast::class(CharClass::Digit, Quant::STAR);
            let regex = Regex::from_ast(Ast::seq(merged));
            if emitted.insert(regex.as_pattern()) {
                out.push(GeoRegex {
                    regex,
                    plan: c.plan.clone(),
                });
            }
        }
    }
    hoiho_obs::add("builder.digit_merges", out.len() as u64);
    out
}

/// Phase 3: specialise generic components based on what they matched
/// across the training hostnames. Returns a refined regex when at least
/// one component could be narrowed.
pub fn embed_character_classes(hosts: &[TrainHost], cand: &GeoRegex) -> Option<GeoRegex> {
    let Ast::Seq(items) = cand.regex.ast() else {
        return None;
    };
    // Positions of refinable nodes.
    let refinable: Vec<usize> = items
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            matches!(
                n,
                Ast::Class(CharClass::NotDot, q) | Ast::Class(CharClass::Alpha, q)
                    if *q == Quant::PLUS
            )
        })
        .map(|(i, _)| i)
        .collect();
    if refinable.is_empty() {
        return None;
    }
    // Instrument: wrap each refinable node in a capture; compute its
    // group index accounting for existing captures.
    let mut instrumented = Vec::with_capacity(items.len());
    let mut group = 0usize;
    let mut node_group: Vec<(usize, usize)> = Vec::new(); // (node idx, group idx)
    for (i, n) in items.iter().enumerate() {
        if refinable.contains(&i) {
            group += 1;
            node_group.push((i, group));
            instrumented.push(Ast::capture(n.clone()));
        } else {
            group += n.capture_count();
            instrumented.push(n.clone());
        }
    }
    let probe = Regex::from_ast(Ast::seq(instrumented));

    // Collect matched texts per refinable node.
    let mut texts: Vec<Vec<String>> = vec![Vec::new(); node_group.len()];
    for h in hosts {
        let Ok(Some(caps)) = probe.captures(&h.hostname) else {
            continue;
        };
        for (k, (_, g)) in node_group.iter().enumerate() {
            if let Some(t) = caps.get(*g) {
                texts[k].push(t.to_string());
            }
        }
    }
    if texts.iter().all(|t| t.is_empty()) {
        return None;
    }

    let mut new_items = items.clone();
    let mut changed = false;
    for (k, (i, _)) in node_group.iter().enumerate() {
        if let Some(refined) = refine(&texts[k], &items[*i]) {
            new_items[*i] = refined;
            changed = true;
        }
    }
    if !changed {
        return None;
    }
    hoiho_obs::inc("builder.class_refinements");
    Some(GeoRegex {
        regex: Regex::from_ast(Ast::seq(new_items)),
        plan: cand.plan.clone(),
    })
}

/// The most specific replacement consistent with every observed text.
fn refine(texts: &[String], original: &Ast) -> Option<Ast> {
    if texts.is_empty() {
        return None;
    }
    let all_digits = texts.iter().all(|t| t.bytes().all(|b| b.is_ascii_digit()));
    if all_digits {
        let new = Ast::class(CharClass::Digit, Quant::PLUS);
        return (new != *original).then_some(new);
    }
    let all_alpha = texts
        .iter()
        .all(|t| t.bytes().all(|b| b.is_ascii_lowercase()));
    if all_alpha {
        let len0 = texts[0].len();
        let new = if texts.iter().all(|t| t.len() == len0) && len0 <= 6 {
            Ast::class(CharClass::Alpha, Quant::exactly(len0 as u32))
        } else {
            Ast::class(CharClass::Alpha, Quant::PLUS)
        };
        return (new != *original).then_some(new);
    }
    // alpha-then-digits, e.g. role tokens `cr1`.
    let split_ad = |t: &str| -> Option<(usize, usize)> {
        let a = t.bytes().take_while(|b| b.is_ascii_lowercase()).count();
        let d = t.bytes().skip(a).take_while(|b| b.is_ascii_digit()).count();
        (a > 0 && d > 0 && a + d == t.len()).then_some((a, d))
    };
    if texts.iter().all(|t| split_ad(t).is_some()) {
        let new = Ast::seq(vec![
            Ast::class(CharClass::Alpha, Quant::PLUS),
            Ast::class(CharClass::Digit, Quant::PLUS),
        ]);
        return (new != *original).then_some(new);
    }
    // digits-then-alpha (street addresses, `0af`-style tokens).
    let split_da = |t: &str| -> Option<(usize, usize)> {
        let d = t.bytes().take_while(|b| b.is_ascii_digit()).count();
        let a = t
            .bytes()
            .skip(d)
            .take_while(|b| b.is_ascii_lowercase())
            .count();
        (d > 0 && a > 0 && d + a == t.len()).then_some((d, a))
    };
    if texts.iter().all(|t| split_da(t).is_some()) {
        let new = Ast::seq(vec![
            Ast::class(CharClass::Digit, Quant::PLUS),
            Ast::class(CharClass::Alpha, Quant::PLUS),
        ]);
        return (new != *original).then_some(new);
    }
    // mixed alphanumerics without punctuation.
    if texts.iter().all(|t| {
        t.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
    }) {
        let new = Ast::class(CharClass::AlphaNum, Quant::PLUS);
        return (new != *original).then_some(new);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_geodb::GeoDb;
    use hoiho_geotypes::{Coordinates, Rtt};
    use hoiho_rtt::{ConsistencyPolicy, RouterRtts, VpId, VpSet};

    fn world() -> (GeoDb, VpSet) {
        let db = GeoDb::builtin();
        let mut vps = VpSet::new();
        vps.add("lcy-gb", Coordinates::new(51.5, 0.05));
        vps.add("dca-us", Coordinates::new(38.9, -77.0));
        (db, vps)
    }

    fn tagged(db: &GeoDb, vps: &VpSet, prefix: &str, rtt_pairs: &[(u16, f64)]) -> Vec<Tag> {
        let mut rtts = RouterRtts::new();
        for (vp, ms) in rtt_pairs {
            rtts.record(VpId(*vp), Rtt::from_ms(*ms));
        }
        crate::apparent::tag_prefix(db, vps, &rtts, prefix, &ConsistencyPolicy::STRICT)
    }

    #[test]
    fn zayo_base_regex_has_expected_shape() {
        let (db, vps) = world();
        let prefix = "zayo-ntt.mpr1.lhr15.uk.zip";
        let tags = tagged(&db, &vps, prefix, &[(0, 2.0)]);
        let regexes = base_regexes_for_host(prefix, &tags, "zayo.com");
        let pats: Vec<String> = regexes.iter().map(|r| r.regex.as_pattern()).collect();
        // The `.+` leading variant with literal tail matches figure 7a
        // in structure (phase 3 would tighten `zip` from the generic
        // variant; the literal variant has it directly).
        assert!(
            pats.iter()
                .any(|p| p.contains(r"([a-z]{3})\d+\.([a-z]{2})\.zip")),
            "{pats:#?}"
        );
        assert!(pats.iter().any(|p| p.starts_with(r"^.+\.")), "{pats:#?}");
        // All variants must match the hostname they came from.
        let hostname = format!("{prefix}.zayo.com");
        for r in &regexes {
            let e = r.extract(&hostname);
            if r.plan.hint_type() == Some(GeohintType::Iata) {
                let e = e.unwrap_or_else(|| panic!("{} must match", r.regex));
                assert_eq!(e.hint, "lhr");
                assert_eq!(e.cc_tokens, vec!["uk"]);
            }
        }
    }

    #[test]
    fn clli_head_regex_captures_six() {
        let (db, vps) = world();
        let prefix = "0.af0.rcmdva83-mse01-a-ie1";
        let tags = tagged(&db, &vps, prefix, &[(1, 3.0)]);
        assert!(tags.iter().any(|t| t.text == "rcmdva"));
        let regexes = base_regexes_for_host(prefix, &tags, "alter.net");
        let hostname = format!("{prefix}.alter.net");
        let hit = regexes
            .iter()
            .filter_map(|r| r.extract(&hostname))
            .find(|e| e.ty == GeohintType::Clli)
            .expect("clli extraction");
        assert_eq!(hit.hint, "rcmdva");
    }

    #[test]
    fn split_clli_regex_joins_halves() {
        let (db, vps) = world();
        let prefix = "ae2-0.agr02-mtgm01-al";
        let tags = tagged(&db, &vps, prefix, &[(1, 15.0)]);
        let regexes = base_regexes_for_host(prefix, &tags, "windstream.net");
        let hostname = format!("{prefix}.windstream.net");
        let hit = regexes
            .iter()
            .filter_map(|r| r.extract(&hostname))
            .find(|e| e.ty == GeohintType::Clli)
            .expect("split clli extraction");
        assert_eq!(hit.hint, "mtgmal");
    }

    #[test]
    fn facility_regex_captures_address() {
        let (db, vps) = world();
        let prefix = "be-232.1118thave.ny";
        let tags = tagged(&db, &vps, prefix, &[(1, 4.0)]);
        let regexes = base_regexes_for_host(prefix, &tags, "example.net");
        let hostname = format!("{prefix}.example.net");
        let hit = regexes
            .iter()
            .filter_map(|r| r.extract(&hostname))
            .find(|e| e.ty == GeohintType::Facility)
            .expect("facility extraction");
        assert_eq!(hit.hint, "1118thave");
    }

    #[test]
    fn merge_produces_optional_digits() {
        let (db, vps) = world();
        // Two hostnames: one with digits after the city, one without
        // (figure 13 hostnames i/j vs k/l).
        let p1 = "gw-disy.frankfurt1.de";
        let p2 = "gsdr-ckh.dresden.de";
        let t1 = tagged(&db, &vps, p1, &[(0, 15.0)]);
        let t2 = tagged(&db, &vps, p2, &[(0, 18.0)]);
        let mut cands = base_regexes_for_host(p1, &t1, "alter.net");
        cands.extend(base_regexes_for_host(p2, &t2, "alter.net"));
        let merged = merge_digit_optional(cands.iter());
        assert!(
            merged.iter().any(|r| r.regex.as_pattern().contains(r"\d*")),
            "expected a \\d* merge among {:#?}",
            merged
                .iter()
                .map(|r| r.regex.as_pattern())
                .collect::<Vec<_>>()
        );
        // The merged regex matches both hostnames.
        let m = merged
            .iter()
            .find(|r| r.regex.as_pattern().contains(r"\d*"))
            .unwrap();
        assert!(
            m.regex.is_match(&format!("{p1}.alter.net"))
                && m.regex.is_match(&format!("{p2}.alter.net")),
            "{}",
            m.regex
        );
    }

    #[test]
    fn refinement_specialises_components() {
        let texts = vec!["zip".to_string(), "zip".to_string()];
        let orig = Ast::class(CharClass::NotDot, Quant::PLUS);
        let refined = refine(&texts, &orig).unwrap();
        assert_eq!(refined, Ast::class(CharClass::Alpha, Quant::exactly(3)));

        let texts = vec!["cr1".into(), "br12".into()];
        let refined = refine(&texts, &orig).unwrap();
        let mut s = String::new();
        refined.render(&mut s);
        assert_eq!(s, r"[a-z]+\d+");

        let texts = vec!["0".into(), "12".into()];
        let refined = refine(&texts, &orig).unwrap();
        assert_eq!(refined, Ast::class(CharClass::Digit, Quant::PLUS));

        let texts = vec!["1118thave".into()];
        let refined = refine(&texts, &orig).unwrap();
        let mut s = String::new();
        refined.render(&mut s);
        assert_eq!(s, r"\d+[a-z]+");

        // Already specific: no change.
        let texts = vec!["abc".into(), "defg".into()];
        let alpha = Ast::class(CharClass::Alpha, Quant::PLUS);
        assert!(refine(&texts, &alpha).is_none());

        // Punctuation-bearing: unrefinable.
        let texts = vec!["a-b".into()];
        assert!(refine(&texts, &orig).is_none());
    }

    #[test]
    fn embed_classes_end_to_end() {
        let (db, vps) = world();
        // NTT-style hostnames where the trailing vocab slot (`bb`, `ce`)
        // should become [a-z]{2}.
        let ping = |ms: f64| {
            let mut rtts = RouterRtts::new();
            rtts.record(VpId(1), Rtt::from_ms(ms));
            rtts
        };
        let (near, nearish) = (ping(3.0), ping(3.5));
        let mk = |prefix: &str, rtts| {
            let tags =
                crate::apparent::tag_prefix(&db, &vps, rtts, prefix, &ConsistencyPolicy::STRICT);
            TrainHost {
                hostname: format!("{prefix}.gin.example.net"),
                prefix: prefix.to_string(),
                router: 0,
                rtts,
                tags,
            }
        };
        let hosts = vec![
            mk("xe-0.a02.washdc04.us.bb", &near),
            mk("ae-1.r20.washdc01.us.ce", &nearish),
            mk("ae-2.r21.asbnva02.us.bb", &near),
        ];
        // A base regex with generic components.
        let base = base_regexes_for_host(&hosts[0].prefix, &hosts[0].tags, "gin.example.net");
        let generic = base
            .iter()
            .find(|r| {
                r.plan.hint_type() == Some(GeohintType::Clli)
                    && r.regex.as_pattern().contains(r"[^\.]+")
            })
            .expect("generic candidate");
        let refined = embed_character_classes(&hosts, generic).expect("refinable");
        let pat = refined.regex.as_pattern();
        assert!(pat.contains("[a-z]{2}"), "{pat}");
        // The refined regex still matches its sources.
        assert!(refined.regex.is_match(&hosts[0].hostname));
    }
}
