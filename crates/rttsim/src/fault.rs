//! Measurement fault injection and detection (§5.1.4).
//!
//! The paper discarded TCP-probe RTTs from seven VPs whose access
//! routers *spoofed* TCP reset responses: RTTs were 1–2 ms regardless of
//! target distance. This module injects that pathology into a simulated
//! measurement campaign and implements the automatic filter the paper
//! sketches as future work (flag VPs whose RTTs are implausibly constant
//! across targets at very different distances).

use crate::rng::Rng;
use crate::{RouterRtts, VpId, VpSet};
use hoiho_geotypes::{Coordinates, Rtt};

/// Replace the samples of `spoofed_vps` in a measurement with constant
/// near-zero RTTs, as a spoofing middlebox would.
pub fn inject_spoofing<R: Rng + ?Sized>(
    samples: &mut RouterRtts,
    spoofed_vps: &[VpId],
    rng: &mut R,
) {
    for &vp in spoofed_vps {
        let fake = 1.0 + rng.random::<f64>(); // 1–2 ms
        samples.record_spoofed(vp, Rtt::from_ms(fake));
    }
}

impl RouterRtts {
    /// Overwrite (not minimum-merge) the sample for one VP — used only by
    /// fault injection, where the spoofed value replaces reality.
    pub fn record_spoofed(&mut self, vp: VpId, rtt: Rtt) {
        match self.samples.binary_search_by_key(&vp, |(v, _)| *v) {
            Ok(i) => self.samples[i].1 = rtt,
            Err(i) => self.samples.insert(i, (vp, rtt)),
        }
    }
}

/// Detect spoofing VPs across a measurement campaign: a VP is flagged
/// when, over many targets spanning very different distances, its RTT
/// spread stays within `max_spread_ms`. Honest VPs see a wide spread
/// because targets range from local to intercontinental.
pub fn detect_spoofing_vps(
    vps: &VpSet,
    campaigns: &[(Coordinates, RouterRtts)],
    max_spread_ms: f64,
    min_targets: usize,
) -> Vec<VpId> {
    let mut flagged = Vec::new();
    for (vp_id, _) in vps.iter() {
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        let mut n = 0usize;
        let mut dist_min = f64::INFINITY;
        let mut dist_max: f64 = 0.0;
        for (router, samples) in campaigns {
            if let Ok(i) = samples.samples().binary_search_by_key(&vp_id, |(v, _)| *v) {
                let rtt = samples.samples()[i].1.as_ms();
                min = min.min(rtt);
                max = max.max(rtt);
                n += 1;
                let d = vps.get(vp_id).coords.distance_km(router);
                dist_min = dist_min.min(d);
                dist_max = dist_max.max(d);
            }
        }
        // Only meaningful when this VP measured targets at genuinely
        // different distances.
        if n >= min_targets && dist_max - dist_min > 2_000.0 && max - min <= max_spread_ms {
            flagged.push(vp_id);
        }
    }
    flagged
}

/// Detect spoofing VPs *without* ground-truth target locations — the
/// production-usable variant of [`detect_spoofing_vps`]. A spoofing
/// middlebox answers every probe locally, so the VP's RTT distribution
/// across many targets is implausibly tight and implausibly small; an
/// honest VP probing Internet-spread targets sees a wide spread.
pub fn detect_spoofing_vps_blind(
    vps: &VpSet,
    campaigns: &[&RouterRtts],
    max_spread_ms: f64,
    max_median_ms: f64,
    min_targets: usize,
) -> Vec<VpId> {
    // Count each VP's samples, then scatter them into one flat array
    // of per-VP buckets sized to those counts: 4 bytes a sample and no
    // growth slack. One pass per step keeps the campaigns' sample
    // vectors streaming through cache; the per-VP binary-search
    // alternative touches each of them once per VP.
    let mut next = vec![0usize; vps.len()];
    for samples in campaigns {
        for (vp, _) in samples.samples() {
            if let Some(n) = next.get_mut(vp.0 as usize) {
                *n += 1;
            }
        }
    }
    // Counts → bucket starts; scattering advances each to its end.
    let mut total = 0;
    for n in &mut next {
        let count = *n;
        *n = total;
        total += count;
    }
    let mut flat = vec![Rtt::ZERO; total];
    for samples in campaigns {
        for &(vp, rtt) in samples.samples() {
            if let Some(at) = next.get_mut(vp.0 as usize) {
                flat[*at] = rtt;
                *at += 1;
            }
        }
    }
    let mut flagged = Vec::new();
    let mut start = 0;
    for (vp_id, _) in vps.iter() {
        let end = next[vp_id.0 as usize];
        let rtts = &mut flat[start..end];
        start = end;
        if rtts.is_empty() || rtts.len() < min_targets {
            continue;
        }
        // Selection instead of a full sort: the spread needs only the
        // extremes and the median is a single order statistic. Order
        // statistics of the integer µs equal those of their `as_ms()`
        // values (the conversion is monotonic), so converting after
        // selection leaves every comparison below unchanged.
        let mid = rtts.len() / 2;
        let median = *rtts.select_nth_unstable(mid).1;
        let (lo, hi) = rtts
            .iter()
            .fold((rtts[0], rtts[0]), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        if hi.as_ms() - lo.as_ms() <= max_spread_ms && median.as_ms() <= max_median_ms {
            flagged.push(vp_id);
        }
    }
    hoiho_obs::add("rtt.spoof.vps_checked", vps.len() as u64);
    hoiho_obs::add("rtt.spoof.vps_flagged", flagged.len() as u64);
    flagged
}

/// Remove every sample taken by the given VPs from a measurement —
/// what the paper did manually for its seven spoofing VPs.
pub fn strip_vps(samples: &RouterRtts, bad: &[VpId]) -> RouterRtts {
    let kept: Vec<(VpId, Rtt)> = samples
        .samples()
        .iter()
        .filter(|(vp, _)| !bad.contains(vp))
        .copied()
        .collect();
    let mut out = RouterRtts::new();
    out.record_all(&kept);
    if hoiho_obs::enabled() {
        hoiho_obs::counter!("rtt.spoof.samples_stripped").add((samples.len() - out.len()) as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;
    use crate::RttModel;

    fn world() -> VpSet {
        let mut vps = VpSet::new();
        vps.add("dca", Coordinates::new(38.9, -77.0));
        vps.add("sjc", Coordinates::new(37.3, -121.9));
        vps.add("ams", Coordinates::new(52.4, 4.9));
        vps
    }

    fn targets() -> Vec<Coordinates> {
        vec![
            Coordinates::new(39.0, -77.5),   // Ashburn
            Coordinates::new(34.05, -118.2), // LA
            Coordinates::new(51.5, -0.1),    // London
            Coordinates::new(35.68, 139.65), // Tokyo
            Coordinates::new(-33.87, 151.2), // Sydney
        ]
    }

    #[test]
    fn spoofed_vp_detected_honest_vps_not() {
        let vps = world();
        let model = RttModel {
            per_vp_response_rate: 1.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(77);
        let spoofed = vec![VpId(1)];
        let mut campaigns = Vec::new();
        for t in targets() {
            let mut s = model.probe_from_all(&vps, &t, &mut rng);
            inject_spoofing(&mut s, &spoofed, &mut rng);
            campaigns.push((t, s));
        }
        let flagged = detect_spoofing_vps(&vps, &campaigns, 5.0, 3);
        assert_eq!(flagged, vec![VpId(1)]);
    }

    #[test]
    fn injection_overwrites_with_small_rtts() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = RouterRtts::new();
        s.record(VpId(0), Rtt::from_ms(80.0));
        inject_spoofing(&mut s, &[VpId(0)], &mut rng);
        let rtt = s.samples()[0].1.as_ms();
        assert!((1.0..=2.0).contains(&rtt), "got {rtt}");
    }

    #[test]
    fn detection_requires_enough_targets() {
        let vps = world();
        let campaigns = vec![];
        assert!(detect_spoofing_vps(&vps, &campaigns, 5.0, 3).is_empty());
    }

    #[test]
    fn blind_detection_finds_spoofers() {
        let vps = world();
        let model = RttModel {
            per_vp_response_rate: 1.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(99);
        let spoofed = vec![VpId(2)];
        let mut campaigns_owned = Vec::new();
        for t in targets() {
            let mut s = model.probe_from_all(&vps, &t, &mut rng);
            inject_spoofing(&mut s, &spoofed, &mut rng);
            campaigns_owned.push(s);
        }
        let refs: Vec<&RouterRtts> = campaigns_owned.iter().collect();
        let flagged = detect_spoofing_vps_blind(&vps, &refs, 5.0, 5.0, 3);
        assert_eq!(flagged, vec![VpId(2)]);
    }

    #[test]
    fn strip_vps_removes_samples() {
        let mut s = RouterRtts::new();
        s.record(VpId(0), Rtt::from_ms(10.0));
        s.record(VpId(1), Rtt::from_ms(20.0));
        let cleaned = strip_vps(&s, &[VpId(0)]);
        assert_eq!(cleaned.len(), 1);
        assert_eq!(cleaned.samples()[0].0, VpId(1));
        // Stripping nothing is identity.
        assert_eq!(strip_vps(&s, &[]), s);
    }
}
