//! The correctness gate: which runs of a campaign count as failed.
//!
//! A run fails when the campaign flags it causality-suspect, or when it breaks
//! a claim the paper makes for its parameter point.  Claims are read from the
//! report's per-point summaries: a 0/1 flag's `sum` is the exact number of
//! runs that kept the claim, so `count - sum` runs broke it.

use karyon_scenario::{CampaignReport, ParamValue, PointReport};

/// A per-run claim about one metric of a point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Claim {
    /// The 0/1 flag metric must be 1 in every run.
    Flag(&'static str),
    /// The metric must stay at or below the limit in every run.  The report
    /// keeps only the largest value, so a breach fails the whole point.
    AtMost(&'static str, f64),
}

/// The claims the paper makes for a point:
/// - R2T-MAC bounds inaccessibility (`inaccessibility`, `mac = r2t`);
/// - self-stabilizing TDMA converges, stays collision-free, and re-converges
///   after a join when churn is on;
/// - pulse synchronisation converges at gain 0.5 (the default);
/// - the safety kernel reacts within the hazard bound (`kernel-latency`);
/// - realtime traffic keeps its 60 ms bound under overload
///   (`middleware-overload`, per-run `realtime_p99_ms`).
pub fn paper_claims(point: &PointReport) -> Vec<Claim> {
    let text = |key: &str| point.params.get(key).and_then(ParamValue::as_str);
    let flag = |key: &str| point.params.get(key).and_then(ParamValue::as_bool);
    match point.scenario.as_str() {
        "inaccessibility" if text("mac").unwrap_or("r2t") == "r2t" => vec![Claim::Flag("bounded")],
        "tdma" => {
            let mut claims =
                vec![Claim::Flag("converged"), Claim::Flag("stable_after_convergence")];
            if flag("churn").unwrap_or(false) {
                claims.push(Claim::Flag("reconverged_after_join"));
            }
            claims
        }
        "pulse-sync"
            if point.params.get("gain").and_then(ParamValue::as_f64).unwrap_or(0.5) == 0.5 =>
        {
            vec![Claim::Flag("converged")]
        }
        "kernel-latency" => vec![Claim::Flag("bound_satisfied")],
        "middleware-overload" => vec![Claim::AtMost("realtime_p99_ms", 60.0)],
        _ => Vec::new(),
    }
}

/// Runs of `point` that break `claim`.  A claimed metric missing from the
/// report cannot be checked, so every run counts as failed.
fn breaking_runs(point: &PointReport, claim: Claim) -> u64 {
    match claim {
        Claim::Flag(name) => match point.metrics.get(name) {
            Some(m) if m.count == point.runs => m.count - m.sum.round().max(0.0) as u64,
            _ => point.runs,
        },
        Claim::AtMost(name, limit) => match point.metrics.get(name) {
            Some(m) if m.count == point.runs && m.max <= limit => 0,
            _ => point.runs,
        },
    }
}

/// Failed runs of a report under the given claims: per point, the suspect
/// runs plus every claim's breaking runs, capped at the point's run count (a
/// run that breaks two claims is one failed run, so the sum is an upper
/// bound).
pub fn failed_runs_with(
    report: &CampaignReport,
    claims: impl Fn(&PointReport) -> Vec<Claim>,
) -> u64 {
    report
        .points
        .iter()
        .map(|point| {
            let broken: u64 = claims(point).into_iter().map(|c| breaking_runs(point, c)).sum();
            (point.suspect_runs + broken).min(point.runs)
        })
        .sum()
}

/// Failed runs of a report under the paper's claims.
pub fn failed_runs(report: &CampaignReport) -> u64 {
    failed_runs_with(report, paper_claims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use karyon_scenario::{builtin_registry, Campaign, CampaignEntry, ParamGrid};

    fn run(entry: CampaignEntry) -> CampaignReport {
        Campaign::new("gate", 3).with_threads(2).entry(entry).run(&builtin_registry()).unwrap()
    }

    #[test]
    fn pulse_sync_without_gain_fails_the_convergence_claim() {
        let report = run(CampaignEntry::new("pulse-sync")
            .grid(ParamGrid::new().axis("gain", [0.0]))
            .replications(6));
        // The paper claims convergence at gain 0.5; held to the same claim, a
        // gain-0 network never converges and every run fails.
        let as_if_tuned = |_: &PointReport| vec![Claim::Flag("converged")];
        assert_eq!(failed_runs_with(&report, as_if_tuned), 6);
        assert_eq!(failed_runs(&report), 0, "the paper makes no claim at gain 0");
    }

    #[test]
    fn csma_points_fail_the_r2t_bound_claim() {
        let report = run(CampaignEntry::new("inaccessibility")
            .grid(ParamGrid::new().axis("mac", ["csma", "r2t"]).axis("long_burst", [true]))
            .replications(3)
            .duration_secs(20));
        let bound_everywhere = |_: &PointReport| vec![Claim::Flag("bounded")];
        assert_eq!(failed_runs_with(&report, bound_everywhere), 3, "every CSMA run breaks it");
        assert_eq!(failed_runs(&report), 0, "R2T keeps its bound");
    }

    #[test]
    fn a_missing_claimed_metric_fails_every_run() {
        let report = run(CampaignEntry::new("tdma").replications(2).duration_secs(5));
        let unknown = |_: &PointReport| vec![Claim::Flag("no-such-flag")];
        assert_eq!(failed_runs_with(&report, unknown), 2);
    }

    #[test]
    fn overload_claims_check_the_largest_realtime_p99() {
        let report =
            run(CampaignEntry::new("middleware-overload").replications(2).duration_secs(5));
        assert_eq!(failed_runs(&report), 0);
        let strict = |_: &PointReport| vec![Claim::AtMost("realtime_p99_ms", 0.0)];
        assert_eq!(failed_runs_with(&report, strict), 2);
    }
}
