//! Golden reports: what every built-in family computes, pinned.
//!
//! Determinism tests prove that a campaign gives the same bytes for any
//! worker count, chunk plan or resume point; they cannot notice a refactor
//! that changes what a family computes while staying deterministic.  This
//! suite runs one small campaign per family in `builtin_registry()`: the
//! families the MAC slot loop drives — `inaccessibility` (R2T-MAC and CSMA,
//! with and without the stark 8–12 s jamming burst), `tdma` (with and
//! without churn) and `pulse-sync` — the families the safety-kernel cycle
//! drives — `kernel-latency`, `platoon` and `platoon-fault` — the EventBus
//! families — `middleware-qos` (with and without the mid-run degradation)
//! and `middleware-overload` (at, above and far above rated load) — the
//! simulated transport fabric `net-transport`, the network and cooperation
//! families `end-to-end`, `topology` and `cooperation`, the sensor families
//! `sensor-validity` and `reliable-sensor`, and the vehicle families
//! `intersection`, `lane-change` and `avionics-rpv`.  The grids reach every
//! axis value `list-families` declares for the last eight.  Each family runs
//! at two campaign seeds, and every report is compared byte for byte
//! against the checked-in JSON under `tests/golden/`;
//! `every_family_is_pinned` fails when a family has no golden files or a
//! golden file names no family.
//!
//! A deliberate behaviour change re-blesses the files:
//!
//! ```sh
//! KARYON_BLESS=1 cargo test -q --test golden
//! ```
//!
//! and the change must say why the numbers moved.

use std::collections::BTreeSet;
use std::path::PathBuf;

use karyon::scenario::{builtin_registry, Campaign, CampaignEntry, ParamGrid};

/// The campaign seeds every family is pinned at.
const SEEDS: [u64; 2] = [1, 2];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.json"))
}

/// Re-indents the report's compact JSON so that a behaviour change shows up
/// as a readable line diff: every object or array that contains another one
/// opens one line per member, while leaf objects (parameter points, metric
/// summaries) stay on one line.  Only whitespace is added, so the bytes of
/// every key and number are those the report wrote.
fn pretty(json: &str) -> String {
    let bytes = json.as_bytes();
    // For each opening bracket, whether it (transitively) contains another.
    let mut nested = vec![false; bytes.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => {
                if let Some(&open) = stack.last() {
                    nested[open] = true;
                }
                stack.push(i);
            }
            b'}' | b']' => {
                stack.pop();
            }
            _ => {}
        }
    }

    let mut out: Vec<u8> = Vec::with_capacity(json.len() * 2);
    // Per open container: does it break lines?
    let mut breaking: Vec<bool> = Vec::new();
    let newline = |out: &mut Vec<u8>, depth: usize| {
        out.push(b'\n');
        out.extend(std::iter::repeat(b' ').take(2 * depth));
    };
    let (mut in_string, mut escaped) = (false, false);
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            out.push(b);
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => {
                in_string = true;
                out.push(b);
            }
            b'{' | b'[' => {
                out.push(b);
                breaking.push(nested[i]);
                if nested[i] {
                    newline(&mut out, breaking.len());
                }
            }
            b'}' | b']' => {
                if breaking.pop() == Some(true) {
                    newline(&mut out, breaking.len());
                }
                out.push(b);
            }
            b',' => {
                out.push(b);
                if breaking.last() == Some(&true) {
                    newline(&mut out, breaking.len());
                }
            }
            b':' if breaking.last() == Some(&true) => out.extend_from_slice(b": "),
            _ => out.push(b),
        }
    }
    out.push(b'\n');
    String::from_utf8(out).expect("whitespace keeps UTF-8 intact")
}

/// Runs `entry` at every golden seed and compares (or, under
/// `KARYON_BLESS=1`, rewrites) `tests/golden/<name>.seed<N>.json`.
fn check(name: &str, entry: CampaignEntry) {
    check_entries(name, &[entry]);
}

/// [`check`] for a campaign of several entries.
fn check_entries(name: &str, entries: &[CampaignEntry]) {
    let registry = builtin_registry();
    let bless = std::env::var_os("KARYON_BLESS").is_some_and(|v| v == "1");
    for seed in SEEDS {
        let campaign = entries.iter().fold(
            Campaign::new(&format!("golden-{name}"), seed).with_threads(2),
            |campaign, entry| campaign.entry(entry.clone()),
        );
        let report = campaign.run(&registry).expect("builtin family");
        assert_eq!(report.suspect_runs(), 0, "{name} seed {seed}: causality-suspect runs");
        let actual = pretty(&report.to_json());
        let path = golden_path(&format!("{name}.seed{seed}"));
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden file {} ({e}); bless with KARYON_BLESS=1", path.display())
        });
        if actual != expected {
            let first = actual
                .lines()
                .zip(expected.lines())
                .position(|(a, e)| a != e)
                .unwrap_or(actual.lines().count().min(expected.lines().count()));
            panic!(
                "{name} seed {seed} no longer matches {}: first difference at line {}\n  \
                 expected: {}\n  actual:   {}\nre-bless with KARYON_BLESS=1 only for a \
                 deliberate behaviour change",
                path.display(),
                first + 1,
                expected.lines().nth(first).unwrap_or("<end of file>"),
                actual.lines().nth(first).unwrap_or("<end of file>"),
            );
        }
    }
}

/// R2T-MAC and CSMA under random bursts and the 8–12 s long burst.  The 14 s
/// horizon covers the long burst and many R2T channel switches (threshold 10
/// jammed slots against 200–800 ms bursts).
#[test]
fn inaccessibility_reports_are_pinned() {
    check(
        "inaccessibility",
        CampaignEntry::new("inaccessibility")
            .grid(
                ParamGrid::new()
                    .axis("mac", ["r2t", "csma"])
                    .axis("burst_ms", [200, 800])
                    .axis("long_burst", [false, true]),
            )
            .replications(3)
            .duration_secs(14),
    );
}

/// Self-stabilizing TDMA from empty and adversarial claims, with and without
/// a node joining the converged network.
#[test]
fn tdma_reports_are_pinned() {
    check(
        "tdma",
        CampaignEntry::new("tdma")
            .grid(
                ParamGrid::new()
                    .axis("nodes", [4, 8])
                    .axis("adversarial", [false, true])
                    .axis("churn", [false, true]),
            )
            .replications(3)
            .duration_secs(10),
    );
}

/// Pulse alignment with and without the phase correction.
#[test]
fn pulse_sync_reports_are_pinned() {
    check(
        "pulse-sync",
        CampaignEntry::new("pulse-sync")
            .grid(ParamGrid::new().axis("loss", [0.05, 0.3]).axis("gain", [0.5, 0.0]))
            .replications(3)
            .duration_secs(20),
    );
}

/// Synthetic kernel designs at two rule-set sizes over the default 2,000
/// cycles.  The items are written once at 1 ms and age past their 500 ms
/// freshness bound near cycle 491, so both the all-pass and the failing
/// evaluation paths run.
#[test]
fn kernel_latency_reports_are_pinned() {
    check(
        "kernel-latency",
        CampaignEntry::new("kernel-latency")
            .grid(ParamGrid::new().axis("rules_per_level", [8, 32]))
            .replications(3),
    );
}

/// The kernel-controlled platoon against the always-cooperative and the
/// always-conservative baselines, with and without the mid-run V2V outage.
#[test]
fn platoon_reports_are_pinned() {
    check(
        "platoon",
        CampaignEntry::new("platoon")
            .grid(
                ParamGrid::new()
                    .axis("mode", ["kernel", "los2", "los0"])
                    .axis("outage", [false, true]),
            )
            .replications(3)
            .duration_secs(60),
    );
}

/// Randomized sensor faults and V2V outages under the kernel and the
/// always-cooperative baseline.  Faults start at 20–60 s and outages at
/// 30–80 s, so the 90 s horizon holds both.
#[test]
fn platoon_fault_reports_are_pinned() {
    check(
        "platoon-fault",
        CampaignEntry::new("platoon-fault")
            .grid(ParamGrid::new().axis("mode", ["kernel", "los2"]))
            .replications(3)
            .duration_secs(90),
    );
}

/// The lead-state channel at two publish rates, with and without the
/// mid-run wireless degradation, over both network segments.  At 50 Hz the
/// 5 s degrade instant falls on a publish tick; at 30 Hz it does not.
#[test]
fn middleware_qos_reports_are_pinned() {
    check(
        "middleware-qos",
        CampaignEntry::new("middleware-qos")
            .grid(
                ParamGrid::new()
                    .axis("rate_hz", [50.0, 30.0])
                    .axis("degrade", [false, true])
                    .axis("network", ["wireless", "local"]),
            )
            .replications(3)
            .duration_secs(10),
    );
}

/// The EventBus at 10×, 1× and 3× rated load, for mixed and batched
/// consumers under the class-default and aggregate strategies.  At 1× every
/// drain ties a publish; at 3× the two cadences tie only at t = 0.
#[test]
fn middleware_overload_reports_are_pinned() {
    check(
        "middleware-overload",
        CampaignEntry::new("middleware-overload")
            .grid(
                ParamGrid::new()
                    .axis("load_x", [10.0, 1.0, 3.0])
                    .axis("qos_mix", ["mixed", "batched"])
                    .axis("strategy", ["class-default", "aggregate"]),
            )
            .replications(3)
            .duration_secs(5),
    );
}

/// The simulated transport fabric on a 4- and a 2-node ring, with and
/// without the mid-run partition, at two drop rates.
#[test]
fn net_transport_reports_are_pinned() {
    check(
        "net-transport",
        CampaignEntry::new("net-transport")
            .grid(
                ParamGrid::new()
                    .axis("nodes", [4, 2])
                    .axis("partition", [false, true])
                    .axis("drop", [0.1, 0.3]),
            )
            .replications(3),
    );
}

/// The RPV's detect-and-avoid function in all three encounter geometries,
/// against collaborative and non-collaborative traffic, with and without
/// conflict resolution.
#[test]
fn avionics_rpv_reports_are_pinned() {
    check(
        "avionics-rpv",
        CampaignEntry::new("avionics-rpv")
            .grid(
                ParamGrid::new()
                    .axis("encounter", ["same-direction", "crossing", "level-change"])
                    .axis("traffic", ["collaborative", "non-collaborative"])
                    .axis("resolution", [true, false]),
            )
            .replications(3),
    );
}

/// Cooperative agreement among 2, 4 and 8 participants over a clean and two
/// lossy channels.
#[test]
fn cooperation_reports_are_pinned() {
    check(
        "cooperation",
        CampaignEntry::new("cooperation")
            .grid(ParamGrid::new().axis("participants", [4, 2, 8]).axis("loss", [0.0, 0.2, 0.5]))
            .replications(3),
    );
}

/// The end-to-end protocol under omission and duplication, and separately
/// over every buffer capacity with and without corruption and reordering.
/// Two entries instead of one full product keep the files small.
#[test]
fn end_to_end_reports_are_pinned() {
    check_entries(
        "end-to-end",
        &[
            CampaignEntry::new("end-to-end")
                .grid(
                    ParamGrid::new()
                        .axis("omission", [0.0, 0.1, 0.3])
                        .axis("duplication", [0.0, 0.1, 0.3]),
                )
                .replications(3),
            CampaignEntry::new("end-to-end")
                .grid(
                    ParamGrid::new()
                        .axis("capacity", [8, 4, 16])
                        .axis("corrupt", [false, true])
                        .axis("reorder", [true, false]),
                )
                .replications(3),
        ],
    );
}

/// The virtual traffic light against uncoordinated crossing at three arrival
/// rates, with and without the physical light failing.
#[test]
fn intersection_reports_are_pinned() {
    check(
        "intersection",
        CampaignEntry::new("intersection")
            .grid(
                ParamGrid::new()
                    .axis("fallback", ["vtl", "uncoordinated"])
                    .axis("arrivals_per_minute", [12.0, 6.0, 20.0])
                    .axis("light_fail", [true, false]),
            )
            .replications(3),
    );
}

/// Lane changes with and without the agreement protocol, over three traffic
/// densities, two desire rates and two message-loss rates.
#[test]
fn lane_change_reports_are_pinned() {
    check(
        "lane-change",
        CampaignEntry::new("lane-change")
            .grid(
                ParamGrid::new()
                    .axis("coordination", ["agreement", "none"])
                    .axis("vehicles", [16, 12, 20])
                    .axis("desire_rate", [0.05, 0.08])
                    .axis("message_loss", [0.02, 0.1]),
            )
            .replications(3),
    );
}

/// The replicated reliable sensor against a single sensor under every fault
/// model.
#[test]
fn reliable_sensor_reports_are_pinned() {
    check(
        "reliable-sensor",
        CampaignEntry::new("reliable-sensor")
            .grid(
                ParamGrid::new()
                    .axis("config", ["reliable", "single"])
                    .axis("fault", ["none", "permanent", "stochastic", "stuck"]),
            )
            .replications(3),
    );
}

/// Sensor validity estimation under every fault model.
#[test]
fn sensor_validity_reports_are_pinned() {
    check(
        "sensor-validity",
        CampaignEntry::new("sensor-validity")
            .grid(
                ParamGrid::new().axis(
                    "fault",
                    ["none", "delay", "sporadic", "permanent", "stochastic", "stuck"],
                ),
            )
            .replications(3),
    );
}

/// Connectivity of the three topologies at three network sizes.
#[test]
fn topology_reports_are_pinned() {
    check(
        "topology",
        CampaignEntry::new("topology")
            .grid(
                ParamGrid::new()
                    .axis("topology", ["ring-chords", "line", "complete"])
                    .axis("nodes", [12, 6, 10]),
            )
            .replications(3),
    );
}

/// Every registry family has both golden files, and every golden file names
/// a registry family at a golden seed.
#[test]
fn every_family_is_pinned() {
    let families = builtin_registry().names();
    let expected: BTreeSet<String> = families
        .iter()
        .flat_map(|family| SEEDS.map(|seed| format!("{family}.seed{seed}.json")))
        .collect();
    let dir = golden_dir();
    let present: BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let missing: Vec<&String> = expected.difference(&present).collect();
    let stray: Vec<&String> = present.difference(&expected).collect();
    assert!(missing.is_empty(), "families without golden files: {missing:?}");
    assert!(stray.is_empty(), "golden files that name no family at a golden seed: {stray:?}");
}

#[test]
fn pretty_printing_only_adds_whitespace() {
    let compact = r#"{"a":1,"b":{"c":"x,{y}","d":[1,2]},"e":[{"f":true}]}"#;
    let printed = pretty(compact);
    let stripped: String = {
        // Remove the whitespace `pretty` added outside strings.
        let mut out = String::new();
        let (mut in_string, mut escaped) = (false, false);
        for c in printed.chars() {
            if in_string {
                out.push(c);
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => in_string = false,
                    _ => {}
                }
            } else if c == '"' {
                in_string = true;
                out.push(c);
            } else if !c.is_whitespace() {
                out.push(c);
            }
        }
        out
    };
    assert_eq!(stripped, compact);
    // `b` holds an array, so it opens one line per member; the leaves stay
    // on one line.
    assert!(printed.contains("\"b\": {\n"), "{printed}");
    assert!(printed.contains(r#""d": [1,2]"#), "{printed}");
    assert!(printed.contains(r#"{"f":true}"#), "{printed}");
}
