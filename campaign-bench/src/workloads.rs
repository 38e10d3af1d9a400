//! The three workloads: which real scenario families each campaign sweeps,
//! and the campaign spec generated for a workload seed.
//!
//! The seed becomes the campaign seed, from which the runner derives every
//! run's RNG seed; the shape of each campaign (families, grids, replications,
//! horizons, chunking) is fixed per workload, so runs of different seeds time
//! the same amount of work.

use std::collections::HashMap;

use karyon_scenario::derive_run_seed;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Time-stepped network families at the 60 s horizon; the MAC slot loop
    /// dominates.  Two workers, no artifacts.
    NetSlots,
    /// Safety-kernel cycles and middleware bus traffic.  Two workers, no
    /// artifacts.
    KernelBus,
    /// About 10^5 cheap runs streamed to JSONL and trace files with a
    /// checkpoint every chunk, then read back.  One worker.
    ArtifactRoundtrip,
}

/// One entry of a workload's campaign: a family swept over a grid.
pub struct Entry {
    /// The scenario family.
    pub scenario: &'static str,
    /// Runs per parameter point.
    pub replications: u64,
    /// Simulated horizon of every run.
    pub duration_secs: u64,
    /// Grid axes: parameter name and its values as JSON literals.
    pub grid: &'static [(&'static str, &'static [&'static str])],
}

impl Entry {
    /// Parameter points this entry expands to.
    pub fn points(&self) -> u64 {
        self.grid.iter().map(|(_, values)| values.len() as u64).product()
    }
}

const NET_SLOTS: &[Entry] = &[
    Entry {
        scenario: "inaccessibility",
        replications: 12,
        duration_secs: 60,
        grid: &[
            ("mac", &["\"r2t\"", "\"csma\""]),
            ("burst_ms", &["200", "800"]),
            ("long_burst", &["false", "true"]),
        ],
    },
    Entry {
        scenario: "tdma",
        replications: 96,
        duration_secs: 60,
        grid: &[
            ("nodes", &["8", "12"]),
            ("adversarial", &["false", "true"]),
            ("churn", &["false", "true"]),
        ],
    },
    Entry {
        scenario: "pulse-sync",
        replications: 96,
        duration_secs: 60,
        grid: &[("drift_ppm", &["40.0", "100.0"]), ("loss", &["0.05", "0.3"])],
    },
];

const KERNEL_BUS: &[Entry] = &[
    Entry {
        scenario: "kernel-latency",
        replications: 32,
        duration_secs: 60,
        grid: &[("rules_per_level", &["8", "32", "128"])],
    },
    Entry {
        scenario: "middleware-overload",
        replications: 32,
        duration_secs: 60,
        grid: &[("load_x", &["10.0", "20.0"])],
    },
    Entry { scenario: "middleware-qos", replications: 32, duration_secs: 60, grid: &[] },
    Entry {
        scenario: "platoon",
        replications: 32,
        duration_secs: 60,
        grid: &[("mode", &["\"kernel\"", "\"los2\"", "\"los0\""])],
    },
    Entry { scenario: "platoon-fault", replications: 32, duration_secs: 60, grid: &[] },
];

// `avionics-rpv` reports an f64::MAX separation sentinel that overflows the
// histogram range derived past the exact-quantile limit: its points must stay
// at or below 4,096 runs.
const ARTIFACT_ROUNDTRIP: &[Entry] = &[
    Entry {
        scenario: "avionics-rpv",
        replications: 1_600,
        duration_secs: 1,
        grid: &[
            ("encounter", &["\"same-direction\"", "\"crossing\"", "\"level-change\""]),
            ("traffic", &["\"collaborative\"", "\"non-collaborative\""]),
            ("resolution", &["true", "false"]),
        ],
    },
    Entry {
        scenario: "cooperation",
        replications: 1_600,
        duration_secs: 1,
        grid: &[("participants", &["4", "2", "8"]), ("loss", &["0.0", "0.2", "0.5"])],
    },
    Entry {
        scenario: "intersection",
        replications: 1_600,
        duration_secs: 2,
        grid: &[
            ("fallback", &["\"vtl\"", "\"uncoordinated\""]),
            ("arrivals_per_minute", &["12.0", "6.0", "20.0"]),
            ("light_fail", &["true", "false"]),
        ],
    },
    Entry {
        scenario: "lane-change",
        replications: 1_600,
        duration_secs: 2,
        grid: &[
            ("coordination", &["\"agreement\"", "\"none\""]),
            ("vehicles", &["16", "12", "20"]),
            ("desire_rate", &["0.05", "0.08"]),
        ],
    },
    Entry {
        scenario: "sensor-validity",
        replications: 1_600,
        duration_secs: 2,
        grid: &[(
            "fault",
            &[
                "\"none\"",
                "\"delay\"",
                "\"sporadic\"",
                "\"permanent\"",
                "\"stochastic\"",
                "\"stuck\"",
            ],
        )],
    },
    Entry {
        scenario: "middleware-qos",
        replications: 800,
        duration_secs: 1,
        grid: &[("rate_hz", &["50.0", "100.0"]), ("degrade", &["false", "true"])],
    },
    Entry {
        scenario: "net-transport",
        replications: 500,
        duration_secs: 1,
        grid: &[("nodes", &["4", "2"]), ("partition", &["false", "true"])],
    },
];

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::NetSlots, Workload::KernelBus, Workload::ArtifactRoundtrip];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetSlots => "net-slots",
            Workload::KernelBus => "kernel-bus",
            Workload::ArtifactRoundtrip => "artifact-roundtrip",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign's entries.
    pub fn entries(self) -> &'static [Entry] {
        match self {
            Workload::NetSlots => NET_SLOTS,
            Workload::KernelBus => KERNEL_BUS,
            Workload::ArtifactRoundtrip => ARTIFACT_ROUNDTRIP,
        }
    }

    /// Worker threads.  The artifact collector is serial, so a second worker
    /// buys artifact-roundtrip nothing.
    pub fn threads(self) -> usize {
        match self {
            Workload::ArtifactRoundtrip => 1,
            _ => 2,
        }
    }

    /// Canonical chunk size: small on the two-worker workloads, whose runs
    /// cost milliseconds, so both workers stay busy to the campaign's end.
    pub fn chunk_size(self) -> usize {
        match self {
            Workload::ArtifactRoundtrip => karyon_scenario::DEFAULT_CHUNK_SIZE,
            _ => 4,
        }
    }

    /// True when timed sessions write the CLI's artifacts.
    pub fn writes_artifacts(self) -> bool {
        self == Workload::ArtifactRoundtrip
    }

    /// Total runs of the campaign.
    pub fn run_count(self) -> u64 {
        self.entries().iter().map(|e| e.points() * e.replications).sum()
    }

    /// The campaign spec for `seed`, in the format `karyon-campaign` reads.
    pub fn spec_json(self, seed: u64) -> String {
        let entries: Vec<String> = self
            .entries()
            .iter()
            .map(|e| {
                let axes: Vec<String> = e
                    .grid
                    .iter()
                    .map(|(axis, values)| format!("\"{axis}\": [{}]", values.join(", ")))
                    .collect();
                format!(
                    "    {{\"scenario\": \"{}\", \"replications\": {}, \"duration_secs\": {}, \
                     \"grid\": {{{}}}}}",
                    e.scenario,
                    e.replications,
                    e.duration_secs,
                    axes.join(", ")
                )
            })
            .collect();
        format!(
            "{{\n  \"name\": \"{}\",\n  \"seed\": {seed},\n  \"threads\": {},\n  \
             \"chunk_size\": {},\n  \"entries\": [\n{}\n  ]\n}}\n",
            self.name(),
            self.threads(),
            self.chunk_size(),
            entries.join(",\n")
        )
    }

    /// Maps every run's derived seed to its global run index.
    pub fn run_index_by_seed(self, seed: u64) -> HashMap<u64, u64> {
        let shape: Vec<(u64, u64)> =
            self.entries().iter().map(|e| (e.points(), e.replications)).collect();
        run_index_by_seed(seed, &shape)
    }
}

/// Maps the derived seed of every run of a campaign to the run's global
/// index, so a family wrapper, which sees only the run's spec, can name the
/// run it timed.  `shape` lists each entry's points and replications.
pub fn run_index_by_seed(seed: u64, shape: &[(u64, u64)]) -> HashMap<u64, u64> {
    let mut map = HashMap::new();
    let (mut point, mut run) = (0u64, 0u64);
    for &(points, replications) in shape {
        for _ in 0..points {
            for replication in 0..replications {
                map.insert(derive_run_seed(seed, point, replication), run);
                run += 1;
            }
            point += 1;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use karyon_scenario::Campaign;

    #[test]
    fn specs_parse_and_match_the_declared_shape() {
        for workload in Workload::ALL {
            let campaign = Campaign::from_json_str(&workload.spec_json(7)).expect("valid spec");
            assert_eq!(campaign.run_count(), workload.run_count(), "{}", workload.name());
            assert_eq!(campaign.threads(), workload.threads());
            assert_eq!(campaign.chunk_size(), workload.chunk_size());
            assert_eq!(workload.run_index_by_seed(7).len() as u64, workload.run_count());
        }
    }

    #[test]
    fn avionics_points_stay_within_the_exact_quantile_limit() {
        for workload in Workload::ALL {
            for entry in workload.entries().iter().filter(|e| e.scenario == "avionics-rpv") {
                assert!(entry.replications <= karyon_scenario::report::QUANTILE_EXACT_LIMIT);
            }
        }
    }
}
