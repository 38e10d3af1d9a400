#!/usr/bin/env python3
"""Schema checker for BENCH_campaign.json.

CI runs this right after the quick-mode e16 harness.  It fails the build if

* the file is missing a section or a required key (schema drift — somebody
  renamed a field and the dashboards downstream would silently go blank),
* a section that compares reports says they were not bit-identical, or
* a campaign flagged suspect (causality-clamped) runs.

Usage: check_bench_schema.py [path-to-BENCH_campaign.json]
"""

import json
import sys

# section -> keys that must be present (values must be non-null).
SCHEMA = {
    "volume_campaign": [
        "runs",
        "ops_per_workload",
        "samples",
        "chunk_size",
        "workers",
        "serial_runs_per_sec",
        "parallel_runs_per_sec",
        "parallel_nosink_runs_per_sec",
        "large_chunk_runs_per_sec",
        "bit_identical",
        "suspect_runs",
    ],
    "checkpointing": [
        "runs",
        "ops_per_workload",
        "samples",
        "runs_per_sec",
        "relative_to_plain",
        "bit_identical",
    ],
    "mixed_campaign": [
        "runs",
        "ops_per_workload",
        "samples",
        "families",
        "runs_per_sec",
        "suspect_runs",
    ],
    "telemetry": [
        "runs",
        "ops_per_workload",
        "samples",
        "detached_runs_per_sec",
        "detached_relative_to_plain",
        "traced_runs_per_sec",
        "trace_bytes",
        "bit_identical",
    ],
}


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_campaign.json"
    with open(path) as fh:
        doc = json.load(fh)

    errors = []

    for key in ("bench", "quick"):
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")

    for section, keys in SCHEMA.items():
        obj = doc.get(section)
        if not isinstance(obj, dict):
            errors.append(f"missing section {section!r}")
            continue
        for key in keys:
            if obj.get(key) is None:
                errors.append(f"{section}.{key} missing or null")

    if not errors:
        for section in ("volume_campaign", "checkpointing", "telemetry"):
            if doc[section]["bit_identical"] is not True:
                errors.append(f"{section}.bit_identical is not true")
        for section in ("volume_campaign", "mixed_campaign"):
            if doc[section]["suspect_runs"] != 0:
                errors.append(f"{section}.suspect_runs != 0")

    if errors:
        for err in errors:
            print(f"BENCH_campaign.json: {err}", file=sys.stderr)
        return 1

    print("BENCH_campaign.json ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
