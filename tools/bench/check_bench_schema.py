#!/usr/bin/env python3
"""check_bench_schema: validates BENCH_parjoin.json against parjoin-bench-v1.

The perf trajectory file is written line-oriented by bench/bench_util.cc
(UpdateBenchJson) from several independent bench binaries across PRs. A
malformed entry — duplicate (experiment, name), a missing required field,
a wrong type — silently corrupts the trajectory the next time a binary
rewrites its experiment's lines. This checker pins the contract:

  * top level: {"schema": "parjoin-bench-v1", "entries": [...]}
  * every entry is an object with required fields
      experiment (str), name (str, no '"'), n (int >= 0), p (int > 0),
      threads (int >= 1), wall_ms (number >= 0), max_load (int >= 0),
      rounds (int >= 0), total_comm (int >= 0)
  * optional fields critical_path / recovery_comm (int >= 0) — entries
    written before the ledger grew those columns lack them
  * no unknown fields, and (experiment, name) pairs are unique

Exit status 0 when the file validates, 1 otherwise (one message per
problem). `--self-test` runs the checker against embedded good/bad
documents and fails if any misjudged.
"""

import argparse
import json
import sys

SCHEMA = "parjoin-bench-v1"

# field -> (types, min_value); bool is an int subclass in Python, so it is
# rejected explicitly everywhere.
REQUIRED = {
    "experiment": (str, None),
    "name": (str, None),
    "n": (int, 0),
    "p": (int, 1),
    "threads": (int, 1),
    "wall_ms": ((int, float), 0),
    "max_load": (int, 0),
    "rounds": (int, 0),
    "total_comm": (int, 0),
}
OPTIONAL = {
    "critical_path": (int, 0),
    "recovery_comm": (int, 0),
    # Serving-runtime metrics (E7 entries from bench_serving).
    "qps": ((int, float), 0),
    "p50_ms": ((int, float), 0),
    "p99_ms": ((int, float), 0),
    "cache_hit_rate": ((int, float), 0),
    "cold_plan_ms": ((int, float), 0),
    "warm_plan_ms": ((int, float), 0),
    # Planner-calibration metrics (E8 entries from bench_calibration).
    "chosen_unit": (str, None),
    "chosen_calibrated": (str, None),
    "measured_best": (str, None),
    "corrected": (int, 0),
    "calib_factor": ((int, float), 0),
    # Fine-grained-recovery metrics (E9 entries from
    # bench_fault_recovery).
    "resumes": (int, 0),
    "resumed_rounds": (int, 0),
    "rebalances": (int, 0),
    "rebalance_comm": (int, 0),
    "replans": (int, 0),
}


def check_field(where, field, value, types, minimum, errors):
    if isinstance(value, bool) or not isinstance(value, types):
        errors.append(f"{where}: field '{field}' has type "
                      f"{type(value).__name__}, expected "
                      f"{types if isinstance(types, tuple) else types.__name__}")
        return
    if isinstance(value, str):
        if not value:
            errors.append(f"{where}: field '{field}' is empty")
        if '"' in value:
            errors.append(f"{where}: field '{field}' contains '\"' "
                          "(bench_util performs no escaping)")
    elif minimum is not None and value < minimum:
        errors.append(f"{where}: field '{field}' = {value} < {minimum}")


def validate(doc):
    """Returns a list of error strings; empty means the document is valid."""
    errors = []
    if not isinstance(doc, dict):
        return [f"top level is {type(doc).__name__}, expected object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, expected '{SCHEMA}'")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        errors.append("'entries' is missing or not an array")
        return errors
    seen = {}
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        for field, (types, minimum) in REQUIRED.items():
            if field not in entry:
                errors.append(f"{where}: missing required field '{field}'")
            else:
                check_field(where, field, entry[field], types, minimum,
                            errors)
        for field, (types, minimum) in OPTIONAL.items():
            if field in entry:
                check_field(where, field, entry[field], types, minimum,
                            errors)
        for field in entry:
            if field not in REQUIRED and field not in OPTIONAL:
                errors.append(f"{where}: unknown field '{field}'")
        rate = entry.get("cache_hit_rate")
        if (isinstance(rate, (int, float)) and not isinstance(rate, bool)
                and rate > 1):
            errors.append(f"{where}: field 'cache_hit_rate' = {rate} > 1")
        corrected = entry.get("corrected")
        if (isinstance(corrected, int) and not isinstance(corrected, bool)
                and corrected > 1):
            errors.append(f"{where}: field 'corrected' = {corrected} > 1")
        key = (entry.get("experiment"), entry.get("name"))
        if None not in key:
            if key in seen:
                errors.append(
                    f"{where}: duplicate (experiment, name) {key} — "
                    f"first at entries[{seen[key]}]")
            else:
                seen[key] = i
    return errors


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    return [f"{path}: {e}" for e in validate(doc)]


# --- self-test ---------------------------------------------------------------

GOOD_ENTRY = {
    "experiment": "E10", "name": "sort/n=8/p=4/threads=1", "n": 8, "p": 4,
    "threads": 1, "wall_ms": 1.5, "max_load": 2, "rounds": 1,
    "total_comm": 8,
}

GOOD_SERVING_ENTRY = dict(
    GOOD_ENTRY, experiment="E7", name="serving/mixed/fifo/q=60/p=16",
    qps=120.5, p50_ms=3.25, p99_ms=9.75, cache_hit_rate=0.95,
    cold_plan_ms=4.0, warm_plan_ms=0.002,
)

GOOD_RECOVERY_ENTRY = dict(
    GOOD_ENTRY, experiment="E9", name="recovery/line/crash=5/interval=2",
    critical_path=40, recovery_comm=24, resumes=1, resumed_rounds=4,
    rebalances=0, rebalance_comm=0, replans=0,
)

GOOD_CALIBRATION_ENTRY = dict(
    GOOD_ENTRY, experiment="E8", name="calibration/out=16384/p=16",
    chosen_unit="matmul_worst_case",
    chosen_calibrated="matmul_output_sensitive",
    measured_best="matmul_output_sensitive", corrected=1,
    calib_factor=2.417,
)

SELF_TEST_CASES = [
    # (description, document, should_pass)
    ("minimal valid", {"schema": SCHEMA, "entries": [GOOD_ENTRY]}, True),
    ("optional ledger columns",
     {"schema": SCHEMA,
      "entries": [dict(GOOD_ENTRY, critical_path=3, recovery_comm=0)]},
     True),
    ("E7 serving entry",
     {"schema": SCHEMA, "entries": [GOOD_SERVING_ENTRY]}, True),
    ("serving metrics negative",
     {"schema": SCHEMA, "entries": [dict(GOOD_SERVING_ENTRY, qps=-1)]},
     False),
    ("cache hit rate above one",
     {"schema": SCHEMA,
      "entries": [dict(GOOD_SERVING_ENTRY, cache_hit_rate=1.5)]},
     False),
    ("serving metric wrong type",
     {"schema": SCHEMA,
      "entries": [dict(GOOD_SERVING_ENTRY, p99_ms="9.75")]},
     False),
    ("E8 calibration entry",
     {"schema": SCHEMA, "entries": [GOOD_CALIBRATION_ENTRY]}, True),
    ("corrected above one",
     {"schema": SCHEMA,
      "entries": [dict(GOOD_CALIBRATION_ENTRY, corrected=2)]},
     False),
    ("corrected bool masquerading as int",
     {"schema": SCHEMA,
      "entries": [dict(GOOD_CALIBRATION_ENTRY, corrected=True)]},
     False),
    ("calibration algorithm wrong type",
     {"schema": SCHEMA,
      "entries": [dict(GOOD_CALIBRATION_ENTRY, chosen_unit=3)]},
     False),
    ("negative calibration factor",
     {"schema": SCHEMA,
      "entries": [dict(GOOD_CALIBRATION_ENTRY, calib_factor=-0.5)]},
     False),
    ("E9 recovery entry",
     {"schema": SCHEMA, "entries": [GOOD_RECOVERY_ENTRY]}, True),
    ("negative resumed rounds",
     {"schema": SCHEMA,
      "entries": [dict(GOOD_RECOVERY_ENTRY, resumed_rounds=-1)]},
     False),
    ("rebalance comm wrong type",
     {"schema": SCHEMA,
      "entries": [dict(GOOD_RECOVERY_ENTRY, rebalance_comm=1.5)]},
     False),
    ("resumes bool masquerading as int",
     {"schema": SCHEMA,
      "entries": [dict(GOOD_RECOVERY_ENTRY, resumes=True)]},
     False),
    ("empty entries", {"schema": SCHEMA, "entries": []}, True),
    ("wrong schema", {"schema": "v0", "entries": []}, False),
    ("entries not a list", {"schema": SCHEMA, "entries": {}}, False),
    ("missing required field",
     {"schema": SCHEMA,
      "entries": [{k: v for k, v in GOOD_ENTRY.items() if k != "rounds"}]},
     False),
    ("wrong type",
     {"schema": SCHEMA, "entries": [dict(GOOD_ENTRY, max_load="2")]},
     False),
    ("bool masquerading as int",
     {"schema": SCHEMA, "entries": [dict(GOOD_ENTRY, rounds=True)]},
     False),
    ("negative value",
     {"schema": SCHEMA, "entries": [dict(GOOD_ENTRY, total_comm=-1)]},
     False),
    ("zero servers",
     {"schema": SCHEMA, "entries": [dict(GOOD_ENTRY, p=0)]}, False),
    ("quote in name",
     {"schema": SCHEMA, "entries": [dict(GOOD_ENTRY, name='a"b')]}, False),
    ("unknown field",
     {"schema": SCHEMA, "entries": [dict(GOOD_ENTRY, surprise=1)]}, False),
    ("duplicate experiment/name",
     {"schema": SCHEMA, "entries": [GOOD_ENTRY, dict(GOOD_ENTRY)]}, False),
]


def self_test():
    failures = 0
    for description, doc, should_pass in SELF_TEST_CASES:
        errors = validate(doc)
        passed = not errors
        if passed != should_pass:
            failures += 1
            verdict = "accepted" if passed else "rejected"
            print(f"self-test FAILED: '{description}' was {verdict}")
            for e in errors:
                print(f"  {e}")
    if failures:
        print(f"self-test: {failures} case(s) misjudged")
        return 1
    print(f"self-test: all {len(SELF_TEST_CASES)} cases OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", nargs="?", default="BENCH_parjoin.json",
                        help="trajectory file to validate")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the checker against embedded cases")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    errors = check_file(args.path)
    for e in errors:
        print(e)
    if errors:
        return 1
    print(f"{args.path}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
