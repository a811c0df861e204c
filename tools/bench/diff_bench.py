#!/usr/bin/env python3
"""diff_bench: compares the ledger fields of two parjoin-bench-v1 files.

Rows are keyed by (experiment, name). The simulator's ledger is exact and
deterministic, so a change that claims "same behaviour" must leave every
ledger field of every row unchanged:

  * max_load, rounds, total_comm, critical_path, recovery_comm
  * the recovery columns (resumes, resumed_rounds, rebalances,
    rebalance_comm, replans)
  * the calibration picks (chosen_unit, chosen_calibrated, measured_best,
    corrected, calib_factor)

Host-time fields (wall_ms and the serving timings) are ignored. A row
present in only one file is a difference. A ledger column that the OLD
row lacks is not compared: rows written before the ledger grew a column
(critical_path, recovery_comm) never recorded it. A column that the NEW
row drops is a difference.

Usage:
  diff_bench.py OLD NEW     exit 0 when the ledgers match, 1 otherwise
                            (one line per difference)
  diff_bench.py --self-test check the comparison against embedded cases
"""

import argparse
import json
import sys

LEDGER_FIELDS = (
    "max_load", "rounds", "total_comm", "critical_path", "recovery_comm",
    "resumes", "resumed_rounds", "rebalances", "rebalance_comm", "replans",
    "chosen_unit", "chosen_calibrated", "measured_best", "corrected",
    "calib_factor",
)


def index_rows(doc, label, errors):
    """Maps (experiment, name) -> entry; reports malformed documents."""
    rows = {}
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        errors.append(f"{label}: 'entries' is missing or not an array")
        return rows
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            errors.append(f"{label}: entries[{i}] is not an object")
            continue
        key = (entry.get("experiment"), entry.get("name"))
        if key in rows:
            errors.append(f"{label}: duplicate row {key[0]} {key[1]}")
        rows[key] = entry
    return rows


def diff(old_doc, new_doc):
    """Returns a list of difference strings; empty means the ledgers match."""
    errors = []
    old = index_rows(old_doc, "OLD", errors)
    new = index_rows(new_doc, "NEW", errors)
    for key in sorted(old.keys() - new.keys(), key=str):
        errors.append(f"{key[0]} {key[1]}: only in OLD")
    for key in sorted(new.keys() - old.keys(), key=str):
        errors.append(f"{key[0]} {key[1]}: only in NEW")
    for key in sorted(old.keys() & new.keys(), key=str):
        for field in LEDGER_FIELDS:
            if field not in old[key]:
                continue
            a = old[key][field]
            b = new[key].get(field)
            if a != b:
                errors.append(f"{key[0]} {key[1]}: {field} {a} -> {b}")
    return errors


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# --- self-test ---------------------------------------------------------------

ROW = {
    "experiment": "E1", "name": "matmul/new/n=8/p=4", "n": 8, "p": 4,
    "threads": 1, "wall_ms": 1.5, "max_load": 2, "rounds": 3,
    "total_comm": 8,
}
CALIBRATION_ROW = dict(
    ROW, experiment="E8", name="calibration/out=16/p=4",
    chosen_unit="matmul_worst_case",
    chosen_calibrated="matmul_output_sensitive",
    measured_best="matmul_output_sensitive", corrected=1, calib_factor=2.5,
)
RECOVERY_ROW = dict(
    ROW, experiment="E9", name="recovery/line/crash=5", critical_path=40,
    recovery_comm=24, resumes=1, resumed_rounds=4, rebalances=0,
    rebalance_comm=0, replans=0,
)


def doc(*rows):
    return {"schema": "parjoin-bench-v1", "entries": list(rows)}


SELF_TEST_CASES = [
    # (description, old, new, should_match)
    ("identical", doc(ROW, CALIBRATION_ROW, RECOVERY_ROW),
     doc(ROW, CALIBRATION_ROW, RECOVERY_ROW), True),
    ("wall time ignored", doc(ROW), doc(dict(ROW, wall_ms=99.0)), True),
    ("row order ignored", doc(ROW, RECOVERY_ROW), doc(RECOVERY_ROW, ROW),
     True),
    ("max_load changed", doc(ROW), doc(dict(ROW, max_load=3)), False),
    ("rounds changed", doc(ROW), doc(dict(ROW, rounds=4)), False),
    ("total_comm changed", doc(ROW), doc(dict(ROW, total_comm=9)), False),
    ("recovery column changed", doc(RECOVERY_ROW),
     doc(dict(RECOVERY_ROW, resumed_rounds=5)), False),
    ("critical path changed", doc(RECOVERY_ROW),
     doc(dict(RECOVERY_ROW, critical_path=41)), False),
    ("calibration pick changed", doc(CALIBRATION_ROW),
     doc(dict(CALIBRATION_ROW, chosen_calibrated="matmul_worst_case")),
     False),
    ("calibration factor changed", doc(CALIBRATION_ROW),
     doc(dict(CALIBRATION_ROW, calib_factor=2.25)), False),
    ("ledger field dropped", doc(RECOVERY_ROW),
     doc({k: v for k, v in RECOVERY_ROW.items() if k != "recovery_comm"}),
     False),
    ("column OLD never recorded", doc(ROW),
     doc(dict(ROW, critical_path=0, recovery_comm=0)), True),
    ("row only in OLD", doc(ROW, RECOVERY_ROW), doc(ROW), False),
    ("row only in NEW", doc(ROW), doc(ROW, CALIBRATION_ROW), False),
    ("duplicate row", doc(ROW), doc(ROW, dict(ROW)), False),
    ("not a bench document", doc(ROW), [], False),
]


def self_test():
    failures = 0
    for description, old, new, should_match in SELF_TEST_CASES:
        errors = diff(old, new)
        if (not errors) != should_match:
            failures += 1
            verdict = "matched" if not errors else "differed"
            print(f"self-test FAILED: '{description}' {verdict}")
            for e in errors:
                print(f"  {e}")
    if failures:
        print(f"self-test: {failures} case(s) misjudged")
        return 1
    print(f"self-test: all {len(SELF_TEST_CASES)} cases OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("old", nargs="?", help="baseline bench file")
    parser.add_argument("new", nargs="?", help="bench file to compare")
    parser.add_argument("--self-test", action="store_true",
                        help="check the comparison against embedded cases")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.old is None or args.new is None:
        parser.error("OLD and NEW are required")
    try:
        errors = diff(load(args.old), load(args.new))
    except (OSError, json.JSONDecodeError) as e:
        print(e)
        return 1
    for e in errors:
        print(e)
    if errors:
        print(f"{len(errors)} ledger difference(s)")
        return 1
    print(f"{args.new}: ledger fields match {args.old}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
