#!/usr/bin/env python3
"""check_trace: validates a parjoin-trace-v1 JSONL round trace.

Traces are written by obs::TraceRecorder (src/parjoin/obs/trace.cc) from
`query_runner --trace-out` / `parjoind --trace-out`. The schema is the
contract between the C++ writer, the parser (obs::ParseTraceJsonl), and
any downstream analysis; this checker pins it from the outside so a
writer regression fails CI even when the in-tree parser drifts with it:

  * line 1 is the meta object: {"type": "meta",
    "schema": "parjoin-trace-v1", "label": <str>, <str annotations>...}
  * every other line is a round or an event object:
      round: seq (int >= 0), round (int >= 0), scope (str),
             max_load (int >= 0), tuples (int >= 0), recovery (bool),
             straggle (number >= 1), resumed (bool), wall_ms (number >= 0)
      event: seq (int >= 0), kind (non-empty str), round (int >= 0),
             detail (str), wall_ms (number >= 0), plus the optional
             structured payload: server (int >= 0), factor (number >= 1),
             moved (int >= 0)
  * payload fields are required per kind: "straggler" events must carry
    server and factor; "rebalance" events must carry server, factor and
    moved; "resume" events must carry moved
  * no unknown fields on round/event lines
  * `seq` values are exactly 0..N-1 in file order (rounds and events
    share one emission order), and `wall_ms` never decreases with seq

Exit status 0 when the file validates, 1 otherwise (one message per
problem). `--min-rounds K` additionally requires at least K round lines
(CI smoke: an executed query must have charged rounds).
`--require-kinds k1,k2,...` additionally requires at least one event of
each listed kind (a recovery smoke: every injected fault and every
recovery step must show up). `--self-test` runs the checker against
embedded good/bad documents.
"""

import argparse
import json
import sys

SCHEMA = "parjoin-trace-v1"

ROUND_FIELDS = {
    "type": (str, None),
    "seq": (int, 0),
    "round": (int, 0),
    "scope": (str, None),
    "max_load": (int, 0),
    "tuples": (int, 0),
    "recovery": (bool, None),
    "straggle": ((int, float), 1),
    "resumed": (bool, None),
    "wall_ms": ((int, float), 0),
}
EVENT_FIELDS = {
    "type": (str, None),
    "seq": (int, 0),
    "kind": (str, None),
    "round": (int, 0),
    "detail": (str, None),
    "wall_ms": ((int, float), 0),
}
# Structured event payload: optional in general, but required per kind
# (EVENT_KIND_PAYLOAD). `factor` is an injected straggle delay, >= 1 by
# construction (mpc/faults.h draws from [straggle_min, straggle_max]).
OPTIONAL_EVENT_FIELDS = {
    "server": (int, 0),
    "factor": ((int, float), 1),
    "moved": (int, 0),
}
EVENT_KIND_PAYLOAD = {
    "straggler": ("server", "factor"),
    "rebalance": ("server", "factor", "moved"),
    "resume": ("moved",),
}
# Fields where the empty string is legal ("scope": top-level round,
# "detail": event without elaboration).
EMPTY_OK = {"scope", "detail", "label"}


def check_field(where, field, value, types, minimum, errors):
    if types is not bool and isinstance(value, bool):
        errors.append(f"{where}: field '{field}' is a bool, expected "
                      f"{types if isinstance(types, tuple) else types.__name__}")
        return
    if not isinstance(value, types):
        errors.append(f"{where}: field '{field}' has type "
                      f"{type(value).__name__}, expected "
                      f"{types if isinstance(types, tuple) else types.__name__}")
        return
    if isinstance(value, str):
        if not value and field not in EMPTY_OK:
            errors.append(f"{where}: field '{field}' is empty")
    elif minimum is not None and value < minimum:
        errors.append(f"{where}: field '{field}' = {value} < {minimum}")


def check_record(where, record, fields, errors, optional=None):
    optional = optional or {}
    for field, (types, minimum) in fields.items():
        if field not in record:
            errors.append(f"{where}: missing field '{field}'")
        else:
            check_field(where, field, record[field], types, minimum, errors)
    for field, (types, minimum) in optional.items():
        if field in record:
            check_field(where, field, record[field], types, minimum, errors)
    for field in record:
        if field not in fields and field not in optional:
            errors.append(f"{where}: unknown field '{field}'")


def check_event_payload(where, record, errors):
    """Kind-dependent payload requirements (see EVENT_KIND_PAYLOAD)."""
    kind = record.get("kind")
    for field in EVENT_KIND_PAYLOAD.get(kind, ()):
        if field not in record:
            errors.append(f"{where}: '{kind}' event missing payload "
                          f"field '{field}'")


def validate(lines, min_rounds=0, require_kinds=()):
    """Validates parsed JSONL objects (index 0 = file line 1). Returns a
    list of error strings; empty means the trace is valid."""
    errors = []
    if not lines:
        return ["empty trace: line 1 must be the meta object"]
    meta = lines[0]
    if not isinstance(meta, dict) or meta.get("type") != "meta":
        errors.append("line 1: not a meta object")
    else:
        if meta.get("schema") != SCHEMA:
            errors.append(f"line 1: schema is {meta.get('schema')!r}, "
                          f"expected '{SCHEMA}'")
        if not isinstance(meta.get("label"), str):
            errors.append("line 1: 'label' is missing or not a string")
        for key, value in meta.items():
            if not isinstance(value, str):
                errors.append(f"line 1: annotation '{key}' is "
                              f"{type(value).__name__}, expected string")

    rounds = 0
    kinds = set()
    prev_wall = None
    for i, record in enumerate(lines[1:], start=2):
        where = f"line {i}"
        if not isinstance(record, dict):
            errors.append(f"{where}: not an object")
            continue
        kind = record.get("type")
        if kind == "round":
            check_record(where, record, ROUND_FIELDS, errors)
            rounds += 1
        elif kind == "event":
            check_record(where, record, EVENT_FIELDS, errors,
                         optional=OPTIONAL_EVENT_FIELDS)
            check_event_payload(where, record, errors)
            kinds.add(record.get("kind"))
        elif kind == "meta":
            errors.append(f"{where}: duplicate meta object")
            continue
        else:
            errors.append(f"{where}: unknown type {kind!r}")
            continue
        seq = record.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            if seq != i - 2:
                errors.append(f"{where}: seq {seq}, expected {i - 2} "
                              "(seq must be 0..N-1 in file order)")
        wall = record.get("wall_ms")
        if isinstance(wall, (int, float)) and not isinstance(wall, bool):
            if prev_wall is not None and wall < prev_wall:
                errors.append(f"{where}: wall_ms {wall} < previous "
                              f"{prev_wall} (time cannot run backwards)")
            prev_wall = wall
    if rounds < min_rounds:
        errors.append(f"{rounds} round line(s), expected >= {min_rounds}")
    for kind in require_kinds:
        if kind not in kinds:
            errors.append(f"no '{kind}' event, expected at least one")
    return errors


def check_file(path, min_rounds=0, require_kinds=()):
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
    except OSError as e:
        return [f"{path}: {e}"]
    lines = []
    errors = []
    for i, text in enumerate(raw, start=1):
        try:
            lines.append(json.loads(text))
        except json.JSONDecodeError as e:
            return [f"{path}: line {i}: not JSON: {e}"]
    errors.extend(f"{path}: {e}"
                  for e in validate(lines, min_rounds, require_kinds))
    return errors


# --- self-test ---------------------------------------------------------------

GOOD_META = {"type": "meta", "schema": SCHEMA, "label": "demo", "p": "8"}
GOOD_ROUND = {
    "type": "round", "seq": 0, "round": 1, "scope": "sort/exchange",
    "max_load": 128, "tuples": 1024, "recovery": False, "straggle": 1,
    "resumed": False, "wall_ms": 0.25,
}
GOOD_EVENT = {
    "type": "event", "seq": 1, "kind": "checkpoint", "round": 1,
    "detail": "", "wall_ms": 0.5,
}
GOOD_STRAGGLER = {
    "type": "event", "seq": 1, "kind": "straggler", "round": 2,
    "detail": "server 1 delayed x4", "server": 1, "factor": 4.0,
    "wall_ms": 0.5,
}
GOOD_REBALANCE = {
    "type": "event", "seq": 1, "kind": "rebalance", "round": 3,
    "detail": "shipped 96 tuple(s) off server 1", "server": 1,
    "factor": 4.0, "moved": 96, "wall_ms": 0.5,
}
GOOD_RESUME = {
    "type": "event", "seq": 1, "kind": "resume", "round": 0,
    "detail": "fast-forwarding 2 checkpointed round(s)", "moved": 2,
    "wall_ms": 0.5,
}

SELF_TEST_CASES = [
    # (description, lines, min_rounds, should_pass[, require_kinds])
    ("meta only", [GOOD_META], 0, True),
    ("round and event", [GOOD_META, GOOD_ROUND, GOOD_EVENT], 1, True),
    ("empty trace", [], 0, False),
    ("missing meta", [GOOD_ROUND], 0, False),
    ("wrong schema", [dict(GOOD_META, schema="v0")], 0, False),
    ("non-string annotation", [dict(GOOD_META, p=8)], 0, False),
    ("duplicate meta", [GOOD_META, GOOD_META], 0, False),
    ("unknown type", [GOOD_META, dict(GOOD_ROUND, type="r")], 0, False),
    ("unknown field",
     [GOOD_META, dict(GOOD_ROUND, surprise=1)], 0, False),
    ("missing field",
     [GOOD_META, {k: v for k, v in GOOD_ROUND.items() if k != "tuples"}],
     0, False),
    ("negative load",
     [GOOD_META, dict(GOOD_ROUND, max_load=-1)], 0, False),
    ("straggle below one",
     [GOOD_META, dict(GOOD_ROUND, straggle=0.5)], 0, False),
    ("recovery not bool",
     [GOOD_META, dict(GOOD_ROUND, recovery=0)], 0, False),
    ("empty event kind",
     [GOOD_META, dict(GOOD_EVENT, seq=0, kind="")], 0, False),
    ("seq out of order",
     [GOOD_META, dict(GOOD_ROUND, seq=1), dict(GOOD_EVENT, seq=0)],
     0, False),
    ("wall time backwards",
     [GOOD_META, dict(GOOD_ROUND, wall_ms=2.0),
      dict(GOOD_EVENT, wall_ms=1.0)], 0, False),
    ("too few rounds", [GOOD_META], 1, False),
    ("resumed round", [GOOD_META, dict(GOOD_ROUND, resumed=True)], 0, True),
    ("resumed missing",
     [GOOD_META, {k: v for k, v in GOOD_ROUND.items() if k != "resumed"}],
     0, False),
    ("resumed not bool",
     [GOOD_META, dict(GOOD_ROUND, resumed=1)], 0, False),
    ("straggler with payload",
     [GOOD_META, GOOD_ROUND, GOOD_STRAGGLER], 0, True),
    ("straggler missing server",
     [GOOD_META, GOOD_ROUND, {k: v for k, v in GOOD_STRAGGLER.items()
                              if k != "server"}], 0, False),
    ("straggler missing factor",
     [GOOD_META, GOOD_ROUND, {k: v for k, v in GOOD_STRAGGLER.items()
                              if k != "factor"}], 0, False),
    ("straggler factor below one",
     [GOOD_META, GOOD_ROUND, dict(GOOD_STRAGGLER, factor=0.5)],
     0, False),
    ("rebalance with payload",
     [GOOD_META, GOOD_ROUND, GOOD_REBALANCE], 0, True),
    ("rebalance missing moved",
     [GOOD_META, GOOD_ROUND, {k: v for k, v in GOOD_REBALANCE.items()
                              if k != "moved"}], 0, False),
    ("rebalance negative moved",
     [GOOD_META, GOOD_ROUND, dict(GOOD_REBALANCE, moved=-1)],
     0, False),
    ("rebalance server not int",
     [GOOD_META, GOOD_ROUND, dict(GOOD_REBALANCE, server="1")],
     0, False),
    ("resume with payload",
     [GOOD_META, GOOD_ROUND, GOOD_RESUME], 0, True),
    ("resume missing moved",
     [GOOD_META, GOOD_ROUND,
      {k: v for k, v in GOOD_RESUME.items() if k != "moved"}], 0, False),
    ("payload on plain event is allowed",
     [GOOD_META, GOOD_ROUND, dict(GOOD_EVENT, server=0)], 0, True),
    ("required kinds present",
     [GOOD_META, GOOD_ROUND, GOOD_EVENT, dict(GOOD_STRAGGLER, seq=2)],
     1, True, ("checkpoint", "straggler")),
    ("required kind absent",
     [GOOD_META, GOOD_ROUND, GOOD_EVENT], 1, False, ("checkpoint", "crash")),
]


def self_test():
    failures = 0
    for description, lines, min_rounds, should_pass, *kinds in SELF_TEST_CASES:
        errors = validate(lines, min_rounds, *kinds)
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
    parser.add_argument("path", nargs="?", help="trace file to validate")
    parser.add_argument("--min-rounds", type=int, default=0,
                        help="require at least this many round lines")
    parser.add_argument("--require-kinds", default="",
                        help="comma-separated event kinds that must each "
                             "appear at least once")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the checker against embedded cases")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.path is None:
        parser.error("a trace file path is required (or --self-test)")
    kinds = [k for k in args.require_kinds.split(",") if k]
    errors = check_file(args.path, args.min_rounds, kinds)
    for e in errors:
        print(e)
    if errors:
        return 1
    print(f"{args.path}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
