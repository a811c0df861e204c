"""Self-tests of the benchmark's metric code, metric registry and input
generator. run.py runs them before every measurement; standalone:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import shutil
import tempfile
import unittest

import gen
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KINDS = {"host-time", "simulated-cost", "count"}
LEDGER = ("max_load", "rounds_total", "comm_total", "critical_path_total")


def load_json(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def fake_query(tpl, i, hit, algo, traced):
    stats = {"rounds": 3 + i, "max_load": 10 * (i + 1), "comm": 100 + i,
             "critical_path": 30 + i, "recovery_comm": i, "retransmits": 0,
             "crashes": 0, "resumes": 0, "resumed_rounds": 0,
             "rebalances": 0, "rebalance_comm": 0}
    q = {"label": f"{tpl}-{i}", "tpl": tpl, "ok": True, "status": "",
         "hit": hit, "algo": algo, "latency_ms": 5.0 + i,
         "plan_ms": 0.01 if hit else 2.0, "attempts": 1, "replans": 0,
         "budget_aborts": 0, "out_tuples": 7,
         "planning": dict(stats, rounds=0 if hit else 2),
         "execution": stats}
    if traced:
        q.update(exec_ms=3.0, predicted_load=8.0, measured_load=10 * (i + 1),
                 scopes={"reduce_by_key": {"rounds": 2, "tuples": 50,
                                           "ms": 2.0},
                         "checkpoint": {"rounds": 1, "tuples": 5, "ms": 0.5},
                         "": {"rounds": 1, "tuples": 1, "ms": 0.1}})
    return q


def fake_raw(traced_passes):
    passes = []
    for k in range(2 + traced_passes):
        traced = k >= 2
        queries = [fake_query("mm_os" if i % 2 else "agg", i, i >= 2,
                              "yannakakis", traced) for i in range(20)]
        passes.append({"traced": traced, "setup_s": [0.02, 0.021, 0.019],
                       "cache_hits": 10,
                       "cache_misses": 2, "cache_evictions": 0,
                       "queries": queries})
    return {"peak_rss_mb": 40.5, "passes": passes}


def fake_spans(raw):
    spans = []
    for k, p in enumerate(raw["passes"]):
        if not p["traced"]:
            continue
        for name in ("relation.load_csv", "mpc.scatter", "sketch.sketch"):
            spans.append({"name": name, "id": "r", "parent": f"breakdown.pass{k}",
                          "start_ms": 1.0, "end_ms": 1.5})
        for q in p["queries"]:
            spans.append({"name": "serve.query", "id": q["label"],
                          "parent": f"pass{k}", "start_ms": 0.0,
                          "end_ms": q["latency_ms"]})
    return spans


class TailRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.nearest_rank(values, 50), (50, 50))
        self.assertEqual(metrics.nearest_rank(values, 99), (99, 1))
        self.assertEqual(metrics.nearest_rank([3.0], 99.99), (3.0, 0))

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(metrics.tail(list(range(1, 101))), (90.0, 90, 10))
        self.assertEqual(metrics.tail(list(range(1, 1001))), (99.0, 990, 10))
        self.assertEqual(metrics.tail(list(range(1, 20001))),
                         (99.9, 19980, 20))
        self.assertEqual(metrics.tail(list(range(20))), (50.0, 9, 10))

    def test_tail_needs_enough_samples(self):
        with self.assertRaises(ValueError):
            metrics.tail(list(range(19)))
        self.assertEqual(metrics.tail(list(range(200)))[0], 95)
        self.assertEqual(metrics.tail(list(range(199)))[0], 90)

    def test_workload_tail_percentile_follows_the_rule(self):
        # The tail is taken per pass: its percentile is the highest the
        # rule allows for one pass of the stream.
        for name, wl in gen.load_manifest()["workloads"].items():
            if "stream_length" in wl:
                samples = list(range(wl["stream_length"]))
                self.assertEqual(metrics.tail(samples)[0],
                                 wl["tail_percentile"], name)

    def test_tail_is_order_free(self):
        values = [5.0, 1.0, 9.0, 7.0] * 30
        self.assertEqual(metrics.tail(values), metrics.tail(sorted(values)))


class RegistryTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_json("BENCHMARK.json")
        self.manifest = gen.load_manifest()
        self.registry = self.manifest["metrics"]

    def declared(self):
        return self.bench["end_to_end"] + self.bench["per_layer"]

    def test_benchmark_json_shape(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds",
                                           "workloads", "end_to_end",
                                           "per_layer"})
        self.assertTrue(2 <= len(self.bench["workloads"]) <= 8)
        self.assertTrue(1 <= len(self.bench["per_layer"]) <= 128)
        for w in self.bench["workloads"]:
            self.assertRegex(w["name"], NAME)
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)
        self.assertTrue(all(not p.startswith("/") and ".." not in p
                            for p in self.bench["command"] + self.bench["paths"]))
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")),
                             64 * 1024)
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_names_units_directions(self):
        names = [m["name"] for m in self.declared()]
        self.assertEqual(len(names), len(set(names)))
        for m in self.declared():
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_every_metric_is_registered_and_labelled(self):
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"] for m in self.bench[section]}
            self.assertEqual(declared, set(self.registry[section]))
            for name, entry in self.registry[section].items():
                self.assertIn(entry["kind"], KINDS, name)
        e2e = self.registry["end_to_end"]
        for name in LEDGER:
            self.assertEqual(e2e[name]["kind"], "simulated-cost")
        for m in self.declared():
            if m["unit"] in ("ms", "s", "1/s", "ns/tuple"):
                section = "end_to_end" if m in self.bench["end_to_end"] else "per_layer"
                self.assertEqual(self.registry[section][m["name"]]["kind"],
                                 "host-time", m["name"])

    def test_every_ratio_states_its_base(self):
        for m in self.declared():
            section = "end_to_end" if m in self.bench["end_to_end"] else "per_layer"
            entry = self.registry[section][m["name"]]
            if m["unit"] == "ratio":
                self.assertTrue(entry.get("base"), m["name"])

    def test_layer_map(self):
        workloads = {w["name"] for w in self.bench["workloads"]}
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        for name, entry in self.registry["per_layer"].items():
            self.assertTrue(entry["module"], name)
            self.assertIn(entry["moves"], e2e | set(self.registry["per_layer"]),
                          name)
            self.assertTrue(entry["on"] in workloads or
                            entry["on"].startswith("every workload"), name)
            self.assertIn(entry["flat_on"], workloads | {None}, name)

    def test_workloads_match_manifest(self):
        for w in self.bench["workloads"]:
            self.assertEqual(w["why"], self.manifest["workloads"][w["name"]]["why"])
        for wl in self.manifest["workloads"].values():
            for t in wl.get("templates", {}):
                self.assertIn(f"serve.tpl.{t}.p50_ms", self.registry["per_layer"])

    def test_metric_code_emits_exactly_the_declared_names(self):
        raw = fake_raw(traced_passes=2)
        values, notes = metrics.end_to_end(raw, 50)
        self.assertEqual(set(values),
                         {m["name"] for m in self.bench["end_to_end"]})
        self.assertEqual((notes["passes"], notes["pass_samples"]), (2, 20))
        self.assertEqual(values["latency_tail_ms"], 14.0)  # p50 of 5..24
        templates = sorted({t for w in self.manifest["workloads"].values()
                            for t in w.get("templates", {})})
        layer = metrics.per_layer(raw, fake_spans(raw), 1234, templates)
        self.assertEqual(set(layer), {m["name"] for m in self.bench["per_layer"]})
        self.assertAlmostEqual(layer["serve.cache_hit_rate"], 10 / 12)
        self.assertEqual(layer["mpc.other.rounds"], 20)
        self.assertAlmostEqual(layer["obs.trace_overhead"], 1.0)
        self.assertAlmostEqual(values["qps"], 1000 * 20 / sum(range(5, 25)))
        self.assertEqual(values["max_load"], 200)
        with self.assertRaises(ValueError):  # 20 samples: too few for p90
            metrics.end_to_end(raw, 90)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        # plan-cold's generator on a shrunken catalog: same seed, same
        # files; another seed, other contents but the same sizes.
        manifest = gen.load_manifest()
        for pool in manifest["catalogs"]["wide"]["pools"].values():
            pool.update(tuples=400, dom=[400, 400])
        build = os.path.join(ROOT, ".bench_build")
        os.makedirs(build, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=build)
        try:
            runs = {d: gen.generate("plan-cold", seed, os.path.join(tmp, d),
                                    manifest)
                    for d, seed in (("a", 7), ("b", 7), ("c", 8))}
            self.assertEqual(runs["a"], runs["b"])
            self.assertEqual(runs["a"], runs["c"])
            read = lambda d, f: open(os.path.join(tmp, d, f)).read()
            self.assertEqual(read("a", "L1_4.csv"), read("b", "L1_4.csv"))
            self.assertNotEqual(read("a", "L1_4.csv"), read("c", "L1_4.csv"))
            stream = read("a", "stream.workload")
            self.assertEqual(stream, read("b", "stream.workload"))
            keys = re.findall(r"query \S+\n((?:edge .*\n)+)", stream)
            self.assertEqual(len(keys), len(set(keys)))  # all distinct
        finally:
            shutil.rmtree(tmp)

    def test_recorded_catalog_sizes(self):
        manifest = gen.load_manifest()
        for name, wl in manifest["workloads"].items():
            catalog = manifest["workloads"][wl.get("stream_of", name)]["catalog"]
            families = manifest["catalogs"][catalog].get("families", {})
            tuples = 0
            for _, spec in gen.catalog_relations(manifest, catalog):
                f = families.get(spec.get("family"))
                tuples += (f["blocks"] * f["b"] *
                           (f["a"] if spec["side"] == "left" else f["c"])
                           if f else spec["tuples"])
            recorded = wl["recorded"]["catalog"]
            self.assertEqual(
                (len(gen.catalog_relations(manifest, catalog)), tuples),
                (recorded["relations"], recorded["tuples"]), name)


if __name__ == "__main__":
    unittest.main()
