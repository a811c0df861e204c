"""Seeded input generator for the parjoin benchmark.

Writes one workload's catalog as `v1,v2,annotation` CSVs and its query
stream as a parjoind workload file, stream.workload (register lines, then
one query block per stream entry, in stream order; CSV paths are relative
to the output directory, where the driver runs). The benchmark driver
receives only these files. The same (workload, seed) always yields byte-identical files;
the seed changes relation contents and stream order, never the catalog's
sizes or the stream's template counts, so aggregate costs stay comparable
across seeds.

    python3 perfbench/gen.py <workload> <seed> <out-dir>
"""

import collections
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_manifest():
    with open(os.path.join(HERE, "manifest.json")) as f:
        return json.load(f)


def degree_sequence(rng, m, dom, weights):
    """`m` column values: value i of a seeded permutation of range(dom)
    appears in proportion to weights[i] (largest remainder, exact sum m).
    Degrees depend only on (m, dom, weights); the seed picks which value
    gets which degree."""
    total = sum(weights)
    exact = [w * m / total for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in order[:m - sum(counts)]:
        counts[i] += 1
    labels = rng.sample(range(dom), len(weights))
    return [labels[i] for i, c in enumerate(counts) for _ in range(c)]


def pair_up(rng, us, vs):
    """Pairs two degree sequences into distinct (u, v) pairs: shuffles vs,
    then swaps the v of each repeated pair with a random partner's until no
    pair repeats. Both columns keep their exact degrees."""
    vs = list(vs)
    rng.shuffle(vs)
    count = collections.Counter(zip(us, vs))
    seen, repeats = set(), []
    for i, pair in enumerate(zip(us, vs)):
        (repeats.append(i) if pair in seen else seen.add(pair))
    for _ in range(100 * len(us)):
        if not repeats:
            return sorted(zip(us, vs))
        i, j = repeats[-1], rng.randrange(len(us))
        a, b = (us[i], vs[j]), (us[j], vs[i])
        if a == b or count[a] or count[b]:
            continue
        count[(us[i], vs[i])] -= 1
        count[(us[j], vs[j])] -= 1
        vs[i], vs[j] = vs[j], vs[i]
        count[a] += 1
        count[b] += 1
        repeats.pop()
    raise RuntimeError("cannot pair the degree sequences into a set")


def uniform_pairs(rng, m, dom, cover):
    """Distinct pairs whose column i uses a seeded cover[i] share of its
    domain, every used value with the same degree."""
    cols = [degree_sequence(rng, m, d, [1] * max(1, round(c * d)))
            for d, c in zip(dom, cover)]
    return pair_up(rng, *cols)


def zipf_pairs(rng, m, dom, skew_col, s):
    """Distinct pairs whose `skew_col` column has Zipf(s) degrees (rank r
    gets m * r^-s / H) over a seeded permutation of its domain; the other
    column is regular over its whole domain."""
    n = dom[skew_col]
    cols = [None, None]
    cols[skew_col] = degree_sequence(
        rng, m, n, [1.0 / r ** s for r in range(1, n + 1)])
    other = dom[1 - skew_col]
    cols[1 - skew_col] = degree_sequence(rng, m, other, [1] * other)
    return pair_up(rng, *cols)


def block_pairs(rng, family, side, perms):
    """Complete bipartite blocks: block i joins A_i x B_i (left) or
    B_i x C_i (right). Both sides of a family share the B permutation, so
    left ⋈ right has exactly blocks * a * c output pairs."""
    k, a, b, c = family["blocks"], family["a"], family["b"], family["c"]
    pa, pb, pc = perms
    pairs = []
    for i in range(k):
        if side == "left":
            pairs.extend((pa[i * a + x], pb[i * b + y])
                         for x in range(a) for y in range(b))
        else:
            pairs.extend((pb[i * b + y], pc[i * c + z])
                         for y in range(b) for z in range(c))
    return sorted(pairs)


def catalog_relations(manifest, catalog_name):
    """Expands a catalog into [(name, spec)] in registration order."""
    catalog = manifest["catalogs"][catalog_name]
    if "relations" in catalog:
        return [(r["name"], r) for r in catalog["relations"]]
    return [(f"{pool}_{i}", spec) for pool, spec in catalog["pools"].items()
            for i in range(spec["count"])]


def generate_catalog(manifest, catalog_name, rng):
    catalog = manifest["catalogs"][catalog_name]
    perms = {}
    for fam_name, fam in sorted(catalog.get("families", {}).items()):
        sizes = (fam["blocks"] * fam["a"], fam["blocks"] * fam["b"],
                 fam["blocks"] * fam["c"])
        perms[fam_name] = [rng.sample(range(n), n) for n in sizes]
    relations = []
    for name, spec in catalog_relations(manifest, catalog_name):
        if spec["kind"] == "uniform":
            pairs = uniform_pairs(rng, spec["tuples"], spec["dom"],
                                  spec.get("cover", [1.0, 1.0]))
        elif spec["kind"] == "zipf":
            pairs = zipf_pairs(rng, spec["tuples"], spec["dom"],
                               spec["skew_col"], spec["s"])
        elif spec["kind"] == "block":
            pairs = block_pairs(rng, catalog["families"][spec["family"]],
                                spec["side"], perms[spec["family"]])
        else:
            raise ValueError(f"unknown relation kind {spec['kind']!r}")
        relations.append((name, [(u, v, rng.randint(1, 5))
                                 for u, v in pairs]))
    return relations


def template_counts(templates, length):
    """Largest-remainder split of `length` stream slots by weight."""
    total = sum(t["weight"] for t in templates.values())
    exact = {n: t["weight"] * length / total for n, t in templates.items()}
    counts = {n: int(x) for n, x in exact.items()}
    by_remainder = sorted(exact, key=lambda n: (counts[n] - exact[n], n))
    for n in by_remainder[:length - sum(counts.values())]:
        counts[n] += 1
    return counts


def generate_stream(wl, pools, rng):
    """Returns [(label, edges, output)]: a seeded shuffle of a fixed
    multiset of templates. Edges naming a pool draw a relation from it; no
    two queries of a stream draw the same combination, and one query never
    draws a relation twice."""
    counts = template_counts(wl["templates"], wl["stream_length"])
    slots = [name for name in sorted(counts) for _ in range(counts[name])]
    rng.shuffle(slots)
    seen = set()
    stream = []
    for i, name in enumerate(slots):
        tpl = wl["templates"][name]
        for _ in range(10000):
            used, edges = set(), []
            for u, v, src in tpl["edges"]:
                if src in pools:
                    choices = [r for r in pools[src] if r not in used]
                    src = rng.choice(choices)
                used.add(src)
                edges.append((u, v, src))
            key = (tuple(edges), tuple(tpl["output"]))
            fixed = not any(src in pools for _, _, src in tpl["edges"])
            if fixed or key not in seen:
                break
        else:
            raise RuntimeError(f"template {name}: no fresh combination left")
        seen.add(key)
        stream.append((f"{name}-{i}", edges, tpl["output"]))
    return stream


def generate(workload, seed, out_dir, manifest=None):
    """Writes the catalog CSVs and `stream.workload` under out_dir; returns
    a summary (catalog size, template counts)."""
    manifest = manifest or load_manifest()
    stream_wl = manifest["workloads"][workload].get("stream_of", workload)
    wl = manifest["workloads"][stream_wl]
    rng = random.Random(f"{stream_wl}:{seed}")
    relations = generate_catalog(manifest, wl["catalog"], rng)
    pools = {pool: [f"{pool}_{i}" for i in range(spec["count"])]
             for pool, spec in
             manifest["catalogs"][wl["catalog"]].get("pools", {}).items()}
    stream = generate_stream(wl, pools, rng)

    os.makedirs(out_dir, exist_ok=True)
    lines = [f"p {manifest['p']}"]
    for name, tuples in relations:
        with open(os.path.join(out_dir, name + ".csv"), "w") as f:
            f.writelines(f"{u},{v},{w}\n" for u, v, w in tuples)
        lines.append(f"register {name} {name}.csv")
    for label, edges, output in stream:
        lines.append(f"query {label}")
        lines.extend(f"edge {u} {v} @{src}" for u, v, src in edges)
        lines.append("output " + " ".join(map(str, output)))
        lines.append("end")
    with open(os.path.join(out_dir, "stream.workload"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return {
        "relations": len(relations),
        "tuples": sum(len(t) for _, t in relations),
        "stream_length": len(stream),
        "template_counts": dict(sorted(collections.Counter(
            label.rsplit("-", 1)[0] for label, _, _ in stream).items())),
    }


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    print(json.dumps(generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
