"""Merge kernel-suite documents into a gate baseline.

    for i in 1 2 3 4 5 6 7; do
      dune build @bench/bench-smoke --force
      cp _build/default/bench/bench_smoke.json run$i.json
    done
    python3 bench/baseline.py run*.json > BENCH_engine_smoke.json

Every input must carry the same comparison key and kernel set. The
output holds that key, each kernel's median ns/op and the median peak
RSS: what `main.exe --compare` reads. The loop above makes each input
under the gate's own conditions (after the test suites, nothing else
running); the smoke document is written before the compare, so the
runs count even when the old baseline refuses them.
"""
import json
import statistics
import sys

KEY = ("schema", "n", "seed", "workers", "smoke", "nproc")


def die(msg):
    sys.exit(f"baseline: {msg}")


def main(paths):
    if len(paths) < 5:
        die(f"need at least 5 runs, got {len(paths)}")
    docs = []
    for p in paths:
        with open(p) as fh:
            docs.append(json.load(fh))
    key = {f: docs[0].get(f) for f in KEY}
    names = [k["name"] for k in docs[0]["kernels"]]
    for p, d in zip(paths, docs):
        for f in KEY:
            if d.get(f) != key[f]:
                die(f"{p}: {f} {d.get(f)!r} differs from {paths[0]}'s {key[f]!r}")
        if [k["name"] for k in d["kernels"]] != names:
            die(f"{p}: kernel set differs from {paths[0]}'s")
    kernels = []
    for i, name in enumerate(names):
        rows = [d["kernels"][i] for d in docs]
        kernels.append({"name": name, "ops_per_rep": rows[0]["ops_per_rep"],
                        "ns_per_op": statistics.median(r["ns_per_op"] for r in rows)})
    out = dict(key)
    out["runs"] = len(docs)
    out["kernels"] = kernels
    out["peak_rss_kb"] = statistics.median(d["peak_rss_kb"] for d in docs)
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
