"""Compare two sets of benchmark result documents by median, per workload.

    python3 perfbench/compare.py --base perfbench/out/A*.json --new perfbench/out/B*.json

Each file is a result document that run.py wrote.  Results measured on
different fhnburst backends are refused: the CSV bits and the checkpoint
fingerprint depend on the backend, so their timings do not compare.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(paths) -> list[dict]:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def medians(docs) -> dict:
    """{(workload, trace): {metric: median value}}"""
    values = defaultdict(lambda: defaultdict(list))
    for d in docs:
        for name, m in d["metrics"].items():
            values[d["workload"], d["trace"]][name].append(m["value"])
    return {k: {n: statistics.median(v) for n, v in ms.items()} for k, ms in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)
    backends = {d["env"]["backend"] for d in base + new}
    if len(backends) != 1:
        print(f"refusing to compare results from different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    mb, mn = medians(base), medians(new)
    for key in sorted(mb.keys() & mn.keys()):
        print(f"{key[0]} trace={key[1]}")
        for name in mb[key]:
            b, n = mb[key][name], mn[key].get(name)
            if n is None:
                continue
            ratio = f"{n / b:.4f}" if b else "n/a"
            print(f"  {name:32s} base {b:.6g}  new {n:.6g}  new/base {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
