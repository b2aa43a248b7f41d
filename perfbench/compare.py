#!/usr/bin/env python3
"""Compares two benchmark results, or refuses to.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a result perfbench wrote to .bench_build/out/. Results taken on
different hosts, ISAs or build types are not comparable: when the host
fingerprints differ the comparison is refused (exit code 3) rather than
gated. Results of different workloads or trace modes are refused the same
way. Otherwise prints every metric of both results with the ratio new/base.
This reports; it does not gate (the bounds live in BENCHMARK.json).
"""

import json
import sys

REFUSED = 3


def load(path):
    with open(path) as f:
        return json.load(f)


def metrics(result):
    out = {}
    for name, m in result.get("named", {}).items():
        out[name] = m
    for name, m in result["result"]["metrics"].items():
        out[name] = m
    return out


def refusal(base, new):
    """Why `base` and `new` must not be compared, or None."""
    if base["host"] != new["host"]:
        return "host fingerprints differ:\n  base %s\n  new  %s" % (
            json.dumps(base["host"], sort_keys=True),
            json.dumps(new["host"], sort_keys=True))
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            return "%s differs: %r vs %r" % (key, base[key], new[key])
    return None


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    why = refusal(base, new)
    if why is not None:
        print("refused: " + why)
        return REFUSED
    a, b = metrics(base), metrics(new)
    print("%-34s %16s %16s %8s" % ("metric", "base", "new", "new/base"))
    for name in sorted(set(a) | set(b)):
        va = a.get(name, {}).get("value")
        vb = b.get(name, {}).get("value")
        unit = (a.get(name) or b.get(name))["unit"]
        ratio = "%.3f" % (vb / va) if va and vb is not None else "-"
        print("%-34s %16s %16s %8s  %s" % (name, va, vb, ratio, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
