#!/usr/bin/env python3
"""Bit-identity gate for the committed BENCH_*.json files.

The tab* benches write their simulated figures (cycles, B/cyc, counters,
DRAM fingerprints) to BENCH_<name>.json and their host figures (wall times,
host rates, thread counts) to an uncommitted BENCH_<name>.host.json sidecar.
Simulated figures are deterministic, so a refactor must reproduce them
exactly. This compares every leaf of each git-tracked BENCH_*.json in the
working tree with the committed copy (`git show HEAD:<file>`) and fails on
any difference.

    python3 bench/check_bench_identical.py              # every tracked BENCH_*.json vs HEAD
    python3 bench/check_bench_identical.py --self-test  # a changed leaf is caught

A PR that moves a simulated figure on purpose re-commits the file, which
makes the change visible in review.
"""

import argparse
import json
import os
import subprocess
import sys


def compare(name, base, new):
    """Returns (compared leaf count, list of difference descriptions)."""
    diffs = []
    compared = 0

    def walk(path, a, b):
        nonlocal compared
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                if key not in a or key not in b:
                    diffs.append(f"{path}.{key}: only in {'new' if key in b else 'committed'}")
                    continue
                walk(f"{path}.{key}", a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                diffs.append(f"{path}: {len(a)} entries committed, {len(b)} new")
            for i, (x, y) in enumerate(zip(a, b)):
                walk(f"{path}[{i}]", x, y)
        else:
            compared += 1
            if type(a) is not type(b) or a != b:
                diffs.append(f"{path}: {a!r} -> {b!r}")

    walk(name, base, new)
    return compared, diffs


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def tracked():
    return sorted(git("ls-files", "--", "BENCH_*.json").split())


def committed(name):
    return json.loads(git("show", f"HEAD:{name}"))


def self_test():
    """An unchanged file passes; a changed simulated field fails."""
    def changed(v):
        if isinstance(v, bool):
            return not v
        return v + "0" if isinstance(v, str) else v + 1

    def perturbed(doc, key):
        # Change the first occurrence of `key`, depth first.
        if isinstance(doc, dict):
            if key in doc:
                doc[key] = changed(doc[key])
                return True
            return any(perturbed(v, key) for v in doc.values())
        if isinstance(doc, list):
            return any(perturbed(v, key) for v in doc)
        return False

    cases = [
        ("BENCH_throughput.json", "speedup"),  # simulated batched/scalar B/cyc ratio
        ("BENCH_throughput.json", "batched_bytes_per_cycle"),
        ("BENCH_authenticated.json", "tag_hit_rate"),
        ("BENCH_fleet.json", "dram_fnv"),
        ("BENCH_keyslot.json", "draw_fnv"),
        ("BENCH_interconnect.json", "avg_latency"),  # the multimaster section
        ("BENCH_interconnect.json", "latency_max"),
        ("BENCH_update.json", "update_cycles"),
    ]
    names = tracked()
    failed = 0
    for name in names:
        base = committed(name)
        _, diffs = compare(name, base, json.loads(json.dumps(base)))
        if diffs:
            print(f"self-test: unchanged {name} should pass; diffs: {diffs}")
            failed += 1
    for name, key in cases:
        base = committed(name)
        new = json.loads(json.dumps(base))
        if not perturbed(new, key):
            print(f"self-test: {name} has no field {key!r}")
            failed += 1
            continue
        _, diffs = compare(name, base, new)
        if not diffs:
            print(f"self-test: changing {name} {key} should fail")
            failed += 1
    total = len(names) + len(cases)
    print(f"self-test: {total - failed}/{total} cases behave")
    return failed == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--self-test", action="store_true",
                    help="check that unchanged files pass and changed fields fail")
    if ap.parse_args().self_test:
        return 0 if self_test() else 1

    files = tracked()
    total = 0
    bad = []
    for name in files:
        if not os.path.exists(name):
            bad.append(f"{name}: missing; run its bench first")
            continue
        with open(name) as f:
            new = json.load(f)
        compared, diffs = compare(name, committed(name), new)
        total += compared
        bad += diffs
        print(f"{name}: {compared} fields, {len(diffs)} differences")
    for d in bad[:50]:
        print("  " + d)
    if len(bad) > 50:
        print(f"  ... and {len(bad) - 50} more")
    print(f"{len(files)} files, {total} fields compared, {len(bad)} differences")
    return 1 if bad or not files else 0


if __name__ == "__main__":
    sys.exit(main())
