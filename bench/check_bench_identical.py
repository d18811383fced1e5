#!/usr/bin/env python3
"""Bit-identity gate for the committed BENCH_*.json files.

Every simulated figure the benches emit (cycles, B/cyc, counters, DRAM
fingerprints) is deterministic, so a refactor must reproduce it exactly.
This compares each regenerated BENCH_*.json in the working tree with the
committed copy (`git show HEAD:<file>`) and fails on any difference outside
an explicit list of host fields (wall times, host rates, thread counts),
which depend on the machine.

    python3 bench/check_bench_identical.py              # all BENCH_*.json vs HEAD
    python3 bench/check_bench_identical.py --self-test  # the host list is honest

A PR that moves a simulated figure on purpose re-commits the file, which
makes the change visible in review.
"""

import argparse
import glob
import json
import subprocess
import sys

# Machine-dependent fields, skipped wherever they appear.
HOST_FIELDS = frozenset({
    "host_ms", "host_ms_batched", "host_ms_scalar", "host_ops_per_sec",
    "host_txns_per_sec", "serial_host_ms", "fleet_host_ms", "threads", "steals",
    "hardware_concurrency",
})
# `speedup` is a fleet wall-time ratio in these files only. In
# BENCH_throughput.json it is the simulated batched/scalar B/cyc ratio and
# is compared like any other simulated figure.
HOST_FIELDS_BY_FILE = {
    "BENCH_fleet.json": frozenset({"speedup"}),
    "BENCH_keyslot.json": frozenset({"speedup"}),
}


def host_fields(name):
    return HOST_FIELDS | HOST_FIELDS_BY_FILE.get(name, frozenset())


def compare(name, base, new):
    """Returns (compared leaf count, list of difference descriptions)."""
    skip = host_fields(name)
    diffs = []
    compared = 0

    def walk(path, a, b):
        nonlocal compared
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                if key in skip:
                    continue
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


def committed(name):
    return json.loads(subprocess.run(["git", "show", f"HEAD:{name}"], check=True,
                                     capture_output=True, text=True).stdout)


def self_test():
    """A changed host field passes; a changed simulated field fails."""
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
        ("BENCH_throughput.json", "host_ms", True),
        ("BENCH_throughput.json", "host_ops_per_sec", True),
        ("BENCH_throughput.json", "speedup", False),  # simulated B/cyc ratio
        ("BENCH_throughput.json", "batched_bytes_per_cycle", False),
        ("BENCH_fleet.json", "speedup", True),
        ("BENCH_fleet.json", "steals", True),
        ("BENCH_fleet.json", "dram_fnv", False),
        ("BENCH_keyslot.json", "speedup", True),
        ("BENCH_keyslot.json", "draw_fnv", False),
        ("BENCH_update.json", "update_cycles", False),
    ]
    failed = 0
    for name, key, should_pass in cases:
        base = committed(name)
        new = json.loads(json.dumps(base))
        if not perturbed(new, key):
            print(f"self-test: {name} has no field {key!r}")
            failed += 1
            continue
        _, diffs = compare(name, base, new)
        if (not diffs) != should_pass:
            print(f"self-test: changing {name} {key} should "
                  f"{'pass' if should_pass else 'fail'}; diffs: {diffs}")
            failed += 1
    print(f"self-test: {len(cases) - failed}/{len(cases)} cases behave")
    return failed == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--self-test", action="store_true",
                    help="check the host-field list against perturbed committed files")
    if ap.parse_args().self_test:
        return 0 if self_test() else 1

    files = sorted(glob.glob("BENCH_*.json"))
    total = 0
    bad = []
    for name in files:
        with open(name) as f:
            new = json.load(f)
        compared, diffs = compare(name, committed(name), new)
        total += compared
        bad += diffs
        print(f"{name}: {compared} simulated fields, {len(diffs)} differences")
    for d in bad[:50]:
        print("  " + d)
    if len(bad) > 50:
        print(f"  ... and {len(bad) - 50} more")
    print(f"{len(files)} files, {total} fields compared, {len(bad)} differences")
    return 1 if bad or not files else 0


if __name__ == "__main__":
    sys.exit(main())
