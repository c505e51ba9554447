#!/usr/bin/env python3
"""Self-test of the benchmark, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload once at tiny size, untraced and traced, and checks
that each run passes its output checks and prints exactly the metrics
BENCHMARK.json names, each with its unit, both in the human table and in
the result JSON.  Then checks that a directory holding only
BENCHMARK.json and perfbench/ fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

RESULT_KEYS = ["attempted", "correct", "failed", "metrics"]


def run(bench, workload, trace, cwd="."):
    return subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", trace, "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(bench, workload, trace, key):
    p = run(bench, workload, trace)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return [f"exit {p.returncode}: {p.stderr.strip()[-1000:]}"]
    last = json.loads(lines[-1])
    problems = []
    if sorted(last) != RESULT_KEYS:
        problems.append(f"result keys {sorted(last)}")
    if last.get("correct") is not True or last.get("failed") != 0 or last.get("attempted", 0) < 1:
        problems.append(f"correct={last.get('correct')} failed={last.get('failed')} "
                        f"attempted={last.get('attempted')}")
    want = {m["name"]: m["unit"] for m in bench[key]}
    got = {name: m.get("unit") for name, m in last.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json {key}: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[n for n in want if n in got and got[n] != want[n]]}")
    table = {line.split()[0]: line.split()[-1] for line in lines[:-2] if len(line.split()) == 3}
    unprinted = [n for n, u in want.items() if table.get(n) != u]
    if unprinted:
        problems.append(f"not printed with their unit: {unprinted}")
    return problems


def check_bare(bench):
    """A directory with only BENCHMARK.json and the benchmark's files must fail."""
    bare = os.path.join(".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        p = run(bench, bench["workloads"][0]["name"], "0", cwd=bare)
        last = p.stdout.strip().splitlines()[-1:] or [""]
        if p.returncode == 0 or last[0].startswith("{"):
            return [f"exit {p.returncode}, last line {last[0][:80]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failed = False
    for wl in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            problems = check_run(bench, wl["name"], trace, key)
            label = f"{wl['name']} --trace {trace}"
            print(("ok   " if not problems else "FAIL ") + label)
            for problem in problems:
                print("     " + problem)
            failed |= bool(problems)
    problems = check_bare(bench)
    print(("ok   " if not problems else "FAIL ") + "bare directory fails without a result")
    for problem in problems:
        print("     " + problem)
    failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
