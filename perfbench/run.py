#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <flood|churn|lossy> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the `perfbench` package (a cargo workspace of its own that depends
on the repository's crates by path) in release mode, into
`$CARGO_TARGET_DIR` or `.bench_build` at the repository root, then runs
it with the same arguments. Traced runs also write their spans to
`perfbench/out/spans-<workload>.tsv`.

The last line of standard output is the result, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. Before printing it,
this script checks that the metrics are exactly the ones `BENCHMARK.json`
declares for the mode (`end_to_end` untraced, `per_layer` traced), with
the declared units. Any build failure, check failure or mismatch exits
non-zero without printing a result.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def declared(trace):
    """Metric name -> unit that BENCHMARK.json declares for the mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    trace = args.trace == "1"

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"build took longer than {BUILD_TIMEOUT_S} s")
    if built.returncode != 0:
        return fail("build failed")

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        cmd += ["--spans", str(out / f"spans-{args.workload}.tsv")]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run took longer than {RUN_TIMEOUT_S} s")
    sys.stderr.write(ran.stderr)
    lines = ran.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    if body:
        print("\n".join(body))
    if ran.returncode != 0:
        return fail(f"exit code {ran.returncode}; last line: {last}")
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        return fail(f"last line is not JSON: {last!r}")
    want = declared(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                    f"undeclared {extra}, unit mismatch {units}")
    if not result["correct"]:
        return fail("the run's checks failed")
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
