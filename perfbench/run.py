#!/usr/bin/env python3
"""The repository benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the program and the
benchmark from source (see build.py); later runs reuse the build. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it holds the run's details: behaviour digests, set-up parts,
tail percentiles and versions. Workloads, metrics and the layer map are
described in perfbench/NOTES.md.

Extra options for the benchmark's own tests: --smoke runs a truncated
workload, --corrupt flips one output before it is checked.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import build  # noqa: E402

WORKLOADS = ("seq-fingerprint", "seq-classifier", "grid-table6", "stream-state")
RUN_TIMEOUT_S = 170
HEAP = "-Xmx2g"

# Module openings Spark needs on Java 17, as its own launcher passes them.
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def run_jvm(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out after %d s" % RUN_TIMEOUT_S
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        return None, "JVM exited with code %d" % proc.returncode
    return out, None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    a = ap.parse_args(argv)

    try:
        expected = expected_metrics(a.trace)
        classes, jars, java, digest = build.ensure(ROOT)
    except (OSError, ValueError, KeyError, build.BuildError) as e:
        return fail(str(e), 2)

    work = os.path.join(ROOT, ".bench_build", "work", "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    trace_out = os.path.join(ROOT, ".bench_build", "traces", "%s-seed%d.tsv" % (a.workload, a.seed))
    cmd = [java, HEAP, "-XX:-UsePerfData", "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-Dspark.driver.host=127.0.0.1"] + JAVA_OPENS + [
           "-cp", classes + os.pathsep + os.path.join(jars, "*"), "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work", work]
    if a.trace:
        cmd += ["--trace-out", trace_out]
    if a.smoke:
        cmd.append("--smoke")
    if a.corrupt:
        cmd.append("--corrupt")
    try:
        out, err = run_jvm(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if err:
        return fail(err, 3)
    lines = [l for l in out.splitlines() if l.startswith("PERFBENCH_REPORT ")]
    if not lines:
        return fail("the JVM printed no report", 3)
    rep = json.loads(lines[-1][len("PERFBENCH_REPORT "):])

    metrics = rep["metrics"]
    missing = sorted(set(expected) - set(metrics))
    wrong = sorted(m for m in expected if m in metrics and metrics[m]["unit"] != expected[m])
    if missing or wrong:
        return fail("metrics missing %s or with wrong units %s" % (missing, wrong), 3)
    bad = sorted(m for m in expected if not isinstance(metrics[m]["value"], (int, float)))
    if bad:
        return fail("metrics without a numeric value: %s" % bad, 3)

    info = rep["info"]
    info["env"]["source_sha256"] = digest
    info["env"]["git_commit"] = git_commit()
    info["env"]["heap"] = HEAP
    if a.trace:
        info["trace_file"] = os.path.relpath(trace_out, ROOT)
    other = {m: v for m, v in metrics.items() if m not in expected}
    print(json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                      "failures": rep["failures"], "other_metrics": other, "info": info}))
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {m: metrics[m] for m in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
