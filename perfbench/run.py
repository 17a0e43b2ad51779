#!/usr/bin/env python3
"""The scheduler benchmark: one command per workload run.

    python3 perfbench/run.py --workload serve_poisson --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The script builds the harness
(perfbench/CMakeLists.txt compiles src/ into a private Release library)
under .bench_build/perfbench, runs it, checks that the metrics it
reports are exactly the ones BENCHMARK.json declares, and prints the
harness's lines with the JSON result last. With --trace 1 the span file
goes to .bench_out/trace-<workload>-seed<seed>.json (Chrome trace-event
JSON; open it in Perfetto).

Exit status: 0 with a result line; non-zero, with no result line, when
the tree cannot be built or measured (e.g. no src/ next to perfbench/,
a Debug or sanitizer build, a harness crash, or a metric catalogue that
disagrees with BENCHMARK.json).
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
OPTIMIZED = {"Release", "RelWithDebInfo"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build() -> None:
    """Configures and builds the harness; serialized by a lock file."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no src/ under {ROOT}: run from a full source checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            try:
                proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(cmd)}")
            if proc.returncode != 0:
                fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.partition("=")
            if sep and not line.startswith(("#", "//")):
                cache[key.split(":", 1)[0]] = value.strip()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in OPTIMIZED:
        fail(f"refusing to measure a '{build_type}' build", code=3)
    if (cache.get("DCN_TSAN", "OFF").upper() in ("ON", "TRUE", "1")
            or "-fsanitize" in cache.get("CMAKE_CXX_FLAGS", "")):
        fail("refusing to measure a sanitizer build", code=3)


def source_id() -> str:
    """Git commit when the checkout is a repository, plus a digest of the
    sources the harness is built from (the checkout may not be one)."""
    commit = "none"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    commit = f.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"git={commit};src_sha256={digest.hexdigest()[:16]}"


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for the mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_poisson", "flat_hadoop_rerate",
                                 "offline_paper"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected = declared_metrics(bool(args.trace))
    build()
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            os.path.relpath(OUT_DIR, ROOT),
            f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"harness exited with {proc.returncode}",
             code=proc.returncode if proc.returncode > 0 else 1)

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("harness printed no JSON result")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.stderr.write(proc.stdout)
        fail(f"metric catalogue disagrees with BENCHMARK.json: harness "
             f"{sorted(got.items())} vs declared {sorted(expected.items())}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
