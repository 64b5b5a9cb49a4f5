#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-digests

Run from the repository root.  The benchmark is built from source into
.bench_build/ (or $CARGO_TARGET_DIR when set) as a Release build; results
land in perfbench/results/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIG = os.path.join(HERE, "config.json")
DIGESTS = os.path.join(HERE, "digests.json")
RESULTS = os.path.join(HERE, "results")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    """Configure (once) and build `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no repository sources next to perfbench/ (expected ../src and "
             "../CMakeLists.txt); the benchmark builds the program from them")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(bdir, target)


def source_id():
    """git commit when the checkout is a repository, plus a hash of the
    sources the benchmark builds (the checkout may not be a repository)."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "results")
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as fh:
        h.update(fh.read())
    return "git:%s,src:%s" % (commit, h.hexdigest()[:16])


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_binary(binary, argv, env=None):
    """Run the benchmark binary; returns (exit code, its standard output)."""
    try:
        r = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    return r.returncode, r.stdout


def workload_argv(cfg, digests, workload, seed, seconds, trace):
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", RESULTS, "--commit", source_id()]
    serve = cfg["serve-zipf"]
    argv += ["--light-rps", str(serve["light_rps"]),
             "--heavy-rps", str(serve["heavy_rps"]),
             "--slo-p99-s", str(serve["slo_p99_s"])]
    if seed == cfg["default_seed"] and workload in digests.get("digests", {}):
        argv += ["--expect-digest", digests["digests"][workload]]
    return argv


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    cfg = load_json(CONFIG)
    digests = load_json(DIGESTS) if os.path.isfile(DIGESTS) else {}
    seed = cfg["default_seed"] if args.seed is None else args.seed

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    binary = build("perfbench")
    os.makedirs(RESULTS, exist_ok=True)
    if args.record_digests:
        # The committed digests are the scalar kernel backend's bytes.
        env = dict(os.environ, MPIPU_KERNEL="scalar")
        out = {"seed": cfg["default_seed"], "backend": "scalar", "digests": {}}
        for w in cfg["workloads"]:
            code, text = run_binary(binary, workload_argv(
                cfg, {}, w, cfg["default_seed"], 0.01, 0), env)
            line = [l for l in text.splitlines() if l.startswith("digest ")]
            if code or not line:
                fail("recording %s failed" % w)
            out["digests"][w] = line[0].split()[1]
        with open(DIGESTS, "w") as fh:
            json.dump(out, fh, indent=2)
            fh.write("\n")
        print(json.dumps(out["digests"], indent=2))
        return
    if not args.workload:
        fail("--workload is required")
    if args.workload == "all":
        run_all(binary, cfg, digests, seed, args.seconds, args.trace)
        return
    if args.workload not in cfg["workloads"]:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(cfg["workloads"])))
    code, text = run_binary(binary, workload_argv(
        cfg, digests, args.workload, seed, args.seconds, args.trace))
    sys.stdout.write(text)
    sys.stdout.flush()
    sys.exit(code)


def run_all(binary, cfg, digests, seed, seconds, trace):
    """Every workload in turn; the last line merges their results, with
    metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in cfg["workloads"]:
        code, text = run_binary(binary, workload_argv(cfg, digests, w, seed, seconds, trace))
        lines = text.splitlines()
        if code or not lines:
            fail("workload %s failed" % w, code or 1)
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stdout.flush()
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"]["%s/%s" % (w, name)] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
