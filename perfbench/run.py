#!/usr/bin/env python3
"""The repository's benchmark (BENCHMARK.json), run from the repository root.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Build perfbench.exe and bcn_serve.exe with dune, run one workload
      (sweep, analysis or serve-mix) and print its result; the last line
      is {"correct", "attempted", "failed", "metrics"}. Exits non-zero
      when an output check failed or the metrics do not match
      BENCHMARK.json.

  python3 perfbench/run.py spread --workload W [--runs 10] [--first-seed 1]
                                  [--seconds S] [--out FILE]
      Run one workload on --runs consecutive seeds and print, per
      end-to-end metric, the median and the spread (quartile distance
      over the median) against the metric's bound. Results go to FILE
      as JSON lines, one per run.

  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
      Judge a change against its parent from two spread files made with
      the same settings (runs paired in file order; alternate which
      side runs first when making them). One row per workload and
      metric: a win needs at least 9 of 10 pairs and a median gap wider
      than the parent's quartile distance; a metric whose parent spread
      is wider than its bound is unresolved unless every change run
      beats every parent run; a median worse by more than the bound is
      a regression.
"""

import array
import fcntl
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = "BENCHMARK.json"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SERVE_EXE = os.path.join("_build", "default", "bin", "bcn_serve.exe")
WORK = "_perfbench"
RUN_TIMEOUT = 170
# linux/fs.h: FS_IOC_GETFLAGS, FS_IOC_SETFLAGS (64-bit), FS_TOPDIR_FL
FS_IOC_GETFLAGS = 0x80086601
FS_IOC_SETFLAGS = 0x40086602
FS_TOPDIR_FL = 0x00020000


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_bench():
    with open(BENCH) as f:
        return json.load(f)


def check_checkout():
    for path in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune"), BENCH):
        if not os.path.exists(path):
            die("run from the repository root: %s is missing" % path)


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/bcn_serve.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        die("build failed", 1)


def mark_top_dir(path):
    """Create PATH and mark it a top directory (chattr +T), so that ext4
    places each new subdirectory in a block group of its own; serve-mix
    keeps its stores there (see fresh_store in perfbench/wl_serve.ml).
    Returns whether the mark is set; other filesystems refuse it."""
    os.makedirs(path, exist_ok=True)
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
        try:
            flags = array.array("l", [0])
            fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
            if not flags[0] & FS_TOPDIR_FL:
                flags[0] |= FS_TOPDIR_FL
                fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
            return True
        finally:
            os.close(fd)
    except OSError:
        return False


def run_exe(args):
    """Run perfbench.exe in its own process group; returns (code, stdout).
    On timeout the whole group goes, daemon included."""
    proc = subprocess.Popen(
        [EXE] + args, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("run exceeded %d s" % RUN_TIMEOUT, 1)
    return proc.returncode, out


def validate(result, bench, trace):
    """The result must name exactly BENCHMARK.json's metrics, with their units."""
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        die("metrics differ from %s: missing %s, extra %s, unit mismatch %s"
            % (BENCH, missing, extra, units), 1)


def parse_opts(argv, spec):
    opts = {}
    i = 0
    while i < len(argv):
        key = argv[i]
        if not key.startswith("--") or key[2:] not in spec or i + 1 >= len(argv):
            die("bad argument %r (see the usage in %s)" % (key, __file__))
        opts[key[2:]] = argv[i + 1]
        i += 2
    return opts


def one_run(workload, seed, seconds, trace, bench, echo=True):
    names = [w["name"] for w in bench["workloads"]]
    if workload not in names:
        die("unknown workload %r (one of %s)" % (workload, ", ".join(names)))
    env_rev = git_rev()
    os.environ["PERFBENCH_REV"] = "%s src-sha256:%s" % (env_rev, source_digest())
    os.environ["PERFBENCH_STORES_TOPDIR"] = str(int(mark_top_dir(os.path.join(WORK, "stores"))))
    code, out = run_exe(
        ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0", "--work", WORK, "--serve-exe", SERVE_EXE]
    )
    lines = out.rstrip("\n").split("\n")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        die("no result line", 1)
    validate(result, bench, trace)
    return code, result


def cmd_run(argv):
    o = parse_opts(argv, {"workload", "seed", "seconds", "trace"})
    for k in ("workload", "seed", "seconds", "trace"):
        if k not in o:
            die("--%s is required" % k)
    if o["trace"] not in ("0", "1"):
        die("--trace takes 0 or 1")
    bench = load_bench()
    build()
    code, _ = one_run(o["workload"], int(o["seed"]), int(o["seconds"]), o["trace"] == "1", bench)
    sys.exit(code)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_spread(argv):
    o = parse_opts(argv, {"workload", "runs", "first-seed", "seconds", "out"})
    if "workload" not in o:
        die("--workload is required")
    bench = load_bench()
    build()
    runs = int(o.get("runs", "10"))
    first = int(o.get("first-seed", "1"))
    seconds = int(o.get("seconds", str(bench["run_seconds"])))
    out_path = o.get("out", os.path.join(WORK, "spread-%s.jsonl" % o["workload"]))
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    rows = []
    with open(out_path, "w") as f:
        for seed in range(first, first + runs):
            t0 = time.time()
            code, result = one_run(o["workload"], seed, seconds, False, bench, echo=False)
            row = {"workload": o["workload"], "seed": seed, "exit": code,
                   "wall_s": time.time() - t0, **result}
            f.write(json.dumps(row) + "\n")
            f.flush()
            rows.append(row)
            print("seed %d: exit %d, %.1f s, correct=%s" % (seed, code, row["wall_s"], result["correct"]),
                  file=sys.stderr)
    print("%-14s %12s %12s %12s %8s %8s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    ok = True
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in rows]
        med, q1, q3, s = spread(vals)
        if s < m["bound"] / 3:
            verdict = "steady"
        elif s <= m["bound"]:
            verdict = "within bound, above a third of it"
        else:
            verdict = "TOO WIDE"
            ok = False
        print("%-14s %12.6g %12.6g %12.6g %8.4f %8.3f  %s" % (m["name"], med, q1, q3, s, m["bound"], verdict))
    if not all(r["correct"] and r["exit"] == 0 for r in rows):
        print("some runs failed their output checks")
        ok = False
    sys.exit(0 if ok else 1)


def judge(parent, change, better, bound):
    """The comparison rule for one workload and metric (see the usage)."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_med, p_q1, p_q3, p_spread = spread(parent)
    c_med, _, _, _ = spread(change)
    gap = sign * (c_med - p_med)
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins * 10 >= 9 * len(pairs) and gap > (p_q3 - p_q1):
        verdict = "win"
    elif p_spread > bound and not every_better:
        verdict = "unresolved"
    elif -gap > bound * p_med:
        verdict = "regression"
    else:
        verdict = "no change"
    return {"wins": wins, "pairs": len(pairs), "parent_median": p_med,
            "change_median": c_med, "parent_iqr_share": p_spread, "verdict": verdict}


def load_rows(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def cmd_compare(argv):
    if len(argv) != 2:
        die("compare takes PARENT.jsonl CHANGE.jsonl")
    bench = load_bench()
    parent, change = load_rows(argv[0]), load_rows(argv[1])
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    print("%-10s %-12s %12s %12s %7s %8s  %s" % ("workload", "metric", "parent", "change", "wins", "p.spread", "verdict"))
    failed = False
    for w in workloads:
        p_rows = [r for r in parent if r["workload"] == w]
        c_rows = [r for r in change if r["workload"] == w]
        if sum(r["failed"] for r in c_rows) > sum(r["failed"] for r in p_rows):
            print("%-10s more failed operations than the parent: no gain counts" % w)
            failed = True
        for m in bench["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_rows]
            c = [r["metrics"][m["name"]]["value"] for r in c_rows]
            j = judge(p, c, m["better"], m["bound"])
            failed = failed or j["verdict"] == "regression"
            print("%-10s %-12s %12.6g %12.6g %3d/%-3d %8.4f  %s" % (
                w, m["name"], j["parent_median"], j["change_median"], j["wins"],
                j["pairs"], j["parent_iqr_share"], j["verdict"]))
    sys.exit(1 if failed else 0)


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        cmd_compare(argv[1:])
    elif argv[:1] == ["spread"]:
        check_checkout()
        cmd_spread(argv[1:])
    else:
        check_checkout()
        cmd_run(argv)


if __name__ == "__main__":
    main()
