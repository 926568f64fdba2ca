#!/usr/bin/env python3
"""End-to-end sizing benchmark: build, run, check, compare.

    python3 bench/e2e/run.py                        # every workload, seed 1
    python3 bench/e2e/run.py --workload steady --seed 7 --seconds 20 --trace 0
    python3 bench/e2e/run.py --trace                # the traced run (per-layer)
    python3 bench/e2e/run.py --runs 10 --out a.json # seeds 1..10, saved
    python3 bench/e2e/run.py --agree a.json b.json  # do two sets agree?
    python3 bench/e2e/run.py --quick                # smoke test, < 30 s
    python3 bench/e2e/run.py --record --runs 32     # re-record expected.json

Builds cfest_bench (bench/e2e/CMakeLists.txt) under $CARGO_TARGET_DIR, or
.bench_build, then runs each (workload, seed) in its own process. Every
metric prints as `workload metric value unit`; results go to a JSON file;
the last line of output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is nonzero if any run failed
a correctness gate or its deterministic outputs differ from the ones
recorded in expected.json. --seconds is the measured window; it defaults
to BENCHMARK.json's run_seconds, and --agree refuses to compare sets
measured with different windows. See README.md for the workloads and
metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("steady", "ingest", "advise")
RUN_TIMEOUT_S = 170
QUICK_SECONDS = 2
SELF_TIMES_SHOWN = 12


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def output_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures once, then builds cfest_bench incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at %s: the benchmark builds the library "
             "from the repository it sits in" % ROOT)
    build_dir = os.path.join(output_dir(), "e2e")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "cfest_bench",
                  "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; full log in " + log_path)
    return os.path.join(build_dir, "cfest_bench")


def git_commit():
    """HEAD's commit read from .git directly (None outside a git checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def number(text):
    value = float(text)
    return value if math.isfinite(value) else None


def meta_value(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_output(lines, result):
    """Fills `result` from cfest_bench's lines (see PrintResult there) and
    prints every value as `workload name value unit`."""
    workload = result["workload"]
    for line in lines:
        kind, _, rest = line.partition(" ")
        fields = rest.split(" ")
        if kind in ("metric", "extra") and len(fields) == 3:
            name, value, unit = fields
            result[kind + "s"][name] = {"value": number(value), "unit": unit}
            print("%s %s %r %s" % (workload, name, number(value), unit))
        elif kind == "check" and len(fields) == 2:
            result["checks"][fields[0]] = fields[1]
            print("%s %s %s" % (workload, fields[0], fields[1]))
        elif kind == "self_ms" and len(fields) == 2:
            result["self_ms"][fields[0]] = number(fields[1])
        elif kind == "meta" and len(fields) >= 2:
            result["meta"][fields[0]] = meta_value(" ".join(fields[1:]))
        elif kind == "tally" and len(fields) == 2:
            result["attempted"], result["failed"] = map(int, fields)
        else:
            print(line, file=sys.stderr)
    ranked = sorted(result["self_ms"].items(), key=lambda kv: -(kv[1] or 0))
    for name, ms in ranked[:SELF_TIMES_SHOWN]:
        print("%s self_ms.%s %.6g ms" % (workload, name, ms))


def run_one(binary, workload, seed, seconds, trace, quick):
    """Runs cfest_bench once and returns its result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if quick:
        cmd.append("--quick")
    if trace:
        results = os.path.join(output_dir(), "e2e-results")
        os.makedirs(results, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(results, "trace-%s-seed%d.json" % (workload,
                                                                 seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s seed %d: no result within %d s" % (workload, seed,
                                                     RUN_TIMEOUT_S))
    result = {"workload": workload, "seed": seed, "trace": trace,
              "metrics": {}, "extras": {}, "checks": {}, "self_ms": {},
              "meta": {}}
    parse_output(proc.stdout.splitlines(), result)
    if "attempted" not in result:
        fail("%s seed %d: cfest_bench exited %d without a result" %
             (workload, seed, proc.returncode))
    result["exit_code"] = proc.returncode
    result["correct"] = proc.returncode == 0 and result["failed"] == 0
    result["meta"]["git_commit"] = git_commit()
    return result


def scale_key(result):
    return "%g" % result["meta"]["scale_factor"]


def check_expected(result, expected):
    """Each deterministic output must equal its recorded text exactly."""
    recorded = expected.get(scale_key(result), {}).get(str(result["seed"]))
    if recorded is None:
        if result["checks"]:
            print("run.py: nothing recorded in expected.json for seed %d at "
                  "scale %s; %s not compared" %
                  (result["seed"], scale_key(result),
                   ", ".join(sorted(result["checks"]))), file=sys.stderr)
        return
    for name, text in sorted(result["checks"].items()):
        if name not in recorded:
            continue
        result["attempted"] += 1
        if text != recorded[name]:
            result["failed"] += 1
            result["correct"] = False
            print("FAILED: %s seed %d: %s is %s, recorded %s" %
                  (result["workload"], result["seed"], name, text,
                   recorded[name]), file=sys.stderr)


def record(binary, seeds):
    """Stores the deterministic outputs of a short traced advise run (the
    advisor's answer and the audit) per seed, at both scales."""
    expected = load_json(EXPECTED) if os.path.isfile(EXPECTED) else {}
    for quick in (False, True):
        for seed in seeds:
            result = run_one(binary, "advise", seed, QUICK_SECONDS, True,
                             quick)
            if not result["correct"]:
                fail("advise seed %d failed; nothing recorded" % seed)
            expected.setdefault(scale_key(result), {})[str(seed)] = \
                result["checks"]
    for scale, table in expected.items():
        expected[scale] = dict(sorted(table.items(),
                                      key=lambda kv: int(kv[0])))
    with open(EXPECTED, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1)
        f.write("\n")
    print("recorded seeds %d..%d in %s" % (seeds[0], seeds[-1], EXPECTED))
    return 0


def check_metric_names(result, spec):
    """The run must report exactly the metrics BENCHMARK.json declares."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    declared = {m["name"] for m in spec[kind]}
    reported = set(result["metrics"])
    if declared != reported:
        print("run.py: %s metrics differ from BENCHMARK.json: missing %s, "
              "unexpected %s" % (kind, sorted(declared - reported),
                                 sorted(reported - declared)),
              file=sys.stderr)
        return False
    return True


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def agree(path_a, path_b, spec):
    """Compares two result sets metric by metric, workload by workload, and
    their deterministic outputs seed by seed."""
    sets = [load_json(path)["runs"] for path in (path_a, path_b)]
    windows = [{(r["meta"]["seconds"], r["meta"]["quick"]) for r in runs}
               for runs in sets]
    if windows[0] != windows[1] or len(windows[0]) != 1:
        fail("the sets were measured with different windows (%s vs %s); "
             "compare runs of the same length" % tuple(
                 sorted(w) for w in windows))
    ok = True
    print("%-8s %-18s %12s %12s %7s %7s %7s %6s  %s" %
          ("workload", "metric", "median A", "median B", "diff", "iqr A",
           "iqr B", "bound", "verdict"))
    timed = [[r for r in runs if not r["trace"]] for runs in sets]
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs
                       if r["workload"] == workload and name in r["metrics"]]
                      for runs in timed]
            if not values[0] or not values[1]:
                continue
            (qa1, ma, qa3), (qb1, mb, qb3) = map(quartiles, values)
            diff = (mb - ma) / ma if ma else 0.0
            iqr_a = (qa3 - qa1) / ma if ma else 0.0
            iqr_b = (qb3 - qb1) / mb if mb else 0.0
            good = abs(diff) <= bound
            if name != "setup_s":
                good = good and iqr_a <= bound and iqr_b <= bound
            ok = ok and good
            print("%-8s %-18s %12.5g %12.5g %+6.1f%% %6.1f%% %6.1f%% %5.0f%%"
                  "  %s (n=%d/%d, A q1-q3 %.5g-%.5g, B q1-q3 %.5g-%.5g)" %
                  (workload, name, ma, mb, 100 * diff, 100 * iqr_a,
                   100 * iqr_b, 100 * bound, "agree" if good else "DISAGREE",
                   len(values[0]), len(values[1]), qa1, qa3, qb1, qb3))
    checks = [{(r["workload"], r["seed"], r["trace"]): r.get("checks", {})
               for r in runs} for runs in sets]
    compared = 0
    for key in sorted(set(checks[0]) & set(checks[1])):
        a, b = checks[0][key], checks[1][key]
        for name in sorted(set(a) & set(b)):
            compared += 1
            if a[name] != b[name]:
                ok = False
                print("%s seed %d%s: %s differs: %s vs %s" %
                      (key[0], key[1], " (traced)" if key[2] else "", name,
                       a[name], b[name]))
    print("deterministic outputs: %d compared" % compared)
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (first seed with --runs)")
    parser.add_argument("--seconds", type=float,
                        help="measured window (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run")
    parser.add_argument("--runs", type=int, default=1,
                        help="consecutive seeds to run per workload")
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: small data, short windows, "
                             "untraced and traced runs, every gate on")
    parser.add_argument("--out", help="results JSON file (default: "
                        "<build dir>/e2e-results/latest.json)")
    parser.add_argument("--agree", nargs=2, metavar=("RESULTS_A", "RESULTS_B"),
                        help="compare two results files and exit")
    parser.add_argument("--record", action="store_true",
                        help="record the deterministic outputs of seeds "
                             "--seed..--seed+--runs-1 in expected.json")
    args = parser.parse_args()
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.agree:
        return agree(args.agree[0], args.agree[1], spec)
    if args.runs < 1:
        fail("--runs must be at least 1")
    seeds = list(range(args.seed, args.seed + args.runs))

    seconds = args.seconds or spec["run_seconds"]
    traces = [bool(args.trace)]
    if args.quick:
        seconds = args.seconds or QUICK_SECONDS
        traces = [False, True]
    binary = build()
    if args.record:
        return record(binary, seeds)
    expected = load_json(EXPECTED) if os.path.isfile(EXPECTED) else {}
    runs = []
    for seed in seeds:
        for workload in args.workload or WORKLOADS:
            for trace in traces:
                result = run_one(binary, workload, seed, seconds, trace,
                                 args.quick)
                check_expected(result, expected)
                runs.append(result)

    out = args.out or os.path.join(output_dir(), "e2e-results", "latest.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"git_commit": git_commit(), "runs": runs}, f, indent=1)

    correct = all(r["correct"] and check_metric_names(r, spec) for r in runs)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        summary["metrics"] = runs[0]["metrics"]
    else:
        grouped = {}
        for r in runs:
            prefix = r["workload"] + (".traced." if r["trace"] else ".")
            for name, m in r["metrics"].items():
                grouped.setdefault(prefix + name, (m["unit"], []))[1].append(
                    m["value"])
        summary["metrics"] = {
            name: {"value": statistics.median(values), "unit": unit}
            for name, (unit, values) in grouped.items()}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
