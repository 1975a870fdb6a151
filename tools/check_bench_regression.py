#!/usr/bin/env python3
"""Bench-regression gate: diff fresh BENCH_<name>.json output against the
committed baselines in bench/baselines/.

Every bench harness writes a machine-readable BENCH_<name>.json (see
bench/bench_util.h). The simulation harnesses are deterministic in virtual
time, so their metrics are compared with a tight relative tolerance. The
google-benchmark micro harnesses report wall-clock ns/op, which varies
across machines; those metrics are only required to exist, be positive,
and stay within a generous multiplier of the baseline.

Usage:
  tools/check_bench_regression.py --fresh-dir <dir> [--baseline-dir bench/baselines]
  tools/check_bench_regression.py --fresh-dir <dir> --update-baselines

Every baseline is checked even after the first failure, every violated
metric is listed, and the run ends with a per-bench PASS/FAIL summary
table. Exit code 0 when every bench matches its baseline, 1 otherwise.

--update-baselines copies every fresh BENCH_<name>.json over its
committed baseline (adding files for new benches) instead of comparing,
and refuses to accept output with failing shape checks. Use it after an
intentional perf-affecting change; see EXPERIMENTS.md.
"""

import argparse
import json
import math
import os
import shutil
import sys

# Relative tolerance for deterministic (virtual-time) metrics. Slack is
# intentional: legitimate PRs shift simulated latencies a little (a new
# telemetry sample, a changed probe schedule); the gate is after routing
# regressions, not byte equality.
DETERMINISTIC_REL_TOL = 0.15

# Deterministic metrics that must match *exactly* (counts of discrete
# events drifting at all means behaviour changed).
EXACT_FIELDS = {"queries"}

# Absolute slack for deterministic metrics whose baseline is ~0 (retries,
# timeouts, hedges on a healthy run): allow a handful before failing.
NEAR_ZERO_ABS_TOL = 2.0

# Wall-clock metrics (by label suffix): must exist and be positive;
# flagged only past a generous multiplier so a slower CI machine never
# trips it, while an accidentally quadratic hot path still does. Classes
# (documented in EXPERIMENTS.md):
#   /real_time_per_iter_s, /wall_s  -- elapsed wall time; fail if the
#       fresh value is more than WALL_CLOCK_MAX_RATIO times the baseline
#       (bigger is worse).
#   /throughput_qps -- wall-clock rate; fail if the fresh value drops
#       below baseline / WALL_CLOCK_MAX_RATIO (smaller is worse).
#   /ratio_x -- a ratio of two wall-clock rates from the *same* run
#       (machine speed largely cancels); positivity only, because the
#       bench's own named shape checks gate its threshold.
WALL_TIME_SUFFIXES = ("/real_time_per_iter_s", "/wall_s")
WALL_RATE_SUFFIXES = ("/throughput_qps",)
WALL_RATIO_SUFFIXES = ("/ratio_x",)
WALL_CLOCK_MAX_RATIO = 25.0

# A label containing one of these names a wall-clock quantity. Unless it
# also ends in a class suffix above ("QT2/columnar/wall_s", not
# "QT2/columnar_wall_s") it would be compared as a deterministic value
# within DETERMINISTIC_REL_TOL, so the gate rejects it instead.
WALL_CLOCK_MARKERS = ("wall_s", "ratio_x", "real_time_per_iter_s",
                      "throughput_qps")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def fields_of(workload):
    return {k: v for k, v in workload.items() if k != "label"}


def check_deterministic(bench, where, key, base, fresh, problems):
    if key in EXACT_FIELDS:
        if fresh != base:
            problems.append(
                f"{bench}: {where}.{key} = {fresh}, baseline {base} "
                f"(exact-match metric)")
        return
    if not math.isfinite(base) or not math.isfinite(fresh):
        if repr(base) != repr(fresh):
            problems.append(
                f"{bench}: {where}.{key} = {fresh}, baseline {base}")
        return
    if abs(base) < 1e-9:
        if abs(fresh) > NEAR_ZERO_ABS_TOL:
            problems.append(
                f"{bench}: {where}.{key} = {fresh}, baseline ~0 "
                f"(allowed +/-{NEAR_ZERO_ABS_TOL})")
        return
    rel = abs(fresh - base) / abs(base)
    if rel > DETERMINISTIC_REL_TOL:
        problems.append(
            f"{bench}: {where}.{key} = {fresh:.6g}, baseline {base:.6g} "
            f"({rel * 100.0:.1f}% off, tolerance "
            f"{DETERMINISTIC_REL_TOL * 100.0:.0f}%)")


def wall_clock_class(label):
    """Returns the wall-clock tolerance class for a scalar label, or None
    when the scalar is deterministic."""
    if label.endswith(WALL_TIME_SUFFIXES):
        return "time"
    if label.endswith(WALL_RATE_SUFFIXES):
        return "rate"
    if label.endswith(WALL_RATIO_SUFFIXES):
        return "ratio"
    return None


def misnamed_wall_clock(label):
    """True when `label` names a wall-clock quantity but matches no
    wall-clock class."""
    return (wall_clock_class(label) is None
            and any(m in label for m in WALL_CLOCK_MARKERS))


def check_wall_clock(bench, kind, label, base, fresh, problems):
    if fresh <= 0.0:
        problems.append(f"{bench}: scalar '{label}' = {fresh} (must be > 0)")
        return
    if kind == "time" and base > 0.0 and fresh > base * WALL_CLOCK_MAX_RATIO:
        problems.append(
            f"{bench}: scalar '{label}' = {fresh:.3g}s, baseline "
            f"{base:.3g}s (> {WALL_CLOCK_MAX_RATIO:.0f}x slower)")
    elif kind == "rate" and base > 0.0 and fresh < base / WALL_CLOCK_MAX_RATIO:
        problems.append(
            f"{bench}: scalar '{label}' = {fresh:.3g}/s, baseline "
            f"{base:.3g}/s (> {WALL_CLOCK_MAX_RATIO:.0f}x slower)")
    # kind == "ratio": positivity only; the bench's shape checks gate it.


def compare(bench, baseline, fresh, problems):
    # 1. Shape checks: every named check in the baseline must still exist
    # and pass. New checks in fresh output are fine (a growing suite).
    fresh_checks = {c["name"]: c["pass"] for c in fresh.get("checks", [])}
    for check in baseline.get("checks", []):
        name = check["name"]
        if name not in fresh_checks:
            problems.append(f"{bench}: shape check '{name}' disappeared")
        elif not fresh_checks[name]:
            problems.append(f"{bench}: shape check '{name}' now FAILS")
    if fresh.get("failed", 0) != 0:
        problems.append(f"{bench}: {fresh['failed']} shape check(s) failing")

    # 2. Workload metrics, matched by label.
    fresh_workloads = {w["label"]: w for w in fresh.get("workloads", [])}
    for workload in baseline.get("workloads", []):
        label = workload["label"]
        if label not in fresh_workloads:
            problems.append(f"{bench}: workload '{label}' disappeared")
            continue
        fresh_fields = fields_of(fresh_workloads[label])
        for key, base_value in fields_of(workload).items():
            if key not in fresh_fields:
                problems.append(
                    f"{bench}: workload '{label}' lost metric '{key}'")
                continue
            check_deterministic(bench, f"workload '{label}'", key,
                                base_value, fresh_fields[key], problems)

    # 3. Scalars, matched by label; wall-clock ones get the loose rule.
    fresh_scalars = {s["label"]: s["value"] for s in fresh.get("scalars", [])}
    for scalar in baseline.get("scalars", []):
        label, base_value = scalar["label"], scalar["value"]
        if misnamed_wall_clock(label):
            suffixes = ", ".join(WALL_TIME_SUFFIXES + WALL_RATE_SUFFIXES +
                                 WALL_RATIO_SUFFIXES)
            problems.append(
                f"{bench}: scalar '{label}' names a wall-clock quantity but "
                f"matches no wall-clock class (end it in one of {suffixes})")
            continue
        if label not in fresh_scalars:
            problems.append(f"{bench}: scalar '{label}' disappeared")
            continue
        fresh_value = fresh_scalars[label]
        kind = wall_clock_class(label)
        if kind is not None:
            check_wall_clock(bench, kind, label, base_value, fresh_value,
                             problems)
        else:
            check_deterministic(bench, "scalars", label, base_value,
                                fresh_value, problems)


def update_baselines(fresh_dir, baseline_dir):
    """Adopts every fresh BENCH_*.json as the new committed baseline."""
    fresh = sorted(
        f for f in os.listdir(fresh_dir)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not fresh:
        print(f"no BENCH_*.json files under {fresh_dir}; run the benches "
              f"with FEDCAL_BENCH_JSON_DIR={fresh_dir} first")
        return 1
    problems = []
    for name in fresh:
        data = load(os.path.join(fresh_dir, name))
        if data.get("failed", 0) != 0:
            problems.append(
                f"{name}: {data['failed']} shape check(s) failing; fix the "
                f"bench (or the code) before adopting it as a baseline")
    if problems:
        for p in problems:
            print(f"  FAIL  {p}")
        return 1
    os.makedirs(baseline_dir, exist_ok=True)
    for name in fresh:
        dst = os.path.join(baseline_dir, name)
        verb = "updated" if os.path.exists(dst) else "added"
        shutil.copyfile(os.path.join(fresh_dir, name), dst)
        print(f"  {verb}  {dst}")
    print(f"{len(fresh)} baseline(s) written to {baseline_dir}; review the "
          f"diff and commit them with the change that moved the numbers")
    return 0


def self_test():
    """Exercises both gate directions against throwaway fixtures: a clean
    match passes, a fresh bench without a baseline fails, a committed
    baseline without fresh output (orphan) fails, a documented wall-clock
    label gets the loose rule, and a wall-clock label that matches no
    class fails. Run from ctest."""
    import subprocess
    import tempfile

    bench = {"bench": "demo", "checks": [], "failed": 0,
             "workloads": [{"label": "w", "queries": 4}], "scalars": []}

    def with_scalar(label, value):
        return dict(bench, scalars=[{"label": label, "value": value}])

    def run_case(label, baselines, fresh, expect_rc, expect_text=None,
                 base_bench=bench, fresh_bench=bench):
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "baselines")
            fresh_dir = os.path.join(tmp, "fresh")
            os.makedirs(base_dir)
            os.makedirs(fresh_dir)
            for name in baselines:
                with open(os.path.join(base_dir, name), "w",
                          encoding="utf-8") as f:
                    json.dump(base_bench, f)
            for name in fresh:
                with open(os.path.join(fresh_dir, name), "w",
                          encoding="utf-8") as f:
                    json.dump(fresh_bench, f)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--baseline-dir", base_dir, "--fresh-dir", fresh_dir],
                capture_output=True, text=True, check=False)
            ok = proc.returncode == expect_rc and (
                expect_text is None or expect_text in proc.stdout)
            print(f"  {'PASS' if ok else 'FAIL'}  {label} "
                  f"(rc={proc.returncode}, want {expect_rc})")
            if not ok:
                print(proc.stdout)
            return ok

    results = [
        run_case("matching baseline and fresh output",
                 ["BENCH_a.json"], ["BENCH_a.json"], 0),
        run_case("fresh bench without committed baseline",
                 ["BENCH_a.json"], ["BENCH_a.json", "BENCH_b.json"], 1,
                 "no committed baseline"),
        run_case("orphaned committed baseline (no fresh output)",
                 ["BENCH_a.json", "BENCH_b.json"], ["BENCH_a.json"], 1,
                 "ORPHAN"),
        # 60% off passes only because the label is classed as wall-clock.
        run_case("documented wall-clock label on a slower host",
                 ["BENCH_a.json"], ["BENCH_a.json"], 0,
                 base_bench=with_scalar("QT2/columnar/wall_s", 1.0),
                 fresh_bench=with_scalar("QT2/columnar/wall_s", 1.6)),
        run_case("wall-clock label matching no wall-clock class",
                 ["BENCH_a.json"], ["BENCH_a.json"], 1,
                 "matches no wall-clock class",
                 base_bench=with_scalar("QT2/speedup_ratio_x", 2.0),
                 fresh_bench=with_scalar("QT2/speedup_ratio_x", 2.0)),
    ]
    return 0 if all(results) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--fresh-dir",
                        help="directory holding freshly produced "
                             "BENCH_<name>.json files")
    parser.add_argument("--update-baselines", action="store_true",
                        help="adopt the fresh output as the new baselines "
                             "instead of comparing against them")
    parser.add_argument("--self-test", action="store_true",
                        help="exercise the gate against throwaway fixtures "
                             "and exit (used by ctest)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.fresh_dir:
        parser.error("--fresh-dir is required")

    if args.update_baselines:
        return update_baselines(args.fresh_dir, args.baseline_dir)

    baselines = sorted(
        f for f in os.listdir(args.baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not baselines:
        print(f"no BENCH_*.json baselines under {args.baseline_dir}")
        return 1

    # Check every baseline (never stop at the first failure) and bucket
    # the violations per bench for the summary table. A committed baseline
    # with no fresh output is an *orphan*: the bench was deleted or renamed
    # without retiring its baseline (or simply was not run), and nothing
    # would ever gate it again — fail and name it distinctly.
    per_bench = {}
    orphans = set()
    for name in baselines:
        bench = name[len("BENCH_"):-len(".json")]
        problems = per_bench.setdefault(bench, [])
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(fresh_path):
            orphans.add(bench)
            problems.append(
                f"{bench}: committed baseline {name} is orphaned: no fresh "
                f"output in {args.fresh_dir} (bench deleted/renamed without "
                f"retiring its baseline, or not run)")
            continue
        compare(bench, load(os.path.join(args.baseline_dir, name)),
                load(fresh_path), problems)

    # A fresh result with no committed baseline means a new bench landed
    # without its reference numbers: nothing would ever gate it. Fail
    # loudly and point at the adoption path.
    for name in sorted(
            f for f in os.listdir(args.fresh_dir)
            if f.startswith("BENCH_") and f.endswith(".json")):
        if name in baselines:
            continue
        bench = name[len("BENCH_"):-len(".json")]
        per_bench.setdefault(bench, []).append(
            f"{bench}: fresh {name} has no committed baseline under "
            f"{args.baseline_dir}; adopt it with --update-baselines and "
            f"commit the result")

    total = sum(len(p) for p in per_bench.values())
    if total:
        print(f"bench-regression gate: {total} problem(s) across "
              f"{len(baselines)} baseline(s):")
        for bench in sorted(per_bench):
            for p in per_bench[bench]:
                print(f"  FAIL  {p}")

    width = max(len(b) for b in per_bench)
    print(f"\n  {'bench':<{width}}  result  problems")
    print(f"  {'-' * width}  ------  --------")
    for bench in sorted(per_bench):
        n = len(per_bench[bench])
        verdict = "ORPHAN" if bench in orphans else ("FAIL" if n else "PASS")
        print(f"  {bench:<{width}}  {verdict:<6}  {n if n else '-'}")
    failed = sum(1 for p in per_bench.values() if p)
    print(f"\nbench-regression gate: {len(per_bench) - failed}/"
          f"{len(per_bench)} bench(es) match their baselines"
          + (f" ({len(orphans)} orphaned baseline(s))" if orphans else ""))
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
