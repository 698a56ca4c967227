#!/usr/bin/env python3
"""Regression gate for the BENCH_*.json artefacts against committed baselines.

check_bench_json.py validates each artefact's *shape*; this tool compares its
*content* against the baseline committed under bench/baselines/ so a PR that
silently degrades a gate or drops a result row fails in CI:

  * acceptance booleans (pass/equal/stabilized/enforced flags) must not
    degrade — a baseline `true` that turns `false` is a regression, while a
    baseline `false` turning `true` is an improvement and passes;
  * machine-dependent measurements (wall-clock seconds, steps/sec, ns per
    unit of work, speedups, overhead fractions, core counts, deviation
    z-scores, trial counts inside a time budget) are skipped — those
    are gated by the benches' own acceptance booleans, not by this tool;
  * step statistics (trajectory-dependent counts and means: different libm
    builds resample trajectories) must stay within a relative tolerance,
    25% by default;
  * everything else — bench names, row labels, n/m/trial counts, packing
    widths, structural sizes, the key sets and array lengths themselves —
    must match exactly.

Baselines are refreshed EXPLICITLY and never silently: run

    tools/check_bench_trend.py --refresh build/BENCH_*.json

after generating artefacts with the same PP_BENCH_SCALE as CI (0.1), and
commit the diff under bench/baselines/ with a justification.  A candidate
artefact with no committed baseline is an error for the same reason.

Usage: check_bench_trend.py [--refresh] [--baseline-dir DIR]
                            [--tolerance FRAC] FILE [FILE...]
Exits nonzero on any regression (or, with --refresh, never — it writes).
"""

import argparse
import json
import math
import os
import shutil
import sys

# Leaf keys whose values depend on the machine, load or clock — skipped
# entirely (substring match on the key name).
SKIP_SUBSTRINGS = (
    "seconds",
    "per_sec",
    "ns_per",
    "speedup",
    "overhead",
    "frac",
    "sigmas",
    "cores",
)

# Leaf-key suffixes that name a wall-clock unit (BENCH_engine.json's setup
# rows: estimate_s, close_s, ...), skipped like SKIP_SUBSTRINGS.  A suffix,
# not a substring, so that keys such as "steps" and "states" still compare.
SKIP_SUFFIXES = ("_s",)

# Whole leaf keys that are machine-dependent although their names look like
# counts (skipped like SKIP_SUBSTRINGS, but matched exactly so that real
# trial counts elsewhere still compare exactly).  BENCH_star.json's
# star_elections rows report how many elections the reference and the engine
# finished inside a fixed time budget, so they track host speed; the
# speedup_pass boolean and the equivalence booleans are what gate that bench.
SKIP_KEYS = (
    "ref_trials",
    "engine_trials",
)

# Leaf keys whose values ride the sampled trajectory (step counts, means,
# sample counts): compared within --tolerance instead of exactly, because a
# different libm (CI image vs dev box) legitimately resamples every run.
TOLERANT_SUBSTRINGS = (
    "steps",
    "mean",
    "stddev",
    "samples",
    "bytes_per_step",
)


def leaf_key(path):
    """The final key name of a JSON path like $.rates[3].steps."""
    tail = path.rsplit(".", 1)[-1]
    return tail.split("[", 1)[0]


def classify(path):
    key = leaf_key(path)
    if (key in SKIP_KEYS or any(s in key for s in SKIP_SUBSTRINGS)
            or key.endswith(SKIP_SUFFIXES)):
        return "skip"
    if any(s in key for s in TOLERANT_SUBSTRINGS):
        return "tolerant"
    return "exact"


def compare(baseline, candidate, path, tolerance, errors):
    if isinstance(baseline, dict) and isinstance(candidate, dict):
        for key in sorted(set(baseline) | set(candidate)):
            if key not in candidate:
                errors.append(f"{path}.{key}: key dropped (present in baseline)")
            elif key not in baseline:
                errors.append(
                    f"{path}.{key}: new key (absent from baseline) — refresh "
                    "the baseline explicitly"
                )
            else:
                compare(baseline[key], candidate[key], f"{path}.{key}",
                        tolerance, errors)
        return
    if isinstance(baseline, list) and isinstance(candidate, list):
        if len(baseline) != len(candidate):
            errors.append(
                f"{path}: result rows changed ({len(baseline)} baseline vs "
                f"{len(candidate)} candidate)"
            )
            return
        for index, (b, c) in enumerate(zip(baseline, candidate)):
            compare(b, c, f"{path}[{index}]", tolerance, errors)
        return
    if type(baseline) is not type(candidate) and not (
        isinstance(baseline, (int, float))
        and isinstance(candidate, (int, float))
        and not isinstance(baseline, bool)
        and not isinstance(candidate, bool)
    ):
        errors.append(
            f"{path}: type changed ({type(baseline).__name__} -> "
            f"{type(candidate).__name__})"
        )
        return

    kind = classify(path)
    if kind == "skip":
        return
    if isinstance(baseline, bool):
        if baseline and not candidate:
            errors.append(f"{path}: acceptance degraded (baseline true -> false)")
        return
    if isinstance(baseline, (int, float)):
        b, c = float(baseline), float(candidate)
        if kind == "tolerant":
            scale = max(abs(b), abs(c), 1e-9)
            if abs(b - c) / scale > tolerance:
                errors.append(
                    f"{path}: outside {tolerance:.0%} tolerance "
                    f"(baseline {baseline} vs candidate {candidate})"
                )
        elif not math.isclose(b, c, rel_tol=1e-12, abs_tol=0.0):
            errors.append(
                f"{path}: exact-match key changed "
                f"(baseline {baseline} vs candidate {candidate})"
            )
        return
    if baseline != candidate:
        errors.append(
            f"{path}: changed (baseline {baseline!r} vs candidate {candidate!r})"
        )


def default_baseline_dir():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, os.pardir, "bench", "baselines")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="candidate BENCH_*.json files")
    parser.add_argument("--refresh", action="store_true",
                        help="overwrite the baselines with the candidates")
    parser.add_argument("--baseline-dir", default=default_baseline_dir())
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative tolerance for step statistics")
    args = parser.parse_args(argv[1:])

    if args.refresh:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in args.files:
            target = os.path.join(args.baseline_dir, os.path.basename(path))
            shutil.copyfile(path, target)
            print(f"{path}: baseline refreshed -> {target}")
        return 0

    failed = False
    for path in args.files:
        baseline_path = os.path.join(args.baseline_dir, os.path.basename(path))
        if not os.path.exists(baseline_path):
            print(
                f"{path}: no committed baseline at {baseline_path} — run "
                "with --refresh and commit it",
                file=sys.stderr,
            )
            failed = True
            continue
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(path, "r", encoding="utf-8") as handle:
            candidate = json.load(handle)
        errors = []
        compare(baseline, candidate, "$", args.tolerance, errors)
        if errors:
            failed = True
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
        else:
            print(f"{path}: ok (baseline {os.path.relpath(baseline_path)})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
