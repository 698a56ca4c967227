#!/usr/bin/env python3
"""Election-sweep benchmark: build the driver, then run one workload.

    python3 electbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds libpp,
the popsim worker and the driver from source into $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check that build.  Build output goes to
stderr.  The driver's stdout is passed through, so the last line on stdout
is the result JSON.  Any build or run failure exits nonzero with no result.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def local_env():
    """The environment with TMPDIR inside the build root, so the compiler
    and the driver write nothing outside the checkout."""
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return {**os.environ, "TMPDIR": str(tmp)}


def build():
    """Configures (once) and builds the driver; returns (driver, popsim)."""
    out = build_root() / "cmake"
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=local_env(), check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "electbench",
                    "-j", jobs], stdout=sys.stderr, env=local_env(), check=True)
    return out / "electbench", out / "pp" / "example_popsim_cli"


def driver_args(popsim):
    return ["--reference", str(HERE / "reference"),
            "--workdir", str(build_root() / "work"), "--popsim", str(popsim)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        driver, popsim = build()
        run = subprocess.run(
            [str(driver), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             *driver_args(popsim)],
            env=local_env(), timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"electbench: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
