#!/usr/bin/env python3
"""Codegen guard: the batched step loop must draw with the Lemire kernel inlined.

The engine's hot loops draw one scheduler pick per step through
block_rng::uniform_below, whose body is the shared lemire_uniform_below
kernel (src/support/rng.h).  Inlined, a pick is a multiply and a compare; out
of line it is a call per step, which costs the step loop a large share of
its rate without changing a single result, so no test can see it.  This
tool disassembles the object files that instantiate the loops and fails if
any of the functions below holds a call relocation (R_X86_64_PLT32) to
lemire_uniform_below:

  * detail::step_loop and detail::step_batches instantiations — the one
    batched step loop behind run_compiled and run_packed;
  * run_packed instantiations, into which the loop may be inlined;
  * detail::dense_window instantiations — the same loop as run_silent's
    dense windows, kept out of line for this reason.

Usage: check_inlining.py [--objdump PATH] OBJECT [OBJECT...]
  e.g. check_inlining.py build/CMakeFiles/pp.dir/src/fleet/prepare.cpp.o
Exits nonzero when a checked function calls the kernel out of line, or when
an object holds none of the checked functions (a renamed loop must not pass
by checking nothing).
"""

import argparse
import re
import subprocess
import sys

# Demangled function names the guard covers.
CHECKED = re.compile(
    r"pp::detail::step_loop<|pp::detail::step_batches<|pp::run_packed<|"
    r"pp::detail::dense_window<"
)
# A function header line of `objdump -dC`: "0000000000000000 <name>:".
HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")
KERNEL_CALL = re.compile(r"R_X86_64_PLT32\s+.*lemire_uniform_below")


def scan(path, objdump):
    """Returns (functions checked, [offending function names])."""
    out = subprocess.run([objdump, "-dCr", "--no-show-raw-insn", path],
                         check=True, capture_output=True, text=True).stdout
    checked = 0
    offenders = []
    current = None
    for line in out.splitlines():
        header = HEADER.match(line)
        if header:
            name = header.group(1)
            current = name if CHECKED.search(name) else None
            checked += current is not None
            continue
        if current is not None and KERNEL_CALL.search(line):
            offenders.append(current)
            current = None  # one report per function
    return checked, offenders


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objdump", default="objdump")
    parser.add_argument("objects", nargs="+", metavar="OBJECT")
    options = parser.parse_args(argv)
    status = 0
    for path in options.objects:
        try:
            checked, offenders = scan(path, options.objdump)
        except (OSError, subprocess.CalledProcessError) as error:
            print(f"{path}: cannot disassemble: {error}", file=sys.stderr)
            status = 1
            continue
        if checked == 0:
            print(f"{path}: no step-loop instantiation found", file=sys.stderr)
            status = 1
            continue
        for name in offenders:
            print(f"{path}: calls lemire_uniform_below out of line: "
                  f"{name[:200]}", file=sys.stderr)
        if offenders:
            status = 1
        else:
            print(f"{path}: ok ({checked} functions)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
