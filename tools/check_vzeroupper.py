#!/usr/bin/env python3
"""Fail on any AVX function in the built libraries that leaves no vzeroupper.

A function that writes a 256- or 512-bit register and returns (or calls
out) without `vzeroupper` hands its caller dirty upper YMM state; later
SSE-encoded code then runs slowly until something clears it. Compilers
normally insert the instruction themselves, but not always (GCC left it out
of simd::nearest2_batch_avx2, and at -O2 of assigned_distance_avx2), so this
disassembles every `geored_*` static library with objdump and lists each
function that names a `%ymm`/`%zmm` register but contains no `vzeroupper`.
Run it on an optimized build (-O2 or -O3): GCC inserts no vzeroupper at -O0
and misses several at -O1 and -Os.

Usage:
    check_vzeroupper.py BUILD_DIR      # scans BUILD_DIR/src/*/libgeored_*.a
    check_vzeroupper.py LIB.a [...]    # scans the given archives

Exit status: 0 when every AVX function clears its upper state, 1 when any
does not (each offender is printed), 2 when no library is found, 125 (with
a `SKIP:` line stating why) when objdump is not installed.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

# "point_set_simd.cpp.o:     file format elf64-x86-64"
OBJECT_HEADER = re.compile(r"^(?P<member>\S+):\s+file format ")
# "0000000000001c40 <geored::simd::(anonymous namespace)::...>:"
FUNCTION_HEADER = re.compile(r"^[0-9a-f]+ <(?P<name>.+)>:$")
WIDE_REGISTER = re.compile(r"%[yz]mm\d+")
SKIP_CODE = 125


def libraries(args):
    found = []
    for arg in args:
        path = Path(arg)
        if path.is_dir():
            found.extend(sorted(path.glob("src/*/libgeored_*.a")))
        elif path.is_file():
            found.append(path)
    return found


def offenders(disassembly):
    """`member: function` for each function that touches a wide register but
    never clears it (keyed per archive member: local functions repeat)."""
    wide, cleared, order = set(), set(), []
    member, function = "", None
    for line in disassembly.splitlines():
        found = OBJECT_HEADER.match(line)
        if found:
            member, function = found.group("member"), None
            continue
        found = FUNCTION_HEADER.match(line)
        if found:
            function = (member, found.group("name"))
            order.append(function)
            continue
        if function is None:
            continue
        if "vzeroupper" in line or "vzeroall" in line:
            cleared.add(function)
        elif WIDE_REGISTER.search(line):
            wide.add(function)
    return [f"{m}: {name}" for m, name in dict.fromkeys(order)
            if (m, name) in wide and (m, name) not in cleared]


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    objdump = shutil.which("objdump")
    if objdump is None:
        print("SKIP: objdump is not installed, so the libraries cannot be disassembled")
        return SKIP_CODE
    libs = libraries(argv[1:])
    if not libs:
        print(f"check_vzeroupper: no geored_*.a library under {' '.join(argv[1:])}",
              file=sys.stderr)
        return 2
    bad = []
    for lib in libs:
        done = subprocess.run([objdump, "-d", "--no-show-raw-insn", "-C", str(lib)],
                              capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"check_vzeroupper: objdump failed on {lib}: {done.stderr.strip()}",
                  file=sys.stderr)
            return 2
        bad.extend(f"{lib.name}: {name}" for name in offenders(done.stdout))
    for line in bad:
        print(f"no vzeroupper: {line}")
    if bad:
        print(f"check_vzeroupper: {len(bad)} AVX function(s) leave dirty upper state")
        return 1
    print(f"check_vzeroupper: clean ({len(libs)} libraries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
