#!/usr/bin/env python3
"""Lists the library functions that nothing outside tests/ references.

Reads the external function symbols (nm type T) that the static libraries
build/src/libhdldp_*.a define, and reports each one that no non-test
object references. Non-test objects are the library objects themselves
plus every object compiled under the build tree's tools/, examples/,
bench/ and fuzz/ directories. A symbol counts as referenced when one of
those objects has it undefined (nm -u), or when it is the target of a
relocation in one of them (objdump -r). The relocations catch calls from
inside the defining object and vtable slots, which nm -u does not show.
bench_e2e/ builds against the library separately, so its sources are
checked by grep instead: a symbol whose unqualified name appears as a
word in bench_e2e/src counts as referenced.

Limits:
- The pass is one level deep. A function whose only caller is itself
  unreferenced still counts as referenced.
- It cannot see code reached only through a value: an enum case or an
  option field that no production caller sets (a regularizer, a mode
  flag) keeps its branch inside a referenced function.
- The bench_e2e grep matches names, not symbols, so a common name such
  as Create hides an unreferenced overload.
- A target that is not built (benches off, for instance) does not count
  as a caller, so build everything the default configuration builds.

Usage: python3 tools/api_reach.py [build-dir]   (default: build under the
repository root). Prints the count, then one block per library listing
the demangled names. Informational: always exits 0 once the build tree
is found.
"""

import os
import re
import subprocess
import sys

CALLER_DIRS = ("tools", "examples", "bench", "fuzz")
RELOCATION_SUFFIX = re.compile(r"[+-]0x[0-9a-f]+$")


def run(args, stdin=None):
    return subprocess.run(args, check=True, capture_output=True, text=True,
                          input=stdin).stdout


def defined_functions(archive):
    """The external text symbols `archive` defines, as groups of mangled
    names: the symbols of one member at one address are one function
    (GCC emits a constructor or destructor under two aliased names)."""
    groups = {}
    member = ""
    for line in run(["nm", "-g", "--defined-only", archive]).splitlines():
        fields = line.split()
        if len(fields) == 1 and fields[0].endswith(":"):
            member = fields[0]
        elif len(fields) == 3 and fields[1] == "T":
            groups.setdefault((member, fields[0]), []).append(fields[2])
    return list(groups.values())


def referenced_symbols(paths):
    """Every symbol the objects or archives in `paths` leave undefined or
    relocate against."""
    names = set()
    for line in run(["nm", "-u", *paths]).splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] in ("U", "w"):
            names.add(fields[1])
    for line in run(["objdump", "-r", *paths]).splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1].startswith("R_"):
            names.add(RELOCATION_SUFFIX.sub("", fields[2]))
    return names


def demangle(names):
    out = run(["c++filt"], "\n".join(names) + "\n")
    return dict(zip(names, out.splitlines()))


def unqualified(demangled):
    """`ns::Class::Name(args) const` -> `Name`."""
    head = demangled.split("(", 1)[0]
    return head.rsplit("::", 1)[-1]


def grep_words(root):
    words = set()
    for parent, _, files in os.walk(root):
        for name in files:
            if name.endswith((".h", ".cc")):
                with open(os.path.join(parent, name), encoding="utf-8",
                          errors="replace") as f:
                    words.update(re.findall(r"\w+", f.read()))
    return words


def main(argv):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = argv[1] if len(argv) > 1 else os.path.join(repo, "build")
    src = os.path.join(build, "src")
    if not os.path.isdir(src):
        print(f"api_reach: no build tree at {build}", file=sys.stderr)
        return 2
    archives = sorted(os.path.join(src, name) for name in os.listdir(src)
                      if name.startswith("libhdldp_") and name.endswith(".a"))
    callers = list(archives)
    for sub in CALLER_DIRS:
        for parent, _, files in os.walk(os.path.join(build, sub)):
            callers.extend(os.path.join(parent, name) for name in files
                           if name.endswith(".o"))

    referenced = referenced_symbols(callers)
    bench_e2e_words = grep_words(os.path.join(repo, "bench_e2e", "src"))
    report = {}
    for archive in archives:
        unused = [group[0] for group in defined_functions(archive)
                  if referenced.isdisjoint(group)]
        if not unused:
            continue
        names = demangle(unused)
        kept = sorted({names[m] for m in unused
                       if unqualified(names[m]) not in bench_e2e_words})
        if kept:
            report[os.path.basename(archive)] = kept

    total = sum(len(names) for names in report.values())
    print(f"api_reach: {total} library functions have no caller outside "
          "tests/")
    for library, names in report.items():
        print(f"{library} {len(names)}")
        for name in names:
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
