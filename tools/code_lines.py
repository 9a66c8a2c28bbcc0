#!/usr/bin/env python3
"""Counts non-comment, non-blank code lines per top-level directory.

Counts *.h, *.cc, *.cmake and CMakeLists.txt files below each top-level
directory of the repository (recursively; build trees and hidden
directories are skipped). A line counts unless it is blank or, after
leading whitespace, starts a comment: "//" in C++ files, "#" in CMake
files. Block comments are not special-cased (the code base does not use
them). This is the count the size entries in CHANGES.md quote.

Usage: python3 tools/code_lines.py [repo-root]   (default: this script's
parent directory's parent). Prints one "<dir> <lines>" row per directory
and a total.
"""

import os
import sys

CPP_SUFFIXES = (".h", ".cc")
SKIP_DIRS = {"build", "third_party"}


def is_cmake(name):
    return name == "CMakeLists.txt" or name.endswith(".cmake")


def count_file(path, comment):
    lines = 0
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            text = line.strip()
            if text and not text.startswith(comment):
                lines += 1
    return lines


def count_dir(root):
    total = 0
    for parent, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs
                         if not d.startswith(".") and d not in SKIP_DIRS
                         and not d.startswith("build-"))
        for name in files:
            if name.endswith(CPP_SUFFIXES):
                total += count_file(os.path.join(parent, name), "//")
            elif is_cmake(name):
                total += count_file(os.path.join(parent, name), "#")
    return total


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    grand = 0
    for entry in sorted(os.listdir(root)):
        path = os.path.join(root, entry)
        if (not os.path.isdir(path) or entry.startswith(".")
                or entry in SKIP_DIRS or entry.startswith("build-")):
            continue
        lines = count_dir(path)
        if lines:
            print(f"{entry} {lines}")
            grand += lines
    print(f"total {grand}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
