"""Duplicate-code scan: repeated 6-line windows in a Python package.

Each file's lines are stripped; blank lines and ``#`` comment lines are
dropped. Every run of 6 consecutive remaining lines is a window. A window
text found at two or more places in the package is "repeated"; the scan
prints the number of distinct repeated windows and, per file, how many
window positions hold one.

Usage: python tools/dup_windows.py [package_dir] [--top N]
"""

import argparse
import collections
import os
import sys

W = 6


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("package_dir", nargs="?", default="sprout_ray")
    ap.add_argument("--top", type=int, default=10, help="files to list")
    args = ap.parse_args()
    where = collections.defaultdict(list)  # window text -> [file, ...]
    for dirpath, _, files in os.walk(args.package_dir):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                lines = [s for s in (ln.strip() for ln in f) if s and not s.startswith("#")]
            for i in range(len(lines) - W + 1):
                where["\n".join(lines[i : i + W])].append(path)
    repeated = {w: fs for w, fs in where.items() if len(fs) > 1}
    per_file = collections.Counter(f for fs in repeated.values() for f in fs)
    print(f"repeated windows: {len(repeated)}, occurrences: {sum(per_file.values())}")
    for path, n in per_file.most_common(args.top):
        print(f"{n:6d}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
