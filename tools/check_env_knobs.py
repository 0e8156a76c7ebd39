#!/usr/bin/env python3
"""Check that the RSKETCH_* environment knobs and their docs agree.

Collects every RSKETCH_* string literal passed to getenv / env_string /
env_int / env_double under src/ (the library's runtime knobs), then fails
when

  * a knob src/ reads is named in neither README.md nor docs/*.md, or
  * README.md, DESIGN.md or docs/*.md names an RSKETCH_* variable that
    nothing reads any more: not src/, not a bench or example binary, and not
    a CMake option.

Exit codes: 0 ok, 1 drift found.

Usage:
  check_env_knobs.py [REPO_ROOT]   (default: the parent of this script's dir)
"""

import re
import sys
from pathlib import Path

READ = re.compile(
    r'\b(?:getenv|env_string|env_int|env_double)\(\s*"(RSKETCH_[A-Z0-9_]+)"')
NAME = re.compile(r"\bRSKETCH_[A-Z0-9_]+\b")
CMAKE_OPTION = re.compile(r"\boption\(\s*(RSKETCH_[A-Z0-9_]+)")


def names(pattern, paths):
    found = set()
    for path in paths:
        found.update(pattern.findall(path.read_text(encoding="utf-8")))
    return found


def sources(root, *dirs):
    for d in dirs:
        yield from (p for p in sorted((root / d).rglob("*"))
                    if p.suffix in (".cpp", ".hpp"))


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent)
    user_docs = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    all_docs = user_docs + [root / "DESIGN.md"]

    knobs = names(READ, sources(root, "src"))
    known = (knobs | names(READ, sources(root, "bench", "examples"))
             | names(CMAKE_OPTION, [root / "CMakeLists.txt"]))
    documented = names(NAME, user_docs)

    problems = [f"{k} is read under src/ but named in neither README.md "
                f"nor docs/*.md" for k in sorted(knobs - documented)]
    for doc in all_docs:
        for k in sorted(names(NAME, [doc]) - known):
            problems.append(f"{doc.relative_to(root)} names {k}, which "
                            f"nothing reads")
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    print(f"{len(knobs)} RSKETCH_* variables read under src/: "
          f"{' '.join(sorted(knobs))}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
