#!/usr/bin/env python3
"""Validates the dbs3-tidy clang-tidy plugin against the shared fixtures.

Runs `clang-tidy -load <plugin> -checks=dbs3-*` over every fixture under
../fixtures/ and compares emitted (line, check) findings against the
`// DBS3-TIDY: <check>` annotations — the same contract check_dbs3_tidy
enforces for the portable engine. Violation fixtures must fire on every
annotated line with no extras; clean twins must stay silent.

Usage:
  run_fixture_tests.py --plugin build/libdbs3-tidy.so \
      [--clang-tidy clang-tidy-15] [--fixtures ../fixtures]

Exit status: 0 when every fixture matches, 1 otherwise.
"""

import argparse
import pathlib
import re
import subprocess
import sys

ANNOTATION = re.compile(r"//\s*DBS3-TIDY:\s*([a-z0-9-]+(?:\s+[a-z0-9-]+)*)")
DIAGNOSTIC = re.compile(r"^(?P<file>[^:]+):(?P<line>\d+):\d+: "
                        r"(?:warning|error): .* \[(?P<check>dbs3-[a-z-]+)\]")


def expected_findings(path: pathlib.Path) -> set[tuple[int, str]]:
    expected = set()
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        match = ANNOTATION.search(text)
        if match:
            for check in match.group(1).split():
                expected.add((lineno, check))
    return expected


def actual_findings(clang_tidy: str, plugin: str, fixture: pathlib.Path,
                    include_dir: pathlib.Path) -> set[tuple[int, str]]:
    cmd = [
        clang_tidy,
        f"-load={plugin}",
        "-checks=-*,dbs3-*",
        str(fixture),
        "--",
        "-std=c++20",
        f"-I{include_dir}",
        # Map GUARDED_BY onto the clang attribute so the plugin's
        # AST-level check sees what -Wthread-safety builds see.
        "-DGUARDED_BY(x)=__attribute__((guarded_by(x)))",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    findings = set()
    for line in proc.stdout.splitlines():
        match = DIAGNOSTIC.match(line)
        if match and pathlib.Path(match.group("file")).name == fixture.name:
            findings.add((int(match.group("line")), match.group("check")))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plugin", required=True)
    parser.add_argument("--clang-tidy", default="clang-tidy")
    parser.add_argument(
        "--fixtures",
        default=str(pathlib.Path(__file__).resolve().parent.parent /
                    "fixtures"))
    args = parser.parse_args()

    fixtures_dir = pathlib.Path(args.fixtures)
    fixtures = sorted(fixtures_dir.glob("*.cc"))
    if not fixtures:
        print(f"no fixtures found under {fixtures_dir}", file=sys.stderr)
        return 1

    failures = 0
    for fixture in fixtures:
        expected = expected_findings(fixture)
        actual = actual_findings(args.clang_tidy, args.plugin, fixture,
                                 fixtures_dir)
        missing = expected - actual
        extra = actual - expected
        status = "ok" if not missing and not extra else "FAIL"
        print(f"[{status}] {fixture.name}: expected {len(expected)}, "
              f"got {len(actual)}")
        for line, check in sorted(missing):
            print(f"    missing {fixture.name}:{line} [{check}]")
            failures += 1
        for line, check in sorted(extra):
            print(f"    unexpected {fixture.name}:{line} [{check}]")
            failures += 1

    if failures:
        print(f"{failures} fixture mismatch(es)", file=sys.stderr)
        return 1
    print(f"all {len(fixtures)} fixtures match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
