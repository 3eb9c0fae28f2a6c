"""Run the Tier-1 suite once per mutant of src/ and print which survive.

Each entry of mutants.json replaces one exact text of one file under src/
(tests/test_source.py checks that every text occurs exactly once there;
the runner leaves that check out, since every mutant breaks it).
The runner copies the repository to a temporary directory, checks that
the unmutated copy passes, then applies one mutant at a time, runs the
suite (stopping at its first failure) and restores the file. A mutant
the suite passes has survived: no test notices the rule it breaks.

    python tools/mutants.py                  # every mutant, in list order
    python tools/mutants.py sf-ef-times-0.7  # only the named ones

Mutants run one after another, each a full suite run (about half a
minute for a survivor). Exits 1 when any mutant survives.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MUTANTS = pathlib.Path(__file__).resolve().parent / "mutants.json"
SELF_CHECK = "tests/test_source.py::test_every_mutant_names_one_place_in_src"
TIER1 = ["-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", "--deselect", SELF_CHECK]
IGNORED = (".git", "__pycache__", ".pytest_cache", ".perfbench", ".benchmarks", "*.pyc")


def run_suite(tree: pathlib.Path) -> tuple:
    """(exit code, first failing test or "", seconds) of one suite run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True
    )
    seconds = time.perf_counter() - start
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    first = failed[0].split(" ", 1)[1].split(" - ", 1)[0] if failed else ""
    return proc.returncode, first, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = json.loads(MUTANTS.read_text())
    mutants = [m for m in mutants if not args.names or m["name"] in args.names]
    unknown = set(args.names) - {m["name"] for m in mutants}
    if unknown:
        parser.error(f"no such mutants: {sorted(unknown)}")

    with tempfile.TemporaryDirectory(prefix="fdbt-mutants-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*IGNORED))
        code, failed, seconds = run_suite(tree)
        if code != 0:
            print(f"the unmutated suite fails ({failed or f'exit {code}'}); nothing to measure")
            return 2
        print(f"unmutated suite: passed in {seconds:.0f} s\n")
        print("| mutant | file | result | first failing test | s |")
        print("|---|---|---|---|---|")
        survivors = []
        for m in mutants:
            path = tree / m["file"]
            original = path.read_text()
            if original.count(m["find"]) != 1:
                print(f"| {m['name']} | {m['file']} | stale: text not found once | | |")
                continue
            path.write_text(original.replace(m["find"], m["replace"]))
            try:
                code, failed, seconds = run_suite(tree)
            finally:
                path.write_text(original)
            result = {0: "SURVIVED", 1: "killed"}.get(code, f"killed (exit {code})")
            if code == 0:
                survivors.append(m["name"])
            row = f"| {m['name']} | {m['file']} | {result} | {failed} | {seconds:.0f} |"
            print(row, flush=True)
    print(f"\n{len(survivors)} of {len(mutants)} survived: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
