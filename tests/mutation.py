"""Mutation run: does tier-1 notice when one check never rejects?

For each check id given, copy the repository into a temporary directory,
edit the copy's Session.check so that a failed check carrying that id
passes (Session.test reports through Session.check, so every test and
check of the id passes, charging the same field operations), and run
tier-1 in the copy.  The mutant is caught when some test fails; the first
failing test is printed.  A mutant that survives means no test depends on
the check rejecting.  The checkout itself is never edited.

    python3 tests/mutation.py seq-first-half t-combination power-step

pytest does not collect this file.  Each surviving mutant costs one full
tier-1 run; a caught one stops at its first failure.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

CHECK = ("    def check(self, ok, check_id, location=()):\n"
         "        if self.verifying and not ok:\n")

# what the copy leaves behind and what tier-1 does not read
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                              ".pytest_cache", ".perfbench", ".benchmarks")


def mutate(src, check_id):
    """Make the copy's Session.check pass every check named check_id."""
    if not any('"%s"' % check_id in path.read_text()
               for path in src.glob("*.py")):
        raise SystemExit("no check id %r in %s" % (check_id, src))
    engine = src / "engine.py"
    text = engine.read_text()
    if text.count(CHECK) != 1:
        raise SystemExit("Session.check no longer reads as this script "
                         "expects; update CHECK")
    engine.write_text(text.replace(CHECK, CHECK.replace(
        "not ok:", "not ok and check_id != %r:" % check_id)))


def run_mutant(check_id):
    """(caught, first failing test or the pass count, seconds)."""
    with tempfile.TemporaryDirectory(prefix="kcert-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        mutate(copy / "src" / "kcert", check_id)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    lines = proc.stdout.splitlines() or [""]
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    return proc.returncode != 0, failed[0] if failed else lines[-1], seconds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("check_ids", nargs="+", metavar="check-id")
    args = ap.parse_args(argv)
    survived = 0
    for check_id in args.check_ids:
        caught, detail, seconds = run_mutant(check_id)
        survived += not caught
        print("%-24s %-8s %6.1f s  %s" % (
            check_id, "caught" if caught else "SURVIVED", seconds, detail),
            flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
