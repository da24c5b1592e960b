#!/usr/bin/env python3
"""Run every golden run file and record the SHA-256 of its outputs.

Usage (from the repository root, with ``src/`` on ``PYTHONPATH``):

    python tests/golden/regen.py            # rewrite tests/golden/hashes.json
    python tests/golden/regen.py --print    # print the table, write nothing

There is one run file per command, ``<command>.ini``.  Each runs in-process
through ``arnolddiff.cli.main`` into a fresh directory, and every CSV and
``_summary.json`` it writes is hashed; the metadata files carry a
timestamp and are left out.  ``tests/test_golden.py`` compares the table
with a fresh run, so a change that moves any output byte names the moved
files.  A change that rewrites the table lists each moved file, and why it
moved, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "hashes.json")
COMMANDS = ("crest", "tau", "poincare", "highway", "diffuse", "melnikov-verify",
            "time-estimate", "check")


def golden_hashes():
    """{"<command>/<file>": sha256 hex} over every hashed output of every run file."""
    from arnolddiff.cli import main

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            out = os.path.join(tmp, command)
            argv = [command, os.path.join(HERE, f"{command}.ini"), "--output-dir", out]
            with contextlib.redirect_stdout(io.StringIO()):  # check prints its lines
                rc = main(argv)
            if rc != 0:
                raise RuntimeError(f"{command} exited {rc}")
            for name in sorted(os.listdir(out)):
                if name.endswith(".csv") or name.endswith("_summary.json"):
                    with open(os.path.join(out, name), "rb") as fh:
                        table[f"{command}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return table


def main(argv):
    table = golden_hashes()
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    if "--print" in argv:
        sys.stdout.write(text)
    else:
        with open(TABLE, "w") as fh:
            fh.write(text)
        print(f"wrote {len(table)} hashes to {os.path.relpath(TABLE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
