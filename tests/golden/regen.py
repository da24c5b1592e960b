#!/usr/bin/env python3
"""Run every golden run file and record the SHA-256 of its outputs.

Usage (from the repository root, with ``src/`` on ``PYTHONPATH``):

    python tests/golden/regen.py            # rewrite tests/golden/hashes.json
    python tests/golden/regen.py --print    # print the table, write nothing

Each run file is ``<command>[.<variant>].ini``: one per command, plus
variants that reach branches the plain file does not (crest's vertical
and unseparated kinds, diffuse's threshold-chosen eps, melnikov-verify's
default eps list, check's eps = 0).  Each runs in-process through
``arnolddiff.cli.main`` into a fresh directory, and every CSV and
``_summary.json`` it writes is hashed under ``<command>[.<variant>]/<file>``;
the metadata files carry a timestamp and are left out.
``tests/test_golden.py`` compares the table with a fresh run, so a change
that moves any output byte names the moved files.  A change that rewrites the table lists each moved file, and why it
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


def golden_hashes():
    """{"<run>/<file>": sha256 hex} over every hashed output of every run file."""
    from arnolddiff.cli import main

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for ini in sorted(name for name in os.listdir(HERE) if name.endswith(".ini")):
            run = ini[:-len(".ini")]
            command = run.split(".")[0]
            out = os.path.join(tmp, run)
            argv = [command, os.path.join(HERE, ini), "--output-dir", out]
            with contextlib.redirect_stdout(io.StringIO()):  # check prints its lines
                rc = main(argv)
            if rc != 0:
                raise RuntimeError(f"{run} exited {rc}")
            for name in sorted(os.listdir(out)):
                if name.endswith(".csv") or name.endswith("_summary.json"):
                    with open(os.path.join(out, name), "rb") as fh:
                        table[f"{run}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
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
