"""Digest of the solver's outputs on one seed's benchmark instances.

Runs ``windroot.cli.main`` in-process on every instance of the three
benchmark workloads (``bench/wrbench/gen.py``), in generation order, with
the instance's arguments plus ``--stats``.  Each run's stdout (with the
``seconds`` field masked), stderr and exit code go into one SHA-256
digest.  Prints the digest and the number of runs per exit code, so a
change that must leave every output as it was can compare both lines
with a recorded pair:

    PYTHONPATH=src python scripts/output_digest.py --seed 4712
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from wrbench.gen import WORKLOADS, generate  # noqa: E402

from windroot.cli import main as windroot_main  # noqa: E402

_SECONDS = re.compile(r'"seconds": [^}]+')


def run(argv: list[str]) -> tuple[int, str, str]:
    """One solver call: (exit code, stdout with seconds masked, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = windroot_main(argv + ["--stats"])
    return rc, _SECONDS.sub('"seconds": X', out.getvalue()), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=4712)
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    exits = Counter()
    for workload in WORKLOADS:
        for inst in generate(workload, args.seed):
            rc, stdout, stderr = run(inst.argv)
            digest.update(json.dumps([rc, stdout, stderr]).encode() + b"\n")
            exits[rc] += 1
    print(f"sha256 {digest.hexdigest()}")
    print("exits " + " ".join(f"{rc}:{n}" for rc, n in sorted(exits.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
