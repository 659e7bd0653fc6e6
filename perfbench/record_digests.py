"""Record the exit code and output digest of every CLI query the workloads
can draw, into ``perfbench/digests.json``.

    python3 perfbench/record_digests.py

Run it from the checkout root on a commit whose CLI output is known to be
right; the benchmark then checks every CLI query against these records.
CLI output is specified to stay byte-identical, so a change in a digest is
a regression, never a reason to record again.
"""

from __future__ import annotations

import json
import os
import sys
import warnings

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import load_library  # noqa: E402
from workloads import (  # noqa: E402
    DIGESTS_PATH, WORKLOADS, Context, digest_key, output_digest, run_cli)


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    warnings.simplefilter("ignore")
    lib = load_library()
    ctx = Context()
    digests = {}
    for wl in WORKLOADS.values():
        for argv in wl.cli_menu():
            rc, text = run_cli(lib, argv, ctx)
            if rc != 0:
                print(f"warning: {digest_key(argv)} exits {rc}", file=sys.stderr)
            digests[digest_key(argv)] = output_digest(rc, text)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(digests.items())]
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(digests)} CLI digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
