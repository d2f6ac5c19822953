"""Regenerate ``reference/serial_tables.json`` from a serial suite pass.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Runs every registered experiment once in quick mode at seed 0 with
``workers`` unset, in a fresh interpreter, and stores the sha256 of
each result table's CSV.  Both suite workloads compare every pass
against this file: the serial suite proves the tables reproduce, the
2-worker suite proves the pooled executors give the serial tables.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import REFERENCE, ROOT, child_env  # noqa: E402
from suite_child import LEDGER_ENV  # noqa: E402


def reference_command(out: Path) -> list:
    """The suite child's command line for one plain serial pass."""
    return [sys.executable, str(HERE / "suite_child.py"), "--out", str(out)]


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "suite.json"
        env = dict(child_env(), **{LEDGER_ENV: str(Path(tmp) / "ledger.txt")})
        subprocess.run(reference_command(out), env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        first = json.loads(out.read_text())["passes"][0]
    failed = {k: v for k, v in first["failed_checks"].items() if v}
    if failed:
        print(f"experiments failed their checks: {failed}", file=sys.stderr)
        return 1
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(
        {"format": "perfbench-reference-v1", "fast": True, "seed": 0, "workers": None,
         "digests": dict(sorted(first["digests"].items()))},
        indent=1,
    ) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}: {len(first['digests'])} experiments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
