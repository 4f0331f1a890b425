"""Record the exact integers the expand commands on dyadic inputs give:
image population and every box count.  The benchmark requires later code to
reproduce them.  Run once on trusted code, from the root of a checkout:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import corpus  # noqa: E402
import harness  # noqa: E402
from run import expand_counts  # noqa: E402


def main() -> int:
    workdir = Path(".perfbench") / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    expected = {}
    for workload in corpus.EXPAND_RUNS:
        for cmd in corpus.expand_commands(workload, defaultdict(dict)):
            if "coverage" in cmd["check"]:
                continue  # m2r1/3 inputs: checked by coverage, not recorded
            res = harness.run_command(cmd, workdir)
            if res.exit_code != 0:
                print(f"{cmd['id']} exited {res.exit_code}", file=sys.stderr)
                return 1
            expected[cmd["id"]] = expand_counts(json.loads(res.output)["report"])
            print(f"{cmd['id']}: population {expected[cmd['id']]['population']} "
                  f"({res.seconds:.2f} s)")
    corpus.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
