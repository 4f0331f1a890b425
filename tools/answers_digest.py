"""Digest the answers of every benchmark command, to compare two checkouts.

Runs each command of the certify workload (seeds 1-3), expand-dense and
expand-fine, as ``perfbench/corpus.py`` defines them, in a forked child with
``--no-timestamp --out`` (``perfbench/harness.py``), and prints one line per
command, ``id exit sha256-of-the-JSON``, then a total line.  Two checkouts
give the same answers when their outputs are identical:

    python3 tools/answers_digest.py > answers.txt

Workload names (certify, expand-dense, expand-fine) digest only those, so a
change to one layer can be checked in seconds:

    python3 tools/answers_digest.py expand-dense expand-fine
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from harness import run_command  # noqa: E402


def main(argv: list[str]) -> int:
    unknown = set(argv) - set(corpus.WORKLOADS)
    if unknown:
        print(f"unknown workload {sorted(unknown)}; choose from {', '.join(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    wanted = argv or corpus.WORKLOADS
    runs = [(f"certify/{seed}", corpus.commands("certify", seed)) for seed in (1, 2, 3) if "certify" in wanted]
    runs += [(w, corpus.commands(w, 0)) for w in ("expand-dense", "expand-fine") if w in wanted]
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for prefix, cmds in runs:
            for cmd in cmds:
                res = run_command(cmd, Path(tmp))
                line = f"{prefix}:{cmd['id']} {res.exit_code} {hashlib.sha256(res.output).hexdigest()}"
                total.update(line.encode() + b"\n")
                print(line, flush=True)
    print(f"total {sum(len(cmds) for _, cmds in runs)} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
