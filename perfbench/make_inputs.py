"""Set-up step of one benchmark run; ``run.py`` times it from outside.

A fresh interpreter imports the program from ``src/`` and writes the
workload's input files, as a user's first command would, so ``setup_s``
covers interpreter start, import, instance generation and writing.

    python3 perfbench/make_inputs.py WORKLOAD SEED WORKDIR [--shrink]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mpcc.cli  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--shrink", action="store_true")
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    workloads.make(args.workload, args.shrink).write_inputs(mpcc.cli, args.workdir, args.seed)


if __name__ == "__main__":
    main()
