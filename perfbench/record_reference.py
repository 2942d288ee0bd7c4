"""Record the outputs that the benchmark's correctness gate compares against.

Run on the commit whose outputs are the reference, from the repository
root:

    python3 perfbench/record_reference.py --seeds 0-49,1729

For each workload and seed it writes the inputs, runs one untraced pass
and stores every algorithm's output digest and total power in
perfbench/reference.json, keeping the entries already there.  A pass
with a failed solve is not recorded.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import workloads
from run import OUT, import_program


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-49,1729")
    args = parser.parse_args()
    mpcc = import_program()
    ref_file = workloads.REFERENCE_FILE
    doc = json.loads(ref_file.read_text()) if ref_file.is_file() else {}
    status = 0
    OUT.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        wl = workloads.make(name)
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                work = Path(tmp)
                wl.write_inputs(mpcc.cli, work, seed)
                res = wl.run_pass(mpcc.cli, work, seed)
            if res.messages:
                print(f"{name} seed {seed}: not recorded: {res.messages}", file=sys.stderr)
                status = 1
                continue
            doc.setdefault(name, {})[str(seed)] = res.outputs
            ref_file.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: {res.seconds:.2f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
