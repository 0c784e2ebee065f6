"""Record the reference outputs every benchmark run is checked against.

Usage, from the repository root, at the commit whose outputs are trusted:

    python3 bench/record.py

Writes bench/reference.json: the output digest of every operation any seed
can draw, and for point-eval the quadratic model of each evaluation call.
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(Path("src").resolve()), str(bench)]
    import workloads

    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        print(f"recording {name}", file=sys.stderr)
        reference[name] = cls.record()
    with open(bench / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
