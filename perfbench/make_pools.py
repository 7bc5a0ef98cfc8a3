"""Regenerate the frozen census-member pools in perfbench/pools.json.

    python3 perfbench/make_pools.py

The pools hold every admissible candidate for q in {2, 3} and degree
2d in {2, 4, 6}, as `enumerate_candidates` returns them.  The benchmark
draws its inputs from this file so that generating inputs never runs the
code it measures; the `census` workload checks that the program still
reproduces the q = 2 and q = 3 degree-4 and degree-6 pools exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_JOBS = [(p, 1, two_d) for p in (2, 3) for two_d in (2, 4, 6)]


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from httool.weilcheck import enumerate_candidates

    pools = []
    for p, a, two_d in POOL_JOBS:
        members = enumerate_candidates(p, a, two_d)
        pools.append(
            {"p": p, "a": a, "degree": two_d, "members": [m.L.to_strs() for m in members]}
        )
    text = json.dumps({"schema_version": 1, "pools": pools}, separators=(",", ":"))
    (HERE / "pools.json").write_text(text + "\n")
    print(", ".join(f"q={e['p'] ** e['a']} 2d={e['degree']}: {len(e['members'])}" for e in pools))
    return 0


if __name__ == "__main__":
    sys.exit(main())
