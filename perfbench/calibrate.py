"""Fixed pure-Python work in a fresh process.

The harness runs this just before each set-up probe.  Both are short fresh
processes, so they pay alike for how fast the host starts and runs Python
at that moment, and no change to amrex can move this one's time.  run.py
scales each probe's wall by it (see README.md).
"""

import random


def main() -> int:
    rng = random.Random(20241102)
    total = 0
    for _ in range(9000):
        mapping = {f"h{i}": f"p{rng.randrange(40)}" for i in range(12)}
        counts: dict[tuple[str, str, str], int] = {}
        for hv, pv in mapping.items():
            key = (pv, "ARG0", hv)
            counts[key] = counts.get(key, 0) + 1
        total += len(counts)
    return total


if __name__ == "__main__":
    main()
