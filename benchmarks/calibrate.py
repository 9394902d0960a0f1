"""A fixed reference job that tells how fast this machine runs right now.

    python3 calibrate.py

It does the kind of work one CLI launch does, without implinear: a fresh
interpreter imports numpy and scipy (linalg and stats, as implinear does),
then runs small symmetric eigendecompositions inside a Python loop, as the
IMP rounds do, and a few mid-size ones.  Its work never changes, so its
time moves only with the machine: with neighbours that load the shared
caches and memory, or with the CPU's clock.  run.py times it in fresh
processes between CLI launches and scales the launch times by it (see
README.md, Steadiness).
"""

import numpy as np
import scipy.linalg  # noqa: F401
import scipy.stats  # noqa: F401

SMALL, SMALL_CALLS, LOOP = 40, 1200, 60
MID, MID_CALLS = 300, 12


def main() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((SMALL, SMALL))
    small = a + a.T
    b = rng.standard_normal((MID, MID))
    mid = b + b.T
    acc = 0.0
    for i in range(SMALL_CALLS):
        acc += float(np.linalg.eigh(small)[0][0])
        for j in range(LOOP):
            acc += (i * j) % 7
    for _ in range(MID_CALLS):
        acc += float(np.linalg.eigh(mid)[0][0])
    return acc


if __name__ == "__main__":
    main()
