"""Fixed calibration kernel: the machine-speed reference for reported times.

The 2-vCPU VM this benchmark was tuned on changes speed by up to 2x, on
time scales from milliseconds to minutes.  CPU time tracks wall time, so
the cause is a slower CPU and not time spent descheduled; a busy sibling
vCPU alone slows a loop by 1.6x.  Raw times of whole 30 s runs therefore
moved by up to 2x between runs.  Every measured process runs this kernel
next to what it measures.  A reported time is the raw time multiplied by
``REF_S / kernel seconds``, the measured seconds converted to the speed at
which the kernel takes ``REF_S``.

The kernel mixes what spincal spends its time on: small complex matrix
products, einsum contractions and eigenvalue calls driven from a Python
loop.  It uses numpy only, so it is the same code for every version of
the program.
"""

from __future__ import annotations

from time import perf_counter

REF_S = 0.2
ITERATIONS = 4000


def kernel_seconds() -> float:
    """Seconds one run of the kernel takes now (after a short warm-up)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal((24, 8, 8))
    w = b[:, 0, 0].copy()

    def run(n):
        acc = 0.0
        for i in range(n):
            x = a @ a
            y = np.einsum("j,jab->ab", w, b)
            acc += float(np.abs(np.linalg.eigvals(x)).max()) + float(y[0, 0]) + i * 1e-9
        return acc

    run(50)
    start = perf_counter()
    run(ITERATIONS)
    return perf_counter() - start
