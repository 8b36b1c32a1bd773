"""Machine-speed calibration for runs on a shared host.

On a host whose cores are shared with other tenants, the same operation runs
up to ~50% faster or slower for seconds to minutes at a time (measured: one
seed-sweep round took 4.1-6.2 s across ten runs while the CPU/wall ratio
stayed at 0.98, so the cores ran slower, not the process less often). The
benchmark therefore times this fixed kernel, which uses no dldspec code,
before and after each timed round and each set-up, and scales the
time-based end-to-end metrics by the mean of the two: they are reported at
the reference speed at which the kernel takes REFERENCE_S seconds. The raw
figures are printed beside them and kept in the results file.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.15


def speed() -> float:
    """Kernel seconds over REFERENCE_S: above 1 the host is running slower than the reference."""
    import numpy as np

    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    values = rng.random(400_000)
    order = np.argsort(values, kind="stable")
    pos = np.searchsorted(values[order], rng.random(100_000))
    "".join(f"{x:.6f},{y}\n" for x, y in zip(values[:20_000].tolist(), pos[:20_000].tolist()))
    return (time.perf_counter() - start) / REFERENCE_S
