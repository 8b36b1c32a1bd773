"""Process set-up shared by the benchmark's entry points.

The benchmark always measures the package in the checkout it sits in
(`<checkout>/src/dldspec`), never an installed copy, and caps the threads of
BLAS/OpenMP pools at the core count before numpy is first imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Limit native thread pools to the usable cores; must run before numpy is imported."""
    limit = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= limit:
            os.environ[var] = str(limit)


def import_package():
    """Import dldspec from this checkout's `src`; exit with an error if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import dldspec
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dldspec from {SRC}: {exc}") from None
    origin = Path(dldspec.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"perfbench: dldspec imported from {origin}, not from {SRC}")
    return dldspec
