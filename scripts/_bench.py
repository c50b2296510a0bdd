"""What the bench scripts share: one BLAS thread, the timer, the machine header,
the JSON write.

Import this module before numpy: importing it pins the BLAS libraries to one
thread.  ``median_of_runs`` records a measurement's median, every run and
(q3 - q1) / median, the spread a change must exceed to be seen.
``write_report`` writes a ``BENCH_<topic>.json`` that opens with the command,
machine, core count, versions and run count, followed by the script's own
fields.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def median_of_runs(run, runs: int) -> dict:
    """Per name of the measurements dict that run() returns, over runs calls: the
    median, every run and (q3 - q1) / median."""
    import numpy

    results = [run() for _ in range(runs)]
    out = {}
    for name in results[0]:
        values = [r[name] for r in results]
        q1, median, q3 = (float(q) for q in numpy.percentile(values, [25, 50, 75]))
        out[name] = {"median": median, "runs": values, "iqr_over_median": (q3 - q1) / median}
    return out


def seconds(call, reps: int = 1) -> float:
    """The mean wall seconds of reps calls of call()."""
    t0 = time.perf_counter()
    for _ in range(reps):
        call()
    return (time.perf_counter() - t0) / reps


def machine() -> str:
    """The CPU model name, or what the platform module knows without it."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def write_report(path: str, script: str, runs: int, **fields) -> dict:
    """Write the header and fields as indented JSON to path and return them;
    script is the bench script's ``__file__``."""
    import numpy

    out = {
        "command": f"python3 scripts/{Path(script).name}",
        "machine": machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "runs": runs,
        **fields,
    }
    Path(path).write_text(json.dumps(out, indent=2) + "\n")
    return out
