"""What the bench scripts share: one BLAS thread, the machine header, the JSON write.

Import this module before numpy: importing it pins the BLAS libraries to one
thread.  ``write_report`` writes a ``BENCH_<topic>.json`` that opens with the
command, machine, core count, versions and run count, followed by the
script's own fields.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402


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
