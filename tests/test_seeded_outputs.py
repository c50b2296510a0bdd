"""The seeded-output ledger: the sha256 that the benchmark reports for each
workload's first digest_ops outputs at seed 3, held here next to the call that
produces it.  A change that moves a digest declares it by editing its line.

The same digests are printed by

    python3 perfbench/run.py --workload <name> --seed 3 --seconds 1

as "digest": {"sha256": ...}.  perfbench/ is only read: its workloads module
is loaded from its file, as the benchmark runs it.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 3
DIGESTS = {
    "design-m6": "3f7faf3f2baa4245adb38f6a3366facc6c294def138f5e7ef506eee49b0e08a6",
    "fec-m8": "6c330113023b4c089f5de2c53e050fc89a6b02851031307321dfd0c4b4459fcd",
    "keyagree-batch-m6": "22fbbf974c542343e4ede2b79dad82bcc44630a103c30ecfcccb6201d4d71a0d",
    "keyagree-single-m6": "03b5f2c31bccc133c09f6aa08ce5e5c03fc0b40cb420e134a7f930b61e430c93",
}


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_perfbench_digest_is_pinned(monkeypatch, name):
    # the digest loop of perfbench/run.py::run_pass, untimed
    wl = _load_workloads(monkeypatch).WORKLOADS[name](SEED)
    wl.setup()
    digest = hashlib.sha256()
    for i in range(wl.digest_ops):
        inp = wl.make_input(i)
        digest.update(wl.check(inp, wl.op(inp)).blob)
    assert digest.hexdigest() == DIGESTS[name]
