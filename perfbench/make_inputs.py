"""Regenerate the benchmark's committed inputs and their manifest.

    python3 perfbench/make_inputs.py          # about 5 minutes on 2 CPUs

Writes perfbench/inputs/pair_m6.json (the criterion-9 nested pair),
perfbench/inputs/code_m8.json (a fixed rate-1/3, m=8, ell=128 code) and
perfbench/inputs/MANIFEST.json, which records for each file the call that
produced it and its sha256.  run.py refuses an input whose digest differs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INPUTS = Path(__file__).resolve().parent / "inputs"
sys.path.insert(0, str(ROOT / "src"))

from nestedtbcc import design, encoder, gf2, keyagree, trellis  # noqa: E402

PAIR_CALL = ("keyagree.save_pair(design.design_nested(p_A=0.0149, target_pb=1e-3, K_fec=32, "
             "n=3, m=6, seed=2024, w_max=500)[0], path)")
CODE_CALL = ("encoder.save_code(encoder.TailbitingCode.unfrozen(encoder.EncoderSpec."
             "rate_one_over_n(gf2.sample_uniform_matrix(3, 8, 2020)), 128), path)")


def main() -> None:
    INPUTS.mkdir(exist_ok=True)
    code_path = INPUTS / "code_m8.json"
    code = encoder.TailbitingCode.unfrozen(
        encoder.EncoderSpec.rate_one_over_n(gf2.sample_uniform_matrix(3, 8, 2020)), 128)
    if trellis.weight_enumerator(code, 0).a(0) != 1:
        raise SystemExit("the m=8 generator is not injective; pick another seed")
    encoder.save_code(code, str(code_path))

    pair_path = INPUTS / "pair_m6.json"
    pair, _ = design.design_nested(p_A=0.0149, target_pb=1e-3, K_fec=32, n=3, m=6,
                                   seed=2024, w_max=500)
    keyagree.save_pair(pair, str(pair_path))

    manifest = {
        p.name: {"call": call, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
        for p, call in ((pair_path, PAIR_CALL), (code_path, CODE_CALL))
    }
    (INPUTS / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
