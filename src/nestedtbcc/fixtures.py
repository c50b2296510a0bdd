"""Reference fixture files and their parsers.

Shipped fixtures (transcribed published reference data, not computed here):

* mc_rcu_n384_r13.csv, mc_rcu_n512_r14.csv -- meta-converse and RCU
  channel-coding bounds over the BSC for the two code geometries
* pc_fer_n512_r14.csv -- simulated list-decoded polar-code error rates
* table2_reference.csv -- the published design-summary rows used as
  arithmetic anchors and plot points
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

def fixture_path(name: str) -> Path:
    """Filesystem path of a packaged fixture (by short name or file name)."""
    fname = name if name.endswith(".csv") else f"{name}.csv"
    return Path(str(resources.files("nestedtbcc").joinpath("data", fname)))


def read_csv(path: str | Path) -> tuple[set[str], list[dict[str, str]]]:
    """The header fields and the rows of a CSV file: the package's one CSV reader."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return set(reader.fieldnames or ()), list(reader)


def load_mc_rcu(path: str | Path) -> list[dict[str, float]]:
    """Rows {p, mc, rcu} of a channel-bound fixture."""
    return _mc_rcu_rows(path, read_csv(path)[1])


def _mc_rcu_rows(path: str | Path, rows: list[dict[str, str]]) -> list[dict[str, float]]:
    if not rows or set(rows[0]) != {"p", "mc", "rcu"}:
        raise ValueError(f"{path}: expected header p,mc,rcu")
    return [{k: float(v) for k, v in r.items()} for r in rows]


@dataclass(frozen=True)
class ReferenceRow:
    """One published design-summary row."""

    code: str
    m: int | None
    N: int
    n: int | None
    R_fec: Fraction
    p_c: float
    q_bar: float
    R_vq: float
    R_w: float
    helper_bits: int
    ratio: float
    c_fec_log2: float
    c_fec_kind: str
    c_vq_log2: float
    c_vq_kind: str
    V: int | None
    L: int | None


def load_reference_table() -> list[ReferenceRow]:
    """The rows of the packaged table2_reference.csv."""
    return _reference_rows(read_csv(fixture_path("table2_reference"))[1])


def _reference_rows(rows: list[dict[str, str]]) -> list[ReferenceRow]:
    return [ReferenceRow(
        code=r["code"],
        m=int(r["m"]) if r["m"] else None,
        N=int(r["N"]),
        n=int(r["n"]) if r["n"] else None,
        R_fec=Fraction(r["R_fec"]),
        p_c=float(r["p_c"]),
        q_bar=float(r["q_bar"]),
        R_vq=float(r["R_vq"]),
        R_w=float(r["R_w"]),
        helper_bits=int(r["helper_bits"]),
        ratio=float(r["ratio"]),
        c_fec_log2=float(r["c_fec_log2"]),
        c_fec_kind=r["c_fec_kind"],
        c_vq_log2=float(r["c_vq_log2"]),
        c_vq_kind=r["c_vq_kind"],
        V=int(r["V"]) if r["V"] else None,
        L=int(r["L"]) if r["L"] else None,
    ) for r in rows]


def fixture_overlay(paths: list[str | Path]) -> list[tuple[str, float, float]]:
    """Flatten fixture files into (series, x, y) plot rows.

    Channel-bound files yield mc/rcu series over p; polar FER files yield a
    fer series over p; reference tables yield (R_w, R_s) rate points per code
    class.
    """
    out: list[tuple[str, float, float]] = []
    for path in paths:
        header, rows = read_csv(path)
        if header == {"p", "mc", "rcu"}:
            for r in _mc_rcu_rows(path, rows):
                out.append(("mc", r["p"], r["mc"]))
                out.append(("rcu", r["p"], r["rcu"]))
        elif header == {"p", "fer", "ber"}:
            out.extend(("pc_fer", float(r["p"]), float(r["fer"])) for r in rows)
        elif "R_vq" in header and "code" in header:
            out.extend((f"{row.code.lower()}_rate_point", row.R_w, float(row.R_fec))
                       for row in _reference_rows(rows))
        else:
            raise ValueError(f"{path}: unrecognized fixture header {sorted(header)}")
    return out
