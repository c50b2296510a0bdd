"""Each file layout the package writes or reads has one implementation: every
JSON file goes through encoder.write_json, every CSV file through
fixtures.read_csv.  The batch path has one way in and one way out: the bits of
every batch entry point pass encoder._bit_rows, and wava._forward does the
decoder's only traceback.  The decoder's sweep cap V is set in one place:
wava_decode_many's keyword (complexity_estimates models a given V, and the
published table's rows record theirs).  The design probes distortion at one
call site, and every search, calibration or budget failure is one class,
simulate.DesignFailure, the one class of the CLI's exit code 3.  Stage 2 builds
each candidate encoder by one encoder.append_input_columns call."""

import argparse
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import nestedtbcc
from nestedtbcc import cli

ROOT = Path(__file__).resolve().parents[1]
ONE_SITE = {("json", "dump"): ["encoder.write_json"],
            ("csv", "DictReader"): ["fixtures.read_csv"]}
ENTRY_POINTS = ["encoder.encode_many", "keyagree.enroll_many", "keyagree.reconstruct_many",
                "wava.wava_decode_many"]


def _tops():
    """(file stem, top-level statement) over the package."""
    for path in sorted((ROOT / "src/nestedtbcc").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            yield path.stem, top


def _call_sites(module: str | None, attr: str) -> list[str]:
    """file.name of the top-level function or class (or file.<module>) around each
    call of module.attr in the package; with module None, each call of attr on any
    object or by its bare name."""
    def hit(func) -> bool:
        if isinstance(func, ast.Attribute):
            return func.attr == attr and (module is None or isinstance(func.value, ast.Name)
                                          and func.value.id == module)
        return module is None and isinstance(func, ast.Name) and func.id == attr

    found = []
    for stem, top in _tops():
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [f"{stem}.{scope}" for node in ast.walk(top)
                  if isinstance(node, ast.Call) and hit(node.func)]
    return found


@pytest.mark.parametrize("call", sorted(ONE_SITE), ids=".".join)
def test_one_call_site(call):
    assert _call_sites(*call) == ONE_SITE[call]


def test_one_bit_row_check():
    defined = [f"{stem}.{top.name}" for stem, top in _tops() if isinstance(top, ast.FunctionDef)]
    assert [f for f in defined if f.split(".")[1] in ("_bit_rows", "_as_bits", "_rows")] == [
        "encoder._bit_rows"]
    assert sorted(set(_call_sites(None, "_bit_rows"))) == ENTRY_POINTS


def test_one_traceback_call_site():
    assert _call_sites(None, "traceback") == ["wava._forward"]


def _public_callables():
    """(module.name, callable) for every public function of the package modules and
    every public method (constructors included) of their classes."""
    for info in pkgutil.iter_modules(nestedtbcc.__path__):
        module = importlib.import_module(f"nestedtbcc.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{info.name}.{name}.{attr}", fn


def test_one_sweep_cap_setting():
    takes_v = [name for name, fn in _public_callables() if "V" in inspect.signature(fn).parameters]
    # ReferenceRow holds the published table's V column: a value read, not a setting
    assert sorted(takes_v) == ["bounds.complexity_estimates", "fixtures.ReferenceRow.__init__",
                               "wava.wava_decode_many"]
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert [name for name, p in sub.choices.items()
            if any("--v" in a.option_strings for a in p._actions)] == []


def test_one_distortion_probe_in_the_design():
    assert [f for f in _call_sites(None, "simulate_distortion")
            if f.startswith("design.")] == ["design.design_nested"]


def test_one_widening_of_the_encoder():
    assert sorted(set(_call_sites(None, "append_input_columns"))) == [
        "design.search_vq_extension"]
    assert [f"{stem}.{top.name}" for stem, top in _tops() if isinstance(top, ast.FunctionDef)
            and top.name in ("_extend_spec", "append_input_column")] == []


def test_one_failure_class():
    from nestedtbcc import design, simulate

    assert simulate.DesignFailure is design.DesignFailure is nestedtbcc.DesignFailure
    assert [f"{stem}.{top.name}" for stem, top in _tops() if isinstance(top, ast.ClassDef)
            and top.name in ("DesignFailure", "CalibrationError")] == ["simulate.DesignFailure"]
    (main,) = [top for stem, top in _tops() if stem == "cli" and getattr(top, "name", "") == "main"]
    (exit_3,) = [h for node in ast.walk(main) if isinstance(node, ast.Try) for h in node.handlers
                 if any(isinstance(r, ast.Return) and isinstance(r.value, ast.Constant)
                        and r.value.value == 3 for r in h.body)]
    assert ast.unparse(exit_3.type) == "design.DesignFailure"
