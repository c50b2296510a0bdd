import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_table_names_exist():
    # rows of the "Library quick reference" table: | `nestedtbcc.<mod>` | `name`, ... |
    rows = re.findall(r"^\| `(nestedtbcc\.\w+)` \|(.*)\|$", README.read_text(), re.M)
    assert len(rows) >= 9
    for module, cell in rows:
        mod = importlib.import_module(module)
        names = re.findall(r"`(\w+)", cell)
        assert names, module
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, (module, missing)
