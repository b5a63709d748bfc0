"""The README's library examples run as written: every python block, in the
order they appear, in one namespace.  Every entry of its "Library" list
names an attribute of src/polyorbit and a test that its test file defines."""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _library_bullets() -> list[str]:
    """The bullets under the README's "## Library" heading."""
    section = re.search(r"^## Library\n(.*?)(?=^## )", README.read_text(), re.M | re.S)
    return [line for line in section.group(1).splitlines() if line.startswith("- ")]


@pytest.mark.parametrize("bullet", _library_bullets(), ids=lambda b: b.split("`")[1])
def test_library_entry_names_an_attribute_and_its_test(bullet):
    entry = re.fullmatch(r"- `(\w+)\.([\w.]+)`: `(tests/\w+\.py)::([\w:]+)`", bullet)
    assert entry, f"not of the form - `module.name`: `tests/file.py::test`: {bullet}"
    module, path, test_file, test = entry.groups()
    owner = importlib.import_module(f"polyorbit.{module}")
    for part in path.split("."):
        # defined on the module or class itself, not inherited from object
        assert part in vars(owner), f"polyorbit.{module} has no {path}"
        owner = getattr(owner, part)
    body = ast.parse((ROOT / test_file).read_text()).body
    for part in test.split("::"):
        found = [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name == part]
        assert found, f"{test_file} defines no {test}"
        body = found[0].body
