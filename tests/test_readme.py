"""The README's library quick start runs as written, against a package
that exports every public name it binds."""

import re
import types
from pathlib import Path

import premeasure

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.split() == ["0.36", "1.0"]


def test_every_public_name_of_the_package_is_exported():
    bound = {
        name for name, value in vars(premeasure).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - set(premeasure.__all__)) == []
