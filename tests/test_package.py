"""The top-level ``sentiq`` namespace is the surface the README and demos use."""

import ast
import importlib.util
import re
from pathlib import Path

import sentiq
from sentiq.cli import SETTINGS

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL):
        yield block
    for demo in sorted((ROOT / "demos").glob("*.py")):
        yield demo.read_text(encoding="utf-8")


def imported_from_sentiq() -> set[str]:
    """Every name imported with ``from sentiq import ...``."""
    names = set()
    for source in _sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "sentiq" and not node.level:
                names.update(alias.name for alias in node.names)
    return names


def test_readme_and_demo_imports_are_exactly_the_exports():
    # Submodules (``from sentiq import profiler``) are not top-level exports.
    used = {
        name
        for name in imported_from_sentiq()
        if importlib.util.find_spec(f"sentiq.{name}") is None
    }
    exported = set(sentiq.__all__)
    assert used == exported, {"not exported": used - exported, "unused": exported - used}
    for name in exported:
        assert hasattr(sentiq, name), name
    assert isinstance(sentiq.__version__, str)


def test_readme_configuration_table_lists_exactly_the_config_keys():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    listed = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == set(SETTINGS), {
        "undocumented": set(SETTINGS) - set(listed), "not a key": set(listed) - set(SETTINGS)
    }
