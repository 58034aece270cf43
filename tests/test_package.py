"""The top-level ``sentiq`` namespace is the surface the README and demos use."""

import ast
import importlib.util
import json
import re
from pathlib import Path

import sentiq
from helpers import run_python
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


# The namespace a fresh ``import sentiq`` had when it imported every quickstart
# name eagerly; loading them on first use keeps it.
EXPORTS = [
    "AgentConfig", "Attribute", "BenchConfig", "CDR", "RDR", "SDR", "SynthConfig",
    "bucket_by_day", "builtin_lexicon", "chronological_split", "clean", "compare",
    "day_signal", "evaluate", "gen_corpus", "predict_series", "reward_cdr", "reward_rdr",
    "reward_sdr", "train", "vaf", "zero_reward_points",
]
DIR = sorted([
    *EXPORTS, "__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__", "__version__", "attributes", "bench",
    "corpus", "errors", "metrics", "preprocess", "profiler", "qlearn", "sentiment", "synth",
])


def test_a_fresh_import_has_the_eager_namespace_and_every_star_name(tmp_path):
    script = (
        "import json, sentiq\n"
        "names = [sentiq.__all__, sorted(dir(sentiq))]\n"
        "star = {}\n"
        "exec('from sentiq import *', star)\n"
        "print(json.dumps([*names, sorted(set(star) - {'__builtins__'})]))\n"
    )
    code, out, err = run_python(["-c", script], cwd=tmp_path)
    assert code == 0, err
    exports, names, star = json.loads(out)
    assert (exports, names, star) == (EXPORTS, DIR, EXPORTS)


def test_every_name_in_dir_resolves():
    for name in dir(sentiq):
        assert hasattr(sentiq, name), name
    assert sentiq.AgentConfig is sentiq.qlearn.AgentConfig
    assert sentiq.SynthConfig is sentiq.synth.SynthConfig
    assert sentiq.BenchConfig is sentiq.bench.BenchConfig
    assert not hasattr(sentiq, "no_such_name")


def test_the_package_the_cli_and_ingest_import_without_numpy(tmp_path):
    script = "import sys, sentiq, sentiq.cli, sentiq.corpus\nprint('numpy' in sys.modules)\n"
    assert run_python(["-c", script], cwd=tmp_path) == (0, "False\n", "")
