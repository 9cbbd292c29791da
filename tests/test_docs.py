"""README's module table names only what its modules define and every
class and function the package exports, its experiment list names every
experiment the runner has and no other, and its config-key paragraph names
every key the runner accepts."""

import importlib
import inspect
import pathlib
import re

import infodyn
from infodyn import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `(infodyn(?:\.\w+)?)` \| (.*) \|$")


def missing_names(text):
    """(module, name) for every backticked Python identifier in a module-table
    row of `text` that the row's module does not define."""
    missing = []
    for line in text.splitlines():
        match = ROW.match(line)
        if not match:
            continue
        module = importlib.import_module(match.group(1))
        for name in re.findall(r"`([^`]+)`", match.group(2)):
            if name.isidentifier() and not hasattr(module, name):
                missing.append((match.group(1), name))
    return missing


def test_readme_module_table_names_exist():
    text = README.read_text()
    rows = [line for line in text.splitlines() if ROW.match(line)]
    assert len(rows) == 8
    assert missing_names(text) == []


def test_readme_module_table_names_every_export():
    named = {name for line in README.read_text().splitlines() if (match := ROW.match(line))
             for name in re.findall(r"`([^`]+)`", match.group(2))}
    exported = {name for name in infodyn.__all__
                if inspect.isclass(getattr(infodyn, name))
                or inspect.isfunction(getattr(infodyn, name))}
    assert exported - named == set()


def test_a_removed_name_is_caught():
    row = "| `infodyn.simplex` | `require_interior`, `TangentVector`, `(mean, variance)` |"
    assert missing_names(row) == [("infodyn.simplex", "TangentVector")]


def test_readme_names_every_config_key():
    text = README.read_text()
    start = text.index("Config keys (all optional except `experiment`)")
    paragraph = text[start:text.index("\n\n", start)]
    assert cli.KNOWN_KEYS - set(re.findall(r"`(\w+)`", paragraph)) == set()


def test_readme_lists_every_experiment():
    text = README.read_text()
    start = text.index("Experiments (`experiment =` in the config):")
    listed = re.findall(r"^- `([\w-]+)` - ", text[start:text.index("\n\n", start + 50)], re.M)
    assert sorted(listed) == sorted(cli.EXPERIMENTS)
    assert len(listed) == len(set(listed))
