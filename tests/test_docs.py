"""README's module table names only what its modules define and every
class and function the package exports, its experiment list names every
experiment the runner has and no other, its config-key paragraph names
every key the runner accepts, every CSV file it names is one an experiment
writes, every dotted name it gives resolves, and its recipe for p, d and
pdot rebuilds them from the files."""

import fnmatch
import importlib
import inspect
import pathlib
import re

import numpy as np

import infodyn
from infodyn import cli
from conftest import couplings

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


# a small config of each experiment; the tables it returns name its artifacts
SMALL_CONFIGS = {
    "model-trajectory": "N = 2\nt_end = 1\nell = 2",
    "fisher-bias-vs-t": "N = 2\nt_end = 1\nell = 2\nn = 10\nreplications = 2",
    "info-rate-moments": "N = 2\nt_end = 1\nell = 2\nt = 0.5\nn = 10\nreplications = 2",
    "filtering-comparison": "N = 2\nt_end = 1\nt0 = 0\ncount = 4\nn = 10",
    "elbow-scan": "t_end = 1\nt = 0.5",
}
# the file types README names that are no Python attributes
FILE_SUFFIXES = {"cfg", "csv", "json", "md", "py", "toml", "yml"}


def artifacts():
    """The name of every file an experiment writes but the manifest."""
    names = set()
    for name, (fn, _) in cli.EXPERIMENTS.items():
        names |= set(fn(cli.parse_config(f"experiment = {name}\n{SMALL_CONFIGS[name]}\n"), 1))
    return names


def unknown_csv_names(text, written):
    """Every backticked `*.csv` name (or pattern) of `text` that matches no
    name of `written`."""
    return [name for name in re.findall(r"`([^`\s]+\.csv)`", text)
            if not fnmatch.filter(written, name)]


def unresolved_names(text):
    """Every backticked dotted name of `text`, such as `dynamics.MAX_TIME`,
    whose first part is no module or package export, or whose later parts
    are no attributes (or dataclass fields) of the one before."""
    unresolved = []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text):
        first, *rest = name.split(".")
        if rest[-1] in FILE_SUFFIXES:
            continue
        try:
            obj = infodyn if first == "infodyn" else getattr(infodyn, first, None) \
                or importlib.import_module(first)
        except ImportError:
            unresolved.append(name)
            continue
        for part in rest:
            if part in getattr(obj, "__annotations__", {}) and not hasattr(obj, part):
                obj = None  # a field of the instances, the last part
            elif hasattr(obj, part):
                obj = getattr(obj, part)
            else:
                unresolved.append(name)
                break
    return unresolved


def test_readme_csv_names_are_artifacts():
    assert unknown_csv_names(README.read_text(), artifacts()) == []


def test_readme_dotted_names_resolve():
    assert unresolved_names(README.read_text()) == []


def test_a_removed_file_or_name_is_caught():
    text = ("`theory_vs_mc.csv`, `info_rate_*.csv`, `fisher.csv`, `dynamics.integrate_sir`, "
            "`dynamics.MAX_TIME`, `Trajectory.pdot`, `Clustering.labels`, `np.intp`, "
            "`numpy.intp`, `elbow_scan.cfg`")
    assert unknown_csv_names(text, artifacts()) == ["theory_vs_mc.csv"]
    assert unresolved_names(text) == ["dynamics.integrate_sir", "Trajectory.pdot", "np.intp"]


def test_readme_recipe_rebuilds_the_model(tmp_path, monkeypatch):
    # the python block after "`trajectory.csv` holds the state", run as
    # written in the output directory of a model-trajectory run, gives the
    # model's p, d and pdot bit for bit
    text = README.read_text()
    start = text.index("```python\n", text.index("`trajectory.csv` holds the state"))
    recipe = text[start + len("```python\n"):text.index("```", start + 3)]
    config = "experiment = model-trajectory\nN = 99\n"
    (tmp_path / "exp.cfg").write_text(config)
    cli.run(str(tmp_path / "exp.cfg"), str(tmp_path / "out"))
    params, dt, t_end = cli._model(cli.parse_config(config))
    traj = cli.dyn.solve_sir(params, cli._instants(dt / 10, t_end))  # every dt/10
    p, pdot, _ = traj.replicator()
    monkeypatch.chdir(tmp_path / "out")
    names = {"np": np}
    exec(recipe, names)
    assert names["p"].shape == (401, 100)
    assert np.array_equal(names["t"], traj.times)
    assert np.array_equal(names["p"], p)
    assert np.array_equal(names["d"], couplings(traj))
    assert np.array_equal(names["pdot"], pdot)
