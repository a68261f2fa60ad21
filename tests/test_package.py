import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import adadenoise
from adadenoise import cli, estimator, sim

# every library module; the CLI lists no names of its own
MODULES = tuple(mod.name for mod in pkgutil.iter_modules(adadenoise.__path__)
                if mod.name != "cli")


def test_public_names_resolve_to_their_modules():
    """Every name the package exports resolves, and is the object that
    exactly one package module lists in its own ``__all__``."""
    modules = [importlib.import_module(f"adadenoise.{mod}") for mod in MODULES]
    for name in adadenoise.__all__:
        if name == "__version__":
            continue
        owners = [mod for mod in modules if name in mod.__all__]
        assert len(owners) == 1, f"{name} is listed in {owners}"
        assert getattr(adadenoise, name) is getattr(owners[0], name)


def test_no_module_imports_another_modules_private_name():
    """No package module imports an underscore name from another one
    (``from .<module> import _<name>``): what modules share is in the
    open, and a private name can change with its own module alone."""
    found = []
    for path in sorted(Path(adadenoise.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0
                         or (node.module or "").startswith("adadenoise"))):
                found += [f"{path.name}:{node.lineno}: {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def _readme_section(title: str) -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index(title)
    end = text.find("\n#", start + len(title))
    return text[start:] if end < 0 else text[start:end]


def _config_table() -> list[tuple[str, str]]:
    """(key cell, default cell) of each row of the README's config table."""
    section = _readme_section("| key | meaning | default |")
    rows = []
    for line in section.splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        rows.append((cells[1], cells[-2].strip()))
    return rows


def test_readme_config_table_lists_the_config_keys():
    keys = set()
    for key_cell, _ in _config_table():
        keys.update(re.findall(r"`(\w+)`", key_cell))
    assert keys == set(sim._SCHEMA)


def test_readme_constants_match_the_estimator():
    """The values the README gives for `EPS` and `DELTA` are the
    estimator's."""
    text = _readme_section("### `adadenoise simulate")
    for name in ("EPS", "DELTA"):
        (value,) = re.findall(rf"`estimator\.{name} = ([^`]+)`", text)
        assert float(value) == getattr(estimator, name)


def test_readme_noise_row_names_the_noise_kinds():
    """The table's `noise` row names exactly the kinds `load_config`
    reads, each as `KIND [PARAM=DEFAULT]` with the one parameter that
    kind's model takes and that parameter's default: a kind added to
    `sim._NOISE_KINDS` cannot go undocumented."""
    (row,) = [line for line in _readme_section(
        "| key | meaning | default |").splitlines()
        if line.startswith("| `noise` |")]
    documented = {kind: (param, float(default)) for kind, param, default
                  in re.findall(r"`(\w+) \[(\w+)=([^\]`]+)\]`", row)}
    kinds = {}
    for kind, model in sim._NOISE_KINDS.items():
        (param,) = inspect.signature(model).parameters.values()
        kinds[kind] = (param.name, param.default)
    assert documented == kinds


def test_readme_config_defaults_are_the_loaded_defaults(tmp_path):
    """Every default in the table is what `load_config` gives for a key
    left out, which is the default of `ExperimentConfig`."""
    required = {"n": "40", "sigma1": "2.0", "trials": "1",
                "output": "out.csv"}
    defaults = {re.findall(r"`(\w+)`", key_cell)[0]: value
                for key_cell, value in _config_table()
                if value != "required"}
    assert set(defaults) == set(sim._SCHEMA) - set(required)

    def load(**keys):
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(f"{key} = {value}\n"
                                for key, value in {**required,
                                                   **keys}.items()))
        return sim.load_config(path)

    config = load()
    loaded = {
        "rank": config.ranks, "noise": config.noise,
        "base_seed": config.base_seed,
        "gamma": config.gamma, "workers": config.workers,
    }
    for key, cell in defaults.items():
        parse = sim._SCHEMA[key][1]
        assert parse(cell.strip("`")) == loaded[key], key


def test_readme_csv_schema_is_the_written_header(tmp_path):
    """The README's schema line, with `ov_a_1..ov_a_R` and
    `ov_b_1..ov_b_R` spelled out for rank-R records, is the header
    `write_records_csv` writes."""
    section = _readme_section("CSV schema")
    (line,) = re.findall(r"```\n(.*)\n```", section)
    rank = 3
    for prefix in ("ov_a", "ov_b"):
        line = line.replace(f"{prefix}_1..{prefix}_R", ",".join(
            f"{prefix}_{i}" for i in range(1, rank + 1)))
    record = sim.TrialRecord(
        n=10, m=10, r=rank, sigma1=3.0, trial=0, seed=1, i_hat=1.0,
        k_hat=rank, overlaps_adaptive=(1.0,) * rank,
        overlaps_baseline=(1.0,) * rank, err_adaptive=0.1,
        err_baseline=0.2, err_star=0.1)
    sim.write_records_csv([record], tmp_path / "records.csv")
    header = (tmp_path / "records.csv").read_text().splitlines()[0]
    assert line == header


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices


def test_readme_has_one_section_per_subcommand():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sections = re.findall(r"^### `adadenoise (\w+)", text, re.MULTILINE)
    assert sorted(sections) == sorted(_subcommands())


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_readme_section_names_exactly_the_parsers_flags(command):
    """The README's section on a subcommand names each of its flags by
    its long form, and no other flag: a stale flag fails, and so does
    an undocumented one.  `-h/--help` is left out."""
    section = _readme_section(f"### `adadenoise {command}")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    actions = [set(action.option_strings)
               for action in _subcommands()[command]._actions
               if action.option_strings and action.dest != "help"]
    # every flag has a long form, so naming long forms covers them all
    assert all(any(f.startswith("--") for f in a) for a in actions)
    flags = {f for a in actions for f in a if f.startswith("--")}
    assert named == flags, (named - flags, flags - named)


def test_denoiser_settings_are_one_set_on_every_surface():
    """The denoiser has no settings on any surface: the estimators take
    the matrix, the baseline's noise sd and the number of factors; each
    config key sets one `ExperimentConfig` field, and the fields are the
    grid and the noise model only; the `denoise` flags other than help,
    output and the baseline's noise sd are none."""
    assert list(inspect.signature(estimator.denoise).parameters) == [
        "y", "factors"]
    assert list(inspect.signature(estimator.baseline_estimate).parameters) \
        == ["y", "noise_sd", "factors"]
    assert list(inspect.signature(estimator.denoise_entrywise).parameters) \
        == ["y"]
    fields = {f.name for f in dataclasses.fields(sim.ExperimentConfig)}
    assert sorted(name for name, _ in sim._SCHEMA.values()) == sorted(fields)
    removed = {"eps", "delta", "h", "h_prime", "sigma_ratios"}
    assert not fields & removed and not removed & set(sim._SCHEMA)
    other = {"-h", "--help", "-o", "--output-prefix", "--noise-sd"}
    assert {flag for action in _subcommands()["denoise"]._actions
            for flag in action.option_strings} == other
