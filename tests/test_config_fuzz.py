"""Property tests: any JSON config either loads or raises ConfigError, and a
config file with a defect spliced into its text ends every command that reads
it with exit 1 and an error line, never an internal error."""
import contextlib
import dataclasses
import io
import typing

import pytest
from helpers import DIGITS_5000, NESTED_100000, json_defects, json_values, spliced

from qshield.cli import main
from qshield.errors import ConfigError
from qshield.pipeline import PipelineConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

JSON = json_values()


def _section(cls) -> st.SearchStrategy:
    """Any subset of the section's keys, each with any JSON value, or any JSON value."""
    keys = {f.name: JSON for f in dataclasses.fields(cls)}
    return st.fixed_dictionaries({}, optional=keys) | JSON


CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        name: _section(hint) if dataclasses.is_dataclass(hint) else JSON
        for name, hint in typing.get_type_hints(PipelineConfig).items()
    },
)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(CONFIGS)
def test_config_loads_or_raises_config_error(raw):
    try:
        PipelineConfig.from_dict(raw)
    except ConfigError:
        pass


DEFAULTS = PipelineConfig().to_dict()
# every command that reads --config, with the other arguments it requires; none of
# the files exists, so a config that loads would exit 2 instead of 1
COMMANDS = {
    "run": ["--data", "x.csv", "--out-dir", "out"],
    "preprocess": ["--data", "x.csv", "--out-dir", "out"],
    "train": ["--data", "x.csv", "--out-dir", "out"],
    "predict": ["--model", "m.json", "--data", "x.csv", "--out", "p.csv"],
    "explain": ["--model", "m.json", "--data", "x.csv"],
    "evaluate": ["--model", "m.json", "--data", "x.csv"],
    "kernel": ["--data", "x.csv", "--out", "k.csv"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(text=json_defects(DEFAULTS))
@hypothesis.example(text=spliced(DEFAULTS, ("seed",), DIGITS_5000))
@hypothesis.example(text=spliced(DEFAULTS, ("seed",), NESTED_100000))
def test_unreadable_config_text_exits_1(command, text, tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main([command, "--config", str(path), *COMMANDS[command]])
    err = stderr.getvalue()
    assert code == 1, err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
    assert "internal error" not in err
