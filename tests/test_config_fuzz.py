"""Property test: any JSON config either loads or raises ConfigError."""
import dataclasses
import typing

import pytest

from qshield.errors import ConfigError
from qshield.pipeline import PipelineConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


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
