"""The public API surface: imports resolve, __all__ is accurate,
the README quick-start works."""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.mapreduce",
    "repro.cluster",
    "repro.er",
    "repro.core",
    "repro.datasets",
    "repro.analysis",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__")
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


def test_version():
    import repro

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        declared = tomllib.load(handle)["project"]["version"]
    assert repro.__version__ == declared


def test_readme_quickstart():
    from repro import ERPipeline, PrefixBlocking, generate_products

    entities = generate_products(400, seed=1)
    pipeline = ERPipeline(
        "blocksplit",
        PrefixBlocking("title"),
        num_map_tasks=4,
        num_reduce_tasks=8,
    )
    result = pipeline.run(entities)
    assert len(result.matches) > 0


def test_strategy_registry_complete():
    from repro import STRATEGIES, get_strategy

    assert set(STRATEGIES) == {"basic", "blocksplit", "pairrange"}
    for name in STRATEGIES:
        assert get_strategy(name).name == name
