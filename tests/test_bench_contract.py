"""The names the benchmark harness patches and calls still exist.

perfbench/tracer.py wraps the public names listed in its TARGETS, the
workloads perfbench/wl_*.py reach the package through ``dp.<name>``, and
perfbench/wl_grid.py calls the ratio estimates with grid keywords; a
rename or a trimmed export under src/ would otherwise surface only in the
slow perfbench/selftest.py.  This reads the tracer and the workloads
without changing them.
"""

import glob
import importlib
import importlib.util
import inspect
import os
import re

import pytest

import dirpareto
import dirpareto.cli  # wl_cli imports it before it calls dp.cli.main

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer().TARGETS


def _owner(module: str, dotted: str):
    owner = importlib.import_module(f"dirpareto.{module}")
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.parametrize("module, dotted",
                         [(m, d) for m, d, _ in TARGETS],
                         ids=[f"{m}.{d}" for m, d, _ in TARGETS])
def test_tracer_target_resolves(module, dotted):
    """The tracer patches a method in its class's own ``__dict__``, so an
    inherited one would not resolve there."""
    owner, attr = _owner(module, dotted)
    assert callable(getattr(owner, attr))
    if isinstance(owner, type):
        assert attr in owner.__dict__


@pytest.mark.parametrize("dotted", [
    "HalfspaceCone.from_rows", "GeneratorCone.from_generators",
    "DirectionSet.finite", "DirectionSet.cone_section", "DirectionSet.full_sphere",
])
def test_factories_are_staticmethods(dotted):
    assert ("geometry", dotted) in [(m, d) for m, d, _ in TARGETS]
    owner, attr = _owner("geometry", dotted)
    assert isinstance(owner.__dict__[attr], staticmethod)


@pytest.mark.parametrize("name", ["calmness_ratio", "subregularity_ratio"])
def test_ratio_estimates_take_the_grid_keywords(name):
    owner, attr = _owner("mintime", name)
    params = inspect.signature(getattr(owner, attr)).parameters
    assert {"radius", "levels"} <= params.keys()


def _workload_names():
    """Every dotted ``dp.<name>...`` chain the workload files spell out."""
    names = set()
    for path in glob.glob(os.path.join(PERFBENCH, "wl_*.py")):
        with open(path) as fh:
            names.update(re.findall(r"\bdp\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", fh.read()))
    return sorted(names)


# HalfspaceCone.matrix and geometry.conic_hull are read through objects
# the workloads build and by the tracer, not spelled after ``dp.``
@pytest.mark.parametrize("dotted", _workload_names() + ["HalfspaceCone.matrix",
                                                        "geometry.conic_hull"])
def test_workload_name_resolves(dotted):
    owner = dirpareto
    for part in dotted.split("."):
        owner = getattr(owner, part)
