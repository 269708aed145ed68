"""Guards on how measured kernels are built (DESIGN.md §3c, "boot vs
prepare").

- Measurement cells boot through :func:`repro.runapi.boot` with no sink,
  so the event bus stays disabled while the measured run executes.  Any
  attached sink (``prepare`` always attaches a ``CounterSink``) turns
  every emit site on and roughly doubles a cell's host time.
- Kernels and offline phases are built only inside ``runapi`` and the
  few sites that study the offline phase itself or boot PoC programs.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro import runapi
from repro.evaluation.runner import (MACRO_BY_KEY, measure_macro,
                                     measure_micro_cycles)
from repro.kernel.kernel import Kernel

#: (module path under src/repro, enclosing function) pairs allowed to call
#: ``Kernel(`` or ``OfflinePhase(`` directly.
BOOT_SITES = {
    ("runapi.py", "boot"),
    ("runapi.py", "_offline_recipe"),
    ("evaluation/figures.py", "figure2"),
    ("evaluation/figures.py", "figure3"),
    ("pitfalls/poc.py", "build"),
}


@pytest.fixture
def bus_states(monkeypatch):
    """``bus.enabled`` of every kernel as it starts a run."""
    states = []
    for name in ("run", "run_process"):
        original = getattr(Kernel, name)

        def spy(self, *args, _original=original, **kwargs):
            states.append(self.bus.enabled)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Kernel, name, spy)
    return states


def test_table5_cell_runs_with_the_bus_off(bus_states):
    runapi.offline_logs("stress")  # the offline kernel is not measured
    bus_states.clear()
    measure_micro_cycles("K23-ultra", iterations_low=20, iterations_high=40)
    assert bus_states and not any(bus_states)


def test_table6_row_runs_with_the_bus_off(bus_states):
    config = MACRO_BY_KEY["redis-1t"]
    runapi.offline_logs(config.workload, config.params)
    bus_states.clear()
    for name in ("native", "K23-ultra", "SUD"):
        measure_macro(config, name)
    assert bus_states and not any(bus_states)


def _calls(tree):
    """``(enclosing function, callee name)`` for every call in *tree*."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr",
                                                            None)
                yield function, name
            yield from walk(child, function)
    yield from walk(tree, "<module>")


def test_kernels_are_booted_only_at_known_sites():
    root = Path(repro.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for function, name in _calls(ast.parse(path.read_text())):
            if name in ("Kernel", "OfflinePhase"):
                found.add((module, function))
    assert found - BOOT_SITES == set(), (
        "build run kernels through repro.runapi.boot/prepare")
    assert found == BOOT_SITES  # keep the allow-list exact
