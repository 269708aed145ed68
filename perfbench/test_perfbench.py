"""The benchmark's own tests: exact layer accounting, clean unwrapping,
tracing that leaves every output digest unchanged, and the host-speed
sampler.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import speed  # noqa: E402
from layers import ENTRY_POINTS, LAYER_METRICS  # noqa: E402
from run import child_env  # noqa: E402
from spans import Tracer, leftover_wrappers, resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def private_env(tmp_path, monkeypatch):
    """The workloads run in this process: give them the environment a
    benchmark child gets, so no result lands in the user's cache."""
    env = child_env(tmp_path)
    for key in list(os.environ):
        if key not in env:
            monkeypatch.delenv(key)
    for key in ("REPRO_EVAL_CACHE", "REPRO_FLIGHT_DIR"):
        monkeypatch.setenv(key, env[key])


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self, step: int = 7):
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


def test_self_times_and_other_sum_exactly_to_the_window():
    tracer = Tracer(clock=FakeClock())

    def leaf():
        return 1

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap(leaf, "leaf", "inner")
    wrapped_middle = tracer.wrap(middle, "middle", "outer")
    tracer.start()
    assert wrapped_middle() == 2
    with tracer.span("block", "outer"):
        wrapped_leaf()
    tracer.stop()

    assert tracer.calls == {"middle": 1, "leaf": 3, "block": 1}
    layers = tracer.layer_self_ns()
    assert sum(layers.values()) + tracer.other_ns == tracer.total_ns
    assert tracer.other_ns > 0
    for name in ("middle", "block"):
        assert tracer.self_ns[name] < tracer.incl_ns[name]


def test_a_raising_span_still_closes():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("boom")

    wrapped = tracer.wrap(boom, "boom", "layer",
                          key=lambda args, kwargs: "k")
    tracer.start()
    with pytest.raises(ValueError):
        wrapped()
    tracer.stop()
    assert not tracer.stack
    assert tracer.keyed_incl_ns["boom", "k"] == tracer.incl_ns["boom"]


def test_speed_factor_trims_outliers_and_the_sampler_cleans_up(tmp_path):
    slow = speed.REFERENCE_NS * 2
    assert speed.factor([1] + [slow] * 18 + [10 ** 9]) == 0.5

    before = signal.getsignal(signal.SIGPROF)
    sampler = speed.SpeedSampler()
    sampler.arm()
    deadline = time.monotonic() + 10
    while len(sampler.samples) < 3 and time.monotonic() < deadline:
        sum(range(10_000))
    sampler.flush(tmp_path / "speed.txt")
    sampler.disarm()
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(speed.read_log(tmp_path / "speed.txt")) >= 3


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_exact_clean_and_digest_identical(workload, tmp_path):
    originals = {}
    for _layer, _name, target in ENTRY_POINTS + tuple(
            (None, None, target) for target in child.CELLS):
        owner, attr = resolve(target)
        originals[target] = owner.__dict__[attr]
    results = {}
    for mode in ("baseline", "traced"):
        tmp = tmp_path / mode
        tmp.mkdir()
        results[mode] = child.run({"workload": workload, "variant": 0,
                                   "jobs": 1, "mode": mode,
                                   "tmp": str(tmp), "small": True})

    traced = results["traced"]
    failed = [check for check in traced["checks"] if not check[1]]
    assert not failed, failed
    assert ["layer self times + other_s == total", True,
            "residual 0 ns"] in [list(check) for check in traced["checks"]]
    assert leftover_wrappers("repro.") == []
    for target, original in originals.items():
        owner, attr = resolve(target)
        assert owner.__dict__[attr] is original, target
    assert traced["outputs"]
    assert traced["outputs"] == results["baseline"]["outputs"]

    layers = traced["layers"]
    self_times = sum(value for name, value in layers.items()
                     if name.endswith(".self_s"))
    assert self_times + layers["other_s"] == \
        pytest.approx(layers["trace.total_s"], abs=1e-6)
    added_by_the_runner = {"pipeline.shard_busy_max_s",
                           "pipeline.shard_imbalance", "pipeline.overhead_s",
                           "trace.overhead_s", "exact.drift"}
    assert set(layers) == set(LAYER_METRICS) - added_by_the_runner
