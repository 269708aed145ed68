"""Every engine tier against the reference single-step interpreter: the
evaluation numbers must be byte-identical.

The basic-block translation cache and the tiers above it are pure
interpreter optimizations — every cycle count the evaluation pipeline
emits must be *exactly* the same in each tier as with
``REPRO_NO_BLOCK_CACHE=1``.  The hatches are read at :class:`Kernel`
construction time, so each half of a comparison just builds its kernels
under the matching environment."""

import pytest

from repro.evaluation.runner import measure_micro_cycles
from repro.kernel.kernel import Kernel
from repro.workloads.stress import STRESS_PATH, install_stress
from tests.simutil import TIERS, select_tier

#: Smoke-sized iteration counts (matching the pipeline's --smoke mode):
#: big enough to exercise replay-heavy steady state, small enough for CI.
LOW, HIGH = 60, 240


def _in_each_tier(monkeypatch, fn):
    """{tier: *fn*() with kernels built in that tier}."""
    results = {}
    for tier in TIERS:
        select_tier(monkeypatch, tier)
        results[tier] = fn()
    return results


def test_flag_controls_block_cache(monkeypatch):
    select_tier(monkeypatch, "trace-jit")
    assert Kernel(seed=1).block_cache_enabled
    monkeypatch.setenv("REPRO_NO_BLOCK_CACHE", "1")
    assert not Kernel(seed=1).block_cache_enabled
    monkeypatch.setenv("REPRO_NO_BLOCK_CACHE", "0")
    assert Kernel(seed=1).block_cache_enabled


@pytest.mark.parametrize("mechanism", [
    "native", "zpoline-default", "lazypoline", "K23-ultra", "SUD",
])
def test_micro_cycles_identical_block_on_off(mechanism, monkeypatch):
    results = _in_each_tier(monkeypatch, lambda: measure_micro_cycles(
        mechanism, LOW, HIGH))
    reference = results.pop("single-step")
    assert results == dict.fromkeys(results, reference), (
        f"{mechanism}: a tier changed the measurement")


def test_stress_run_identical_block_on_off(monkeypatch):
    """Full scheduler-level parity: retired count AND final cycle total of a
    multi-quantum syscall-stress run match exactly in every tier."""

    def run():
        kernel = Kernel(seed=42)
        install_stress(kernel, iterations=200)
        process = kernel.spawn_process(STRESS_PATH)
        retired = kernel.run_process(process, max_steps=500_000)
        return retired, kernel.cycles.cycles

    results = _in_each_tier(monkeypatch, run)
    assert len(set(results.values())) == 1, results
