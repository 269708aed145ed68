"""Ablation: what the offline phase buys (§5.1 vs §5.2).

K23's fast path exists only for offline-logged sites; everything else takes
the SUD fallback.  Running the microbenchmark with an *empty* log shows the
other end of the spectrum: per-call cost collapses toward pure SUD, which
is exactly why the hybrid design needs the offline phase for datacenter
workloads (and why the fallback alone still guarantees correctness).
"""

from repro.core import K23Interposer
from repro.core.logs import SiteLog, seal_logs
from repro.evaluation.runner import measure_micro_cycles
from repro.kernel import Kernel
from repro.workloads.stress import STRESS_PATH, build_stress


def _k23_empty_log_cycles(iterations: int, seed: int = 61) -> int:
    kernel = Kernel(seed=seed)
    kernel.torn_window_probability = 0.0
    build_stress(iterations).register(kernel)
    SiteLog(STRESS_PATH).save(kernel.vfs)  # empty: nothing pre-validated
    seal_logs(kernel.vfs)
    K23Interposer(kernel, variant="default").install()
    process = kernel.spawn_process(STRESS_PATH)
    before = kernel.cycles.cycles
    kernel.run_process(process, max_steps=50_000_000)
    assert process.exit_status == 0
    return kernel.cycles.cycles - before


def measure_empty_log_per_call() -> float:
    low = _k23_empty_log_cycles(300)
    high = _k23_empty_log_cycles(1500)
    return (high - low) / 1200


def test_offline_phase_value(save_artifact):
    empty = measure_empty_log_per_call()
    native = measure_micro_cycles("native")
    logged = measure_micro_cycles("K23-default")
    sud = measure_micro_cycles("SUD")
    report = (
        "Ablation: K23 per-syscall cost vs offline-log coverage\n"
        f"  native                   : {native:8.1f} cycles (1.00x)\n"
        f"  K23, full offline log    : {logged:8.1f} cycles "
        f"({logged / native:.2f}x)  <- every site rewritten\n"
        f"  K23, EMPTY offline log   : {empty:8.1f} cycles "
        f"({empty / native:.2f}x)  <- all calls via SUD fallback\n"
        f"  pure SUD                 : {sud:8.1f} cycles "
        f"({sud / native:.2f}x)\n"
    )
    save_artifact("ablation_offline_value.txt", report)
    # With the log, K23 sits near zpoline; without it, near pure SUD.
    assert logged / native < 1.4
    assert empty / native > 10.0
    assert empty <= sud * 1.05  # fallback ≈ SUD, never worse than ~5%
