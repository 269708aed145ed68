"""Ablation: where each design stage's coverage comes from.

Decomposes K23's exhaustiveness on ``ls`` — which syscalls the ptrace
stage, the rewritten fast path, and the SUD fallback each caught — against
the blind spots of mechanisms missing those stages (§5.2's Table 1
narrative).  Also quantifies the §7 static-augmentation extension: fallback
rate with and without augmented logs on a partial-coverage run.
"""

from repro.core import K23Interposer, OfflinePhase
from repro.core.offline import import_logs
from repro.core.static_augment import offline_with_augmentation
from repro.interposers import LazypolineInterposer, ZpolineInterposer
from repro.kernel import Kernel
from repro.workloads.coreutils import install_coreutils


def coverage_for(name, seed=71):
    offline_kernel = Kernel(seed=seed)
    install_coreutils(offline_kernel, names=["/usr/bin/ls"])
    offline = OfflinePhase(offline_kernel)
    offline.run("/usr/bin/ls")

    kernel = Kernel(seed=seed + 1)
    install_coreutils(kernel, names=["/usr/bin/ls"])
    if name == "K23":
        import_logs(kernel, offline.export())
        interposer = K23Interposer(kernel, variant="ultra")
    elif name == "zpoline":
        interposer = ZpolineInterposer(kernel)
    else:
        interposer = LazypolineInterposer(kernel)
    interposer.install()
    process = kernel.spawn_process("/usr/bin/ls")
    kernel.run_process(process)
    assert process.exit_status == 0
    vias = {}
    for _nr, via in interposer.handled.get(process.pid, []):
        vias[via] = vias.get(via, 0) + 1
    vias["missed"] = len(kernel.uninterposed_syscalls(process.pid))
    vias["total"] = len(kernel.app_requested_syscalls(process.pid))
    return vias


def test_stage_coverage_decomposition(save_artifact):
    results = {name: coverage_for(name)
               for name in ("K23", "zpoline", "lazypoline")}
    lines = ["Ablation: per-stage coverage on ls (app-requested syscalls)",
             f"{'mechanism':<12} {'total':>6} {'ptrace':>7} {'rewrite':>8} "
             f"{'sud':>5} {'missed':>7}"]
    for name, vias in results.items():
        lines.append(f"{name:<12} {vias['total']:>6} "
                     f"{vias.get('ptrace', 0):>7} "
                     f"{vias.get('rewrite', 0):>8} "
                     f"{vias.get('sud', 0):>5} {vias['missed']:>7}")
    save_artifact("ablation_coverage.txt", "\n".join(lines))
    assert results["K23"]["missed"] == 0
    assert results["K23"].get("ptrace", 0) > 100   # the startup storm
    assert results["zpoline"]["missed"] > 100      # ... which others drop
    assert results["lazypoline"]["missed"] > 100


def test_augmentation_reduces_fallback_rate(save_artifact):
    """§7 extension: static augmentation moves unexercised-but-provable
    sites onto the fast path."""
    from repro.workloads.programs import ProgramBuilder, data_ref

    def register(kernel):
        builder = ProgramBuilder("/usr/bin/rare2")
        builder.string("flag", "/etc/rare-mode")
        builder.start()
        builder.libc("access", data_ref("flag"), 0)
        from repro.arch.registers import Reg

        builder.asm.test_rr(Reg.RAX, Reg.RAX)
        builder.asm.jne(".common")
        builder.loop(40)
        builder.libc("getuid")
        builder.end_loop()
        builder.label(".common")
        builder.libc("getpid")
        builder.exit(0)
        builder.register(kernel)

    def run(augment: bool):
        offline_kernel = Kernel(seed=81)
        register(offline_kernel)
        offline = OfflinePhase(offline_kernel)
        if augment:
            offline_with_augmentation(offline, "/usr/bin/rare2")
        else:
            offline.run("/usr/bin/rare2")
        kernel = Kernel(seed=82)
        register(kernel)
        kernel.vfs.create("/etc/rare-mode", b"")
        import_logs(kernel, offline.export())
        k23 = K23Interposer(kernel).install()
        process = kernel.spawn_process("/usr/bin/rare2")
        kernel.run_process(process)
        assert process.exit_status == 0
        entries = k23.handled[process.pid]
        fallback = sum(1 for _nr, via in entries if via == "sud")
        return fallback, len(entries)

    (plain_fb, plain_total), (aug_fb, aug_total) = run(False), run(True)
    report = (
        "Ablation: SUD-fallback rate, rare code path (40 unlogged calls)\n"
        f"  dynamic log only : {plain_fb}/{plain_total} calls on fallback\n"
        f"  + static augment : {aug_fb}/{aug_total} calls on fallback\n"
    )
    save_artifact("ablation_augment.txt", report)
    assert plain_fb >= 40
    assert aug_fb == 0
