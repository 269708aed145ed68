"""Generators for the paper's figures.

The figures are structural/illustrative in the paper; here each is
regenerated from live simulator state:

- **Figure 1** — anatomy of misidentification: a program containing valid
  sites, partial-instruction bytes, and data resembling ``syscall``,
  annotated with what each discovery strategy (byte scan, linear sweep)
  reports.
- **Figure 2** — the offline-phase event flow, from libLogger's timeline.
- **Figure 3** — the generated log file for ``ls`` (the paper shows the
  literal file contents).
- **Figure 4** — the online-phase event flow, from K23's timeline plus the
  per-path interposition counts (rewritten fast path vs SUD fallback).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.arch import (
    SiteKind,
    classify_syscall_sites,
    find_syscall_sites_bytescan,
    find_syscall_sites_linear,
)
from repro.arch.registers import Reg
from repro.core import OfflinePhase
from repro.kernel import Kernel
from repro.kernel.syscalls import Nr
from repro.runapi import RunConfig, boot
from repro.workloads.coreutils import install_coreutils
from repro.workloads.programs import ProgramBuilder, data_ref


# ------------------------------------------------------------------ Figure 1


def _figure1_program() -> ProgramBuilder:
    builder = ProgramBuilder("/bin/figure1")
    builder.start()
    asm = builder.asm
    asm.mov_ri(Reg.RAX, int(Nr.getpid))
    asm.mark("valid_site_1")
    asm.syscall_()
    # Partial instruction: syscall opcode bytes inside a mov immediate.
    asm.mark("partial_instruction")
    asm.mov_ri(Reg.RBX, 0x0000_9000_0000_050F, width=64)
    asm.jmp("after_data")
    # Embedded data (jump-table idiom) resembling a syscall.
    asm.label("embedded_data")
    asm.raw(b"\x0f\x05\x0f\x34")
    asm.label("after_data")
    asm.mov_ri(Reg.RAX, int(Nr.gettid))
    asm.mark("valid_site_2")
    asm.syscall_()
    builder.exit(0)
    return builder


def figure1() -> str:
    """Figure 1: what each discovery strategy believes about the program."""
    builder = _figure1_program()
    image = builder.build()
    code = image.blob[: image.code_size]
    asm = builder.asm
    true_sites = [asm.marks["valid_site_1"], asm.marks["valid_site_2"]]
    scan = find_syscall_sites_bytescan(code)
    sweep = find_syscall_sites_linear(code)
    graded = classify_syscall_sites(scan, true_sites, asm.data_spans)

    lines = [
        "Figure 1: valid syscall/sysenter instructions vs partial",
        "instructions and embedded data (byte-scan candidates, graded):",
        "",
        f"{'offset':>8}  {'bytes':<8} {'ground truth':<42} scan sweep",
        "-" * 76,
    ]
    sweep_set = set(sweep)
    for offset, kind in graded:
        raw = code[offset:offset + 2].hex(" ")
        mark = {"VALID": "valid syscall/sysenter instruction",
                "PARTIAL": "partial instruction (opcode inside another)",
                "DATA": "data resembling a syscall instruction"}[kind.name]
        lines.append(
            f"{offset:>8}  {raw:<8} {mark:<42} hit  "
            f"{'hit' if offset in sweep_set else 'miss'}")
    lines += [
        "",
        f"byte scan reported {len(scan)} sites "
        f"({sum(1 for _o, k in graded if k is SiteKind.VALID)} valid, "
        f"{sum(1 for _o, k in graded if k is SiteKind.PARTIAL)} partial, "
        f"{sum(1 for _o, k in graded if k is SiteKind.DATA)} data)",
        f"linear sweep reported {len(sweep)} sites",
        "rewriting either over-approximation corrupts code or data (P3a).",
    ]
    return "\n".join(lines)


# ------------------------------------------------------------------ Figure 2


def figure2(seed: int = 8) -> str:
    """Figure 2: offline-phase flow for one traced run (ls)."""
    kernel = Kernel(seed=seed)
    install_coreutils(kernel, names=["/usr/bin/ls"])
    offline = OfflinePhase(kernel)
    process, log = offline.run("/usr/bin/ls")
    lines = [
        "Figure 2: K23 offline phase — main steps",
        "",
        "(1) application issues a system call",
        "(2) kernel traps it (SUD) and redirects to libLogger's SIGSYS",
        "    handler; the selector disables re-dispatch",
        "(3) libLogger resolves the triggering instruction via",
        "    /proc/$PID/maps and records the unique (region, offset) pair",
        "(4) libLogger invokes the original call, re-enables dispatch,",
        "    and returns its result to the application",
        "",
        "event trace (first records):",
    ]
    for step, detail in offline.logger.timeline[:12]:
        lines.append(f"  {step:<6} {detail}")
    lines.append(f"  ... {len(log)} unique sites logged for ls")
    return "\n".join(lines)


# ------------------------------------------------------------------ Figure 3


def figure3(seed: int = 8) -> Tuple[str, str]:
    """Figure 3: the literal log file generated for ls.

    Returns ``(log_path, file_contents)``.
    """
    kernel = Kernel(seed=seed)
    install_coreutils(kernel, names=["/usr/bin/ls"])
    offline = OfflinePhase(kernel)
    offline.run("/usr/bin/ls")
    paths = offline.persist()
    return paths[0], kernel.vfs.read(paths[0]).decode()


# ------------------------------------------------------------------ Figure 4


def figure4(seed: int = 8) -> str:
    """Figure 4: online-phase flow — ptracer stage, handoff, selective
    rewrite, and the two interposition paths."""
    prepared = boot(RunConfig("K23-ultra", "ls", seed=seed + 1, aslr=True))
    kernel, k23 = prepared.kernel, prepared.interposer
    process = prepared.spawn()
    kernel.run_process(process)

    vias: Dict[str, int] = {}
    for _nr, via in k23.handled.get(process.pid, []):
        vias[via] = vias.get(via, 0) + 1
    lines = [
        "Figure 4: K23 online phase — main steps",
        "",
        "ptracer: interposes every syscall before/during library loading,",
        "         then detaches once libK23 signals readiness.",
        "libK23:  installs the trampoline, performs one selective rewrite",
        "         of offline-logged sites, arms the SUD fallback.",
        "",
        "event trace:",
    ]
    for step, detail in k23.timeline:
        lines.append(f"  {step:<32} {detail}")
    lines += [
        "",
        "interposition paths for this run:",
        f"  ptrace (startup)        : {vias.get('ptrace', 0):>5} syscalls",
        f"  rewritten fast path (5-7): {vias.get('rewrite', 0):>5} syscalls",
        f"  SUD fallback (5'-7')     : {vias.get('sud', 0):>5} syscalls",
        f"  uninterposed             : "
        f"{len(kernel.uninterposed_syscalls(process.pid)):>5} syscalls",
    ]
    return "\n".join(lines)


def render_figure(number: int) -> str:
    """Figure *number* as printed text; Figure 3 gets a caption naming
    the log file."""
    if number == 3:
        path, contents = figure3()
        return f"Figure 3: log file generated for ls ({path}):\n\n{contents}"
    return {1: figure1, 2: figure2, 4: figure4}[number]()
