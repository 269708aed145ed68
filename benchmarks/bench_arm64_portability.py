"""§7 portability analysis: discovery quality on fixed- vs variable-length
encodings (the ARM-porting direction)."""

from repro.arch import Asm
from repro.arch.arm64 import (
    A64Builder,
    SVC_0,
    compare_discovery,
    find_svc_sites,
    movz,
    rewrite_feasibility,
    sweep,
)
from repro.arch.registers import Reg


def build_pair():
    """Equivalent programs on both encodings, each with one hidden hazard."""
    x86 = Asm()
    x86.mov_ri(Reg.RAX, 39)
    x86.mark("visible")
    x86.syscall_()
    x86.jmp("hidden")
    x86.raw(b"\x48\xb8")
    x86.label("hidden")
    x86.mov_ri(Reg.RAX, 102)
    x86.mark("hidden_site")
    x86.syscall_()
    x86.nop(8)
    x86.ret()

    a64 = A64Builder()
    a64.emit(movz(8, 39))
    a64.svc()
    a64.word_data(SVC_0)  # literal equal to the trap encoding
    a64.emit(movz(8, 102))
    a64.svc()
    a64.ret()
    return x86, a64


def test_discovery_comparison(save_artifact):
    x86, a64 = build_pair()
    report = compare_discovery(
        x86.assemble(), [x86.marks["visible"], x86.marks["hidden_site"]],
        a64)
    feasibility = rewrite_feasibility(a64.assemble())
    report += (
        f"\n\nrewrite feasibility on A64: width match = "
        f"{feasibility['replacement_width_matches']}, branch range = "
        f"{feasibility['branch_range_bytes'] // (1 << 20)} MiB, "
        f"NULL-page trampoline needed = "
        f"{feasibility['needs_null_trampoline']}")
    save_artifact("arm64_portability.txt", report)
    assert "1/2 true sites found" in report
    assert "2/2 true sites found" in report


def test_fixed_width_sweep():
    a64 = A64Builder()
    for index in range(512):
        a64.emit(movz(8, index))
        if index % 7 == 0:
            a64.svc()
    code = a64.assemble()
    sites = find_svc_sites(code)
    assert len(sites) == len(a64.svc_sites)


def test_every_word_classifies():
    a64 = A64Builder()
    a64.nop(64)
    a64.svc()
    a64.ret()
    insns = list(sweep(a64.assemble()))
    assert sum(1 for insn in insns if insn.is_svc) == 1
