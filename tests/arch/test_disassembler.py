"""Disassembler tests: linear-sweep desync and byte-scan over-approximation —
the mechanics behind pitfalls P2a and P3a."""

from repro.arch import (
    Asm,
    SiteKind,
    classify_syscall_sites,
    find_syscall_sites_bytescan,
    find_syscall_sites_linear,
    linear_sweep,
)
from repro.arch.disassembler import sweep_statistics
from repro.arch.registers import Reg


def clean_program():
    """A program with no embedded data: sweep and scan should agree."""
    a = Asm()
    a.endbr64()
    a.mov_ri(Reg.RAX, 39)  # getpid
    a.syscall_site("s0")
    a.mov_ri(Reg.RAX, 60)
    a.xor_rr(Reg.RDI, Reg.RDI)
    a.syscall_site("s1")
    a.ret()
    return a


def test_clean_program_sweep_finds_all_sites():
    a = clean_program()
    code = a.assemble()
    assert find_syscall_sites_linear(code) == sorted(a.marks.values())


def test_clean_program_no_desync():
    a = clean_program()
    stats = sweep_statistics(a.assemble())
    assert stats["desync_bytes"] == 0
    assert stats["syscall_sites"] == 2


def test_bytescan_matches_on_clean_program():
    a = clean_program()
    code = a.assemble()
    assert find_syscall_sites_bytescan(code) == sorted(a.marks.values())


def embedded_data_program():
    """Data in the code stream desyncs the sweep (jump-table idiom)."""
    a = Asm()
    a.mov_ri(Reg.RAX, 0)
    a.syscall_site("real")
    a.jmp("after_table")
    # A "jump table" containing bytes that resemble a syscall and bytes
    # that do not decode at all.
    a.label("table")
    a.raw(b"\x0f\x05\x06\x07\xd8\xff\xff")
    a.label("after_table")
    a.mov_ri(Reg.RAX, 1)
    a.syscall_site("real2")
    a.ret()
    return a


def test_bytescan_flags_data_as_syscall():
    a = embedded_data_program()
    code = a.assemble()
    scan = set(find_syscall_sites_bytescan(code))
    assert set(a.marks.values()) <= scan
    phantom = scan - set(a.marks.values())
    assert phantom, "data bytes resembling 0F 05 must be (wrongly) flagged"
    for offset in phantom:
        assert any(start <= offset < end for start, end in a.data_spans)


def test_linear_sweep_desyncs_on_embedded_data():
    a = embedded_data_program()
    stats = sweep_statistics(a.assemble())
    assert stats["desync_bytes"] > 0


def test_classification_matches_figure1_taxonomy():
    a = Asm()
    a.mov_ri(Reg.RAX, 0)
    a.syscall_site("valid")
    # Partial instruction: 0F 05 inside a mov imm64 (value 0x050F → LE bytes
    # 0F 05 ...).
    a.mark("partial_host")
    a.mov_ri(Reg.RBX, 0x050F, width=64)
    a.raw(b"\x0f\x05")  # data resembling a syscall
    a.ret()
    code = a.assemble()
    candidates = find_syscall_sites_bytescan(code)
    graded = dict(
        classify_syscall_sites(candidates, [a.marks["valid"]], a.data_spans)
    )
    assert graded[a.marks["valid"]] is SiteKind.VALID
    partial_offset = a.marks["partial_host"] + 2  # REX + opcode, then imm
    assert graded[partial_offset] is SiteKind.PARTIAL
    data_offset = a.data_spans[0][0]
    assert graded[data_offset] is SiteKind.DATA
    assert len(graded) == 3


def test_sweep_items_cover_every_byte():
    a = embedded_data_program()
    code = a.assemble()
    covered = 0
    for item in linear_sweep(code):
        covered += 1 if item.is_desync else item.instruction.length
    assert covered == len(code)


def test_sweep_respects_range_bounds():
    a = clean_program()
    code = a.assemble()
    first = a.marks["s0"]
    items = list(linear_sweep(code, start=first, end=first + 2))
    assert len(items) == 1
    assert items[0].instruction.is_syscall_site


def test_truncated_tail_yields_desync():
    # A mov imm64 cut short at the buffer edge cannot decode.
    code = b"\x48\xb8\x01\x02"
    items = list(linear_sweep(code))
    assert all(item.is_desync for item in items)


# ------------------------------------------------- trailing-padding cut


def full_sweep_sites(code):
    """The uncut reference: every syscall site of a full linear sweep."""
    return [item.offset for item in linear_sweep(code)
            if item.instruction is not None and item.instruction.is_syscall_site]


def test_sweep_cut_matches_full_sweep_on_loader_images(monkeypatch):
    """Every image the loader registers: libc, each workload and each
    mechanism's interposer library; both the r-x prefix zpoline scans
    (code plus its zero padding) and the whole blob."""
    from repro.interposers.registry import REGISTRY
    from repro.kernel import Kernel
    from repro.loader.linker import Loader
    from repro.workloads.coreutils import install_coreutils
    from repro.workloads.lighttpd import install_lighttpd
    from repro.workloads.nginx import install_nginx
    from repro.workloads.redis import install_redis
    from repro.workloads.sqlite import install_sqlite
    from repro.workloads.stress import install_stress

    images = {}
    original = Loader.register_image

    def record(self, image, path=None):
        original(self, image, path)
        images[path or image.name] = image

    monkeypatch.setattr(Loader, "register_image", record)
    kernel = Kernel(seed=0)
    kernel.loader.ensure_libc()
    for install in (install_coreutils, install_stress, install_sqlite,
                    install_nginx, install_lighttpd, install_redis):
        install(kernel)
    for name in REGISTRY.names():
        REGISTRY.create(name, Kernel(seed=0), install=False)

    assert len(images) >= 10
    for name, image in images.items():
        blob = image.blob
        for code in (blob[:image.code_size], blob):
            assert find_syscall_sites_linear(code) == \
                full_sweep_sites(code), name


def test_sweep_cut_syscall_just_before_padding():
    a = Asm()
    a.mov_ri(Reg.RAX, 39)
    a.syscall_()
    a.align(64, fill=0x00)
    code = a.assemble()
    assert find_syscall_sites_linear(code) == full_sweep_sites(code) == [5]


def test_sweep_cut_zero_immediate_runs_into_padding():
    # `mov $0x50f, %eax` is B8 0F 05 00 00: its zero immediate bytes merge
    # with the padding.  A sweep that stopped *decoding* at the cut would
    # desync inside the instruction and find a phantom syscall at +1.
    for imm in (0, 0x50F):
        a = Asm()
        a.mov_ri(Reg.RAX, imm, width=32)
        a.align(4096, fill=0x00)
        code = a.assemble()
        assert code[0] == 0xB8
        assert find_syscall_sites_linear(code) == full_sweep_sites(code) == []


def test_sweep_cut_all_padding():
    for code in (b"", b"\x00", b"\x00" * 4096):
        assert find_syscall_sites_linear(code) == full_sweep_sites(code) == []
