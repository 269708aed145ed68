"""Assembler unit tests: encodings round-trip through the decoder and
labels/fixups resolve to correct displacements."""

import random

import pytest

from repro.arch import Asm, decode
from repro.arch.isa import Mnemonic
from repro.arch.registers import Reg
from repro.errors import AssemblerError


def roundtrip(build):
    """Assemble one instruction and decode it back."""
    a = Asm()
    build(a)
    code = a.assemble()
    insn = decode(code)
    assert insn.length == len(code)
    return insn


def test_syscall_encoding():
    a = Asm()
    a.syscall_()
    assert a.assemble() == b"\x0f\x05"


def test_sysenter_encoding():
    a = Asm()
    a.sysenter_()
    assert a.assemble() == b"\x0f\x34"


def test_call_rax_encoding():
    a = Asm()
    a.call_reg(Reg.RAX)
    assert a.assemble() == b"\xff\xd0"


def test_mov_ri_roundtrip_small():
    insn = roundtrip(lambda a: a.mov_ri(Reg.RAX, 60))
    assert insn.mnemonic is Mnemonic.MOV_RI
    assert insn.imm == 60
    assert insn.length == 5  # 32-bit form chosen automatically


def test_mov_ri_roundtrip_large():
    insn = roundtrip(lambda a: a.mov_ri(Reg.RAX, 0x1234_5678_9ABC))
    assert insn.imm == 0x1234_5678_9ABC
    assert insn.length == 10


def test_mov_ri_forced_width():
    insn = roundtrip(lambda a: a.mov_ri(Reg.RAX, 1, width=64))
    assert insn.length == 10
    with pytest.raises(AssemblerError):
        Asm().mov_ri(Reg.RAX, 1 << 40, width=32)


def test_mov_ri_high_register():
    insn = roundtrip(lambda a: a.mov_ri(Reg.R10, 500))
    assert insn.reg is Reg.R10
    assert insn.imm == 500


@pytest.mark.parametrize("reg", list(Reg))
def test_push_pop_all_registers(reg):
    if reg.low3 in (0b100, 0b101):
        pass  # push/pop rsp/rbp are legal; no base-register restriction here
    a = Asm()
    a.push(reg).pop(reg)
    code = a.assemble()
    first = decode(code)
    assert first.mnemonic is Mnemonic.PUSH and first.reg is reg
    second = decode(code, first.length)
    assert second.mnemonic is Mnemonic.POP and second.reg is reg


def test_mov_rr_operand_order():
    insn = roundtrip(lambda a: a.mov_rr(Reg.RDI, Reg.RAX))  # mov %rax, %rdi
    assert insn.reg is Reg.RDI  # destination
    assert insn.rm is Reg.RAX


def test_load_store_roundtrip():
    load = roundtrip(lambda a: a.load(Reg.RAX, Reg.RDI))
    assert load.mnemonic is Mnemonic.MOV_LOAD
    store = roundtrip(lambda a: a.store(Reg.RDI, Reg.RAX))
    assert store.mnemonic is Mnemonic.MOV_STORE


def test_load_rejects_rsp_rbp_base():
    with pytest.raises(AssemblerError):
        Asm().load(Reg.RAX, Reg.RSP)
    with pytest.raises(AssemblerError):
        Asm().store(Reg.RBP, Reg.RAX)


def test_arith_roundtrip():
    assert roundtrip(lambda a: a.add_rr(Reg.RAX, Reg.RBX)).mnemonic is Mnemonic.ADD_RR
    assert roundtrip(lambda a: a.sub_ri(Reg.RAX, 5)).imm == 5
    assert roundtrip(lambda a: a.cmp_ri(Reg.RAX, -1)).imm == -1
    big = roundtrip(lambda a: a.add_ri(Reg.RAX, 1 << 20))
    assert big.imm == 1 << 20 and big.length == 7


def test_forward_and_backward_labels():
    a = Asm()
    a.label("top")
    a.mov_ri(Reg.RCX, 3)
    a.label("loop")
    a.dec(Reg.RCX)
    a.jne("loop")
    a.jmp("end")
    a.nop(4)
    a.label("end")
    a.ret()
    code = a.assemble()
    # Walk the code and verify each branch lands on a label.
    insn = decode(code, a.labels["loop"] + 3)  # the jne, after 3-byte dec
    assert insn.mnemonic is Mnemonic.JCC_REL
    branch_off = a.labels["loop"] + 3
    assert branch_off + insn.length + insn.rel == a.labels["loop"]


def test_jmp_forward_resolves():
    a = Asm()
    a.jmp("target")
    a.nop(7)
    a.label("target")
    a.ret()
    code = a.assemble()
    insn = decode(code)
    assert insn.length + insn.rel == a.labels["target"]


def test_call_label():
    a = Asm()
    a.call("fn")
    a.ret()
    a.label("fn")
    a.ret()
    code = a.assemble()
    insn = decode(code)
    assert insn.mnemonic is Mnemonic.CALL_REL
    assert insn.length + insn.rel == a.labels["fn"]


def test_lea_rip_label():
    a = Asm()
    a.lea_rip_label(Reg.RSI, "msg")
    a.ret()
    a.label("msg")
    a.ascii("hi")
    code = a.assemble()
    insn = decode(code)
    assert insn.mnemonic is Mnemonic.LEA_RIP
    assert insn.length + insn.rel == a.labels["msg"]


def test_undefined_label_raises():
    a = Asm()
    a.jmp("nowhere")
    with pytest.raises(AssemblerError):
        a.assemble()


def test_duplicate_label_raises():
    a = Asm()
    a.label("x")
    with pytest.raises(AssemblerError):
        a.label("x")


def test_marks_and_data_spans():
    a = Asm()
    a.nop()
    a.syscall_site("first")
    a.raw(b"\x0f\x05")  # data that *looks* like a syscall
    a.mark("second")
    a.sysenter_()
    code = a.assemble()
    assert a.marks == {"first": 1, "second": 5}
    assert a.data_spans == [(3, 5)]
    assert code[1:3] == b"\x0f\x05"
    assert code[3:5] == b"\x0f\x05"


def test_align():
    a = Asm()
    a.nop()
    a.align(16)
    assert a.offset == 16
    a.syscall_()
    assert a.marks == {}


def test_hostcall_range():
    a = Asm()
    a.hostcall(65535)
    assert decode(a.assemble()).hostcall == 65535
    with pytest.raises(AssemblerError):
        Asm().hostcall(65536)


def test_assemble_idempotent():
    a = Asm()
    a.jmp("end")
    a.label("end")
    a.ret()
    assert a.assemble() == a.assemble()


def test_dq_little_endian():
    a = Asm()
    a.dq(0x050F)
    code = a.assemble()
    assert code[:2] == b"\x0f\x05"  # LE layout creates the hazard pattern
    assert a.data_spans == [(0, 8)]


def reference_align(a, boundary, fill=0x90):
    """The one-byte-per-emit padding loop ``Asm.align`` replaced."""
    while a.offset % boundary:
        a._emit(bytes([fill]))
    return a


@pytest.mark.parametrize("boundary", [1, 2, 16, 4096])
@pytest.mark.parametrize("fill", [0x90, 0x00])
def test_align_matches_bytewise_padding(boundary, fill):
    rng = random.Random(boundary * 7 + fill)
    # Random offsets, plus offsets already on the boundary.
    lengths = [rng.randrange(0, 9000) for _ in range(12)]
    lengths += [0, boundary, 2 * boundary]
    for length in lengths:
        data = bytes(rng.randrange(256) for _ in range(length % 97))
        new, old = Asm(), Asm()
        for a in (new, old):
            a.raw(data)
            a.nop(length - len(data))
        new.align(boundary, fill=fill)
        reference_align(old, boundary, fill=fill)
        assert new.offset == old.offset
        assert new.offset % boundary == 0
        assert new.assemble() == old.assemble()
        assert new.data_spans == old.data_spans
