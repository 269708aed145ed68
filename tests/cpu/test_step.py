"""Interpreter semantics tests against a bare execution environment."""

import struct

import pytest

from repro.arch.assembler import Asm
from repro.arch.registers import Reg
from repro.cpu.core import step
from repro.cpu.cycles import CycleModel, Event
from repro.cpu.icache import ICache
from repro.cpu.state import CpuContext
from repro.errors import Breakpoint, Halt, InvalidOpcode, SegmentationFault
from repro.memory import AddressSpace, PAGE_SIZE, Prot

CODE_BASE = 0x40_0000
DATA_BASE = 0x60_0000
STACK_TOP = 0x80_0000


class BareEnv:
    """Execution environment with no kernel: code, data, and a stack."""

    def __init__(self, code: bytes):
        self.context = CpuContext()
        self.icache = ICache()
        self.space = AddressSpace()
        self.cycles = CycleModel()
        self.space.mmap(CODE_BASE, max(len(code), 1), Prot.READ | Prot.EXEC,
                        name="code", fixed=True)
        self.space.write_kernel(CODE_BASE, code)
        self.space.mmap(DATA_BASE, PAGE_SIZE, Prot.READ | Prot.WRITE,
                        name="data", fixed=True)
        self.space.mmap(STACK_TOP - 16 * PAGE_SIZE, 16 * PAGE_SIZE,
                        Prot.READ | Prot.WRITE, name="stack", fixed=True)
        self.context.rip = CODE_BASE
        self.context.set(Reg.RSP, STACK_TOP - 16)
        self.syscalls = []
        self.hostcalls = []

    def mem_fetch(self, addr, n):
        return self.space.fetch(addr, n)

    def mem_read(self, addr, n):
        return self.space.read(addr, n, pkru=self.context.pkru)

    def mem_write(self, addr, data):
        self.space.write(addr, data, pkru=self.context.pkru)

    def on_syscall(self):
        self.syscalls.append(self.context.syscall_number)

    def on_hostcall(self, index):
        self.hostcalls.append(index)

    def charge(self, event):
        self.cycles.charge(event)

    def run(self, n):
        for _ in range(n):
            step(self)


def build(writer) -> BareEnv:
    asm = Asm()
    writer(asm)
    return BareEnv(asm.assemble())


def test_mov_and_arith():
    env = build(lambda a: (a.mov_ri(Reg.RAX, 7), a.mov_ri(Reg.RBX, 5),
                           a.add_rr(Reg.RAX, Reg.RBX), a.sub_ri(Reg.RAX, 2)))
    env.run(4)
    assert env.context.get(Reg.RAX) == 10


def test_flags_and_conditional_branch():
    def writer(a):
        a.mov_ri(Reg.RCX, 3)
        a.label("top")
        a.dec(Reg.RCX)
        a.jne("top")
        a.mov_ri(Reg.RAX, 99)

    env = build(writer)
    env.run(1 + 3 * 2 + 1)
    assert env.context.get(Reg.RAX) == 99
    assert env.context.get(Reg.RCX) == 0


def test_push_pop_roundtrip():
    env = build(lambda a: (a.mov_ri(Reg.RAX, 0x1234), a.push(Reg.RAX),
                           a.pop(Reg.RBX)))
    rsp0 = None
    env.run(1)
    rsp0 = env.context.get(Reg.RSP)
    env.run(2)
    assert env.context.get(Reg.RBX) == 0x1234
    assert env.context.get(Reg.RSP) == rsp0


def test_call_pushes_return_address():
    def writer(a):
        a.call("fn")          # 5 bytes
        a.mov_ri(Reg.RBX, 1)  # return target
        a.label("fn")
        a.pop(Reg.RAX)        # grab the return address

    env = build(writer)
    env.run(2)
    assert env.context.get(Reg.RAX) == CODE_BASE + 5


def test_call_reg_and_ret():
    def writer(a):
        a.mov_ri(Reg.RAX, CODE_BASE + 100)
        a.call_reg(Reg.RAX)
        a.hlt()

    asm = Asm()
    writer(asm)
    code = bytearray(asm.assemble())
    code += b"\x90" * (100 - len(code))
    code += b"\xc3"  # ret at +100
    env = BareEnv(bytes(code))
    env.run(3)  # mov, call, ret
    # ret returns to the instruction after call_reg (5-byte mov + 2-byte call).
    assert env.context.rip == CODE_BASE + 7


def test_load_store_roundtrip():
    def writer(a):
        a.mov_ri(Reg.RDI, DATA_BASE)
        a.mov_ri(Reg.RAX, 0xDEADBEEF)
        a.store(Reg.RDI, Reg.RAX)
        a.load(Reg.RBX, Reg.RDI)

    env = build(writer)
    env.run(4)
    assert env.context.get(Reg.RBX) == 0xDEADBEEF
    assert env.space.read(DATA_BASE, 8) == struct.pack("<Q", 0xDEADBEEF)


def test_byte_store_load():
    def writer(a):
        a.mov_ri(Reg.RBX, DATA_BASE)
        a.mov_ri(Reg.RAX, 0x1FF)  # low byte 0xFF
        a.store8(Reg.RBX, Reg.RAX)
        a.load8(Reg.RCX, Reg.RBX)

    env = build(writer)
    env.run(4)
    assert env.context.get(Reg.RCX) == 0xFF


def test_lea_rip():
    def writer(a):
        a.lea_rip_label(Reg.RSI, "blob")
        a.hlt()
        a.label("blob")

    env = build(writer)
    env.run(1)
    assert env.context.get(Reg.RSI) == CODE_BASE + 8  # lea(7) + hlt(1)


def test_syscall_dispatches_to_env():
    env = build(lambda a: (a.mov_ri(Reg.RAX, 60), a.syscall_()))
    env.run(2)
    assert env.syscalls == [60]
    # RIP advanced past the 2-byte syscall before dispatch.
    assert env.context.rip == CODE_BASE + 5 + 2


def test_syscall_args_follow_the_abi_registers():
    from repro.arch.registers import SYSCALL_ARG_REGS

    ctx = CpuContext()
    for value, reg in enumerate(Reg, start=100):
        ctx.set(reg, value)
    for count in range(7):
        assert ctx.syscall_args(count) == \
            [ctx.get(reg) for reg in SYSCALL_ARG_REGS[:count]]
    assert ctx.syscall_args() == ctx.syscall_args(6)


def test_hostcall_dispatches_to_env():
    env = build(lambda a: a.hostcall(7))
    env.run(1)
    assert env.hostcalls == [7]


def test_rip_advances_before_execution():
    """A trampoline entered by callq *%rax must find site+2 on the stack."""
    def writer(a):
        a.mov_ri(Reg.RAX, CODE_BASE + 40)
        a.mark("site")
        a.call_reg(Reg.RAX)

    asm = Asm()
    writer(asm)
    site = asm.marks["site"]
    code = bytearray(asm.assemble())
    code += b"\x90" * (40 - len(code))
    code += b"\x58"  # pop rax at +40
    env = BareEnv(bytes(code))
    env.run(3)
    assert env.context.get(Reg.RAX) == CODE_BASE + site + 2


def test_faults_propagate():
    with pytest.raises(Breakpoint):
        build(lambda a: a.int3()).run(1)
    with pytest.raises(InvalidOpcode):
        build(lambda a: a.ud2()).run(1)
    with pytest.raises(Halt):
        build(lambda a: a.hlt()).run(1)


def test_exec_of_unmapped_memory_faults():
    env = build(lambda a: (a.mov_ri(Reg.RAX, 0x1234_0000),
                           a.jmp_reg(Reg.RAX)))
    env.run(2)
    with pytest.raises(SegmentationFault):
        env.run(1)


def test_instruction_event_charged():
    env = build(lambda a: (a.mov_ri(Reg.RAX, 1), a.mov_ri(Reg.RBX, 2),
                           a.ret()))
    env.run(3)
    assert env.cycles.counts[Event.INSTRUCTION] == 3


def test_nop_run_consumed_in_one_step():
    # A nop run models the trampoline sled: consumed in one step, charged
    # once (traversal cost lives in the TRAMPOLINE_SLED event).
    env = build(lambda a: (a.nop(200), a.mov_ri(Reg.RAX, 7)))
    env.run(1)
    assert env.context.rip == CODE_BASE + 200
    assert env.cycles.counts[Event.INSTRUCTION] == 1
    env.run(1)
    assert env.context.get(Reg.RAX) == 7


def test_serializing_instruction_flushes_icache():
    env = build(lambda a: (a.nop(), a.cpuid(), a.nop()))
    env.run(1)
    assert len(env.icache) > 0
    env.run(1)  # cpuid
    assert len(env.icache) == 0


def test_signed_compare_jl():
    def writer(a):
        a.mov_ri(Reg.RAX, 3)
        a.cmp_ri(Reg.RAX, 5)
        a.jl("less")
        a.mov_ri(Reg.RBX, 0)
        a.hlt()
        a.label("less")
        a.mov_ri(Reg.RBX, 1)

    env = build(writer)
    env.run(4)
    assert env.context.get(Reg.RBX) == 1
