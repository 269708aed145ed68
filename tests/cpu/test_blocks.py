"""Basic-block translation cache: record/replay semantics and coherence."""

import pytest

from repro.arch.assembler import Asm
from repro.arch.registers import Reg
from repro.cpu.blocks import BLOCK_MAX, run_unit
from repro.cpu.core import step
from repro.cpu.cycles import CycleModel, Event
from repro.cpu.icache import ICache
from repro.cpu.state import CpuContext
from repro.errors import SegmentationFault
from repro.memory import AddressSpace, PAGE_SIZE, Prot

CODE_BASE = 0x40_0000
DATA_BASE = 0x60_0000
STACK_TOP = 0x80_0000


class UnitEnv:
    """Bare execution environment speaking the block-executor protocol
    (``charge`` with a count, ``unit_retired``)."""

    def __init__(self, code: bytes):
        self.context = CpuContext()
        self.icache = ICache()
        self.space = AddressSpace()
        self.cycles = CycleModel()
        self.unit_retired = 0
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

    def charge(self, event, times=1):
        self.cycles.charge(event, times)

    def run_units(self, budget=100):
        """One scheduler-turn equivalent: units until *budget* retires."""
        done = 0
        while done < budget:
            done += run_unit(self, budget - done)
        return done


def build(writer) -> UnitEnv:
    asm = Asm()
    writer(asm)
    return UnitEnv(asm.assemble())


def writable_code(writer) -> UnitEnv:
    asm = Asm()
    writer(asm)
    env = build(writer)
    env.space.mprotect(CODE_BASE, PAGE_SIZE, Prot.READ | Prot.WRITE | Prot.EXEC)
    return env


# ---------------------------------------------------------------- recording


def test_first_visit_records_then_replays():
    def writer(a):
        a.label("top")
        a.mov_ri(Reg.RAX, 7)
        a.add_ri(Reg.RAX, 1)
        a.jmp("top")

    env = build(writer)
    n = run_unit(env, 100)
    assert n == 3
    assert env.icache.block_installs == 1
    assert env.icache.block_hits == 0
    n = run_unit(env, 100)
    assert n == 3
    assert env.icache.block_hits == 1
    assert env.context.get(Reg.RAX) == 8
    # Replay touched no new lines: hits/misses frozen after the recording.
    assert env.icache.misses == 3


def test_block_ends_at_terminator_and_charges_match():
    env = build(lambda a: (a.mov_ri(Reg.RAX, 60), a.mov_ri(Reg.RDI, 0),
                           a.syscall_(), a.mov_ri(Reg.RBX, 1)))
    n = run_unit(env, 100)
    assert n == 3                      # block ends at the syscall
    assert env.syscalls == [60]
    assert env.cycles.counts[Event.INSTRUCTION] == 3
    env.context.rip = CODE_BASE
    run_unit(env, 100)
    assert env.cycles.counts[Event.INSTRUCTION] == 6
    assert env.syscalls == [60, 60]


def test_budget_caps_replay_and_uncharges_tail():
    def writer(a):
        for i in range(10):
            a.mov_ri(Reg.RAX, i)
        a.ret()

    env = build(writer)
    env.context.set(Reg.RSP, STACK_TOP - 16)
    env.space.write(STACK_TOP - 16, (CODE_BASE).to_bytes(8, "little"))
    run_unit(env, 100)                  # record the 11-step block
    env.context.rip = CODE_BASE
    n = run_unit(env, 4)                # replay under a tight budget
    assert n == 4
    assert env.context.get(Reg.RAX) == 3
    assert env.context.rip == CODE_BASE + 4 * 5
    assert env.cycles.counts[Event.INSTRUCTION] == 11 + 4


def test_block_max_bounds_recording():
    def writer(a):
        for i in range(BLOCK_MAX + 20):
            a.mov_ri(Reg.RAX, i)
        a.ret()

    env = build(writer)
    n = run_unit(env, 1000)
    assert n == BLOCK_MAX
    block = env.icache.block_at(CODE_BASE)
    assert len(block.steps) == BLOCK_MAX


def test_nop_sled_is_cached_but_lands_live():
    env = build(lambda a: (a.nop(50), a.mov_ri(Reg.RAX, 9), a.ret()))
    n = run_unit(env, 100)
    assert n == 1                       # the whole sled, one instruction
    assert env.context.rip == CODE_BASE + 50
    assert env.cycles.counts[Event.INSTRUCTION] == 1
    assert env.icache.block_installs == 1
    block = env.icache.block_at(CODE_BASE)
    assert len(block.steps) == 1
    # A kernel store mid-sled invalidates nothing: the block caches only
    # the first nop's decode, and its slide re-reads memory.
    env.space.write_kernel(CODE_BASE + 20, b"\xcc")
    env.context.rip = CODE_BASE
    hits = env.icache.block_hits
    n = run_unit(env, 100)
    assert n == 1
    assert env.icache.block_hits == hits + 1
    assert env.icache.block_installs == 1
    assert env.context.rip == CODE_BASE + 20
    assert env.cycles.counts[Event.INSTRUCTION] == 2


def test_block_stops_before_nop_sled():
    env = build(lambda a: (a.mov_ri(Reg.RAX, 1), a.mov_ri(Reg.RBX, 2),
                           a.nop(10), a.ret()))
    n = run_unit(env, 100)
    assert n == 2                       # block ends before the sled
    block = env.icache.block_at(CODE_BASE)
    assert len(block.steps) == 2


# ------------------------------------------------------------- invalidation


def test_own_store_into_block_stops_replay_and_picks_up_new_bytes():
    # Self-modifying straight line: overwrite the upcoming mov_ri imm byte.
    def writer(a):
        a.mov_ri(Reg.RDI, 0)            # patched below to point into code
        a.mov_ri(Reg.RAX, 0x11)
        a.store8(Reg.RDI, Reg.RAX)      # same-core store into the block
        a.mov_ri(Reg.RBX, 0x00)         # target: imm byte patched to 0x11
        a.ret()

    env = writable_code(writer)
    # Point RDI at the imm32 LSB of the 4th instruction (mov_ri = opcode +
    # imm32 at +1; the preceding insns are 5+5+2 bytes).
    target = CODE_BASE + 12 + 1
    env.space.write_kernel(CODE_BASE + 1, target.to_bytes(4, "little"))
    env.icache.flush_all()

    single = writable_code(writer)
    single.space.write_kernel(CODE_BASE + 1, target.to_bytes(4, "little"))
    single.icache.flush_all()

    done = env.run_units(5)
    for _ in range(5):
        step(single)
    assert done == 5
    assert env.context.get(Reg.RBX) == single.context.get(Reg.RBX) == 0x11
    assert env.cycles.counts[Event.INSTRUCTION] == \
        single.cycles.counts[Event.INSTRUCTION]


def test_remote_store_leaves_block_stale():
    """P5: a writer that skips invalidation leaves this core replaying the
    old decode — identical to the single-step interpreter's stale line."""
    def writer(a):
        a.label("top")
        a.mov_ri(Reg.RAX, 1)
        a.jmp("top")

    block_env = build(writer)
    step_env = build(writer)
    for env in (block_env,):
        run_unit(env, 100)              # record (and execute once)
    for _ in range(2):
        step(step_env)                  # populate decoded lines

    # Remote core patches the imm32 without any icache shootdown.
    patch = (2).to_bytes(4, "little")
    block_env.space.write_kernel(CODE_BASE + 1, patch)
    step_env.space.write_kernel(CODE_BASE + 1, patch)

    run_unit(block_env, 100)
    step(step_env), step(step_env)
    assert block_env.context.get(Reg.RAX) == 1      # stale, not 2
    assert step_env.context.get(Reg.RAX) == 1       # identical staleness

    # A serializing instruction discards blocks with the lines.
    block_env.icache.flush_all()
    step_env.icache.flush_all()
    run_unit(block_env, 100)
    step(step_env), step(step_env)
    assert block_env.context.get(Reg.RAX) == 2
    assert step_env.context.get(Reg.RAX) == 2


def test_invalidate_range_drops_overlapping_block():
    env = build(lambda a: (a.mov_ri(Reg.RAX, 5), a.ret()))
    run_unit(env, 100)
    assert env.icache.block_at(CODE_BASE) is not None
    hits_before = env.icache.block_hits
    env.icache.invalidate_range(CODE_BASE + 2, 1)
    assert env.icache.block_at(CODE_BASE) is None
    assert env.icache.block_hits == hits_before      # misses are not hits


def test_replay_fault_uncharges_unexecuted_tail():
    asm = Asm()
    asm.mov_ri(Reg.RAX, 1)
    asm.mov_ri(Reg.RBX, 2)
    asm.load(Reg.RCX, Reg.RDX)          # faults when RDX is unmapped
    asm.mark("after_load")
    asm.mov_ri(Reg.RSI, 3)
    asm.ret()
    env = UnitEnv(asm.assemble())
    env.context.set(Reg.RDX, DATA_BASE)
    run_unit(env, 100)                  # records the full 5-step block
    charged = env.cycles.counts[Event.INSTRUCTION]
    assert charged == 5

    env.context.rip = CODE_BASE
    env.context.set(Reg.RDX, 0x1234_0000)   # unmapped
    with pytest.raises(SegmentationFault):
        run_unit(env, 100)
    # Single-step would charge mov, mov, and the faulting load: 3 more.
    assert env.cycles.counts[Event.INSTRUCTION] == charged + 3
    assert env.unit_retired == 3
    # RIP parity with single-step at fault time: advanced past the load.
    assert env.context.rip == CODE_BASE + asm.marks["after_load"]


def test_doomed_recording_is_not_installed():
    # cpuid mid-trace flushes the icache, dooming the in-progress block.
    env = build(lambda a: (a.mov_ri(Reg.RAX, 1), a.cpuid(), a.ret()))
    n = run_unit(env, 100)
    assert n == 2                       # cpuid is a terminator
    assert env.icache.block_installs == 0
    assert len(env.icache) == 0
