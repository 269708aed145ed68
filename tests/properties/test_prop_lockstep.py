"""Lockstep differential fuzz: block/engine-mode vs single-step execution.

Seeded random programs (assembled with :class:`repro.arch.assembler.Asm`)
run twice — once through the basic-block translation cache
(:func:`repro.cpu.blocks.run_unit`), once through the reference single-step
interpreter (:func:`repro.cpu.core.step`) — with the full architectural
state (rip, all 16 registers, flags, cycle counter, syscall/hostcall log,
data memory) compared after every unit boundary.  Cross-core
self-modifying-code scenarios (P5) patch the program mid-block from a
"remote writer" and assert both interpreters exhibit the *identical*
stale/torn behaviour.

The same differential harness drives the tiered execution engine
(:mod:`repro.cpu.engine`): every random program also runs under block
chaining, the trace JIT (hot-chain threshold lowered so traces compile
within a short program), and the trace JIT with every compile declined
(blocks stay chained), and dedicated self-modifying-code tortures store
into pages participating in linked chains and compiled traces, asserting
the invalidation protocol (chain unlink + superblock doom) *and*
bit-identical architectural state across every engine configuration.
"""

import random
from unittest import mock

import pytest

from repro.arch.assembler import Asm
from repro.arch.registers import Reg
from repro.cpu import blocks
from repro.cpu.blocks import run_unit
from repro.cpu.core import step
from repro.cpu.cycles import CycleModel, Event
from repro.cpu.engine import EngineConfig
from repro.cpu.icache import ICache
from repro.cpu.state import CpuContext
from repro.errors import Breakpoint, Halt, ReproError
from repro.memory import AddressSpace, PAGE_SIZE, Prot
from tests.simutil import HostcallLog

CODE_BASE = 0x40_0000
DATA_BASE = 0x60_0000
STACK_TOP = 0x80_0000

#: Registers the fuzzer scrambles (stack/data pointers stay sane).
SCRATCH = [Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX, Reg.RSI, Reg.R8, Reg.R9,
           Reg.R10]

#: The block-mode engine configurations.  ``None`` is the plain
#: one-block-per-unit path; ``declined`` is the full engine on an
#: environment without the trace-JIT ``mem_space`` contract, so every
#: compile is declined and hot chains keep running chained.
ENGINES = {
    "block": None,
    "chain": EngineConfig(trace_jit=False),
    "tracejit": EngineConfig(),
    "declined": EngineConfig(),
}


def tier(name: str) -> dict:
    """:func:`lockstep` keyword arguments selecting engine *name*."""
    return {"engine": ENGINES[name], "trace_contract": name != "declined"}


@pytest.fixture(autouse=True, scope="module")
def _hot_chains():
    """Lower the hot-chain threshold so traces compile within the short
    fuzz programs."""
    with mock.patch.object(blocks, "HOT_THRESHOLD", 2):
        yield


class FuzzEnv:
    """Kernel-less environment; syscalls/hostcalls just count."""

    def __init__(self, code: bytes, engine: EngineConfig = None,
                 code_prot: Prot = Prot.READ | Prot.EXEC,
                 trace_contract: bool = True):
        self.context = CpuContext()
        self.icache = ICache(engine=engine)
        self.space = AddressSpace()
        # The trace-JIT contract (repro.cpu.engine): mem_read/mem_write
        # below are exactly space.read/write(.., pkru=ctx.pkru).
        self.mem_space = self.space if trace_contract else None
        self.cycles = CycleModel()
        self.unit_retired = 0
        self.space.mmap(CODE_BASE, max(len(code), 1), code_prot,
                        name="code", fixed=True)
        self.space.write_kernel(CODE_BASE, code)
        self.space.mmap(DATA_BASE, PAGE_SIZE, Prot.READ | Prot.WRITE,
                        name="data", fixed=True)
        self.space.mmap(STACK_TOP - 16 * PAGE_SIZE, 16 * PAGE_SIZE,
                        Prot.READ | Prot.WRITE, name="stack", fixed=True)
        self.context.rip = CODE_BASE
        self.context.set(Reg.RSP, STACK_TOP - 64)
        self.context.set(Reg.RDI, DATA_BASE)
        self.syscalls = 0
        self.hostcall_table = HostcallLog()

    def mem_fetch(self, addr, n):
        return self.space.fetch(addr, n)

    def mem_read(self, addr, n):
        return self.space.read(addr, n, pkru=self.context.pkru)

    def mem_write(self, addr, data):
        self.space.write(addr, data, pkru=self.context.pkru)

    def on_syscall(self):
        self.syscalls += 1

    def state(self):
        ctx = self.context
        return (ctx.rip, tuple(ctx._regs), ctx.flags.zf, ctx.flags.sf,
                self.cycles.cycles, self.syscalls,
                len(self.hostcall_table.calls),
                bytes(self.space.read_kernel(DATA_BASE, 64)))

    def charge(self, event, times=1):
        self.cycles.charge(event, times)


def random_program(rng: random.Random) -> bytes:
    """A terminating random SimX86 program: a bounded counted loop whose
    body mixes arithmetic, memory traffic, stack ops, forward branches,
    syscalls, and nop sleds."""
    asm = Asm()
    asm.mov_ri(Reg.RCX, rng.randrange(2, 6))        # outer trip count
    asm.label("loop")
    body = rng.randrange(4, 14)
    for i in range(body):
        pick = rng.randrange(12)
        reg = rng.choice(SCRATCH)
        src = rng.choice(SCRATCH)
        if pick == 0:
            asm.mov_ri(reg, rng.randrange(0, 1 << 31))
        elif pick == 1:
            asm.add_rr(reg, src)
        elif pick == 2:
            asm.sub_ri(reg, rng.randrange(0, 1000))
        elif pick == 3:
            asm.xor_rr(reg, src)
        elif pick == 4:
            asm.store(Reg.RDI, reg)                  # 8-byte store
        elif pick == 5:
            asm.load(reg, Reg.RDI)
        elif pick == 6:
            asm.push(reg)
            asm.pop(src)
        elif pick == 7:
            asm.nop(rng.randrange(1, 8))             # single-byte nop sled
        elif pick == 8:
            skip = f"skip_{i}_{rng.randrange(1 << 30)}"
            asm.test_rr(reg, reg)
            asm.je(skip)
            asm.inc(src)
            asm.label(skip)
        elif pick == 9:
            asm.mov_ri(Reg.RAX, rng.randrange(0, 300))
            asm.syscall_()
        elif pick == 10:
            asm.inc(reg)
        else:
            asm.cmp_ri(reg, rng.randrange(0, 100))
    asm.dec(Reg.RCX)
    asm.jne("loop")
    asm.hlt()
    return asm.assemble()


def lockstep(code: bytes, max_insns: int = 4000, quantum: int = 100,
             patch=None, engine: EngineConfig = None,
             code_prot: Prot = Prot.READ | Prot.EXEC,
             trace_contract: bool = True):
    """Run *code* through both interpreters, comparing state at every unit
    boundary.  ``patch(space)`` (if given) fires once after ``quantum``
    retired instructions, modelling a remote-core writer (no icache
    shootdown — P5).  *engine* selects the execution tiers on the
    block-mode side (*trace_contract* False declines every trace
    compile); the reference side always single-steps."""
    block_env = FuzzEnv(code, engine=engine, code_prot=code_prot,
                        trace_contract=trace_contract)
    step_env = FuzzEnv(code, code_prot=code_prot)
    retired = 0
    patched = False
    block_err = None
    while retired < max_insns:
        try:
            n = run_unit(block_env, quantum)
        except ReproError as exc:
            block_err = exc
            n = block_env.unit_retired
        # Mirror the exact retire count on the reference interpreter; if the
        # block side faulted, its n-th instruction must fault identically.
        for _ in range(n if block_err is None else n - 1):
            step(step_env)
        if block_err is not None:
            with pytest.raises(type(block_err)):
                step(step_env)
        assert block_env.state() == step_env.state(), \
            f"diverged after {retired}+{n} insns"
        if block_err is not None:
            break
        retired += n
        if patch is not None and not patched and retired >= quantum:
            patch(block_env.space)
            patch(step_env.space)
            patched = True
    return block_env, step_env


@pytest.mark.parametrize("seed", range(12))
def test_lockstep_random_programs(seed):
    rng = random.Random(1000 + seed)
    code = random_program(rng)
    block_env, step_env = lockstep(code)
    assert block_env.state() == step_env.state()


@pytest.mark.parametrize("seed", range(6))
def test_lockstep_with_remote_patch_mid_block(seed):
    """P5: a remote writer flips an imm byte inside already-recorded code
    with no invalidation; both interpreters must stay (identically) stale."""
    rng = random.Random(7000 + seed)
    code = random_program(rng)

    def patch(space):
        # Flip the low imm byte of the trip-count mov at the entry: a
        # single-byte store into a multi-byte instruction, no shootdown.
        space.write_kernel(CODE_BASE + 1, b"\x01")

    block_env, step_env = lockstep(code, patch=patch)
    assert block_env.state() == step_env.state()


def test_lockstep_torn_two_byte_patch():
    """The lazypoline-style torn window: a remote writer replaces a 2-byte
    ``syscall`` one byte at a time, with a serializing flush landing while
    the patch is half-applied.  Both interpreters must stay stale through
    the first byte, then decode the identical torn sequence after the
    flush and fault at the same address."""
    asm = Asm()
    asm.mov_ri(Reg.RCX, 64)
    asm.label("loop")
    asm.mov_ri(Reg.RAX, 39)
    asm.mark("site")
    asm.syscall_()               # the 2-byte patch target: 0f 05
    asm.inc(Reg.RBX)
    asm.dec(Reg.RCX)
    asm.jne("loop")
    asm.hlt()
    code = asm.assemble()
    site = CODE_BASE + asm.marks["site"]

    block_env = FuzzEnv(code)
    step_env = FuzzEnv(code)

    def mirror(budget):
        n = run_unit(block_env, budget)
        for _ in range(n):
            step(step_env)
        assert block_env.state() == step_env.state()
        return n

    # A few loop iterations so lines are decoded and blocks installed.
    done = 0
    while block_env.syscalls < 4:
        done += mirror(10)
    assert block_env.icache.block_hits > 0

    # Remote writer lands byte one of the patch (0f 05 -> cc 05): the torn
    # window.  No shootdown — both cores keep executing the stale syscall.
    for env in (block_env, step_env):
        env.space.write_kernel(site, b"\xcc")
    stale_syscalls = block_env.syscalls
    while block_env.syscalls < stale_syscalls + 3:
        mirror(10)
    assert step_env.syscalls == block_env.syscalls > stale_syscalls

    # A serializing flush on both cores lands INSIDE the torn window: both
    # now fetch the half-patched bytes and fault identically at the int3.
    block_env.icache.flush_all()
    step_env.icache.flush_all()
    block_err = step_err = None
    try:
        for _ in range(64):
            run_unit(block_env, 10)
    except Breakpoint as exc:
        block_err = exc
    try:
        for _ in range(640):
            step(step_env)
    except Breakpoint as exc:
        step_err = exc
    assert block_err is not None and step_err is not None
    assert block_err.address == step_err.address == site
    assert block_env.state() == step_env.state()


# --------------------------------------------------------- engine tiers


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("seed", range(6))
def test_lockstep_engine_tiers(seed, engine):
    """Every tier (chaining, trace JIT, declined compiles) stays in
    lockstep with the single-step reference on random programs."""
    rng = random.Random(3000 + seed)
    code = random_program(rng)
    block_env, step_env = lockstep(code, **tier(engine))
    assert block_env.state() == step_env.state()


def _smc_chain_trace_program() -> Asm:
    """A hot loop (chains, forms a superblock, compiles a trace), then a
    same-core one-byte store *into that loop's code*, then a second hot
    loop.  The store writes the byte's existing value — the bytes do not
    change, but the invalidation protocol must fire all the same."""
    asm = Asm()
    asm.mov_ri(Reg.RCX, 24)
    asm.mark("hot")
    asm.label("hot")
    asm.inc(Reg.RAX)
    asm.add_rr(Reg.RBX, Reg.RAX)
    asm.dec(Reg.RCX)
    asm.jne("hot")
    asm.lea_rip_label(Reg.RSI, "hot")
    asm.mov_ri(Reg.RDX, 0x48)        # the REX.W byte of `inc rax` at hot
    asm.store8(Reg.RSI, Reg.RDX)
    asm.mov_ri(Reg.RCX, 24)
    asm.label("second")
    asm.inc(Reg.RAX)
    asm.add_rr(Reg.RBX, Reg.RAX)
    asm.dec(Reg.RCX)
    asm.jne("second")
    asm.hlt()
    return asm


@pytest.mark.parametrize("engine", list(ENGINES))
def test_smc_torture_lockstep(engine):
    """P5-style torture: the store into the chained/traced loop page must
    leave architectural state identical to single-stepping under every
    engine configuration."""
    code = _smc_chain_trace_program().assemble()
    block_env, step_env = lockstep(code, **tier(engine),
                                   code_prot=Prot.READ | Prot.WRITE
                                   | Prot.EXEC)
    assert block_env.state() == step_env.state()


def test_smc_torture_unlinks_chain_and_dooms_trace():
    """The same program, instrumented: the hot loop's superblock must have
    compiled a trace before the store, and the store must doom it (and
    unlink chained blocks) via the ordinary invalidation path."""
    asm = _smc_chain_trace_program()
    code = asm.assemble()
    hot_entry = CODE_BASE + asm.marks["hot"]
    env = FuzzEnv(code, engine=ENGINES["tracejit"],
                  code_prot=Prot.READ | Prot.WRITE | Prot.EXEC)
    doomed_sb = None
    halted = False
    while not halted:
        try:
            run_unit(env, 100)
        except Halt:
            halted = True
        if doomed_sb is None:
            block = env.icache._blocks.get(hot_entry)
            if block is not None and block.superblock is not None:
                doomed_sb = block.superblock
    assert doomed_sb is not None, "hot loop never formed a superblock"
    assert doomed_sb.trace not in (None, False), \
        "hot loop superblock never compiled a trace"
    assert not doomed_sb.valid, "store into the loop page did not doom"
    ic = env.icache
    assert ic.traces_compiled >= 1 and ic.trace_hits >= 1
    assert ic.chain_follows >= 1
    assert ic.invalidation_unlinks >= 1


@pytest.mark.parametrize("engine", list(ENGINES))
def test_smc_store_inside_hot_loop(engine):
    """A loop whose body stores into its *own* code span every iteration.

    The store dooms each in-progress block recording (the PR 2 rec-doom
    protocol), so no block — and hence no chain, superblock, or trace —
    is ever installed over the continuously-rewritten span; execution
    degrades to safe re-recording and must match single-stepping
    exactly under every engine configuration."""
    asm = Asm()
    asm.mov_ri(Reg.RCX, 30)
    asm.lea_rip_label(Reg.RSI, "site")
    asm.mov_ri(Reg.RDX, 0x90)        # nop — byte value is unchanged
    asm.label("loop")
    asm.store8(Reg.RSI, Reg.RDX)
    asm.label("site")
    asm.nop()
    asm.inc(Reg.RAX)
    asm.dec(Reg.RCX)
    asm.jne("loop")
    asm.hlt()
    code = asm.assemble()
    block_env, step_env = lockstep(code, **tier(engine),
                                   code_prot=Prot.READ | Prot.WRITE
                                   | Prot.EXEC)
    assert block_env.state() == step_env.state()
