"""Tiered execution engine: chaining and the trace JIT.

Unit tests for :mod:`repro.cpu.engine` / :mod:`repro.cpu.tracejit` at
the mechanism level — the lockstep fuzzer
(tests/properties/test_prop_lockstep.py) covers whole-program
conformance; this file pins down the individual moving parts: edge
installation and re-validation, superblock formation boundaries, batch
charge/un-charge accounting, guard-failure fallback, invalidation
dooming, and the declined-compile fallback to chaining.
"""

from unittest import mock

import pytest

from repro.arch.assembler import Asm
from repro.arch.registers import Reg
from repro.cpu import blocks, engine as engine_mod
from repro.cpu.blocks import run_unit
from repro.cpu.cycles import CycleModel, Event
from repro.cpu.engine import EngineConfig
from repro.cpu.icache import ICache, TERM_END
from repro.cpu.state import CpuContext
from repro.memory import AddressSpace, PAGE_SIZE, Prot
from tests.simutil import HostcallLog

CODE_BASE = 0x40_0000
DATA_BASE = 0x60_0000
STACK_TOP = 0x80_0000


def hot():
    """Lower the hot-chain threshold so short test programs compile
    traces (a patch usable as a context manager or decorator)."""
    return mock.patch.object(blocks, "HOT_THRESHOLD", 2)


@pytest.fixture(autouse=True, scope="module")
def _hot_module():
    with hot():
        yield


class EngineEnv:
    """Execution environment with a tier-enabled icache and the trace-JIT
    ``mem_space`` contract."""

    def __init__(self, code: bytes, engine=None,
                 code_prot=Prot.READ | Prot.EXEC):
        self.context = CpuContext()
        self.icache = ICache(engine=engine)
        self.space = AddressSpace()
        self.mem_space = self.space
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
        self.context.set(Reg.RSP, STACK_TOP - 16)
        self.context.set(Reg.RDI, DATA_BASE)
        self.syscalls = []
        self.hostcall_table = HostcallLog()

    def mem_fetch(self, addr, n):
        return self.space.fetch(addr, n)

    def mem_read(self, addr, n):
        return self.space.read(addr, n, pkru=self.context.pkru)

    def mem_write(self, addr, data):
        self.space.write(addr, data, pkru=self.context.pkru)

    def on_syscall(self):
        self.syscalls.append(self.context.syscall_number)

    def charge(self, event, times=1):
        self.cycles.charge(event, times)

    def run(self, units, budget=100):
        total = 0
        for _ in range(units):
            total += run_unit(self, budget)
        return total


def build(writer, engine=None, **kwargs) -> EngineEnv:
    asm = Asm()
    writer(asm)
    return EngineEnv(asm.assemble(), engine=engine, **kwargs)


def run_to_halt(env):
    """Run *env* unit by unit until its program faults or halts."""
    try:
        while True:
            env.run(1)
    except Exception:
        pass
    return env


def counted_loop(trips=300):
    """A hot self-looping block: body, then a conditional back-edge."""
    def writer(a):
        a.mov_ri(Reg.RCX, trips)
        a.mark("loop")
        a.label("loop")
        a.inc(Reg.RAX)
        a.add_rr(Reg.RBX, Reg.RAX)
        a.dec(Reg.RCX)
        a.jne("loop")
        a.hlt()
    return writer


def loop_entry(trips=300) -> int:
    """Code address of ``counted_loop``'s back-edge target."""
    asm = Asm()
    counted_loop(trips)(asm)
    asm.assemble()
    return CODE_BASE + asm.marks["loop"]


# ----------------------------------------------------------- configuration


def test_config_tier_hierarchy():
    assert EngineConfig(chain=False).trace_jit is False
    full = EngineConfig()
    assert full.chain and full.trace_jit
    # Superblocks form only to be compiled: the flag follows the JIT.
    assert full.flags() == {"chain": True, "superblock": True,
                            "trace_jit": True}
    assert EngineConfig(trace_jit=False).flags()["superblock"] is False
    assert full.tiers(True) == "chain+superblock+trace_jit"
    assert EngineConfig(trace_jit=False).tiers(True) == "chain"
    assert EngineConfig(chain=False).tiers(True) == "block-cache"
    assert full.tiers(False) == "single-step"


def _pin_hatches(monkeypatch):
    # Pin every hatch so the test holds when the suite itself runs under
    # one (the CI engine-matrix job does exactly that).
    for hatch in engine_mod.HATCHES:
        monkeypatch.delenv(hatch, raising=False)


def test_config_from_env(monkeypatch):
    _pin_hatches(monkeypatch)
    monkeypatch.setenv("REPRO_NO_TRACE_JIT", "1")
    monkeypatch.setenv("REPRO_NO_BLOCK_CACHE", "1")
    config = EngineConfig.from_env()
    assert config.chain is True
    assert config.trace_jit is False
    assert config.block_cache is False
    assert config.flags() == {"chain": True, "superblock": False,
                              "trace_jit": False}
    monkeypatch.delenv("REPRO_NO_BLOCK_CACHE")
    assert EngineConfig.from_env().block_cache is True


def test_config_rejects_stale_hatch(monkeypatch):
    """A hatch of a deleted tier must fail loudly, not silently select
    the full engine."""
    _pin_hatches(monkeypatch)
    monkeypatch.setenv("REPRO_NO_SUPERBLOCK", "1")
    with pytest.raises(ValueError) as excinfo:
        EngineConfig.from_env()
    message = str(excinfo.value)
    assert "REPRO_NO_SUPERBLOCK" in message
    for hatch in ("REPRO_NO_CHAIN", "REPRO_NO_TRACE_JIT",
                  "REPRO_NO_BLOCK_CACHE"):
        assert hatch in message


# ---------------------------------------------------------------- chaining


def test_chain_links_and_follows():
    env = build(counted_loop(), engine=EngineConfig(trace_jit=False))
    env.run(4)
    ic = env.icache
    assert ic.chain_links >= 1
    assert ic.chain_follows >= 1
    # The loop back-edge block chains to itself via the cond edge.
    loop_block = ic._blocks[loop_entry()]
    assert loop_block.succ is loop_block


def test_chain_disabled_is_one_block_per_unit():
    engine = EngineConfig(chain=False)
    env = run_to_halt(build(counted_loop(), engine=engine))
    assert env.icache.chain_follows == 0
    assert env.icache.superblocks_formed == 0


def test_stale_edge_revalidates_not_misexecutes():
    """A dropped successor is rejected by the succ.valid check and the
    chain falls back to the dictionary lookup."""
    engine = EngineConfig(trace_jit=False)
    env = build(counted_loop(), engine=engine)
    env.run(4)
    ic = env.icache
    loop_block = ic._blocks[loop_entry()]
    ic._drop_block(loop_block)
    assert not loop_block.valid
    before = env.context.get(Reg.RAX)
    env.run(2)          # must re-record / re-look-up, not follow the corpse
    assert env.context.get(Reg.RAX) > before
    fresh = env.icache._blocks[loop_entry()]
    assert fresh is not loop_block and fresh.valid


# -------------------------------------------------------------- superblocks


def test_superblock_forms_after_threshold():
    engine = EngineConfig()
    env = build(counted_loop(), engine=engine)
    env.run(8)
    ic = env.icache
    assert ic.superblocks_formed >= 1
    assert ic.traces_compiled == ic.superblocks_formed
    assert ic.superblock_hits >= 1
    sb = next(b.superblock for b in ic._blocks.values()
              if b.superblock is not None)
    assert sb.valid
    assert sb.n_steps == sum(len(b.steps) for b in sb.blocks)
    for member in sb.blocks:
        assert sb in member.sbs


def test_superblock_formation_stops_at_term_end():
    """Blocks ending in syscalls terminate formation: the scheduler must
    get control back."""
    def writer(a):
        a.mov_ri(Reg.RCX, 30)
        a.label("loop")
        a.mov_ri(Reg.RAX, 39)
        a.syscall_()
        a.dec(Reg.RCX)
        a.jne("loop")
        a.hlt()
    engine = EngineConfig()
    env = build(writer, engine=engine)
    env.run(30)
    for block in env.icache._blocks.values():
        sb = block.superblock
        if sb is None:
            continue
        # No *interior* constituent may end the unit.
        for member in sb.blocks[:-1]:
            assert member.term != TERM_END


def test_superblock_batch_charge_matches_per_block():
    """Total INSTRUCTION count is identical whether the loop retires via
    superblocks or plain blocks (the zero-residual decomposition)."""
    def run_with(engine):
        env = run_to_halt(build(counted_loop(25), engine=engine))
        return env.cycles.counts[Event.INSTRUCTION], env.cycles.cycles

    plain = run_with(None)
    chained = run_with(EngineConfig(trace_jit=False))
    jit = run_with(EngineConfig())
    assert plain == chained == jit


def test_guard_failure_falls_back():
    """A conditional *interior* to a superblock that goes the un-recorded
    way exits early with the tail un-charged.  The syscall block after
    the conditional ends the superblock (TERM_END), so the ``je`` cannot
    be the natural tail exit — its wrong-way branch must be a guard
    failure."""
    def writer(a):
        a.mov_ri(Reg.RCX, 40)
        a.label("loop")
        a.cmp_ri(Reg.RCX, 20)
        a.je("late")            # not-taken while hot, taken at RCX=20
        a.mov_ri(Reg.RAX, 39)
        a.syscall_()
        a.label("back")
        a.dec(Reg.RCX)
        a.jne("loop")
        a.hlt()
        a.label("late")
        a.inc(Reg.RBX)
        a.jmp("back")
    engine = EngineConfig()
    env = build(writer, engine=engine)
    ref = build(writer, engine=None)
    for e in (env, ref):
        run_to_halt(e)
    assert env.icache.guard_fails >= 1
    assert env.context.get(Reg.RBX) == ref.context.get(Reg.RBX) == 1
    assert len(env.syscalls) == len(ref.syscalls) == 39
    assert env.cycles.cycles == ref.cycles.cycles


def test_invalidation_dooms_superblock_and_reheats():
    engine = EngineConfig()
    env = build(counted_loop(), engine=engine)
    env.run(8)
    ic = env.icache
    head = next(b for b in ic._blocks.values() if b.superblock is not None)
    sb = head.superblock
    member = sb.blocks[-1]
    ic.invalidate_range(member.entry, 1)
    assert not sb.valid
    assert head.superblock is None
    assert head.heat == 0
    assert ic.invalidation_unlinks >= 1


def test_flush_all_dooms_superblocks():
    engine = EngineConfig()
    env = build(counted_loop(), engine=engine)
    env.run(8)
    ic = env.icache
    sb = next(b.superblock for b in ic._blocks.values()
              if b.superblock is not None)
    ic.flush_all()
    assert not sb.valid


# ---------------------------------------------------------------- trace JIT


def test_trace_compiles_and_matches_interpreter():
    def writer(a):
        a.mov_ri(Reg.RCX, 30)
        a.label("loop")
        a.inc(Reg.RAX)
        a.store(Reg.RDI, Reg.RAX)
        a.load(Reg.RBX, Reg.RDI)
        a.push(Reg.RBX)
        a.pop(Reg.RDX)
        a.dec(Reg.RCX)
        a.jne("loop")
        a.hlt()
    jit_env = build(writer, engine=EngineConfig())
    ref_env = build(writer, engine=None)
    for env in (jit_env, ref_env):
        run_to_halt(env)
    assert jit_env.icache.traces_compiled >= 1
    assert jit_env.icache.trace_hits >= 1
    assert tuple(jit_env.context._regs) == tuple(ref_env.context._regs)
    assert jit_env.cycles.cycles == ref_env.cycles.cycles
    assert jit_env.space.read_kernel(DATA_BASE, 8) == \
        ref_env.space.read_kernel(DATA_BASE, 8)


def test_trace_requires_mem_space_contract():
    """Environments without a ``mem_space`` attribute never get traces
    compiled: the declined superblock is never dispatched, and its blocks
    keep running chained — exactly like a chain-only engine."""
    env = build(counted_loop(60), engine=EngineConfig())
    del env.mem_space
    run_to_halt(env)
    chained = run_to_halt(build(counted_loop(60),
                                engine=EngineConfig(trace_jit=False)))
    ic = env.icache
    assert ic.superblocks_formed >= 1
    assert ic.traces_compiled == 0
    assert ic.superblock_hits == 0
    assert ic.chain_follows > 0
    assert tuple(env.context._regs) == tuple(chained.context._regs)
    assert env.cycles.cycles == chained.cycles.cycles


def test_superblock_hits_are_trace_hits():
    """A superblock is only ever dispatched as its compiled trace."""
    env = build(counted_loop(), engine=EngineConfig())
    run_to_halt(env)
    ic = env.icache
    assert ic.trace_hits > 0
    assert ic.superblock_hits == ic.trace_hits


def test_trace_doomed_by_invalidation_mid_run():
    """A store into a compiled trace's span dooms it; the next dispatch
    re-forms from scratch instead of replaying stale code."""
    engine = EngineConfig()
    env = build(counted_loop(500), engine=engine,
                code_prot=Prot.READ | Prot.WRITE | Prot.EXEC)
    env.run(10)
    ic = env.icache
    assert ic.traces_compiled >= 1
    head = next(b for b in ic._blocks.values() if b.superblock is not None)
    sb = head.superblock
    assert sb.trace not in (None, False)
    ic.invalidate_range(sb.blocks[0].entry, 1)
    assert not sb.valid
    before = env.context.get(Reg.RAX)
    env.run(4)
    assert env.context.get(Reg.RAX) > before


# ------------------------------------------------------- formation details


@mock.patch.object(engine_mod, "SUPERBLOCK_MAX", 4)
def test_form_superblock_respects_max():
    engine = EngineConfig()
    env = build(counted_loop(), engine=engine)
    env.run(8)
    for block in env.icache._blocks.values():
        if block.superblock is not None:
            assert block.superblock.n_steps <= 4


def test_superblock_loop_closure_stops_at_seen_entry():
    """Following the self-loop's cond edge must stop when the entry
    revisits — a superblock never contains the same block twice."""
    engine = EngineConfig()
    env = build(counted_loop(), engine=engine)
    env.run(8)
    formed = 0
    for block in env.icache._blocks.values():
        sb = block.superblock
        if sb is not None:
            formed += 1
            entries = [b.entry for b in sb.blocks]
            assert len(entries) == len(set(entries))
    assert formed >= 1
