"""Per-mnemonic dispatch: instruction semantics as pre-bound closures.

The seed interpreter dispatched every instruction through a ~30-arm
``if``/``elif`` chain in :func:`repro.cpu.core.step`.  This module replaces
that chain with a *compiler table*: :data:`COMPILERS` maps each
:class:`~repro.arch.isa.Mnemonic` to a function that takes the decoded
:class:`~repro.arch.isa.Instruction` once and returns an executor closure
``fn(env, ctx)`` with the operands already bound.  The closure is the single
source of the instruction's semantics — the single-step path
(:func:`repro.cpu.core.step`) and the basic-block translation cache
(:mod:`repro.cpu.blocks`) both execute the *same* closure, so the two
execution modes cannot drift apart.

Closures are compiled once per distinct fetched byte window per process
(:func:`repro.cpu.icache.decode_line` memoises ``(raw, insn, fn)`` lines,
which each :class:`~repro.cpu.icache.ICache` then caches by address), so
steady-state execution pays one dict lookup instead of re-walking a
dispatch chain per retired instruction.  Executors must therefore stay
stateless: everything they touch arrives through ``(env, ctx)``.

Execution environment contract (duck-typed, see
:class:`repro.kernel.process.Thread`): ``context``, ``icache``,
``mem_fetch``/``mem_read``/``mem_write``, ``on_syscall``, ``on_hostcall``,
``charge``.
"""

from __future__ import annotations

import re
import struct
from typing import Callable, Dict

from repro.arch.isa import (
    BRANCH_MNEMONICS,
    Cond,
    Instruction,
    Mnemonic,
)
from repro.arch.registers import Reg
from repro.errors import (
    Breakpoint,
    Halt,
    InvalidOpcode,
    ProtectionKeyFault,
    SegmentationFault,
)
from repro.memory.pages import PAGE_SIZE

_MASK64 = (1 << 64) - 1
_PACK_Q = struct.Struct("<Q").pack
_UNPACK_Q = struct.Struct("<Q").unpack

#: An executor closure: runs one instruction against (env, ctx).  By the
#: time it is called, RIP has already been advanced past the instruction
#: and the INSTRUCTION event charged — matching hardware retire order.
Executor = Callable[[object, object], None]

#: Mnemonics that end a basic block: control transfers, kernel/host
#: entries, serializing instructions, and the faulting trio.  A single-byte
#: NOP (the :func:`slide_nops` executor) is a block of its own instead:
#: its decode is cached like any other line, but the slide re-reads live
#: memory on every execution (:mod:`repro.cpu.blocks`).
BLOCK_TERMINATORS = frozenset(BRANCH_MNEMONICS) | {
    Mnemonic.SYSCALL,
    Mnemonic.SYSENTER,
    Mnemonic.HOSTCALL,
    Mnemonic.CPUID,
    Mnemonic.MFENCE,
    Mnemonic.INT3,
    Mnemonic.UD2,
    Mnemonic.HLT,
}


def cond_met(cond: Cond, flags) -> bool:
    """Evaluate a condition code against the ZF/SF flags model."""
    if cond is Cond.E:
        return flags.zf
    if cond is Cond.NE:
        return not flags.zf
    if cond is Cond.L:
        return flags.sf
    if cond is Cond.GE:
        return not flags.sf
    if cond is Cond.LE:
        return flags.zf or flags.sf
    if cond is Cond.G:
        return not (flags.zf or flags.sf)
    if cond is Cond.S:
        return flags.sf
    if cond is Cond.NS:
        return not flags.sf
    raise InvalidOpcode(0, f"unsupported condition {cond.name}")


# --------------------------------------------------------------- primitives


def _store(env, addr: int, data: bytes) -> None:
    env.mem_write(addr, data)
    # x86 local coherence: the storing core sees its own modification.
    env.icache.invalidate_range(addr, len(data))


def _push(env, ctx, value: int) -> None:
    rsp = (ctx.get(Reg.RSP) - 8) & _MASK64
    ctx.set(Reg.RSP, rsp)
    env.mem_write(rsp, _PACK_Q(value & _MASK64))


def _pop(env, ctx) -> int:
    rsp = ctx.get(Reg.RSP)
    value = _UNPACK_Q(env.mem_read(rsp, 8))[0]
    ctx.set(Reg.RSP, (rsp + 8) & _MASK64)
    return value


# ---------------------------------------------------------------- compilers


#: Length of the single-byte nop run at the start of a byte string.
_NOP_RUN = re.compile(rb"\x90*").match


def slide_nops(env, ctx) -> None:
    """Executor of every single-byte nop.

    Interpreter optimization: consume the run of single-byte nops (the
    4,090-byte trampoline sled at address 0) in one step, with one fetch
    (its EXEC check) and one compiled-regex match per page; a short run or
    a fetch fault ends it.  The run retires as one instruction: sled
    traversal cost is the TRAMPOLINE_SLED event the interposer handlers
    charge (zpoline's jump-optimized trampoline costs near-constant time
    in the landing offset).  The run is re-read from live memory on every
    execution, so a cached block holding this executor still stops at a
    byte stored into the sled after it was recorded.
    """
    while True:
        rip = ctx.rip
        try:
            chunk = env.mem_fetch(rip, PAGE_SIZE - rip % PAGE_SIZE)
        except (SegmentationFault, ProtectionKeyFault):
            return
        run_len = _NOP_RUN(chunk).end()
        ctx.rip = (rip + run_len) & _MASK64
        if run_len < len(chunk):
            return


def _run_wide_nop(env, ctx) -> None:
    pass  # multi-byte nop / endbr64: no side effects


def _c_nop(insn: Instruction) -> Executor:
    return slide_nops if insn.length == 1 else _run_wide_nop


def _c_mov_ri(insn: Instruction) -> Executor:
    reg, imm = insn.reg, insn.imm

    def run(env, ctx):
        ctx.set(reg, imm)
    return run


def _c_mov_rr(insn: Instruction) -> Executor:
    reg, rm = insn.reg, insn.rm

    def run(env, ctx):
        ctx.set(reg, ctx.get(rm))
    return run


def _c_mov_load(insn: Instruction) -> Executor:
    reg, rm = insn.reg, insn.rm

    def run(env, ctx):
        ctx.set(reg, _UNPACK_Q(env.mem_read(ctx.get(rm), 8))[0])
    return run


def _c_mov_store(insn: Instruction) -> Executor:
    reg, rm = insn.reg, insn.rm

    def run(env, ctx):
        _store(env, ctx.get(rm), _PACK_Q(ctx.get(reg)))
    return run


def _c_mov_load8(insn: Instruction) -> Executor:
    reg, rm = insn.reg, insn.rm

    def run(env, ctx):
        ctx.set(reg, env.mem_read(ctx.get(rm), 1)[0])
    return run


def _c_mov_store8(insn: Instruction) -> Executor:
    reg, rm = insn.reg, insn.rm

    def run(env, ctx):
        _store(env, ctx.get(rm), bytes([ctx.get(reg) & 0xFF]))
    return run


def _c_lea_rip(insn: Instruction) -> Executor:
    reg, rel = insn.reg, insn.rel

    def run(env, ctx):
        ctx.set(reg, (ctx.rip + rel) & _MASK64)
    return run


def _c_add_rr(insn: Instruction) -> Executor:
    reg, rm = insn.reg, insn.rm

    def run(env, ctx):
        result = ctx.get(reg) + ctx.get(rm)
        ctx.set(reg, result)
        ctx.flags.set_from_result(result)
    return run


def _c_sub_rr(insn: Instruction) -> Executor:
    reg, rm = insn.reg, insn.rm

    def run(env, ctx):
        result = ctx.get(reg) - ctx.get(rm)
        ctx.set(reg, result)
        ctx.flags.set_from_result(result)
    return run


def _c_cmp_rr(insn: Instruction) -> Executor:
    reg, rm = insn.reg, insn.rm

    def run(env, ctx):
        ctx.flags.set_from_result(ctx.get(reg) - ctx.get(rm))
    return run


def _c_xor_rr(insn: Instruction) -> Executor:
    reg, rm = insn.reg, insn.rm

    def run(env, ctx):
        result = ctx.get(reg) ^ ctx.get(rm)
        ctx.set(reg, result)
        ctx.flags.set_from_result(result)
    return run


def _c_test_rr(insn: Instruction) -> Executor:
    reg, rm = insn.reg, insn.rm

    def run(env, ctx):
        ctx.flags.set_from_result(ctx.get(reg) & ctx.get(rm))
    return run


def _c_add_ri(insn: Instruction) -> Executor:
    reg, imm = insn.reg, insn.imm

    def run(env, ctx):
        result = ctx.get(reg) + imm
        ctx.set(reg, result)
        ctx.flags.set_from_result(result)
    return run


def _c_sub_ri(insn: Instruction) -> Executor:
    reg, imm = insn.reg, insn.imm

    def run(env, ctx):
        result = ctx.get(reg) - imm
        ctx.set(reg, result)
        ctx.flags.set_from_result(result)
    return run


def _c_cmp_ri(insn: Instruction) -> Executor:
    reg, imm = insn.reg, insn.imm

    def run(env, ctx):
        ctx.flags.set_from_result(ctx.get(reg) - imm)
    return run


def _c_inc(insn: Instruction) -> Executor:
    reg = insn.reg

    def run(env, ctx):
        result = ctx.get(reg) + 1
        ctx.set(reg, result)
        ctx.flags.set_from_result(result)
    return run


def _c_dec(insn: Instruction) -> Executor:
    reg = insn.reg

    def run(env, ctx):
        result = ctx.get(reg) - 1
        ctx.set(reg, result)
        ctx.flags.set_from_result(result)
    return run


def _c_push(insn: Instruction) -> Executor:
    reg = insn.reg

    def run(env, ctx):
        _push(env, ctx, ctx.get(reg))
    return run


def _c_pop(insn: Instruction) -> Executor:
    reg = insn.reg

    def run(env, ctx):
        ctx.set(reg, _pop(env, ctx))
    return run


def _c_jmp_rel(insn: Instruction) -> Executor:
    rel = insn.rel

    def run(env, ctx):
        ctx.rip = (ctx.rip + rel) & _MASK64
    return run


def _c_jcc_rel(insn: Instruction) -> Executor:
    rel, cond = insn.rel, insn.cond

    def run(env, ctx):
        if cond_met(cond, ctx.flags):
            ctx.rip = (ctx.rip + rel) & _MASK64
    return run


def _c_call_rel(insn: Instruction) -> Executor:
    rel = insn.rel

    def run(env, ctx):
        _push(env, ctx, ctx.rip)
        ctx.rip = (ctx.rip + rel) & _MASK64
    return run


def _c_call_reg(insn: Instruction) -> Executor:
    reg = insn.reg

    def run(env, ctx):
        _push(env, ctx, ctx.rip)
        ctx.rip = ctx.get(reg)
    return run


def _c_jmp_reg(insn: Instruction) -> Executor:
    reg = insn.reg

    def run(env, ctx):
        ctx.rip = ctx.get(reg)
    return run


def _c_ret(insn: Instruction) -> Executor:
    def run(env, ctx):
        ctx.rip = _pop(env, ctx)
    return run


def _c_syscall(insn: Instruction) -> Executor:
    def run(env, ctx):
        env.on_syscall()
    return run


def _c_hostcall(insn: Instruction) -> Executor:
    index = insn.hostcall

    def run(env, ctx):
        env.on_hostcall(index)
    return run


def _c_serializing(insn: Instruction) -> Executor:
    def run(env, ctx):
        # Serializing: this core discards any stale decoded lines (and,
        # with them, every cached basic block).
        env.icache.flush_all()
    return run


def _c_int3(insn: Instruction) -> Executor:
    length = insn.length

    def run(env, ctx):
        raise Breakpoint((ctx.rip - length) & _MASK64)
    return run


def _c_ud2(insn: Instruction) -> Executor:
    length = insn.length

    def run(env, ctx):
        raise InvalidOpcode((ctx.rip - length) & _MASK64, "ud2")
    return run


def _c_hlt(insn: Instruction) -> Executor:
    length = insn.length

    def run(env, ctx):
        raise Halt(f"hlt in user mode at {(ctx.rip - length) & _MASK64:#x}")
    return run


#: Mnemonic → compiler.  Exhaustive over :class:`Mnemonic`; the assertion
#: below keeps it that way when the ISA grows.
COMPILERS: Dict[Mnemonic, Callable[[Instruction], Executor]] = {
    Mnemonic.NOP: _c_nop,
    Mnemonic.ENDBR64: _c_nop,
    Mnemonic.RET: _c_ret,
    Mnemonic.INT3: _c_int3,
    Mnemonic.HLT: _c_hlt,
    Mnemonic.UD2: _c_ud2,
    Mnemonic.CPUID: _c_serializing,
    Mnemonic.MFENCE: _c_serializing,
    Mnemonic.SYSCALL: _c_syscall,
    Mnemonic.SYSENTER: _c_syscall,
    Mnemonic.CALL_REG: _c_call_reg,
    Mnemonic.JMP_REG: _c_jmp_reg,
    Mnemonic.PUSH: _c_push,
    Mnemonic.POP: _c_pop,
    Mnemonic.MOV_RI: _c_mov_ri,
    Mnemonic.MOV_RR: _c_mov_rr,
    Mnemonic.MOV_LOAD: _c_mov_load,
    Mnemonic.MOV_STORE: _c_mov_store,
    Mnemonic.MOV_LOAD8: _c_mov_load8,
    Mnemonic.MOV_STORE8: _c_mov_store8,
    Mnemonic.LEA_RIP: _c_lea_rip,
    Mnemonic.ADD_RR: _c_add_rr,
    Mnemonic.SUB_RR: _c_sub_rr,
    Mnemonic.CMP_RR: _c_cmp_rr,
    Mnemonic.XOR_RR: _c_xor_rr,
    Mnemonic.TEST_RR: _c_test_rr,
    Mnemonic.ADD_RI: _c_add_ri,
    Mnemonic.SUB_RI: _c_sub_ri,
    Mnemonic.CMP_RI: _c_cmp_ri,
    Mnemonic.INC: _c_inc,
    Mnemonic.DEC: _c_dec,
    Mnemonic.JMP_REL: _c_jmp_rel,
    Mnemonic.CALL_REL: _c_call_rel,
    Mnemonic.JCC_REL: _c_jcc_rel,
    Mnemonic.HOSTCALL: _c_hostcall,
}

assert set(COMPILERS) == set(Mnemonic), \
    "dispatch table out of sync with the ISA"


def compile_insn(insn: Instruction) -> Executor:
    """Compile *insn* into its pre-bound executor closure."""
    return COMPILERS[insn.mnemonic](insn)
