"""Trace compiler: superblocks → ``exec``'d Python functions.

:func:`compile_superblock` turns a hot :class:`repro.cpu.engine.Superblock`
into one flat Python function that performs the same architectural steps
as replaying its blocks, minus the per-instruction overhead:

- register and flag updates are inlined (``r[3] = (r[3] + r[5]) & M``
  instead of a closure call through ``ctx.get``/``ctx.set``);
- RIP is *deferred*: every step's post-advance RIP is a compile-time
  constant, so ``ctx.rip`` is materialized only where it is observable —
  before any call that can fault or observe state (memory slow paths,
  syscalls, hostcalls, the faulting trio) and at every exit;
- memory accesses try an inline-cached single-page fast path first: one
  probe of the address space's page map
  (``env.mem_space._fast.get``, entries ``(page, prot_int, pkey)`` as
  filled by :meth:`repro.memory.address_space.AddressSpace.page_entry`,
  with PKU as integer bit math), falling back to the environment's own
  ``mem_read``/``mem_write`` — which raise the exact fault the
  interpreter would, and fill the entry — on a miss or a denied access.
  A mapping change evicts the entry, so a present entry is always
  current;
- conditional branches compile into the guard structure directly: the
  recorded direction falls through into the next segment's code, the
  other direction materializes RIP and returns the retire count, so a
  guard failure *is* just an early return (the caller un-charges the
  tail and block replay resumes).

Fault accounting contract with the chained loop of
:func:`repro.cpu.blocks.run_unit`: before every step that can raise, the
generated code sets ``env.unit_retired = base + k + 1`` (*k* the 0-based
step index, *base* the instructions the unit retired before the trace),
so the loop's un-charge and the scheduler's retire attribution match the
per-block replay path bit-for-bit.

Compilation happens once, when :func:`repro.cpu.engine.form_superblock`
stitches a hot chain, and is *best-effort*: any construct outside the
supported subset (an unsupported condition code, a nop slide before the
last step, a missing ``env.mem_space``) returns ``False`` and the chain's
blocks simply keep running chained.
"""

from __future__ import annotations

import functools
import struct
from typing import List

from repro.arch.isa import Cond, Mnemonic
from repro.cpu.dispatch import slide_nops
from repro.errors import Breakpoint, Halt, InvalidOpcode

_MASK64 = (1 << 64) - 1
_M_HEX = "0xffffffffffffffff"
_SIGN_HEX = "0x8000000000000000"
_PACK_Q = struct.Struct("<Q").pack
_UNPACK_Q = struct.Struct("<Q").unpack

#: Bound on the process-wide trace code memo (:func:`_trace_code`).
TRACE_CODE_MAX = 1 << 10

#: Condition → Python expression over the bound ``f`` (flags) local.
#: Mirrors :func:`repro.cpu.dispatch.cond_met`; conditions it raises
#: InvalidOpcode for are simply not compiled (the interpreter raises).
_COND_EXPR = {
    Cond.E: "f.zf",
    Cond.NE: "not f.zf",
    Cond.L: "f.sf",
    Cond.GE: "not f.sf",
    Cond.LE: "f.zf or f.sf",
    Cond.G: "not (f.zf or f.sf)",
    Cond.S: "f.sf",
    Cond.NS: "not f.sf",
}


class _Unsupported(Exception):
    """Raised by the generator to decline compilation."""


class _Emitter:
    def __init__(self):
        self.lines: List[str] = []

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def source(self) -> str:
        """Assemble the function, binding only the locals the body uses
        (a register-only trace skips the flags/PKU/page-cache prologue)."""
        body = "\n".join(self.lines)
        header = ["def _trace(env, ctx, base):"]
        if "r[" in body:
            header.append("    r = ctx._regs")
        if "f.zf" in body or "f.sf" in body:
            header.append("    f = ctx.flags")
        if "pk.value" in body:
            header.append("    pk = ctx.pkru")
        if "pe(" in body:
            header.append("    pe = env.mem_space._fast.get")
        return "\n".join(header) + "\n" + body + "\n"


def _flags_result(out: _Emitter, expr: str) -> None:
    """``_v = (expr) & M`` plus the ZF/SF update of ``set_from_result``."""
    out.emit(f"_v = ({expr}) & {_M_HEX}")
    out.emit("f.zf = _v == 0")
    out.emit(f"f.sf = _v >= {_SIGN_HEX}")


def _read(out: _Emitter, addr_expr: str, dest: str, size: int,
          k: int, next_rip: int) -> None:
    """Inline-cached read of *size* bytes into *dest* (a local or reg)."""
    out.emit(f"a = {addr_expr}")
    out.emit("e = pe(a >> 12)")
    if size == 1:
        out.emit("if e is not None and e[1] & 1 and "
                 "not (pk.value >> (e[2] << 1)) & 1:")
        out.emit(f"    {dest} = e[0][a & 4095]")
        out.emit("else:")
        out.emit(f"    ctx.rip = {next_rip:#x}")
        out.emit(f"    env.unit_retired = base + {k + 1}")
        out.emit(f"    {dest} = env.mem_read(a, 1)[0]")
        return
    out.emit("if e is not None and e[1] & 1 and "
             "not (pk.value >> (e[2] << 1)) & 1 and a & 4095 <= 4088:")
    out.emit("    o = a & 4095")
    out.emit(f"    {dest} = _unpack(e[0][o:o + 8])[0]")
    out.emit("else:")
    out.emit(f"    ctx.rip = {next_rip:#x}")
    out.emit(f"    env.unit_retired = base + {k + 1}")
    out.emit(f"    {dest} = _unpack(env.mem_read(a, 8))[0]")


def _write(out: _Emitter, addr_expr: str, value_expr: str, size: int,
           k: int, next_rip: int) -> None:
    """Inline-cached write (``env.mem_write`` semantics, no icache side)."""
    out.emit(f"a = {addr_expr}")
    out.emit("e = pe(a >> 12)")
    if size == 1:
        out.emit("if e is not None and e[1] & 2 and "
                 "not (pk.value >> (e[2] << 1)) & 3:")
        out.emit(f"    e[0][a & 4095] = {value_expr} & 255")
        out.emit("else:")
        out.emit(f"    ctx.rip = {next_rip:#x}")
        out.emit(f"    env.unit_retired = base + {k + 1}")
        out.emit(f"    env.mem_write(a, bytes(({value_expr} & 255,)))")
        return
    out.emit("if e is not None and e[1] & 2 and "
             "not (pk.value >> (e[2] << 1)) & 3 and a & 4095 <= 4088:")
    out.emit("    o = a & 4095")
    out.emit(f"    e[0][o:o + 8] = _pack({value_expr})")
    out.emit("else:")
    out.emit(f"    ctx.rip = {next_rip:#x}")
    out.emit(f"    env.unit_retired = base + {k + 1}")
    out.emit(f"    env.mem_write(a, _pack({value_expr}))")


def _push(out: _Emitter, value_expr: str, k: int, next_rip: int) -> None:
    """``_push`` semantics: RSP updated first, then the (fallible) write."""
    out.emit(f"_v = {value_expr}")
    out.emit(f"a = (r[4] - 8) & {_M_HEX}")
    out.emit("r[4] = a")
    out.emit("e = pe(a >> 12)")
    out.emit("if e is not None and e[1] & 2 and "
             "not (pk.value >> (e[2] << 1)) & 3 and a & 4095 <= 4088:")
    out.emit("    o = a & 4095")
    out.emit("    e[0][o:o + 8] = _pack(_v)")
    out.emit("else:")
    out.emit(f"    ctx.rip = {next_rip:#x}")
    out.emit(f"    env.unit_retired = base + {k + 1}")
    out.emit("    env.mem_write(a, _pack(_v))")


def _pop(out: _Emitter, k: int, next_rip: int) -> None:
    """``_pop`` semantics into ``_v``: read at RSP, then RSP += 8."""
    _read(out, "r[4]", "_v", 8, k, next_rip)
    out.emit(f"r[4] = (a + 8) & {_M_HEX}")


def compile_superblock(sb, env):
    """Compile *sb* to a trace function, or ``False`` if declined."""
    if getattr(env, "mem_space", None) is None:
        return False
    try:
        source = _generate(sb)
    except _Unsupported:
        return False
    namespace = {"_pack": _PACK_Q, "_unpack": _UNPACK_Q,
                 "_Breakpoint": Breakpoint, "_InvalidOpcode": InvalidOpcode,
                 "_Halt": Halt, "_slide": slide_nops, "_sb": sb}
    # The code object is shared; the function is not — exec'ing into a
    # fresh namespace binds ``_sb`` to this superblock alone.  The
    # function leaves its namespace, its own globals, so that only
    # ``sb.trace`` ties the two, and the icache cuts that when it dooms
    # the superblock: reference counting then frees both.
    exec(_trace_code(source, f"<trace:{sb.entry:#x}>"), namespace)
    trace = namespace.pop("_trace")
    trace.__source__ = source  # introspection/debugging
    return trace


@functools.lru_cache(maxsize=TRACE_CODE_MAX)
def _trace_code(source: str, filename: str):
    """``compile()`` memoised per process on exactly its inputs: kernels
    that form the same superblock over the same bytes (every run of a
    workload does) generate the same source and reuse its code object."""
    return compile(source, filename, "exec")


def _generate(sb) -> str:
    out = _Emitter()
    n = sb.n_steps
    k = 0
    segments = sb.blocks
    for seg_index, block in enumerate(segments):
        last_block = seg_index + 1 == len(segments)
        next_entry = None if last_block else segments[seg_index + 1].entry
        steps = block.steps
        for step_index, (next_rip, fn, insn) in enumerate(steps):
            terminal = step_index + 1 == len(steps)
            if fn is slide_nops:
                # The slide's landing is read from live memory, so it can
                # only end a trace (superblock formation stops after it).
                if not (terminal and last_block):
                    raise _Unsupported("nop slide inside a superblock")
                out.emit(f"ctx.rip = {next_rip:#x}")
                out.emit("_slide(env, ctx)")
                out.emit(f"return {n}")
            else:
                _emit_step(out, insn, next_rip, k, n,
                           terminal=terminal, last_block=last_block,
                           next_entry=next_entry)
            k += 1
    return out.source()


def _emit_step(out: _Emitter, insn, next_rip: int, k: int, n: int, *,
               terminal: bool, last_block: bool, next_entry) -> None:
    m = insn.mnemonic
    K = k + 1
    reg = int(insn.reg) if insn.reg is not None else None
    rm = int(insn.rm) if insn.rm is not None else None

    if m is Mnemonic.NOP or m is Mnemonic.ENDBR64:
        # Multi-byte nop/endbr64 only — a single-byte nop's run-slide is
        # emitted by _generate as a call that ends the trace.
        pass
    elif m is Mnemonic.MOV_RI:
        out.emit(f"r[{reg}] = {insn.imm & _MASK64:#x}")
    elif m is Mnemonic.MOV_RR:
        out.emit(f"r[{reg}] = r[{rm}]")
    elif m is Mnemonic.LEA_RIP:
        out.emit(f"r[{reg}] = {(next_rip + insn.rel) & _MASK64:#x}")
    elif m is Mnemonic.ADD_RR:
        _flags_result(out, f"r[{reg}] + r[{rm}]")
        out.emit(f"r[{reg}] = _v")
    elif m is Mnemonic.SUB_RR:
        _flags_result(out, f"r[{reg}] - r[{rm}]")
        out.emit(f"r[{reg}] = _v")
    elif m is Mnemonic.XOR_RR:
        _flags_result(out, f"r[{reg}] ^ r[{rm}]")
        out.emit(f"r[{reg}] = _v")
    elif m is Mnemonic.ADD_RI:
        _flags_result(out, f"r[{reg}] + {insn.imm & _MASK64:#x}")
        out.emit(f"r[{reg}] = _v")
    elif m is Mnemonic.SUB_RI:
        _flags_result(out, f"r[{reg}] - {insn.imm & _MASK64:#x}")
        out.emit(f"r[{reg}] = _v")
    elif m is Mnemonic.INC:
        _flags_result(out, f"r[{reg}] + 1")
        out.emit(f"r[{reg}] = _v")
    elif m is Mnemonic.DEC:
        _flags_result(out, f"r[{reg}] - 1")
        out.emit(f"r[{reg}] = _v")
    elif m is Mnemonic.CMP_RR:
        _flags_result(out, f"r[{reg}] - r[{rm}]")
    elif m is Mnemonic.CMP_RI:
        _flags_result(out, f"r[{reg}] - {insn.imm & _MASK64:#x}")
    elif m is Mnemonic.TEST_RR:
        _flags_result(out, f"r[{reg}] & r[{rm}]")
    elif m is Mnemonic.MOV_LOAD:
        _read(out, f"r[{rm}]", f"r[{reg}]", 8, k, next_rip)
    elif m is Mnemonic.MOV_LOAD8:
        _read(out, f"r[{rm}]", f"r[{reg}]", 1, k, next_rip)
    elif m is Mnemonic.MOV_STORE:
        _write(out, f"r[{rm}]", f"r[{reg}]", 8, k, next_rip)
        _after_store(out, K, n, next_rip, terminal and last_block, 8)
    elif m is Mnemonic.MOV_STORE8:
        _write(out, f"r[{rm}]", f"r[{reg}]", 1, k, next_rip)
        _after_store(out, K, n, next_rip, terminal and last_block, 1)
    elif m is Mnemonic.PUSH:
        _push(out, f"r[{reg}]", k, next_rip)
    elif m is Mnemonic.POP:
        _pop(out, k, next_rip)
        out.emit(f"r[{reg}] = _v")
    elif m is Mnemonic.JMP_REL:
        target = (next_rip + insn.rel) & _MASK64
        if last_block and terminal:
            out.emit(f"ctx.rip = {target:#x}")
            out.emit(f"return {n}")
        # Internal direct edge: the next segment *is* the target.
    elif m is Mnemonic.CALL_REL:
        target = (next_rip + insn.rel) & _MASK64
        _push(out, f"{next_rip:#x}", k, next_rip)
        if last_block and terminal:
            out.emit(f"ctx.rip = {target:#x}")
            out.emit(f"return {n}")
    elif m is Mnemonic.JCC_REL:
        cond = _COND_EXPR.get(insn.cond)
        if cond is None:
            raise _Unsupported(f"condition {insn.cond!r}")
        taken = (next_rip + insn.rel) & _MASK64
        if last_block and terminal:
            out.emit(f"if {cond}:")
            out.emit(f"    ctx.rip = {taken:#x}")
            out.emit(f"    return {n}")
            out.emit(f"ctx.rip = {next_rip:#x}")
            out.emit(f"return {n}")
        elif next_entry == taken and taken == next_rip:
            pass  # both directions land on the next segment
        elif next_entry == taken:
            out.emit(f"if not ({cond}):")
            out.emit("    env.icache.guard_fails += 1")
            out.emit(f"    ctx.rip = {next_rip:#x}")
            out.emit(f"    return {K}")
        elif next_entry == next_rip:
            out.emit(f"if {cond}:")
            out.emit("    env.icache.guard_fails += 1")
            out.emit(f"    ctx.rip = {taken:#x}")
            out.emit(f"    return {K}")
        else:
            raise _Unsupported("conditional edge matches neither direction")
    elif m is Mnemonic.RET:
        _pop(out, k, next_rip)
        out.emit("ctx.rip = _v")
        out.emit(f"return {n}")
    elif m is Mnemonic.JMP_REG:
        out.emit(f"ctx.rip = r[{reg}]")
        out.emit(f"return {n}")
    elif m is Mnemonic.CALL_REG:
        _push(out, f"{next_rip:#x}", k, next_rip)
        out.emit(f"ctx.rip = r[{reg}]")
        out.emit(f"return {n}")
    elif m is Mnemonic.SYSCALL or m is Mnemonic.SYSENTER:
        out.emit(f"ctx.rip = {next_rip:#x}")
        out.emit(f"env.unit_retired = base + {K}")
        out.emit("env.on_syscall()")
        out.emit(f"return {n}")
    elif m is Mnemonic.HOSTCALL:
        out.emit(f"ctx.rip = {next_rip:#x}")
        out.emit(f"env.unit_retired = base + {K}")
        out.emit(f"env.hostcall_table[{insn.hostcall}](env)")
        out.emit(f"return {n}")
    elif m is Mnemonic.CPUID or m is Mnemonic.MFENCE:
        out.emit(f"ctx.rip = {next_rip:#x}")
        out.emit("env.icache.flush_all()")
        out.emit(f"return {n}")
    elif m is Mnemonic.INT3:
        out.emit(f"ctx.rip = {next_rip:#x}")
        out.emit(f"env.unit_retired = base + {K}")
        out.emit(f"raise _Breakpoint({(next_rip - insn.length) & _MASK64:#x})")
    elif m is Mnemonic.UD2:
        out.emit(f"ctx.rip = {next_rip:#x}")
        out.emit(f"env.unit_retired = base + {K}")
        out.emit(f"raise _InvalidOpcode("
                 f"{(next_rip - insn.length) & _MASK64:#x}, 'ud2')")
    elif m is Mnemonic.HLT:
        addr = (next_rip - insn.length) & _MASK64
        out.emit(f"ctx.rip = {next_rip:#x}")
        out.emit(f"env.unit_retired = base + {K}")
        out.emit(f"raise _Halt('hlt in user mode at {addr:#x}')")
    else:
        raise _Unsupported(f"mnemonic {m!r}")

    # A fall-through cut (no terminator) ending the superblock: exit with
    # the architecturally-correct RIP.  Internal fall-throughs continue
    # straight into the next segment (its entry == this step's next_rip).
    if terminal and last_block and m not in _EXITING:
        out.emit(f"ctx.rip = {next_rip:#x}")
        out.emit(f"return {n}")


def _after_store(out: _Emitter, K: int, n: int, next_rip: int,
                 exiting: bool, size: int) -> None:
    """The ``_store`` tail: local icache coherence, then bail if the
    store doomed this superblock (hit its own span)."""
    out.emit(f"env.icache.invalidate_range(a, {size})")
    if not exiting and K < n:
        out.emit("if not _sb.valid:")
        out.emit(f"    ctx.rip = {next_rip:#x}")
        out.emit(f"    return {K}")


#: Mnemonics whose emitted code always returns (no fall-through epilogue).
_EXITING = frozenset({
    Mnemonic.JMP_REL, Mnemonic.CALL_REL, Mnemonic.JCC_REL, Mnemonic.RET,
    Mnemonic.JMP_REG, Mnemonic.CALL_REG, Mnemonic.SYSCALL,
    Mnemonic.SYSENTER, Mnemonic.HOSTCALL, Mnemonic.CPUID, Mnemonic.MFENCE,
    Mnemonic.INT3, Mnemonic.UD2, Mnemonic.HLT,
})
