"""A small label-aware assembler for SimX86.

``Asm`` is the builder used everywhere a simulated binary needs code: the
simulated libc, the workload applications, the pitfall PoCs, and the
interposer trampolines.  It emits the byte-exact encodings documented in
:mod:`repro.arch.isa`, resolves labels to rel32 displacements at
:meth:`Asm.assemble` time, and can embed raw data bytes inside the code
stream — the exact property (data in code pages, e.g. jump tables) that makes
static rewriting hazardous (P3a).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.arch.isa import (
    GRP1_ADD,
    GRP1_CMP,
    GRP1_SUB,
    modrm,
    rex,
)
from repro.arch.registers import Reg
from repro.errors import AssemblerError


@dataclass
class _Fixup:
    """A rel32 field awaiting label resolution.

    Attributes:
        field_offset: where the 4 displacement bytes live.
        next_offset: offset of the instruction *after* the branch (the
            reference point for the displacement).
        label: target label name.
    """

    field_offset: int
    next_offset: int
    label: str


class Asm:
    """Incremental SimX86 code builder.

    Usage::

        a = Asm()
        a.mov_ri(Reg.RAX, 60)          # exit(0)
        a.xor_rr(Reg.RDI, Reg.RDI)
        a.mark("exit_site")
        a.syscall_()
        code = a.assemble()

    ``marks`` records named byte offsets (e.g. the location of each
    ``syscall`` instruction), which tests and the offline-phase checker use to
    ground-truth site discovery.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self.labels: Dict[str, int] = {}
        self.marks: Dict[str, int] = {}
        #: (start, end) byte ranges emitted as data, not instructions.
        self.data_spans: List[tuple] = []
        self._fixups: List[_Fixup] = []
        self._assembled: Optional[bytes] = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def offset(self) -> int:
        """Current emission offset (== size of code emitted so far)."""
        return len(self._buf)

    def label(self, name: str) -> "Asm":
        """Define *name* at the current offset."""
        if name in self.labels:
            raise AssemblerError(f"duplicate label {name!r}")
        self.labels[name] = self.offset
        return self

    def mark(self, name: str) -> "Asm":
        """Record the current offset under *name* without creating a label."""
        if name in self.marks:
            raise AssemblerError(f"duplicate mark {name!r}")
        self.marks[name] = self.offset
        return self

    def _emit(self, data: bytes) -> "Asm":
        self._assembled = None
        self._buf.extend(data)
        return self

    def _emit_data(self, data: bytes) -> "Asm":
        start = self.offset
        self._emit(data)
        self.data_spans.append((start, self.offset))
        return self

    def raw(self, data: bytes) -> "Asm":
        """Embed raw bytes (data-in-code); never validated as instructions."""
        return self._emit_data(bytes(data))

    def align(self, boundary: int, fill: int = 0x90) -> "Asm":
        """Pad with *fill* bytes up to the next multiple of *boundary*."""
        if self.offset % boundary:
            self._emit(bytes([fill]) * (-self.offset % boundary))
        return self

    # -- zero-operand instructions --------------------------------------------

    def nop(self, count: int = 1) -> "Asm":
        return self._emit(b"\x90" * count)

    def ret(self) -> "Asm":
        return self._emit(b"\xc3")

    def int3(self) -> "Asm":
        return self._emit(b"\xcc")

    def hlt(self) -> "Asm":
        return self._emit(b"\xf4")

    def ud2(self) -> "Asm":
        return self._emit(b"\x0f\x0b")

    def cpuid(self) -> "Asm":
        return self._emit(b"\x0f\xa2")

    def mfence(self) -> "Asm":
        return self._emit(b"\x0f\xae\xf0")

    def endbr64(self) -> "Asm":
        return self._emit(b"\xf3\x0f\x1e\xfa")

    def syscall_(self) -> "Asm":
        return self._emit(b"\x0f\x05")

    def sysenter_(self) -> "Asm":
        return self._emit(b"\x0f\x34")

    def syscall_site(self, name: str) -> "Asm":
        """``mark(name)`` + ``syscall`` — the idiom for ground-truthed sites."""
        return self.mark(name).syscall_()

    def hostcall(self, index: int) -> "Asm":
        """Emit the SimX86 host-callback escape (``0F 1F F8 imm16``)."""
        if not 0 <= index <= 0xFFFF:
            raise AssemblerError(f"hostcall index out of range: {index}")
        return self._emit(b"\x0f\x1f\xf8" + struct.pack("<H", index))

    # -- register forms --------------------------------------------------------

    def call_reg(self, reg: Reg) -> "Asm":
        out = bytearray()
        if reg.needs_rex_bit:
            out.append(rex(b=True))
        out += bytes([0xFF, modrm(0b11, 2, reg.low3)])
        return self._emit(bytes(out))

    def jmp_reg(self, reg: Reg) -> "Asm":
        out = bytearray()
        if reg.needs_rex_bit:
            out.append(rex(b=True))
        out += bytes([0xFF, modrm(0b11, 4, reg.low3)])
        return self._emit(bytes(out))

    def push(self, reg: Reg) -> "Asm":
        out = bytearray()
        if reg.needs_rex_bit:
            out.append(rex(b=True))
        out.append(0x50 + reg.low3)
        return self._emit(bytes(out))

    def pop(self, reg: Reg) -> "Asm":
        out = bytearray()
        if reg.needs_rex_bit:
            out.append(rex(b=True))
        out.append(0x58 + reg.low3)
        return self._emit(bytes(out))

    def inc(self, reg: Reg) -> "Asm":
        return self._emit(bytes([rex(w=True, b=reg.needs_rex_bit),
                                 0xFF, modrm(0b11, 0, reg.low3)]))

    def dec(self, reg: Reg) -> "Asm":
        return self._emit(bytes([rex(w=True, b=reg.needs_rex_bit),
                                 0xFF, modrm(0b11, 1, reg.low3)]))

    # -- moves ------------------------------------------------------------------

    def mov_ri(self, reg: Reg, imm: int, width: int = 0) -> "Asm":
        """``mov $imm, %reg``.

        ``width`` of 32 or 64 forces the encoding; 0 picks the shortest that
        fits.  The 64-bit form is 10 bytes with the immediate inline — the
        canonical carrier of *partial* ``syscall`` byte patterns (P3a).
        """
        imm &= (1 << 64) - 1
        use64 = width == 64 or (width == 0 and (imm > 0xFFFF_FFFF or reg.needs_rex_bit))
        if width == 32 and imm > 0xFFFF_FFFF:
            raise AssemblerError(f"immediate {imm:#x} does not fit in 32 bits")
        if use64:
            return self._emit(bytes([rex(w=True, b=reg.needs_rex_bit),
                                     0xB8 + reg.low3]) + struct.pack("<Q", imm))
        if reg.needs_rex_bit:
            # 32-bit form with high register still needs REX.B but not REX.W;
            # keep the subset simple: use the 64-bit form instead.
            return self._emit(bytes([rex(w=True, b=True),
                                     0xB8 + reg.low3]) + struct.pack("<Q", imm))
        return self._emit(bytes([0xB8 + reg.low3]) + struct.pack("<I", imm))

    def mov_rr(self, dst: Reg, src: Reg) -> "Asm":
        return self._emit(bytes([
            rex(w=True, r=src.needs_rex_bit, b=dst.needs_rex_bit),
            0x89, modrm(0b11, src.low3, dst.low3)]))

    def load(self, dst: Reg, addr_reg: Reg) -> "Asm":
        """``mov (%addr_reg), %dst`` (64-bit load)."""
        if addr_reg.low3 in (0b100, 0b101):
            raise AssemblerError(f"{addr_reg.name} cannot be a bare base register")
        return self._emit(bytes([
            rex(w=True, r=dst.needs_rex_bit, b=addr_reg.needs_rex_bit),
            0x8B, modrm(0b00, dst.low3, addr_reg.low3)]))

    def store(self, addr_reg: Reg, src: Reg) -> "Asm":
        """``mov %src, (%addr_reg)`` (64-bit store)."""
        if addr_reg.low3 in (0b100, 0b101):
            raise AssemblerError(f"{addr_reg.name} cannot be a bare base register")
        return self._emit(bytes([
            rex(w=True, r=src.needs_rex_bit, b=addr_reg.needs_rex_bit),
            0x89, modrm(0b00, src.low3, addr_reg.low3)]))

    def load8(self, dst: Reg, addr_reg: Reg) -> "Asm":
        """``movb (%addr_reg), %dst_b`` — byte load (zero-extends in SimX86)."""
        if addr_reg.low3 in (0b100, 0b101) or dst.needs_rex_bit or addr_reg.needs_rex_bit:
            raise AssemblerError("load8 restricted to low registers / simple bases")
        return self._emit(bytes([0x8A, modrm(0b00, dst.low3, addr_reg.low3)]))

    def store8(self, addr_reg: Reg, src: Reg) -> "Asm":
        """``movb %src_b, (%addr_reg)`` — byte store."""
        if addr_reg.low3 in (0b100, 0b101) or src.needs_rex_bit or addr_reg.needs_rex_bit:
            raise AssemblerError("store8 restricted to low registers / simple bases")
        return self._emit(bytes([0x88, modrm(0b00, src.low3, addr_reg.low3)]))

    def lea_rip_label(self, dst: Reg, label: str) -> "Asm":
        """``lea label(%rip), %dst`` with the displacement fixed up later."""
        self._emit(bytes([rex(w=True, r=dst.needs_rex_bit),
                          0x8D, modrm(0b00, dst.low3, 0b101)]))
        self._fixups.append(_Fixup(self.offset, self.offset + 4, label))
        return self._emit(b"\x00\x00\x00\x00")

    # -- arithmetic ---------------------------------------------------------------

    def _rr(self, opcode: int, dst: Reg, src: Reg) -> "Asm":
        return self._emit(bytes([
            rex(w=True, r=src.needs_rex_bit, b=dst.needs_rex_bit),
            opcode, modrm(0b11, src.low3, dst.low3)]))

    def add_rr(self, dst: Reg, src: Reg) -> "Asm":
        return self._rr(0x01, dst, src)

    def sub_rr(self, dst: Reg, src: Reg) -> "Asm":
        return self._rr(0x29, dst, src)

    def cmp_rr(self, dst: Reg, src: Reg) -> "Asm":
        return self._rr(0x39, dst, src)

    def xor_rr(self, dst: Reg, src: Reg) -> "Asm":
        return self._rr(0x31, dst, src)

    def test_rr(self, dst: Reg, src: Reg) -> "Asm":
        return self._rr(0x85, dst, src)

    def _grp1(self, ext: int, reg: Reg, imm: int) -> "Asm":
        if -128 <= imm <= 127:
            return self._emit(bytes([rex(w=True, b=reg.needs_rex_bit), 0x83,
                                     modrm(0b11, ext, reg.low3), imm & 0xFF]))
        if -(1 << 31) <= imm < (1 << 31):
            return self._emit(bytes([rex(w=True, b=reg.needs_rex_bit), 0x81,
                                     modrm(0b11, ext, reg.low3)])
                              + struct.pack("<i", imm))
        raise AssemblerError(f"immediate {imm:#x} does not fit in 32 bits")

    def add_ri(self, reg: Reg, imm: int) -> "Asm":
        return self._grp1(GRP1_ADD, reg, imm)

    def sub_ri(self, reg: Reg, imm: int) -> "Asm":
        return self._grp1(GRP1_SUB, reg, imm)

    def cmp_ri(self, reg: Reg, imm: int) -> "Asm":
        return self._grp1(GRP1_CMP, reg, imm)

    # -- control flow ----------------------------------------------------------------

    def _rel32_branch(self, opcode: bytes, label: str) -> "Asm":
        self._emit(opcode)
        self._fixups.append(_Fixup(self.offset, self.offset + 4, label))
        return self._emit(b"\x00\x00\x00\x00")

    def jmp(self, label: str) -> "Asm":
        return self._rel32_branch(b"\xe9", label)

    def call(self, label: str) -> "Asm":
        return self._rel32_branch(b"\xe8", label)

    def _jcc(self, cc: int, label: str) -> "Asm":
        return self._rel32_branch(bytes([0x0F, 0x80 + cc]), label)

    def je(self, label: str) -> "Asm":
        return self._jcc(0x4, label)

    def jne(self, label: str) -> "Asm":
        return self._jcc(0x5, label)

    def jl(self, label: str) -> "Asm":
        return self._jcc(0xC, label)

    def jge(self, label: str) -> "Asm":
        return self._jcc(0xD, label)

    def jle(self, label: str) -> "Asm":
        return self._jcc(0xE, label)

    def jg(self, label: str) -> "Asm":
        return self._jcc(0xF, label)

    # -- data directives ------------------------------------------------------------

    def db(self, *values: int) -> "Asm":
        """Emit literal data bytes."""
        return self._emit_data(bytes(values))

    def dq(self, *values: int) -> "Asm":
        """Emit 64-bit little-endian data words."""
        out = b"".join(struct.pack("<Q", v & (1 << 64) - 1) for v in values)
        return self._emit_data(out)

    def ascii(self, text: str, nul: bool = True) -> "Asm":
        """Emit an (optionally NUL-terminated) ASCII string as data."""
        return self._emit_data(text.encode("ascii") + (b"\x00" if nul else b""))

    # -- finalization -----------------------------------------------------------------

    def assemble(self) -> bytes:
        """Resolve fixups and return the code bytes (idempotent)."""
        if self._assembled is None:
            out = bytearray(self._buf)
            for fixup in self._fixups:
                if fixup.label not in self.labels:
                    raise AssemblerError(f"undefined label {fixup.label!r}")
                rel = self.labels[fixup.label] - fixup.next_offset
                struct.pack_into("<i", out, fixup.field_offset, rel)
            self._assembled = bytes(out)
        return self._assembled
