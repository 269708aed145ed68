"""SimX86 instruction model.

Instruction encodings implemented (all byte-for-byte x86-64):

====================  ==========================  ===========================
Mnemonic              Encoding                    Notes
====================  ==========================  ===========================
NOP                   ``90``                      1 byte
NOP3                  ``0F 1F 00``                multi-byte nop
ENDBR64               ``F3 0F 1E FA``             decoded as a 4-byte nop
RET                   ``C3``
INT3                  ``CC``                      #BP
HLT                   ``F4``                      privileged; #GP in user mode
UD2                   ``0F 0B``                   guaranteed #UD
CPUID                 ``0F A2``                   serializing
MFENCE                ``0F AE F0``                fence
SYSCALL               ``0F 05``                   2 bytes — the star of the show
SYSENTER              ``0F 34``                   2 bytes
CALL_REG              ``FF /2`` (mod=11)          ``FF D0`` = callq *%rax
JMP_REG               ``FF /4`` (mod=11)          ``FF E0`` = jmp *%rax
PUSH                  ``50+r`` (REX.B)
POP                   ``58+r`` (REX.B)
MOV_RI64              ``REX.W B8+r imm64``        10 bytes; imm may embed 0F 05
MOV_RI32              ``B8+r imm32``              5 bytes, zero-extends
MOV_RR                ``REX.W 89 /r`` (mod=11)
MOV_STORE             ``REX.W 89 /r`` (mod=00)    mov [rm], reg
MOV_LOAD              ``REX.W 8B /r`` (mod=00)    mov reg, [rm]
MOV_STORE8            ``88 /r`` (mod=00)          mov byte [rm], reg8
MOV_LOAD8             ``8A /r`` (mod=00)          movzx-ish byte load
LEA_RIP               ``REX.W 8D /r`` (mod=00,    rip-relative lea
                      rm=101) disp32
ADD_RR/SUB_RR/...     ``REX.W 01/29/39/31/85``    mod=11
GRP1_I8               ``REX.W 83 /n imm8``        n: 0=add 5=sub 7=cmp
GRP1_I32              ``REX.W 81 /n imm32``
INC/DEC               ``REX.W FF /0, /1`` mod=11
JMP_REL8 / JMP_REL32  ``EB ib`` / ``E9 id``
CALL_REL32            ``E8 id``
Jcc rel8              ``70+cc ib``
Jcc rel32             ``0F 80+cc id``
HOSTCALL              ``0F 1F /7 imm16`` →        SimX86-only escape used to
                      ``0F 1F F8+? ...``          enter host-level (Python)
                                                  handler code; see below
====================  ==========================  ===========================

``HOSTCALL`` is the one deliberate extension: interposer handler bodies (the
C/asm logic of zpoline/lazypoline/K23 and the signal trampolines) run as host
Python callbacks, and simulated code transfers into them via ``HOSTCALL n``.
We encode it as ``0F 1F F8`` + imm16 — in real x86-64 this falls in the
multi-byte-NOP space (``0F 1F /r``), so it never collides with ``0F 05`` /
``0F 34`` and cannot be confused with a syscall site by any scanner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.arch.registers import Reg

# ---------------------------------------------------------------------------
# Byte-pattern constants used throughout the interposers.
# ---------------------------------------------------------------------------

SYSCALL_BYTES = b"\x0f\x05"
SYSENTER_BYTES = b"\x0f\x34"
CALL_RAX_BYTES = b"\xff\xd0"
NOP_BYTE = 0x90
HOSTCALL_PREFIX = b"\x0f\x1f\xf8"  # + imm16 little-endian

#: Both trap patterns the rewriters look for.
SYSCALL_PATTERNS = (SYSCALL_BYTES, SYSENTER_BYTES)


class Mnemonic(enum.Enum):
    """Every instruction the SimX86 decoder understands."""

    # Members are process-wide singletons (pickling resolves by name), so
    # identity hashing is correct — and the C slot avoids a Python-level
    # __hash__ frame on the ``in BLOCK_TERMINATORS`` test block recording
    # runs once per first-executed instruction.  Nothing iterates a set of
    # mnemonics, so no output depends on the hash values.
    __hash__ = object.__hash__

    NOP = "nop"
    RET = "ret"
    INT3 = "int3"
    HLT = "hlt"
    UD2 = "ud2"
    CPUID = "cpuid"
    MFENCE = "mfence"
    ENDBR64 = "endbr64"
    SYSCALL = "syscall"
    SYSENTER = "sysenter"
    CALL_REG = "call_reg"
    JMP_REG = "jmp_reg"
    PUSH = "push"
    POP = "pop"
    MOV_RI = "mov_ri"
    MOV_RR = "mov_rr"
    MOV_LOAD = "mov_load"
    MOV_STORE = "mov_store"
    MOV_LOAD8 = "mov_load8"
    MOV_STORE8 = "mov_store8"
    LEA_RIP = "lea_rip"
    ADD_RR = "add_rr"
    SUB_RR = "sub_rr"
    CMP_RR = "cmp_rr"
    XOR_RR = "xor_rr"
    TEST_RR = "test_rr"
    ADD_RI = "add_ri"
    SUB_RI = "sub_ri"
    CMP_RI = "cmp_ri"
    INC = "inc"
    DEC = "dec"
    JMP_REL = "jmp_rel"
    CALL_REL = "call_rel"
    JCC_REL = "jcc_rel"
    HOSTCALL = "hostcall"


class Cond(enum.IntEnum):
    """Condition codes (low nibble of the 0x70/0x0F80 opcode families)."""

    O = 0x0
    NO = 0x1
    B = 0x2
    AE = 0x3
    E = 0x4
    NE = 0x5
    BE = 0x6
    A = 0x7
    S = 0x8
    NS = 0x9
    P = 0xA
    NP = 0xB
    L = 0xC
    GE = 0xD
    LE = 0xE
    G = 0xF


#: Mnemonics that unconditionally divert control flow.
BRANCH_MNEMONICS = frozenset(
    {
        Mnemonic.RET,
        Mnemonic.CALL_REG,
        Mnemonic.JMP_REG,
        Mnemonic.JMP_REL,
        Mnemonic.CALL_REL,
        Mnemonic.JCC_REL,
    }
)


@dataclass(frozen=True)
class Instruction:
    """A decoded SimX86 instruction.

    Attributes:
        mnemonic: which instruction this is.
        length: encoded size in bytes.
        raw: the exact bytes that were decoded.
        reg: primary register operand, if any (destination for most forms).
        rm: secondary register operand (source / base address), if any.
        imm: immediate value, if any (sign information preserved by caller
            convention: immediates are stored as the unsigned encoded value
            for MOV, and as the signed value for arithmetic/branches).
        rel: signed branch displacement relative to the *next* instruction.
        cond: condition code for ``JCC_REL``.
        hostcall: host-callback index for ``HOSTCALL``.
    """

    mnemonic: Mnemonic
    length: int
    raw: bytes
    reg: Optional[Reg] = None
    rm: Optional[Reg] = None
    imm: Optional[int] = None
    rel: Optional[int] = None
    cond: Optional[Cond] = None
    hostcall: Optional[int] = None

    @property
    def is_syscall_site(self) -> bool:
        """True for the two instructions that trap into the kernel."""
        return self.mnemonic in (Mnemonic.SYSCALL, Mnemonic.SYSENTER)

    def text(self) -> str:
        """A human-readable AT&T-flavoured rendering (for traces/figures)."""
        m = self.mnemonic
        if m is Mnemonic.MOV_RI:
            return f"mov ${self.imm:#x}, %{self.reg.name.lower()}"
        if m is Mnemonic.MOV_RR:
            return f"mov %{self.rm.name.lower()}, %{self.reg.name.lower()}"
        if m is Mnemonic.MOV_LOAD:
            return f"mov (%{self.rm.name.lower()}), %{self.reg.name.lower()}"
        if m is Mnemonic.MOV_STORE:
            return f"mov %{self.reg.name.lower()}, (%{self.rm.name.lower()})"
        if m is Mnemonic.MOV_LOAD8:
            return f"movb (%{self.rm.name.lower()}), %{self.reg.name.lower()}b"
        if m is Mnemonic.MOV_STORE8:
            return f"movb %{self.reg.name.lower()}b, (%{self.rm.name.lower()})"
        if m is Mnemonic.LEA_RIP:
            return f"lea {self.rel:#x}(%rip), %{self.reg.name.lower()}"
        if m in (Mnemonic.ADD_RR, Mnemonic.SUB_RR, Mnemonic.CMP_RR,
                 Mnemonic.XOR_RR, Mnemonic.TEST_RR):
            op = m.value.split("_")[0]
            return f"{op} %{self.rm.name.lower()}, %{self.reg.name.lower()}"
        if m in (Mnemonic.ADD_RI, Mnemonic.SUB_RI, Mnemonic.CMP_RI):
            op = m.value.split("_")[0]
            return f"{op} ${self.imm:#x}, %{self.reg.name.lower()}"
        if m in (Mnemonic.PUSH, Mnemonic.POP, Mnemonic.INC, Mnemonic.DEC):
            return f"{m.value} %{self.reg.name.lower()}"
        if m is Mnemonic.CALL_REG:
            return f"callq *%{self.reg.name.lower()}"
        if m is Mnemonic.JMP_REG:
            return f"jmp *%{self.reg.name.lower()}"
        if m in (Mnemonic.JMP_REL, Mnemonic.CALL_REL):
            op = "jmp" if m is Mnemonic.JMP_REL else "call"
            return f"{op} .{self.rel:+#x}"
        if m is Mnemonic.JCC_REL:
            return f"j{self.cond.name.lower()} .{self.rel:+#x}"
        if m is Mnemonic.HOSTCALL:
            return f"hostcall ${self.hostcall}"
        return m.value


# Group-1 /n extension values (the reg field of ModRM selects the operation).
GRP1_ADD = 0
GRP1_SUB = 5
GRP1_CMP = 7

GRP1_EXT_TO_MNEMONIC = {
    GRP1_ADD: Mnemonic.ADD_RI,
    GRP1_SUB: Mnemonic.SUB_RI,
    GRP1_CMP: Mnemonic.CMP_RI,
}
MNEMONIC_TO_GRP1_EXT = {v: k for k, v in GRP1_EXT_TO_MNEMONIC.items()}


def modrm(mod: int, reg: int, rm: int) -> int:
    """Pack a ModRM byte."""
    return ((mod & 0b11) << 6) | ((reg & 0b111) << 3) | (rm & 0b111)


def split_modrm(byte: int) -> Tuple[int, int, int]:
    """Unpack a ModRM byte into ``(mod, reg, rm)``."""
    return (byte >> 6) & 0b11, (byte >> 3) & 0b111, byte & 0b111


def rex(w: bool = False, r: bool = False, x: bool = False, b: bool = False) -> int:
    """Build a REX prefix byte."""
    return 0x40 | (w << 3) | (r << 2) | (x << 1) | int(b)
