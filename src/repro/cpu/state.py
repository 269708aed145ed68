"""Architectural register state for one hardware thread."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.arch.registers import Reg
from repro.memory.pku import Pkru

_MASK64 = (1 << 64) - 1


@dataclass(slots=True)
class Flags:
    """The two status flags the SimX86 subset observes."""

    zf: bool = False
    sf: bool = False

    def set_from_result(self, value: int) -> None:
        value &= _MASK64
        self.zf = value == 0
        self.sf = bool(value >> 63)

    def copy(self) -> "Flags":
        return Flags(self.zf, self.sf)


class CpuContext:
    """Registers + flags + PKRU for one simulated thread.

    This is the state a SIGSYS ``ucontext`` exposes and that ``ptrace``'s
    GETREGS/SETREGS reads and writes, so interposers can manipulate it the
    same way their native counterparts do.
    """

    __slots__ = ("_regs", "rip", "flags", "pkru")

    def __init__(self) -> None:
        self._regs: List[int] = [0] * 16
        self.rip: int = 0
        self.flags = Flags()
        self.pkru = Pkru()

    # -- register access -----------------------------------------------------

    def get(self, reg: Reg) -> int:
        return self._regs[reg]

    def set(self, reg: Reg, value: int) -> None:
        self._regs[reg] = value & _MASK64

    def __getitem__(self, reg: Reg) -> int:
        return self.get(reg)

    def __setitem__(self, reg: Reg, value: int) -> None:
        self.set(reg, value)

    # -- syscall ABI helpers ----------------------------------------------------

    @property
    def syscall_number(self) -> int:
        return self._regs[0]  # Reg.RAX — direct index, hot on every syscall

    def syscall_args(self, count: int = 6) -> List[int]:
        """Arguments per the x86-64 syscall ABI (rdi, rsi, rdx, r10, r8, r9)."""
        regs = self._regs
        # SYSCALL_ARG_REGS as fixed indices: this runs on every syscall.
        args = [regs[7], regs[6], regs[2], regs[10], regs[8], regs[9]]
        return args if count == 6 else args[:count]

    def set_syscall_result(self, value: int) -> None:
        """Store a (possibly negative-errno) result into RAX."""
        self._regs[0] = value & _MASK64

    # -- snapshots (signal frames / ptrace GETREGS) --------------------------------

    def save(self) -> Dict:
        """Snapshot for a signal frame or ptrace GETREGS."""
        return {
            "regs": list(self._regs),
            "rip": self.rip,
            "flags": self.flags.copy(),
            "pkru": self.pkru.copy(),
        }

    def restore(self, snapshot: Dict) -> None:
        """Restore a snapshot (``rt_sigreturn`` / ptrace SETREGS)."""
        self._regs = list(snapshot["regs"])
        self.rip = snapshot["rip"]
        self.flags = snapshot["flags"].copy()
        self.pkru = snapshot["pkru"].copy()

    def copy(self) -> "CpuContext":
        clone = CpuContext()
        clone.restore(self.save())
        return clone

    def __repr__(self) -> str:
        named = ", ".join(
            f"{Reg(i).name.lower()}={v:#x}" for i, v in enumerate(self._regs) if v
        )
        return f"CpuContext(rip={self.rip:#x}, {named})"
