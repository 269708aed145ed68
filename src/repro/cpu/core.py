"""Single-step instruction semantics for SimX86.

:func:`step` executes exactly one instruction for an execution environment
(duck-typed; implemented by :class:`repro.kernel.process.Thread`):

- ``context`` — a :class:`repro.cpu.state.CpuContext`;
- ``icache`` — this thread's core-local :class:`repro.cpu.icache.ICache`;
- ``mem_fetch(addr, n)`` / ``mem_read(addr, n)`` / ``mem_write(addr, data)``
  — permission-checked memory access (fetch is PKU-exempt);
- ``on_syscall()`` — kernel dispatch for ``syscall``/``sysenter``;
- ``hostcall_table`` — host callbacks for interposer bodies: ``HOSTCALL
  imm16`` runs ``hostcall_table[imm16](env)``, and an unregistered index
  raises :class:`~repro.errors.InvalidOpcode` (see
  :class:`HostcallTable`);
- ``charge(event)`` — cycle accounting.

RIP is advanced *before* execution, matching hardware: the kernel sees the
return address in RCX on ``syscall``, and a trampoline entered by
``callq *%rax`` finds the address of the instruction after the rewritten
site on the stack — the exact property zpoline-style handlers rely on.

Instruction semantics live in :mod:`repro.cpu.dispatch` as per-mnemonic
compiled closures; this function and the basic-block replay path
(:mod:`repro.cpu.blocks`) execute the *same* closures, cached per ICache
line, so the two execution modes share one source of truth.

Condition codes model ZF/SF only (no OF/CF); signed comparisons in SimX86
programs must keep operands within ±2^62, which all generated workloads do.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.arch.isa import Instruction
from repro.cpu.cycles import Event
from repro.errors import DecodeError, InvalidOpcode

_MASK64 = (1 << 64) - 1


def _burned_index(env) -> None:  # pragma: no cover - placeholder slot
    raise InvalidOpcode(0, "burned hostcall index")


class HostcallTable(dict):
    """Index → handler.  A hit is one C-level dict probe, so the
    ``HOSTCALL`` executor reaches its handler with no Python frame in
    between; a miss raises :class:`InvalidOpcode`."""

    def __missing__(self, index: int) -> Callable:
        raise InvalidOpcode(0, f"unregistered hostcall {index}")


class HostcallRegistry:
    """Maps hostcall indices to Python callables.

    Interposer bodies (signal handler logic, trampoline tails) are registered
    here by library constructors; simulated code reaches them with the
    ``HOSTCALL`` escape instruction, through :attr:`table` (every thread
    binds it as ``hostcall_table``).
    """

    def __init__(self) -> None:
        self.table = HostcallTable()
        self._names: Dict[int, str] = {}

    #: Indices whose little-endian encoding would place a ``0F 05``/``0F 34``
    #: byte pair inside the HOSTCALL instruction (e.g. 0x050F → ``0F 05``),
    #: which would perturb byte-scanning experiments.  Burned, never issued.
    _HAZARDOUS_INDICES = frozenset({0x050F, 0x340F})

    def register(self, handler: Callable, name: str = "") -> int:
        """Register *handler*; returns the index to assemble into code."""
        table = self.table
        while len(table) in self._HAZARDOUS_INDICES:
            table[len(table)] = _burned_index
        index = len(table)
        table[index] = handler
        self._names[index] = name or getattr(handler, "__name__", f"host{index}")
        return index

    def name(self, index: int) -> str:
        return self._names.get(index, f"host{index}")

    def __len__(self) -> int:
        return len(self.table)


def step(env) -> Instruction:
    """Execute one instruction; returns it (for tracing)."""
    ctx = env.context
    fetch_addr = ctx.rip
    space = getattr(env, "mem_space", None)
    try:
        _raw, insn, fn = env.icache.fetch_entry(
            fetch_addr, env.mem_fetch, None if space is None else space._fast)
    except DecodeError as exc:
        raise InvalidOpcode(fetch_addr, str(exc)) from exc

    ctx.rip = (fetch_addr + insn.length) & _MASK64
    env.charge(Event.INSTRUCTION)
    fn(env, ctx)
    return insn
