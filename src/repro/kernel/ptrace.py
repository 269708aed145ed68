"""Cross-process tracing (the ``ptrace`` interface).

K23's online phase starts every target under a ptrace-based tracer
("ptracer", §5.2): the tracer observes *every* syscall from the first
instruction — including the >100 issued by the dynamic loader before any
LD_PRELOAD library exists — can rewrite the environment of ``execve`` calls
(the P1a fix), reads/writes tracee memory and registers, and detaches once
libK23 signals readiness through the fake-syscall protocol (§5.3).

The tracer is modelled as a host-level object rather than a simulated
process: its *logic* runs in Python, while its *cost* is charged faithfully —
two ``PTRACE_STOP`` context-switch round trips per traced syscall plus
tracer-side inspection work, which is exactly why ptrace is unviable as the
steady-state mechanism (§2.1) and why K23 only uses it during startup.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional

from repro.cpu.cycles import Event
from repro.observability.events import PtraceStop


class SyscallStop:
    """What the tracer sees at a syscall-entry or -exit stop.

    Mutations through the provided setters are applied to the tracee —
    PTRACE_SETREGS / PTRACE_POKEDATA semantics.
    """

    def __init__(self, thread, entry: bool):
        self.thread = thread
        self.entry = entry

    # -- registers (PTRACE_GETREGS / SETREGS) ---------------------------------

    @property
    def number(self) -> int:
        return self.thread.context.syscall_number

    def args(self, count: int = 6) -> List[int]:
        return self.thread.context.syscall_args(count)

    @property
    def rip(self) -> int:
        """RIP after the syscall instruction (as the kernel reports it)."""
        return self.thread.context.rip

    @property
    def site_rip(self) -> int:
        """Address of the ``syscall`` instruction itself."""
        return self.thread.context.rip - 2

    def set_result(self, value: int) -> None:
        self.thread.context.set_syscall_result(value)

    # -- memory (PTRACE_PEEKDATA / POKEDATA, process_vm_readv/writev) -----------

    def peek(self, addr: int, length: int) -> bytes:
        return self.thread.process.address_space.read_kernel(addr, length)

    def poke(self, addr: int, data: bytes) -> None:
        self.thread.process.address_space.write_kernel(addr, data)

    def peek_cstr(self, addr: int, limit: int = 4096) -> str:
        """Read a NUL-terminated string from tracee memory."""
        out = bytearray()
        cursor = addr
        while len(out) < limit:
            byte = self.peek(cursor, 1)
            if byte == b"\x00":
                break
            out += byte
            cursor += 1
        return out.decode("latin-1")


class Tracer:
    """A host-level ptrace tracer attached to one process.

    Subclasses (or callback assignments) implement the policy:
    ``on_syscall_entry`` may rewrite arguments or swallow the call by
    returning ``False``; ``on_syscall_exit`` may rewrite the result.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.attached_to = None
        self.detached = False
        #: Ground-truth log of (pid, syscall nr, site rip) the tracer saw.
        self.observed: List[tuple] = []
        self.on_syscall_entry: Optional[Callable[[SyscallStop], Optional[bool]]] = None
        self.on_syscall_exit: Optional[Callable[[SyscallStop], None]] = None
        #: Tracer policy: strip the vDSO from traced children (§5.2).
        self.disable_vdso = True

    # -- attachment ---------------------------------------------------------------

    def attach(self, process) -> None:
        if process.tracer is not None:
            raise RuntimeError(f"pid {process.pid} already traced")
        process.tracer = self
        self.attached_to = process
        self.detached = False
        if self.disable_vdso:
            process.vdso_enabled = False

    def detach(self) -> None:
        if self.attached_to is not None:
            self.attached_to.tracer = None
        self.detached = True

    # -- kernel-side notification hooks ----------------------------------------------

    def _emit_stop(self, thread, entry: bool) -> None:
        bus = self.kernel.bus
        if bus.enabled:
            bus.emit(PtraceStop, ts=self.kernel.cycles.cycles,
                     pid=thread.process.pid, tid=thread.tid,
                     nr=thread.context.syscall_number, entry=entry)

    def notify_entry(self, thread) -> bool:
        """Called by the kernel at syscall entry.  Returns False to skip the
        syscall (the tracer emulated/denied it)."""
        self.kernel.cycles.charge(Event.PTRACE_STOP)
        self.kernel.cycles.charge(Event.PTRACE_TRACER_WORK)
        self._emit_stop(thread, entry=True)
        stop = SyscallStop(thread, entry=True)
        self.observed.append((thread.process.pid, stop.number, stop.site_rip))
        if self.on_syscall_entry is not None:
            verdict = self.on_syscall_entry(stop)
            if verdict is False:
                return False
        return True

    def notify_exit(self, thread) -> None:
        self.kernel.cycles.charge(Event.PTRACE_STOP)
        self._emit_stop(thread, entry=False)
        stop = SyscallStop(thread, entry=False)
        if self.on_syscall_exit is not None:
            self.on_syscall_exit(stop)
