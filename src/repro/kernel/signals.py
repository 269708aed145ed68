"""Signal actions and delivery.

Two kinds of handlers exist:

- **host handlers** — Python callables registered by interposer libraries
  (their SIGSYS logic).  They receive a :class:`SignalContext` whose register
  snapshot they may mutate; returning performs ``rt_sigreturn`` semantics
  (the possibly-modified context is restored).  This mirrors the
  "modify the signal context directly" technique of zpoline/lazypoline
  (§2.1), which avoids allowlisting the handler's return ``syscall``.
- **simulated handlers** — a code address in the target; the kernel pushes a
  frame and redirects RIP (used by application-level handlers in tests).

Default dispositions follow Linux's signal(7) table: SIGSEGV/SIGILL/
SIGTRAP/SIGSYS/SIGABRT/SIGBUS/SIGFPE/SIGQUIT dump core, the remaining
fatal signals terminate without a core, and SIGCHLD/SIGURG/SIGWINCH are
ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from repro.arch.registers import Reg
from repro.errors import ProcessKilled
from repro.kernel.syscalls import (SIGABRT, SIGBUS, SIGCHLD, SIGFPE, SIGILL,
                                   SIGNAL_NAMES, SIGQUIT, SIGSEGV, SIGSYS,
                                   SIGTRAP, SIGURG, SIGWINCH)

#: Signals whose default action is *Ign* in signal(7).
_IGNORED_BY_DEFAULT = frozenset({SIGCHLD, SIGURG, SIGWINCH})

#: Signals whose default action is *Core* in signal(7); every other fatal
#: default is plain *Term*.
_CORE_BY_DEFAULT = frozenset({SIGQUIT, SIGILL, SIGTRAP, SIGABRT, SIGBUS,
                              SIGFPE, SIGSEGV, SIGSYS})

#: Signals whose default action terminates the process.
_FATAL_BY_DEFAULT = frozenset(SIGNAL_NAMES) - _IGNORED_BY_DEFAULT


@dataclass
class SignalContext:
    """The ucontext handed to a host signal handler.

    Attributes:
        signal: delivered signal number.
        thread: the faulting/dispatching thread (handlers may inspect the
            process through it, e.g. ``/proc`` parsing in libLogger).
        saved: mutable register snapshot (``CpuContext.save()`` format);
            mutations take effect at sigreturn.
        fault_rip: RIP of the *triggering* instruction (for SIGSYS: the
            address of the ``syscall``/``sysenter`` itself — what libLogger
            records and lazypoline rewrites).
        info: free-form extras (syscall number for SIGSYS, fault address for
            SIGSEGV).
    """

    signal: int
    thread: object
    saved: Dict
    fault_rip: int
    info: Dict = field(default_factory=dict)

    def set_return_value(self, value: int) -> None:
        """Set RAX in the saved context (the syscall-emulation idiom)."""
        self.saved["regs"][Reg.RAX] = value & (1 << 64) - 1

    def set_resume_rip(self, address: int) -> None:
        """Redirect where sigreturn resumes execution."""
        self.saved["rip"] = address


#: A host handler takes the SignalContext; a simulated handler is a code
#: address.
Handler = Union[Callable[[SignalContext], None], int]


class SignalDispositions:
    """Per-process signal action table."""

    def __init__(self) -> None:
        self._actions: Dict[int, Handler] = {}

    def set_action(self, signal: int, handler: Optional[Handler]) -> None:
        if handler is None:
            self._actions.pop(signal, None)
        else:
            self._actions[signal] = handler

    def get_action(self, signal: int) -> Optional[Handler]:
        return self._actions.get(signal)

    def copy(self) -> "SignalDispositions":
        clone = SignalDispositions()
        clone._actions = dict(self._actions)
        return clone


def default_action(signal: int, detail: str = "") -> None:
    """Apply the default disposition for *signal*.

    Fatal signals raise :class:`ProcessKilled`, with ``core=True`` for the
    *Core* rows of signal(7) (SIGSEGV, SIGSYS, ...) and ``core=False`` for
    the plain *Term* rows (SIGTERM, SIGPIPE, ...); *Ign* rows return.
    """
    if signal in _FATAL_BY_DEFAULT:
        raise ProcessKilled(
            signal, detail or SIGNAL_NAMES.get(signal, str(signal)),
            core=signal in _CORE_BY_DEFAULT)
    # Ignored by default (SIGCHLD, SIGURG, SIGWINCH).
