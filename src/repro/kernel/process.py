"""Processes, threads, and file descriptors."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cpu.cycles import Event
from repro.cpu.icache import ICache
from repro.cpu.state import CpuContext
from repro.errors import VFSError
from repro.kernel.net import Connection, Listener
from repro.kernel.signals import SignalDispositions
from repro.kernel.sud import SudState
from repro.kernel.syscalls import Errno
from repro.kernel.vfs import Inode
from repro.memory.address_space import AddressSpace


class FileDescriptor:
    """Base class for per-process descriptor table entries."""

    def describe(self) -> str:
        return type(self).__name__


class FileFD(FileDescriptor):
    """A regular file opened from the VFS."""

    def __init__(self, inode: Inode, flags: int = 0):
        self.inode = inode
        self.offset = 0
        self.flags = flags

    def describe(self) -> str:
        return self.inode.path


class ListenFD(FileDescriptor):
    """A listening socket."""

    def __init__(self, listener: Listener):
        self.listener = listener

    def describe(self) -> str:
        return f"listen:{self.listener.port}"


class SocketFD(FileDescriptor):
    """A stream socket; unconnected until bound/accepted."""

    def __init__(self, connection: Optional[Connection] = None):
        self.connection = connection

    def describe(self) -> str:
        if self.connection is None:
            return "socket:unconnected"
        return f"socket:{self.connection.port}"


class Thread:
    """One simulated thread: CPU context + core-local icache + SUD state.

    Also the execution environment consumed by :func:`repro.cpu.core.step`
    (``mem_*``, ``on_syscall``, ``on_hostcall``, ``charge``).
    """

    def __init__(self, process: "Process", core_id: int = 0):
        self.process = process
        self.tid = process.kernel.new_tid()
        self.context = CpuContext()
        self.icache = ICache(core_id, engine=process.kernel.engine)
        self.core_id = core_id
        self.sud = SudState()
        self.exited = False
        #: Set by execve/rt_sigreturn to suppress the dispatch layer's
        #: result/clobber writes into a context that was wholly replaced.
        self._just_execed = False
        #: (signal, saved context) frames for simulated-address signal
        #: handlers; popped (and the signal unblocked) by rt_sigreturn.
        self.signal_frames: List[tuple] = []
        #: Signals masked from re-delivery: a signal joins this set while
        #: its handler runs (host handlers until return, simulated handlers
        #: until rt_sigreturn) so the same signal cannot nest.
        self.blocked_signals: set = set()
        #: Async signals that arrived while blocked, delivered in order at
        #: the next sigreturn (each entry is ``(signal, fault_rip, info)``).
        self.pending_signals: List[tuple] = []
        #: One-shot credit granted by a SUD selector-flip restart so the
        #: re-executed syscall is not double-charged (see kernel.handle_syscall).
        self._sud_restart_credit = False
        #: When set, the scheduler skips this thread until the callable
        #: returns True (used for accept/recv/wait4 blocking).
        self.block_condition: Optional[Callable[[], bool]] = None
        #: Set while the thread is inside a host-level yield (re-entrancy
        #: guard for the preemption window modelling, P5).
        self.in_host_handler = False
        #: Host-callable signal handlers currently on this thread's stack.
        #: While > 0, simulated-address deliveries are deferred to
        #: return-to-user (the enclosing handler's context restore would
        #: clobber the user frame — see Kernel.deliver_signal).
        self._host_handler_depth = 0
        #: Bound-method alias: ``charge`` is on the per-instruction hot
        #: path and the kernel's CycleModel is created once and never
        #: replaced, so skip the forwarding frame the class-level method
        #: below would add.
        self.charge = process.kernel.cycles.charge
        #: In-unit retire index maintained by the block executor
        #: (:mod:`repro.cpu.blocks`): the 1-based index of the instruction
        #: currently executing, read by the scheduler to attribute a
        #: faulting instruction when a multi-instruction unit raises.
        self.unit_retired = 0

    # -- execution-environment protocol (repro.cpu.core.step) ------------------

    @property
    def mem_space(self) -> AddressSpace:
        """The live address space — the trace JIT's and the first
        fetch's page map.

        Exposing this attribute is the promise (see
        :mod:`repro.cpu.engine`) that ``mem_read``/``mem_write`` below are
        exactly ``address_space.read/write(.., pkru=self.context.pkru)``
        and ``mem_fetch`` is exactly ``address_space.fetch``.
        """
        return self.process.address_space

    def mem_fetch(self, addr: int, length: int) -> bytes:
        return self.process.address_space.fetch(addr, length)

    def mem_read(self, addr: int, length: int) -> bytes:
        return self.process.address_space.read(addr, length,
                                               pkru=self.context.pkru)

    def mem_write(self, addr: int, data: bytes) -> None:
        self.process.address_space.write(addr, data, pkru=self.context.pkru)

    def on_syscall(self) -> None:
        self.process.kernel.handle_syscall(self)

    def on_hostcall(self, index: int) -> None:
        self.process.kernel.dispatch_hostcall(self, index)

    def charge(self, event: Event, times: int = 1) -> None:
        # Shadowed by the bound-method alias set in __init__; kept as the
        # documented protocol signature (and for subclasses that replace
        # the alias).
        self.process.kernel.cycles.charge(event, times)

    # -- state -------------------------------------------------------------------

    @property
    def runnable(self) -> bool:
        if self.exited or self.process.exited:
            return False
        if self.block_condition is not None:
            return False
        return True

    def block_until(self, condition: Callable[[], bool]) -> None:
        self.block_condition = condition

    def try_unblock(self) -> bool:
        if self.block_condition is not None and self.block_condition():
            self.block_condition = None
        return self.block_condition is None

    # -- record/replay checkpointing ----------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Capture everything replay needs to resurrect this thread.

        ``block_condition`` is deliberately absent: it is a host closure,
        and the recorder's safe-point policy only checkpoints when no
        thread is blocked (see :mod:`repro.replay.recorder`).
        """
        return {
            "tid": self.tid,
            "core_id": self.core_id,
            "context": copy.deepcopy(self.context.save()),
            "sud": self.sud.copy(),
            "exited": self.exited,
            "just_execed": self._just_execed,
            "signal_frames": copy.deepcopy(self.signal_frames),
            "blocked_signals": set(self.blocked_signals),
            "pending_signals": copy.deepcopy(self.pending_signals),
            "sud_restart_credit": self._sud_restart_credit,
            "host_handler_depth": self._host_handler_depth,
            "in_host_handler": self.in_host_handler,
            "unit_retired": self.unit_retired,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Overwrite this thread with a snapshot taken by
        :meth:`snapshot_state`.  Flushes the core-local icache: decoded
        lines, chained blocks, and compiled traces all cache pre-restore
        code bytes."""
        self.tid = state["tid"]
        self.core_id = state["core_id"]
        self.context.restore(copy.deepcopy(state["context"]))
        self.sud = state["sud"].copy()
        self.exited = state["exited"]
        self._just_execed = state["just_execed"]
        self.signal_frames = copy.deepcopy(state["signal_frames"])
        self.blocked_signals = set(state["blocked_signals"])
        self.pending_signals = copy.deepcopy(state["pending_signals"])
        self._sud_restart_credit = state["sud_restart_credit"]
        self._host_handler_depth = state["host_handler_depth"]
        self.in_host_handler = state["in_host_handler"]
        self.unit_retired = state["unit_retired"]
        self.block_condition = None
        self.icache.flush_all()

    def __repr__(self) -> str:
        return f"Thread(tid={self.tid}, pid={self.process.pid}, rip={self.context.rip:#x})"


class Process:
    """One simulated process."""

    def __init__(self, kernel, pid: int, path: str = "",
                 argv: Optional[List[str]] = None,
                 env: Optional[Dict[str, str]] = None):
        self.kernel = kernel
        self.pid = pid
        self.path = path
        self.argv = list(argv or [])
        self.env: Dict[str, str] = dict(env or {})
        self.address_space = AddressSpace()
        self.threads: List[Thread] = []
        self.fds: Dict[int, FileDescriptor] = {}
        self._next_fd = 3  # 0/1/2 reserved for stdio
        self.cwd = "/"
        self.dispositions = SignalDispositions()
        self.exited = False
        self.exit_status: Optional[int] = None
        #: True when the process died to a signal whose default disposition
        #: dumps core (ProcessKilled.core) — signal(7)'s *Core* rows.
        self.core_dumped = False
        self.parent: Optional["Process"] = None
        self.children: List["Process"] = []
        #: Once any thread arms SUD, every kernel entry of this process pays
        #: the slow path (Table 5, "SUD-no-interposition").
        self.sud_armed_ever = False
        #: Cross-process tracer attached via ptrace (K23's ptracer stage).
        self.tracer = None
        #: seccomp filter-mode state (see repro.kernel.seccomp).
        from repro.kernel.seccomp import SeccompState

        self.seccomp = SeccompState()
        #: Whether the vDSO is available to this process (the tracer clears
        #: this to force timer calls through real syscalls, §5.2).
        self.vdso_enabled = True
        self.brk_cursor = 0
        #: name → (base address, image, namespace) for every loaded image.
        self.loaded_images: Dict[str, tuple] = {}
        #: Application syscalls issued before main (set by the loader stub).
        self.premain_syscalls = 0
        self.premain_log_len = 0
        #: stdout/stderr capture for tests and examples.
        self.output = bytearray()
        #: Arbitrary per-process state interposer libraries hang off the
        #: process (trampoline addresses, selectors, rewritten-site tables).
        self.interposer_state: Dict[str, object] = {}

    # -- threads ------------------------------------------------------------------

    def spawn_thread(self, core_id: Optional[int] = None) -> Thread:
        thread = Thread(self, core_id if core_id is not None
                        else len(self.threads))
        self.threads.append(thread)
        return thread

    @property
    def main_thread(self) -> Thread:
        return self.threads[0]

    @property
    def alive(self) -> bool:
        return not self.exited

    # -- file descriptors ------------------------------------------------------------

    def alloc_fd(self, descriptor: FileDescriptor) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self.fds[fd] = descriptor
        return fd

    def get_fd(self, fd: int) -> FileDescriptor:
        descriptor = self.fds.get(fd)
        if descriptor is None:
            raise VFSError(Errno.EBADF, f"bad fd {fd}")
        return descriptor

    def close_fd(self, fd: int) -> None:
        descriptor = self.fds.pop(fd, None)
        if descriptor is None:
            raise VFSError(Errno.EBADF, f"bad fd {fd}")
        if isinstance(descriptor, SocketFD) and descriptor.connection:
            descriptor.connection.server_close()
        if isinstance(descriptor, ListenFD):
            descriptor.listener.closed = True

    # -- exit ----------------------------------------------------------------------------

    def terminate(self, status: int) -> None:
        self.exited = True
        self.exit_status = status
        for thread in self.threads:
            thread.exited = True

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, path={self.path!r}, exited={self.exited})"
