"""The simulated kernel: syscall dispatch, signals, scheduling, processes.

Dispatch order at a ``syscall`` instruction mirrors Linux:

1. **Syscall User Dispatch** — if the thread armed SUD and the selector says
   BLOCK (and the site is outside the allowlisted range), the call never
   executes; a SIGSYS is delivered instead.
2. **ptrace** — a traced syscall stops twice (entry/exit) with the tracer
   able to rewrite registers, memory, and the environment of ``execve``.
3. **Execution** — the syscall table runs; once any thread of the process
   has ever armed SUD, every kernel entry also pays the armed-SUD slow path
   (the cost Table 5 isolates as "SUD-no-interposition").

Ground-truth accounting: every *executed* syscall lands in ``syscall_log``
with an origin tag, and every vDSO invocation lands in ``vdso_calls`` — the
raw material for the exhaustiveness experiments (P2a/P2b).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from repro.arch.registers import Reg
from repro.cpu.blocks import run_unit
from repro.cpu.core import HostcallRegistry, step as cpu_step
from repro.cpu.engine import EngineConfig
from repro.cpu.cycles import SUD_CONTENTION_FACTOR, CycleModel, Event
from repro.cpu.state import Flags
from repro.errors import (
    Breakpoint,
    Halt,
    InvalidOpcode,
    ProcessExited,
    ProcessKilled,
    SegmentationFault,
    VFSError,
)
from repro.kernel.net import NetStack
from repro.kernel.process import Process, Thread
from repro.kernel.seccomp import SECCOMP_FILTER_COST, Action
from repro.kernel.syscall_impl import BLOCKED as BLOCKED_SENTINEL, SYSCALL_TABLE
from repro.kernel.signals import SignalContext, default_action
from repro.kernel.syscalls import (
    Errno,
    Nr,
    SIGILL,
    SIGSEGV,
    SIGSYS,
    SIGTRAP,
    SIGNAL_NAMES,
)
from repro.kernel.vfs import VFS
from repro.memory.pku import Pkru
from repro.observability.bus import Bus
from repro.observability.events import (EngineStats, IcacheShootdown,
                                        ProcessLifecycle, QuantumEnd,
                                        SignalEvent, SyscallEnter,
                                        SyscallExit)

#: Scheduler quantum: instructions per thread turn.
DEFAULT_QUANTUM = 100

#: The CPU faults a thread's unit can raise, each delivered as a
#: synchronous signal (:meth:`Kernel._fault`).
_CPU_FAULTS = (SegmentationFault, InvalidOpcode, Breakpoint, Halt)

#: :meth:`Kernel.interp_stats` key → the per-thread ``ICache`` counter it
#: sums, in report order.
_ICACHE_COUNTERS = (
    ("icache_hits", "hits"), ("icache_misses", "misses"),
    *((name, name) for name in (
        "block_hits", "block_installs", "chain_links", "chain_follows",
        "superblocks_formed", "superblock_hits", "traces_compiled",
        "trace_hits", "guard_fails", "invalidation_unlinks")))

_MASK64 = (1 << 64) - 1
_RCX, _R11 = int(Reg.RCX), int(Reg.R11)


def _step_one(thread: Thread, budget: int) -> int:
    """The single-step tier's unit: one instruction, whatever *budget*."""
    thread.unit_retired = 1
    cpu_step(thread)
    return 1


@dataclass
class SyscallRecord:
    """One executed system call (ground truth).

    Attributes:
        pid: calling process.
        nr: syscall number.
        site: address of the triggering ``syscall`` instruction, or 0 when
            the call was issued by host-level interposer code.
        origin: how the call reached execution —
            ``"app"`` (raw trap, uninterposed),
            ``"ptrace"`` (raw trap, observed by an attached tracer),
            ``"sud-handler"`` / ``"rewrite-handler"`` (an interposer
            forwarded the application's original call),
            ``"interposer-internal"`` (interposer bookkeeping, not
            application-requested).
        result: the value returned to the caller (negated errno on
            failure), or None when the handler fully managed the context
            (execve) or the call parked on the BLOCKED sentinel.
    """

    pid: int
    nr: int
    site: int
    origin: str
    result: Optional[int] = None

    @property
    def app_requested(self) -> bool:
        return self.origin != "interposer-internal"

    @property
    def interposed(self) -> bool:
        return self.origin in ("ptrace", "sud-handler", "rewrite-handler")


class Kernel:
    """One simulated machine: kernel state + scheduler + cycle accounting."""

    def __init__(self, seed: int = 0, costs: Optional[Dict] = None,
                 aslr: bool = True):
        self.vfs = VFS()
        self.net = NetStack()
        self.cycles = CycleModel(costs)
        #: Instrumentation bus (repro.observability): disabled until a
        #: sink attaches; every emit site below is one predicate while
        #: quiescent.  The cycle model shares it so charges surface as
        #: CycleCharge/RawCycles events.
        self.bus = Bus()
        self.cycles.bus = self.bus
        self.hostcalls = HostcallRegistry()
        self.processes: Dict[int, Process] = {}
        self._next_pid = 100
        self._next_tid = 1000
        self.rng = random.Random(seed)
        self.aslr = aslr
        self.syscall_log: List[SyscallRecord] = []
        self.vdso_calls: List[tuple] = []
        self.quantum = DEFAULT_QUANTUM
        self._preempting = False
        #: Execution-engine tiers layered on the block cache
        #: (repro.cpu.engine): block chaining, and the trace JIT that
        #: compiles hot chains, each with its own escape hatch
        #: (REPRO_NO_CHAIN / REPRO_NO_TRACE_JIT).  Semantics are
        #: byte-identical across every configuration; the tiers only
        #: remove interpreter overhead.
        self.engine = EngineConfig.from_env()
        #: Basic-block translation cache (repro.cpu.blocks).  The
        #: REPRO_NO_BLOCK_CACHE=1 escape hatch (read by
        #: ``EngineConfig.from_env``) selects the reference single-step
        #: path; results are byte-identical either way (the equivalence
        #: the lockstep tests assert), the block path is just faster.
        self.block_cache_enabled = self.engine.block_cache
        #: Probability that a mid-patch preemption window actually lets
        #: sibling threads run (pitfall P5).  The window is nanoseconds wide
        #: on hardware, so organic workloads rarely land in it; the default
        #: of 1.0 surfaces the hazard deterministically (as the P5 PoC
        #: does), while the performance harness sets 0.0 to measure the
        #: surviving fast path — matching the paper's completed benchmark
        #: runs of lazypoline.
        self.torn_window_probability = 1.0
        #: The interposer harness currently governing new processes (set by
        #: repro.interposers machinery; None = native execution).
        self.interposer = None
        #: Deterministic fault-injection engine (repro.faultinject).  Every
        #: hook site below is a cheap attribute check while this stays None;
        #: attaching an engine turns syscall entry/exit, unit and quantum
        #: boundaries, signal delivery, icache shootdowns, protection
        #: changes, and preemption windows into injection points.
        self.fault_injector = None
        #: Record/replay recorder (repro.replay).  Like the fault injector,
        #: a None check at scheduler-round boundaries while detached;
        #: attaching one turns round boundaries into checkpoint safe
        #: points (repro.replay.recorder.Recorder.on_round_boundary).
        self.recorder = None
        #: Open-loop admission driver (repro.traffic.fleet).  Same
        #: None-check-at-round-boundary contract as the recorder: when
        #: attached, the traffic engine releases scheduled arrivals into
        #: server connections between scheduler rounds, turning ``run``
        #: into an admission-paced serving loop.
        self.admission = None
        # Lazy import: the loader builds on kernel.process types.
        from repro.loader.linker import Loader

        self.loader = Loader(self)
        self._table = SYSCALL_TABLE

    # ------------------------------------------------------------- processes

    def new_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def new_tid(self) -> int:
        """Per-kernel tid allocation: two same-seed machines number their
        threads identically, so cross-run traces align per (pid, tid)
        track (``repro tracediff``)."""
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def spawn_process(self, path: str, argv: Optional[List[str]] = None,
                      env: Optional[Dict[str, str]] = None) -> Process:
        """Create a process and load *path* into it (fork+exec equivalent)."""
        process = Process(self, self.new_pid(), path, argv, env)
        self.processes[process.pid] = process
        self.emit_lifecycle("spawn", process)
        if self.interposer is not None:
            self.interposer.before_exec(process)
        self.loader.load_into(process, path, argv or [path], process.env)
        return process

    def find_process(self, pid: int) -> Optional[Process]:
        return self.processes.get(pid)

    def now_ns(self) -> int:
        """Monotonic clock derived from the cycle counter (3.2 GHz)."""
        return int(self.cycles.cycles / 3.2)

    def emit_lifecycle(self, kind: str, process: "Process",
                       status: Optional[int] = None, detail: str = "") -> None:
        """Publish a :class:`ProcessLifecycle` event (spawn/exec/exit)."""
        if self.bus.enabled:
            self.bus.emit(ProcessLifecycle, ts=self.cycles.cycles,
                          pid=process.pid, tid=0, kind=kind, path=process.path,
                          status=status, detail=detail)

    # ------------------------------------------------------------- dispatch

    def handle_syscall(self, thread: Thread) -> None:
        """Kernel entry from a ``syscall``/``sysenter`` instruction."""
        ctx = thread.context
        process = thread.process
        nr = ctx._regs[0]
        site = ctx.rip - 2

        # 0. Fault-injection hook: a remote selector flip (or similar) may
        # land here — after the application committed to the syscall but
        # before SUD reads the selector, the race window of pitfall P4.
        fi = self.fault_injector
        if fi is not None:
            fi.on_syscall_entry(thread, nr, site)

        bus = self.bus

        # 1. Syscall User Dispatch (should_dispatch is False whenever SUD
        # is off, so the native path skips the call).
        sud = thread.sud
        if sud.enabled and sud.should_dispatch(site, process.read_selector):
            if bus.enabled:
                bus.emit(SyscallEnter, ts=self.cycles.cycles, pid=process.pid,
                         tid=thread.tid, nr=nr, site=site, phase="sud")
            # A restarted blocking call (accept/recvfrom that parked inside
            # the handler's forwarded syscall) re-enters this path purely as
            # a simulation artifact; on hardware the thread blocks in-kernel
            # within the ORIGINAL dispatch, so the retry is not re-charged.
            restart_credit = thread._sud_restart_credit
            thread._sud_restart_credit = False
            if not restart_credit:
                self.cycles.charge(Event.KERNEL_SYSCALL)
                self.cycles.charge(Event.SUD_ARMED_SLOWPATH)
                armed = 0
                for t in process.threads:
                    if t.sud.enabled and not t.exited:
                        armed += 1
                if armed > 1:
                    # Multi-threaded signal-delivery contention (see
                    # repro.cpu.cycles.SUD_CONTENTION_FACTOR).
                    base = (self.cycles.costs[Event.SIGNAL_DELIVERY]
                            + self.cycles.costs[Event.SIGRETURN])
                    self.cycles.charge_cycles(
                        int((armed - 1) * SUD_CONTENTION_FACTOR * base),
                        label="sud-contention")
            self.deliver_signal(thread, SIGSYS, fault_rip=site,
                                info={"nr": nr, "site": site},
                                charge=not restart_credit, sync=True)
            if bus.enabled:
                bus.emit(SyscallExit, ts=self.cycles.cycles, pid=process.pid,
                         tid=thread.tid, nr=nr, phase="sud", result=None)
            return

        # 2. ptrace entry stop.
        tracer = process.tracer
        traced = tracer is not None and not tracer.detached
        proceed = True
        if traced:
            proceed = tracer.notify_entry(thread)

        # 2b. seccomp filter evaluation (after the ptrace entry stop, as on
        # Linux; filters see numbers and raw argument values only).
        if proceed and process.seccomp.active:
            self.cycles.charge_cycles(SECCOMP_FILTER_COST,
                                      label="seccomp-filter")
            verdict = process.seccomp.evaluate(nr, ctx.syscall_args())
            if verdict.action == Action.TRAP:
                restart_credit = thread._sud_restart_credit
                thread._sud_restart_credit = False
                if not restart_credit:
                    self.cycles.charge(Event.KERNEL_SYSCALL)
                if bus.enabled:
                    bus.emit(SyscallEnter, ts=self.cycles.cycles,
                             pid=process.pid, tid=thread.tid, nr=nr, site=site,
                             phase="seccomp-trap")
                self.deliver_signal(thread, SIGSYS, fault_rip=site,
                                    info={"nr": nr, "site": site,
                                          "seccomp": True},
                                    charge=not restart_credit, sync=True)
                if bus.enabled:
                    bus.emit(SyscallExit, ts=self.cycles.cycles,
                             pid=process.pid, tid=thread.tid, nr=nr,
                             phase="seccomp-trap", result=None)
                return
            if verdict.action == Action.ERRNO:
                ctx.set_syscall_result(-verdict.errno)
                ctx.set(Reg.RCX, ctx.rip)
                ctx.set(Reg.R11, 0x202)
                if bus.enabled:
                    bus.emit(SyscallEnter, ts=self.cycles.cycles,
                             pid=process.pid, tid=thread.tid, nr=nr, site=site,
                             phase="seccomp-errno")
                    bus.emit(SyscallExit, ts=self.cycles.cycles,
                             pid=process.pid, tid=thread.tid, nr=nr,
                             phase="seccomp-errno", result=-verdict.errno)
                if traced and not tracer.detached:
                    tracer.notify_exit(thread)
                return

        # 3. Execute.
        thread._just_execed = False
        if proceed:
            origin = "ptrace" if traced else "app"
            if bus.enabled:
                bus.emit(SyscallEnter, ts=self.cycles.cycles, pid=process.pid,
                         tid=thread.tid, nr=nr, site=site, phase=origin)
            regs = ctx._regs
            result = self.do_syscall(
                thread, nr,
                [regs[7], regs[6], regs[2], regs[10], regs[8], regs[9]],
                origin, site)
            if result is BLOCKED_SENTINEL:
                # Restartable syscall: back onto the syscall instruction;
                # the parked thread re-enters this path once the wake
                # condition fires.  Drop the provisional log record so
                # ground truth counts the call once.
                self.syscall_log.pop()
                ctx.rip = site
                if bus.enabled:
                    bus.emit(SyscallExit, ts=self.cycles.cycles,
                             pid=process.pid, tid=thread.tid, nr=nr,
                             phase=origin, result=None)
                return
            self.cycles.charge(Event.KERNEL_SYSCALL)
            if process.sud_armed_ever:
                self.cycles.charge(Event.SUD_ARMED_SLOWPATH)
            if result is not None and not thread._just_execed:
                ctx._regs[0] = result & _MASK64
            if bus.enabled:
                bus.emit(SyscallExit, ts=self.cycles.cycles, pid=process.pid,
                         tid=thread.tid, nr=nr, phase=origin,
                         result=result if isinstance(result, int) else None)

        if not thread._just_execed:
            # x86-64 syscall ABI: kernel clobbers RCX (return RIP) and R11
            # (RFLAGS) — the asymmetry K23's trampoline exploits (§6.2.1).
            regs = ctx._regs
            regs[_RCX] = ctx.rip & _MASK64
            regs[_R11] = 0x202
            if traced and not tracer.detached:
                tracer.notify_exit(thread)
        if proceed and fi is not None:
            # Return-to-user is where async signals land on Linux; forwarded
            # calls (sud-/rewrite-handler) fire this from the interposer's
            # forwarding routine (Interposer.run_hook).
            fi.on_syscall_exit(thread, nr, "ptrace" if traced else "app")

    def do_syscall(self, thread: Thread, nr: int, args: List[int],
                   origin: str, site: int = 0) -> Optional[int]:
        """Execute one syscall against the tables; returns the result value
        (or None when the handler fully managed the context, e.g. execve)."""
        record = SyscallRecord(thread.process.pid, nr, site, origin)
        self.syscall_log.append(record)
        fi = self.fault_injector
        if fi is not None and record.app_requested:
            # Transient-failure injection: the call "executes" but fails
            # with EINTR/EAGAIN/ENOMEM before reaching its implementation,
            # exactly as a signal- or memory-pressure-interrupted kernel
            # path would.  Interposer-internal bookkeeping is never failed.
            errno = fi.transient_errno(thread, nr, origin)
            if errno is not None:
                record.result = -errno
                return -errno
        impl = self._table.get(nr)
        if impl is None:
            record.result = -Errno.ENOSYS
            return record.result
        try:
            result = impl(self, thread, args)
        except VFSError as exc:
            record.result = -exc.errno
            return record.result
        if result is not BLOCKED_SENTINEL and isinstance(result, int):
            record.result = result
        return result

    def dispatch_hostcall(self, thread: Thread, index: int) -> None:
        """Run hostcall *index* for *thread* (what ``HOSTCALL`` executes;
        the executors reach the table through ``thread.hostcall_table``)."""
        self.hostcalls.table[index](thread)

    # --------------------------------------------------------------- signals

    def deliver_signal(self, thread: Thread, signal: int, fault_rip: int = 0,
                       info: Optional[Dict] = None,
                       charge: bool = True, sync: bool = False) -> None:
        """Deliver *signal* to *thread* per the process dispositions.

        A signal is masked while its own handler runs (host handlers until
        they return, simulated handlers until ``rt_sigreturn``), so the
        same signal never nests — in particular no nested SIGSYS while an
        interposer's host handler is forwarding the original call.  An
        async signal arriving masked is queued on ``thread.pending_signals``
        and flushed after the handler completes; a *synchronous* fault
        (``sync=True``: SIGSEGV/SIGILL/SIGTRAP/SIGSYS raised by the
        faulting instruction itself) arriving masked force-kills with the
        default disposition, as Linux's ``force_sig`` does — the
        alternative is re-executing the faulting instruction forever.

        A *simulated-address* delivery that lands while a **host** handler
        is on this thread's stack (e.g. a fault-injected SIGCHLD at the
        exit of a call an interposer's SIGSYS handler forwarded) is
        deferred to return-to-user: setting up the user frame immediately
        would be undone by the enclosing host handler's context restore,
        double-charging the delivery and orphaning the frame.  Linux has
        no such case — from the kernel's viewpoint the SIGSYS handler *is*
        user code, and new signals are delivered when it returns.
        """
        bus = self.bus
        pid = thread.process.pid
        if self.fault_injector is not None:
            self.fault_injector.on_signal(thread, signal)
        if signal in thread.blocked_signals:
            detail = SIGNAL_NAMES.get(signal, str(signal))
            if sync:
                if bus.enabled:
                    bus.emit(SignalEvent, ts=self.cycles.cycles, pid=pid,
                             tid=thread.tid, signal=signal, kind="forced",
                             sync=True)
                default_action(signal, detail + " (blocked, forced)")
                return
            if bus.enabled:
                bus.emit(SignalEvent, ts=self.cycles.cycles, pid=pid,
                         tid=thread.tid, signal=signal, kind="queue")
            thread.pending_signals.append((signal, fault_rip, info or {}))
            return
        action = thread.process.dispositions.get_action(signal)
        if action is None:
            detail = SIGNAL_NAMES.get(signal, str(signal))
            if info:
                detail += f" ({info})"
            if bus.enabled:
                bus.emit(SignalEvent, ts=self.cycles.cycles, pid=pid,
                         tid=thread.tid, signal=signal, kind="default",
                         sync=sync)
            default_action(signal, detail)
            return
        if callable(action):
            if charge:
                self.cycles.charge(Event.SIGNAL_DELIVERY)
            if bus.enabled:
                bus.emit(SignalEvent, ts=self.cycles.cycles, pid=pid,
                         tid=thread.tid, signal=signal, kind="deliver",
                         sync=sync)
            thread._just_execed = False
            # The frame takes the live register list, flags and PKRU, and
            # the handler runs on copies: the same values as a
            # CpuContext.save() snapshot, and the frame dies at sigreturn,
            # so sigreturn reinstalls its objects without copying them.
            ctx = thread.context
            regs, flags, pkru = ctx._regs, ctx.flags, ctx.pkru
            saved = {"regs": regs, "rip": ctx.rip, "flags": flags,
                     "pkru": pkru}
            ctx._regs = regs[:]
            ctx.flags = Flags(flags.zf, flags.sf)
            ctx.pkru = Pkru(pkru.value)
            sigctx = SignalContext(signal, thread, saved, fault_rip,
                                   info or {})
            thread.blocked_signals.add(signal)
            thread._host_handler_depth += 1
            try:
                action(sigctx)
            finally:
                thread._host_handler_depth -= 1
                thread.blocked_signals.discard(signal)
            if charge:
                self.cycles.charge(Event.SIGRETURN)
            if bus.enabled:
                bus.emit(SignalEvent, ts=self.cycles.cycles, pid=pid,
                         tid=thread.tid, signal=signal, kind="return",
                         sync=sync)
            if not thread._just_execed:
                # rt_sigreturn semantics; skipped when the handler execve'd
                # (the frame belongs to the torn-down image).
                ctx, saved = thread.context, sigctx.saved
                ctx._regs = saved["regs"]
                ctx.rip = saved["rip"]
                ctx.flags = saved["flags"]
                ctx.pkru = saved["pkru"]
            if thread.pending_signals:
                self.flush_pending_signals(thread)
            return
        if thread._host_handler_depth > 0 and not sync:
            # Deferred: delivered for real (charged, frame pushed) by the
            # enclosing host handler's flush_pending_signals once its
            # context restore has run — see the docstring.
            if bus.enabled:
                bus.emit(SignalEvent, ts=self.cycles.cycles, pid=pid,
                         tid=thread.tid, signal=signal, kind="defer")
            thread.pending_signals.append((signal, fault_rip, info or {}))
            return
        # Simulated-address handler: push a frame, mask the signal until
        # rt_sigreturn, redirect RIP.
        self.cycles.charge(Event.SIGNAL_DELIVERY)
        if bus.enabled:
            bus.emit(SignalEvent, ts=self.cycles.cycles, pid=pid,
                     tid=thread.tid, signal=signal, kind="deliver", sync=sync)
        thread.blocked_signals.add(signal)
        thread.signal_frames.append((signal, thread.context.save()))
        thread.context.set(Reg.RDI, signal)
        thread.context.rip = action

    def flush_pending_signals(self, thread: Thread) -> None:
        """Deliver queued async signals whose mask has cleared (called when
        a host handler returns and at ``rt_sigreturn``).  No-op while a
        host handler is still on the thread's stack: delivery there would
        be clobbered by the enclosing restore; the outermost handler's
        flush (depth 0) drains the queue."""
        if thread._host_handler_depth > 0:
            return
        while thread.pending_signals:
            for i, (signal, fault_rip, info) in enumerate(
                    thread.pending_signals):
                if signal not in thread.blocked_signals:
                    del thread.pending_signals[i]
                    self.deliver_signal(thread, signal, fault_rip=fault_rip,
                                        info=info)
                    break
            else:
                return

    # ----------------------------------------------------- coherence / hooks

    def icache_shootdown(self, process: Process, start: int,
                         length: int) -> None:
        """Invalidate every core's decoded lines and recorded blocks over
        ``[start, start+length)`` — the IPI-based shootdown ``munmap`` and
        ``mmap(MAP_FIXED)`` perform on real kernels (unlike plain stores
        and ``mprotect``, which leave stale decodes in place — P5)."""
        for thread in process.threads:
            thread.icache.invalidate_range(start, length)
        if self.bus.enabled:
            self.bus.emit(IcacheShootdown, ts=self.cycles.cycles,
                          pid=process.pid, tid=0, start=start, length=length)
        if self.fault_injector is not None:
            self.fault_injector.on_icache_flush(process, start, length)

    def notify_prot_change(self, thread: Thread, start: int, length: int,
                           prot: int) -> None:
        """Fault-injection hook site: a page-permission change landed."""
        if self.fault_injector is not None:
            self.fault_injector.on_prot_change(thread, start, length, prot)

    # -------------------------------------------------------------- scheduler

    def step_thread(self, thread: Thread) -> bool:
        """Execute one instruction, converting faults to signals.

        Returns False when the thread/process can no longer run.
        """
        try:
            cpu_step(thread)
            return True
        except ProcessExited as exc:
            self._terminate(thread.process, exc)
            return False
        except _CPU_FAULTS as exc:
            return self._fault(thread, exc)

    def _fault(self, thread: Thread, exc: Exception) -> bool:
        """Deliver the synchronous signal of CPU fault *exc*; returns
        False when it killed the process."""
        if isinstance(exc, SegmentationFault):
            signal, info = SIGSEGV, {"addr": exc.address,
                                     "access": exc.access,
                                     "reason": exc.reason}
        elif isinstance(exc, InvalidOpcode):
            signal, info = SIGILL, {"addr": exc.address}
        elif isinstance(exc, Breakpoint):
            signal, info = SIGTRAP, {"addr": exc.address}
        else:
            signal, info = SIGSEGV, {"reason": "hlt"}
        try:
            self.deliver_signal(thread, signal, fault_rip=thread.context.rip,
                                info=info, sync=True)
            return True
        except ProcessExited as exc:
            self._terminate(thread.process, exc)
            return False

    def _terminate(self, process: Process, exc: ProcessExited) -> None:
        process.terminate(exc.status)
        process.core_dumped = bool(getattr(exc, "core", False))
        process.kill_detail = getattr(exc, "detail", "") or getattr(
            exc, "reason", "")
        self.emit_lifecycle("exit", process, status=process.exit_status,
                            detail=process.kill_detail)
        if self.interposer is not None:
            self.interposer.on_process_exit(process)

    def _turn(self, thread: Thread, left: int) -> int:
        """One scheduler turn of *thread*; returns instructions retired.

        The turn runs units (one instruction each without the block
        cache, a block or chain of blocks with it) until the thread has
        used its quantum, stops being runnable, or has retired *left*
        instructions.  The cap is checked after each unit, so a turn
        retires at least one instruction even when *left* is not
        positive.  A fault becomes its signal: the faulting instruction
        counts iff the signal was delivered (``thread.unit_retired``
        marks it within the unit), and a process exit leaves the final
        instruction uncounted.

        Fault injection: an attached engine clips each unit's budget so
        unit boundaries land *exactly* on instruction-count trigger
        points, and its ``on_unit_boundary`` hook then fires triggers at
        identical retire counts in every tier.
        """
        execute = run_unit if self.block_cache_enabled else _step_one
        fi = self.fault_injector
        quantum = self.quantum
        process = thread.process
        done = 0
        while done < quantum:
            if thread.exited or process.exited or \
                    thread.block_condition is not None:
                break
            budget = quantum - done
            rest = left - done
            if rest < budget:
                budget = rest if rest > 1 else 1
            if fi is not None:
                budget = fi.clip_budget(budget)
            thread.unit_retired = 0
            try:
                done += execute(thread, budget)
            except ProcessExited as exc:
                self._terminate(process, exc)
                done += thread.unit_retired - 1
                break
            except _CPU_FAULTS as exc:
                if not self._fault(thread, exc):
                    done += thread.unit_retired - 1
                    break
                done += thread.unit_retired
            if fi is not None:
                try:
                    fi.on_unit_boundary(thread)
                except ProcessExited as exc:
                    self._terminate(process, exc)
                    break
            if done >= left:
                break
        self._quantum_boundary(thread)
        return done

    def runnable_threads(self) -> List[Thread]:
        threads = []
        for process in self.processes.values():
            if process.exited:
                continue
            for thread in process.threads:
                if thread.exited:
                    continue
                if thread.block_condition is not None and not thread.try_unblock():
                    continue
                threads.append(thread)
        return threads

    def run(self, max_steps: int = 5_000_000) -> int:
        """Round-robin scheduler; returns instructions retired.

        Each turn (:meth:`_turn`) caps its units by both the remaining
        quantum and ``max_steps``, so the retire count — including the
        one-extra-step-per-remaining-thread overshoot once the cap is hit
        mid-round — is the same in every engine tier.
        """
        retired = 0
        while retired < max_steps:
            threads = self.runnable_threads()
            if not threads:
                # Every thread parked (e.g. the whole fleet in
                # epoll_wait): the admission driver may still have
                # scheduled arrivals to release — including jumping
                # virtual time forward to the next due arrival.
                if self.admission is not None and \
                        self.admission.on_round_boundary(retired):
                    continue
                break
            progressed = False
            for thread in threads:
                done = self._turn(thread, max_steps - retired)
                if done:
                    retired += done
                    progressed = True
            if self.recorder is not None:
                self.recorder.on_round_boundary(retired)
            if self.admission is not None:
                # Arrivals delivered into connections can unblock parked
                # server threads, so a delivery counts as progress.
                if self.admission.on_round_boundary(retired):
                    progressed = True
            if not progressed:
                break
        return retired

    def run_process(self, process: Process, max_steps: int = 5_000_000) -> int:
        """Run until *process* exits (other processes keep scheduling too)."""
        retired = 0
        while not process.exited and retired < max_steps:
            before = retired
            threads = self.runnable_threads()
            if not threads:
                break
            for thread in threads:
                # A turn runs its full quantum even when it crosses
                # max_steps: this loop checks the cap between rounds only.
                retired += self._turn(thread, self.quantum)
            if self.recorder is not None:
                self.recorder.on_round_boundary(retired)
            if self.admission is not None and \
                    self.admission.on_round_boundary(retired):
                continue
            if retired == before:
                break
        if self.bus.enabled:
            self._emit_engine_stats()
        return retired

    def _emit_engine_stats(self) -> None:
        """Emit one :class:`EngineStats` event (attached-sink runs only:
        the null-sink fast path never pays the counter aggregation)."""
        stats = self.interp_stats()
        counters = {field.name: stats[field.name]
                    for field in fields(EngineStats) if field.name in stats}
        self.bus.emit(EngineStats, ts=self.cycles.cycles, pid=0, tid=0,
                      tiers=self.engine.tiers(self.block_cache_enabled),
                      **counters)

    def _quantum_boundary(self, thread: Thread) -> None:
        """Fault-injection hook at the end of a thread's scheduler turn."""
        if not thread.runnable:
            return
        if self.bus.enabled:
            self.bus.emit(QuantumEnd, ts=self.cycles.cycles,
                          pid=thread.process.pid, tid=thread.tid)
        fi = self.fault_injector
        if fi is None:
            return
        try:
            fi.on_quantum_boundary(thread)
        except ProcessExited as exc:
            self._terminate(thread.process, exc)

    def preemption_window(self, current: Thread, steps: int = 20) -> None:
        """Let *other* threads of the same process run briefly.

        Models the preemption window a host-level handler body is exposed to
        mid-operation — the window lazypoline's non-atomic two-byte patch
        opens (P5).  No-op when re-entered.
        """
        if self._preempting:
            return
        if self.torn_window_probability < 1.0 and \
                self.rng.random() >= self.torn_window_probability:
            return
        self._preempting = True
        try:
            if self.fault_injector is not None:
                # The injection point for remote-thread munmap/mprotect/
                # code-patch events inside interposer-critical windows.
                self.fault_injector.on_preemption_window(current)
            for thread in list(current.process.threads):
                if thread is current or not thread.runnable:
                    continue
                for _ in range(steps):
                    if not thread.runnable:
                        break
                    if not self.step_thread(thread):
                        break
        finally:
            self._preempting = False

    # ------------------------------------------------------------ introspection

    def interp_stats(self) -> Dict[str, int]:
        """Aggregate interpreter counters across every thread ever run:
        decoded-line and basic-block cache activity plus instructions
        retired (for insns/sec reporting in ``evalrun --verbose`` and the
        interpreter benchmarks)."""
        icaches = [thread.icache for process in self.processes.values()
                   for thread in process.threads]
        stats = {"instructions": self.cycles.counts[Event.INSTRUCTION]}
        for key, counter in _ICACHE_COUNTERS:
            stats[key] = sum(getattr(icache, counter) for icache in icaches)
        return stats

    def app_requested_syscalls(self, pid: Optional[int] = None) -> List[SyscallRecord]:
        """Executed syscalls the application asked for (ground truth)."""
        return [r for r in self.syscall_log
                if r.app_requested and (pid is None or r.pid == pid)]

    def uninterposed_syscalls(self, pid: Optional[int] = None) -> List[SyscallRecord]:
        """Application syscalls that executed without any interposer seeing
        them — the misses behind P1/P2."""
        return [r for r in self.app_requested_syscalls(pid)
                if r.origin == "app"]
