"""The fault-injection engine: executes a :class:`FaultSchedule` against a
running :class:`repro.kernel.Kernel`.

The engine attaches as ``kernel.fault_injector`` and receives callbacks
from the kernel's hook points (syscall entry/exit, unit and quantum
boundaries, signal delivery, icache shootdowns, page-permission changes,
preemption windows).  All triggering state is *occurrence counting* —
"the 7th app-requested syscall", "the 3rd preemption window", "retired
instruction 12 000" — never wall-clock or host randomness, so a given
(seed, config, workload, mechanism) tuple replays bit-identically, with
the block cache on or off.

Two counting subtleties keep schedules mechanism-invariant:

- Only *main-phase* activity counts (``process.premain_log_len > 0``):
  loader and interposer-constructor syscalls differ per mechanism and
  would otherwise misalign occurrence indices between a mechanism run and
  the null-interposer oracle.
- Timer syscalls are exempt (:data:`~repro.faultinject.schedule.COUNT_EXEMPT`):
  K23 disables the vDSO, so counting ``clock_gettime`` would shift every
  later index on K23 only.

Instruction-count triggers respect the block cache by **dooming replay at
the trigger point**: :meth:`FaultInjector.clip_budget` caps each unit's
budget at the distance to the next trigger, so a recorded block is cut
short (replayed partially, with the overshoot un-charged) and the unit
boundary lands exactly on the scheduled count — the same retire position
the single-step interpreter reaches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cpu.cycles import Event
from repro.errors import MapError, SegmentationFault
from repro.observability.events import FaultInjected
from repro.faultinject.schedule import (COUNT_EXEMPT, Fault, FaultConfig,
                                        FaultSchedule)
from repro.kernel.syscalls import (Nr, SIGNAL_NAMES,
                                   SYSCALL_DISPATCH_FILTER_ALLOW,
                                   SYSCALL_DISPATCH_FILTER_BLOCK)
from repro.memory.pages import Prot, round_up_pages


class FaultInjector:
    """Drives one schedule against one kernel (attach-on-construct).

    Attributes:
        log: human-readable record of every injection actually performed,
            in order.  Because all triggers are occurrence-based, this log
            is itself a determinism artifact: two runs of the same cell
            must produce identical logs.
    """

    def __init__(self, kernel, schedule: FaultSchedule,
                 main_phase_only: bool = True):
        self.kernel = kernel
        self.schedule = schedule
        self.config: FaultConfig = schedule.config
        self.main_phase_only = main_phase_only
        self.log: List[str] = []
        # Occurrence counters (all main-phase).
        self.app_calls = 0        # app-requested syscalls executed
        self.entries = 0          # raw kernel entries of SUD-armed threads
        self.windows = 0          # preemption windows opened
        self.quanta = 0           # scheduler turns completed
        self.flushes = 0          # icache shootdowns
        self.prot_changes = 0     # page-permission changes
        self.signals_seen = 0     # deliveries observed (any signal)
        self._errno_draws = schedule.errno_draws
        self._exit_faults = self._index("syscall-exit")
        self._entry_faults = self._index("syscall-entry")
        self._quantum_faults = self._index("quantum")
        self._window_faults = self._index("window")
        self._flush_faults = self._index("icache-flush")
        self._prot_faults = self._index("prot-change")
        self._insn_faults = sorted(schedule.by_trigger("insn"),
                                   key=lambda f: f.at)
        self._insn_idx = 0
        self._selector_restore: Optional[Tuple[object, int, int]] = None
        kernel.fault_injector = self

    def _note(self, text: str, thread=None, process=None) -> None:
        """Record one performed injection: append to the determinism log
        and publish it on the kernel's instrumentation bus."""
        self.log.append(text)
        bus = self.kernel.bus
        if bus.enabled:
            pid = tid = 0
            if thread is not None:
                pid, tid = thread.process.pid, thread.tid
            elif process is not None:
                pid = process.pid
            bus.emit(FaultInjected, ts=self.kernel.cycles.cycles, pid=pid,
                     tid=tid, description=text)

    def detach(self) -> None:
        if self.kernel.fault_injector is self:
            self.kernel.fault_injector = None

    def _index(self, trigger: str) -> Dict[int, List[Fault]]:
        index: Dict[int, List[Fault]] = {}
        for fault in self.schedule.by_trigger(trigger):
            index.setdefault(fault.at, []).append(fault)
        return index

    def _main_phase(self, process) -> bool:
        return not self.main_phase_only or process.premain_log_len > 0

    def _insn_count(self) -> int:
        return self.kernel.cycles.counts[Event.INSTRUCTION]

    # ------------------------------------------------------------ syscalls

    def on_syscall_entry(self, thread, nr: int, site: int) -> None:
        """Raw kernel entry, before SUD reads the selector byte."""
        self._restore_selector()
        if not self._main_phase(thread.process):
            return
        sud = thread.sud
        if not (sud.enabled and sud.selector_addr):
            return
        at = self.entries
        self.entries += 1
        for fault in self._entry_faults.get(at, ()):
            self._flip_selector(thread, fault, at, nr)

    def _flip_selector(self, thread, fault: Fault, at: int, nr: int) -> None:
        """The check-to-entry race: the selector byte changes after the
        interposer last looked at it but before the kernel reads it."""
        space = thread.process.address_space
        addr = thread.sud.selector_addr
        try:
            current = space.read_kernel(addr, 1)[0]
        except SegmentationFault:
            return
        if fault.action == "selector-flip":
            wanted = SYSCALL_DISPATCH_FILTER_ALLOW
            if current != SYSCALL_DISPATCH_FILTER_BLOCK:
                return
        elif fault.action == "selector-block":
            wanted = SYSCALL_DISPATCH_FILTER_BLOCK
            if current != SYSCALL_DISPATCH_FILTER_ALLOW:
                return
        else:
            return
        space.write_kernel(addr, bytes([wanted]))
        self._selector_restore = (thread, addr, current)
        self._note(f"{fault.action}@entry{at}: {Nr.name_of(nr)} "
                   f"selector {current}->{wanted}", thread=thread)

    def _restore_selector(self) -> None:
        if self._selector_restore is None:
            return
        thread, addr, value = self._selector_restore
        self._selector_restore = None
        try:
            thread.process.address_space.write_kernel(addr, bytes([value]))
        except SegmentationFault:
            pass

    def transient_errno(self, thread, nr: int, origin: str) -> Optional[int]:
        """Per-occurrence transient-failure decision (the kernel consults
        this from ``do_syscall`` before running the implementation)."""
        if nr in COUNT_EXEMPT or not self._main_phase(thread.process):
            return None
        at = self.app_calls
        self.app_calls += 1
        if at >= len(self._errno_draws):
            return None
        draw, errno = self._errno_draws[at]
        if nr not in self.config.injectable:
            return None
        if draw >= self.config.rate_for(nr):
            return None
        from repro.kernel.syscalls import Errno

        self._note(f"errno@call{at}: {Nr.name_of(nr)} -> "
                   f"-{Errno(errno).name} [{origin}]", thread=thread)
        return errno

    def on_syscall_exit(self, thread, nr: int, origin: str) -> None:
        """Return-to-user after an app-requested call completed."""
        self._restore_selector()
        if nr in COUNT_EXEMPT or not self._main_phase(thread.process):
            return
        at = self.app_calls - 1
        for fault in self._exit_faults.pop(at, ()):
            if fault.action == "signal":
                self._note(
                    f"signal@exit{at}: {SIGNAL_NAMES.get(fault.arg, fault.arg)}"
                    f" after {Nr.name_of(nr)} [{origin}]", thread=thread)
                self.kernel.deliver_signal(thread, fault.arg)

    # --------------------------------------------------- instruction counts

    def clip_budget(self, budget: int) -> int:
        """Cap a unit budget so the unit boundary lands exactly on the next
        scheduled instruction-count trigger (dooms block replay there)."""
        if self._insn_idx >= len(self._insn_faults):
            return budget
        remaining = self._insn_faults[self._insn_idx].at - self._insn_count()
        if remaining <= 0:
            return budget
        return min(budget, remaining)

    def on_unit_boundary(self, thread) -> None:
        """Fires every due instruction-count trigger (both modes reach the
        same counts at unit boundaries, so firing positions are identical
        with the block cache on or off)."""
        if self._insn_idx >= len(self._insn_faults):
            return
        count = self._insn_count()
        while (self._insn_idx < len(self._insn_faults)
               and self._insn_faults[self._insn_idx].at <= count):
            fault = self._insn_faults[self._insn_idx]
            self._insn_idx += 1
            if fault.action == "signal":
                self._note(
                    f"signal@insn{fault.at}: "
                    f"{SIGNAL_NAMES.get(fault.arg, fault.arg)} "
                    f"(count={count})", thread=thread)
                self.kernel.deliver_signal(thread, fault.arg)

    def on_quantum_boundary(self, thread) -> None:
        at = self.quanta
        self.quanta += 1
        for fault in self._quantum_faults.pop(at, ()):
            if fault.action == "signal":
                self._note(
                    f"signal@quantum{at}: "
                    f"{SIGNAL_NAMES.get(fault.arg, fault.arg)}",
                    thread=thread)
                self.kernel.deliver_signal(thread, fault.arg)

    # ------------------------------------------------------ windows / memory

    def on_preemption_window(self, current) -> None:
        """An interposer-critical window opened (e.g. mid two-byte patch):
        the scheduled remote-thread events land here."""
        at = self.windows
        self.windows += 1
        for fault in self._window_faults.pop(at, ()):
            self._apply_window(current, fault, at)

    def _apply_window(self, thread, fault: Fault, at: int) -> None:
        process = thread.process
        space = process.address_space
        try:
            if fault.action == "munmap":
                space.munmap(fault.addr, fault.length)
                self.kernel.icache_shootdown(process, fault.addr,
                                             round_up_pages(fault.length))
                self._note(f"munmap@window{at}: {fault.addr:#x}"
                           f"+{fault.length:#x}", thread=thread)
            elif fault.action == "mprotect":
                space.mprotect(fault.addr, fault.length,
                               Prot(fault.arg & 0x7))
                self.kernel.notify_prot_change(thread, fault.addr,
                                               fault.length, fault.arg & 0x7)
                self._note(f"mprotect@window{at}: {fault.addr:#x}"
                           f"+{fault.length:#x} prot={fault.arg}",
                           thread=thread)
            elif fault.action == "patch":
                # Remote-core store, deliberately with NO shootdown: the
                # victim core keeps executing stale decodes (P5).
                space.write_kernel(fault.addr, fault.data)
                self._note(f"patch@window{at}: {fault.addr:#x} "
                           f"<- {fault.data.hex()}", thread=thread)
            elif fault.action == "signal":
                self._note(
                    f"signal@window{at}: "
                    f"{SIGNAL_NAMES.get(fault.arg, fault.arg)}",
                    thread=thread)
                self.kernel.deliver_signal(thread, fault.arg)
        except (MapError, SegmentationFault) as exc:
            self._note(f"window{at}: {fault.action} failed ({exc})",
                       thread=thread)

    # ------------------------------------------------------- passive counters

    def on_signal(self, thread, signal: int) -> None:
        self.signals_seen += 1

    def on_icache_flush(self, process, start: int, length: int) -> None:
        at = self.flushes
        self.flushes += 1
        for fault in self._flush_faults.pop(at, ()):
            if fault.action == "signal":
                self._note(
                    f"signal@flush{at}: "
                    f"{SIGNAL_NAMES.get(fault.arg, fault.arg)}",
                    process=process)
                self.kernel.deliver_signal(process.main_thread, fault.arg)

    def on_prot_change(self, thread, start: int, length: int,
                       prot: int) -> None:
        at = self.prot_changes
        self.prot_changes += 1
        for fault in self._prot_faults.pop(at, ()):
            if fault.action == "signal":
                self._note(
                    f"signal@prot{at}: "
                    f"{SIGNAL_NAMES.get(fault.arg, fault.arg)}",
                    thread=thread)
                self.kernel.deliver_signal(thread, fault.arg)
