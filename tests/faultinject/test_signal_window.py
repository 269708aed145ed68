"""Regression: a fault-injected signal landing inside an interposer
critical window (the host SIGSYS/slow-path handler that SUD and K23 run
syscall forwarding in) must be *deferred* to handler return, not delivered
into the window.

Before the fix, the outer host handler's context restore clobbered the
simulated handler's RIP redirect: SIGNAL_DELIVERY was charged twice, the
signal frame was orphaned, and the signal stayed masked forever.  Now
every mechanism delivers the injected signal exactly once, the simulated
handler runs, and thread state comes back clean — byte-identical output
across mechanisms.
"""

import pytest

from repro.arch.registers import Reg
from repro.faultinject.engine import FaultInjector
from repro.faultinject.schedule import FaultConfig, build_schedule
from repro.interposers.registry import REGISTRY
from repro.kernel import Kernel
from repro.kernel.syscalls import Nr, SIGCHLD
from repro.observability.events import SignalEvent
from repro.observability.sinks import RingBufferSink
from repro.workloads.programs import ProgramBuilder, data_ref

SIGNAL_COUNT = 3
PROG = "/bin/chldloop"


def build_chldloop(iterations: int = 60) -> ProgramBuilder:
    """A loop of writes with a simulated-code SIGCHLD handler that acks
    each delivery with a '+' then rt_sigreturns."""
    builder = ProgramBuilder(PROG)
    builder.string("msg", "x")
    builder.string("ack", "+")
    builder.start()
    asm = builder.asm
    asm.lea_rip_label(Reg.RSI, "handler")
    builder.libc("rt_sigaction", SIGCHLD, Reg.RSI, 0, 8)
    for _ in range(iterations):
        builder.libc("write", 1, data_ref("msg"), 1)
    builder.exit(0)
    builder.label("handler")
    asm.endbr64()
    builder.libc("write", 1, data_ref("ack"), 1)
    builder.direct_syscall(Nr.rt_sigreturn, mark="restore_rt")
    return builder


def run_mechanism(name: str):
    from repro.core import OfflinePhase
    from repro.core.offline import import_logs

    kernel = Kernel(seed=777, aslr=False)
    kernel.torn_window_probability = 0.0
    ring = RingBufferSink(capacity=16384)
    kernel.bus.attach(ring)
    build_chldloop().register(kernel)
    if REGISTRY.needs_offline(name):
        offline_kernel = Kernel(seed=778, aslr=False)
        build_chldloop().register(offline_kernel)
        offline = OfflinePhase(offline_kernel)
        offline.run(PROG)
        import_logs(kernel, offline.export())
    REGISTRY.create(name, kernel)
    config = FaultConfig(horizon=64, signal_count=SIGNAL_COUNT,
                         signals=(SIGCHLD,))
    FaultInjector(kernel, build_schedule(11, config))
    process = kernel.spawn_process(PROG)
    kernel.run_process(process, max_steps=2_000_000)
    assert process.exited, f"{name}: process did not exit"
    return process, ring


def chld_events(ring, kind: str):
    return [event for event in ring.events()
            if isinstance(event, SignalEvent)
            and event.signal == SIGCHLD and event.kind == kind]


@pytest.mark.parametrize("name", ("native", "SUD", "K23-default",
                                  "lazypoline"))
def test_injected_signal_delivered_once_and_clean(name):
    process, ring = run_mechanism(name)
    thread = process.main_thread
    assert process.exit_status == 0
    # The simulated handler ran once per injected signal...
    assert bytes(process.output).count(b"+") == SIGNAL_COUNT
    # ...and each delivery happened exactly once (no clobber/re-delivery).
    assert len(chld_events(ring, "deliver")) == SIGNAL_COUNT
    # Clean thread state: no orphaned frames, signal not left masked.
    assert thread.signal_frames == []
    assert SIGCHLD not in thread.blocked_signals
    assert thread.pending_signals == []


def test_output_identical_across_mechanisms():
    """Interposition must not change what the program computes — even with
    signals landing inside the interposers' critical windows."""
    outputs = {}
    for name in ("native", "SUD", "K23-default", "lazypoline"):
        process, _ring = run_mechanism(name)
        outputs[name] = bytes(process.output)
    assert len(set(outputs.values())) == 1, outputs


def test_deferral_happens_inside_host_windows():
    """Under SUD at least one injected signal arrives while the host
    SIGSYS handler is live and is deferred (the regression scenario)."""
    _process, ring = run_mechanism("SUD")
    assert len(chld_events(ring, "defer")) >= 1
    # Every deferred delivery was flushed into a real one afterwards.
    assert len(chld_events(ring, "deliver")) == SIGNAL_COUNT
