"""Charge-order oracle: the ordered stream of cycle charges and syscall
and signal events of an interposed run, pinned as a SHA-256 digest.

The totals oracle (``test_charge_totals.py``) checks *how much* each
mechanism charges; this one checks *in which order* and *at which cycle*.
A sink that takes every charge as its own event records, in bus order:

- every ``CycleCharge`` except ``INSTRUCTION`` (whose batching differs by
  engine tier), with its ``ts``;
- every ``RawCycles``;
- every ``SyscallEnter``, ``SyscallExit`` and ``SignalEvent``.

``ts`` at these points does not depend on the engine tier: each one sits
at a syscall, hostcall or signal boundary, where every tier has charged
the same instructions.  So the digests hold under ``REPRO_NO_CHAIN``,
``REPRO_NO_TRACE_JIT`` and the default engine alike (CI's engine-matrix
job runs this file under all three).

Pinned: all nine mechanisms on stress and on a short redis-1t drive, a
fault-injected K23-ultra run (an errno, a BLOCKED restart, an execve) and
K23's libLogger offline phase.  A change to the interposed-syscall path
that swaps two charges, drops or adds one, or moves a bus event across a
charge changes a digest here.
"""

import hashlib

import pytest

from repro import runapi
from repro.arch.registers import Reg
from repro.core import K23Interposer, OfflinePhase
from repro.core.offline import import_logs
from repro.faultinject.engine import FaultInjector
from repro.faultinject.schedule import FaultConfig, build_schedule
from repro.kernel import Kernel
from repro.kernel.syscalls import Errno, Nr
from repro.observability.events import (CycleCharge, RawCycles, SignalEvent,
                                        SyscallEnter, SyscallExit)
from repro.observability.sinks import Sink
from repro.runapi import RunConfig
from repro.workloads.programs import ProgramBuilder, data_ref
from tests.simutil import make_hello

MECHANISMS = ("native", "zpoline-default", "zpoline-ultra", "lazypoline",
              "K23-default", "K23-ultra", "K23-ultra+",
              "SUD-no-interposition", "SUD")


class ChargeSequenceSink(Sink):
    """Hashes the ordered charge stream as it arrives."""

    each_event = True
    each_charge = True

    def __init__(self):
        self.digest = hashlib.sha256()
        self.records = 0
        self.kinds = set()

    def _add(self, record):
        self.digest.update(repr(record).encode())
        self.digest.update(b"\n")
        self.records += 1

    def accept(self, event):
        cls = type(event)
        if cls is CycleCharge:
            if event.event != "instruction":
                self._add(("C", event.ts, event.event, event.times,
                           event.cycles))
        elif cls is RawCycles:
            self._add(("R", event.ts, event.label, event.cycles))
        elif cls is SyscallEnter:
            self._add(("E", event.ts, event.pid, event.tid, event.nr,
                       event.site, event.phase))
        elif cls is SyscallExit:
            self.kinds.add(("exit", event.phase, event.result is None))
            self._add(("X", event.ts, event.pid, event.tid, event.nr,
                       event.phase, event.result))
        elif cls is SignalEvent:
            self._add(("S", event.ts, event.pid, event.tid, event.signal,
                       event.kind, event.sync))

    def hexdigest(self):
        return self.digest.hexdigest()


#: (workload, mechanism) → digest, recorded before the interposed path
#: was restructured; every later version of the path must reproduce them.
EXPECTED = {
    ("redis-1t", "native"):
        "e7c4c585b58cf81aa88274438176d232ea0db1c83cc6845fa752ea5facd809b7",
    ("redis-1t", "zpoline-default"):
        "68049012103a0ecd701311bae93da390d37775052498de82b3449325b7854e7f",
    ("redis-1t", "zpoline-ultra"):
        "f90356765fe6499f30cc54b3e4aa94fa61f6f16ec0ae9825d09b7ec9f3ccf777",
    ("redis-1t", "lazypoline"):
        "0a9707be0c611a73f974667a95564ca7c3d38a92e16df12d74dce8f9c6ece8c7",
    ("redis-1t", "K23-default"):
        "a9e936649b96e776511267bc541bab4b2f125d8493c5b29639e9bffeb86c51a2",
    ("redis-1t", "K23-ultra"):
        "05f4eb31d49811d15c40155b61d4e25215c53d04b14b57c22ec8581e125c7548",
    ("redis-1t", "K23-ultra+"):
        "192c642f974694543d8b082ae40beaa13ed276e69f99b0261ff3fd007440df93",
    ("redis-1t", "SUD-no-interposition"):
        "399ba59ad5fbc50c5245e1fd98a453b17c7040b29ca0c406c879c1581755481c",
    ("redis-1t", "SUD"):
        "eb4e7aedb9801bd0dff5943046f65eba07b72500fb4b0f491f9a68ffbf0ae853",
    ("stress", "native"):
        "97aa4037f23dc23d86182f624206184554138fd77afa2c47ab10ce2980d1fdc5",
    ("stress", "zpoline-default"):
        "82fbffd7d4ba8adcee08bfa2b8f1c6a33e1023a3474f2b9649e6850c50248346",
    ("stress", "zpoline-ultra"):
        "c09b218a1d7addd930932a1e447c978f6097265a55ffef64170264d8b3c6aee3",
    ("stress", "lazypoline"):
        "9f6953d5bfa8345bb12a95f5fa5faba372012402a3b3b8888a7e43ae6634fba9",
    ("stress", "K23-default"):
        "c3350e7d3f677ca1c92b1900d6f2f4da33ca72763e8badfff8c83cf10bef2409",
    ("stress", "K23-ultra"):
        "d7d349ce80a3188d2798ece3efdb642c855cd423b8232207cddf4a71bc7e8010",
    ("stress", "K23-ultra+"):
        "78b41784ba6d4d2d63f6716404bad1e2ddb178995332bd830e17c27f7f9b486f",
    ("stress", "SUD-no-interposition"):
        "bbdd7cedd50ab754b0bfff5fe48fcef63760c0793f122287f687228c7c1998ee",
    ("stress", "SUD"):
        "3b5e82e45f8c1bdc56b1f5b3369bf39b106615f237cf7c100408ba262db5cee7",
    ("fault-injected", "K23-ultra"):
        "6092b3fd005e443ec276538e930384c113e6d51d7cd4b1cee27d453aa52cac05",
    ("offline", "libLogger"):
        "b7b85ee3b1ec7fca70f39991d6af825e06115e814bc7016c05b73bd3afb21f62",
}

WORKLOADS = {
    "stress": dict(workload="stress", params=(("iterations", 40),)),
    "redis-1t": dict(workload="redis", params=(("io_threads", 1),),
                     connections=1, requests=12, warmup_rounds=1),
}


def _stream(mechanism, workload):
    sink = ChargeSequenceSink()
    prepared = runapi.prepare(RunConfig(mechanism, seed=11, sinks=(sink,),
                                        **WORKLOADS[workload]))
    result = prepared.execute()
    assert result.ok
    return sink


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_charge_sequence_is_pinned(mechanism, workload):
    sink = _stream(mechanism, workload)
    assert sink.records > 0
    assert sink.hexdigest() == EXPECTED[workload, mechanism]


# ------------------------------------------------- fault-injected K23-ultra


def _register_fork_exec_wait(kernel):
    """``/bin/forker``: fork; the child execs ``/usr/bin/final`` with an
    empty environment, the parent parks in ``wait4`` until it exits,
    then probes a missing file six times (``access`` is injectable) and
    exits 0."""
    make_hello(path="/usr/bin/final").register(kernel)
    builder = ProgramBuilder("/bin/forker")
    builder.string("target", "/usr/bin/final")
    builder.string("path", "/etc/hostname")
    builder.words("argv", [0, 0])
    builder.words("envp", [0])
    builder.start()
    asm = builder.asm
    builder.libc("getpid")
    builder.libc("fork")
    asm.test_rr(Reg.RAX, Reg.RAX)
    asm.jne(".parent")
    asm.lea_rip_label(Reg.RBX, "argv")
    asm.lea_rip_label(Reg.RAX, "target")
    asm.store(Reg.RBX, Reg.RAX)
    builder.libc("execve", data_ref("target"), data_ref("argv"),
                 data_ref("envp"))
    builder.exit(99)
    builder.label(".parent")
    builder.libc("wait4", -1, 0, 0, 0)
    for _ in range(6):
        builder.libc("getuid")
        builder.libc("access", data_ref("path"), 0)
    builder.exit(0)
    builder.register(kernel)


def _fault_injected_k23_ultra():
    offline_kernel = Kernel(seed=48)
    _register_fork_exec_wait(offline_kernel)
    offline = OfflinePhase(offline_kernel)
    for path in ("/bin/forker", "/usr/bin/final"):
        offline.run(path)

    kernel = Kernel(seed=49)
    kernel.torn_window_probability = 0.0
    sink = ChargeSequenceSink()
    kernel.bus.attach(sink)
    _register_fork_exec_wait(kernel)
    import_logs(kernel, offline.export())
    K23Interposer(kernel, variant="ultra").install()
    config = FaultConfig(horizon=40, errno_rate=0.0,
                         errno_rates={int(Nr.access): 0.5},
                         errnos=(Errno.EINTR, Errno.EAGAIN),
                         signal_count=1)
    injector = FaultInjector(kernel, build_schedule(5, config))
    process = kernel.spawn_process("/bin/forker")
    kernel.run_process(process)
    return kernel, process, injector, sink


def test_fault_injected_k23_ultra_sequence_is_pinned():
    kernel, process, injector, sink = _fault_injected_k23_ultra()
    assert process.exited and process.exit_status == 0
    # The run covers the three paths a forwarded call can take besides a
    # plain return: an injected errno, a BLOCKED restart, and an execve.
    assert any("errno@" in line for line in injector.log)
    assert ("exit", "rewrite-handler", True) in sink.kinds \
        or ("exit", "sud-handler", True) in sink.kinds
    assert any(r.nr == Nr.execve and r.interposed
               for r in kernel.syscall_log)
    assert sink.hexdigest() == EXPECTED["fault-injected", "K23-ultra"]


def test_liblogger_offline_phase_sequence_is_pinned():
    """K23's offline phase: libLogger's SIGSYS traps on stress."""
    kernel = Kernel(seed=3)
    sink = ChargeSequenceSink()
    kernel.bus.attach(sink)
    path = runapi.WORKLOADS["stress"].installer(kernel, {"iterations": 40})
    OfflinePhase(kernel).run(path)
    assert sink.records > 0
    assert sink.hexdigest() == EXPECTED["offline", "libLogger"]
