"""Turn-loop oracle: the scheduler's observable results, pinned per tier.

Five small machines run under every engine tier (single-step,
block-cache, chain, trace-JIT), each with and without a fault injector
whose instruction-count triggers clip units.  Each run records:

- the return value of every ``Kernel.run`` / ``Kernel.run_process`` call
  and the final sim-cycle count, which must be the same in every tier;
- a SHA-256 of the ordered charge stream, ``INSTRUCTION`` charges
  included (their batching and un-charging differs by tier, so this one
  is pinned per tier);
- the ``interp_stats()`` counters, pinned per tier.

The machines cover faults inside superblocks (a SIGSEGV whose handler
resumes, then a fatal one), ``int3`` → SIGTRAP, ``hlt``, a fatal
``ud2``, ``exit_group`` from the middle of a chained unit, a store into
the running superblock's own code, a ``max_steps`` cap that lands
mid-turn across three threads (one of which keeps faulting), and a
``run_process`` whose sibling thread is blocked.  A change to the
scheduler's turn loop or the block executors that shifts one retire,
charge or counter changes a pin here.
"""

import hashlib

import pytest

from repro.arch.registers import Reg
from repro.cpu.engine import HATCHES, EngineConfig
from repro.cpu.cycles import Event
from repro.faultinject.engine import FaultInjector
from repro.faultinject.schedule import Fault, FaultConfig, FaultSchedule
from repro.kernel import Kernel
from repro.kernel.syscalls import Nr, SIGCHLD, SIGSEGV, SIGTRAP
from repro.memory import PAGE_SIZE, Prot
from repro.observability.events import CycleCharge, RawCycles
from repro.observability.sinks import Sink
from repro.workloads.programs import ProgramBuilder

#: tier → (block cache on, engine configuration)
TIERS = {
    "single-step": (False, EngineConfig()),
    "block-cache": (True, EngineConfig(chain=False)),
    "chain": (True, EngineConfig(trace_jit=False)),
    "trace-jit": (True, EngineConfig()),
}

#: A page the segv machine walks off the end of.
WALK_BASE = 0x1000_0000

RWX = Prot.READ | Prot.WRITE | Prot.EXEC


class ChargeStreamSink(Sink):
    """Hashes every charge, ``INSTRUCTION`` included, in bus order."""

    each_event = True
    each_charge = True

    def __init__(self):
        self.digest = hashlib.sha256()

    def accept(self, event):
        cls = type(event)
        if cls is CycleCharge:
            record = ("C", event.ts, event.event, event.times)
        elif cls is RawCycles:
            record = ("R", event.ts, event.label, event.cycles)
        else:
            return
        self.digest.update(repr(record).encode())


def _resume(sigctx):
    sigctx.set_resume_rip(sigctx.saved["rip"])


def _image(process, path):
    base, image, _ns = process.loaded_images[path]
    return base, image


# ------------------------------------------------------------- machines


def _segv(kernel):
    """A hot loop walks a pointer off the end of a page: 20 SIGSEGVs
    inside the superblock are resumed past the load, the 21st is fatal."""
    builder = ProgramBuilder("/bin/turn-segv")
    builder.start()
    asm = builder.asm
    asm.mov_ri(Reg.RBX, WALK_BASE + PAGE_SIZE - 8 * 24)
    asm.xor_rr(Reg.RDX, Reg.RDX)
    builder.loop(60)
    asm.add_ri(Reg.RBX, 8)
    asm.load(Reg.RAX, Reg.RBX)
    asm.add_rr(Reg.RDX, Reg.RAX)
    asm.add_ri(Reg.RSI, 3)
    builder.end_loop()
    builder.direct_syscall(Nr.exit_group, 0)
    builder.register(kernel)
    process = kernel.spawn_process("/bin/turn-segv")
    process.address_space.mmap(WALK_BASE, PAGE_SIZE, Prot.READ | Prot.WRITE,
                               name="walk", fixed=True)
    faults = []

    def handler(sigctx):
        faults.append(sigctx.saved["rip"])
        if len(faults) == 20:
            process.dispositions.set_action(SIGSEGV, None)
        _resume(sigctx)

    process.dispositions.set_action(SIGSEGV, handler)
    returns = (kernel.run_process(process, max_steps=100_000),)
    assert process.exited and len(faults) == 20
    return returns + (process.exit_status,)


def _trap(kernel):
    """``int3`` and ``hlt`` in a hot loop, resumed by host handlers, then
    a fatal ``ud2``."""
    builder = ProgramBuilder("/bin/turn-trap")
    builder.start()
    asm = builder.asm
    asm.xor_rr(Reg.RDX, Reg.RDX)
    builder.loop(40)
    asm.add_ri(Reg.RDX, 1)
    asm.cmp_ri(Reg.R15, 30)
    asm.jne(".no_trap")
    asm.int3()
    builder.label(".no_trap")
    asm.add_ri(Reg.RSI, 2)
    asm.cmp_ri(Reg.R15, 12)
    asm.jne(".no_hlt")
    asm.hlt()
    builder.label(".no_hlt")
    builder.end_loop()
    asm.ud2()
    builder.register(kernel)
    process = kernel.spawn_process("/bin/turn-trap")
    process.dispositions.set_action(SIGTRAP, _resume)
    process.dispositions.set_action(SIGSEGV, _resume)
    returns = (kernel.run_process(process, max_steps=100_000),)
    assert process.exited
    return returns + (process.exit_status,)


def _exit_store(kernel):
    """A branch-free loop body ending in a syscall: each iteration stores
    one byte at an address from a table and makes the syscall numbered
    by a second table.  At counter 50 the store lands on the loop's own
    ``add`` immediate; at counter 20 the syscall is ``exit_group``."""
    builder = ProgramBuilder("/bin/turn-exit")
    builder.buffer("scratch", 8)
    builder.words("targets", [0] * 81)
    builder.words("numbers", [int(Nr.exit_group) if i == 20
                              else int(Nr.getpid) for i in range(81)])
    builder.start()
    asm = builder.asm
    asm.xor_rr(Reg.RDX, Reg.RDX)
    asm.mov_ri(Reg.RSI, 2)
    builder.loop(80)
    builder.label("patch")
    asm.add_ri(Reg.RDX, 1)
    asm.mov_rr(Reg.RCX, Reg.R15)
    for _ in range(3):
        asm.add_rr(Reg.RCX, Reg.RCX)
    asm.lea_rip_label(Reg.RBX, "targets")
    asm.add_rr(Reg.RBX, Reg.RCX)
    asm.load(Reg.RBX, Reg.RBX)
    asm.store8(Reg.RBX, Reg.RSI)
    asm.lea_rip_label(Reg.RAX, "numbers")
    asm.add_rr(Reg.RAX, Reg.RCX)
    asm.load(Reg.RAX, Reg.RAX)
    asm.mov_rr(Reg.RDI, Reg.RDX)
    asm.syscall_()
    builder.end_loop()
    builder.direct_syscall(Nr.exit_group, 1)
    builder.register(kernel)
    process = kernel.spawn_process("/bin/turn-exit")
    base, image = _image(process, "/bin/turn-exit")
    process.address_space.mprotect(base, image.code_size, RWX)
    scratch = base + image.symbol("scratch")
    targets = [scratch] * 81
    targets[50] = base + image.symbol("patch") + 3
    process.address_space.write_kernel(
        base + image.symbol("targets"),
        b"".join(t.to_bytes(8, "little") for t in targets))
    returns = (kernel.run_process(process, max_steps=100_000),)
    assert process.exited
    return returns + (process.exit_status,)


def _spinners(kernel):
    """Three threads of one process, one of which faults on every
    iteration, under a ``Kernel.run(max_steps)`` cap that lands
    mid-turn, then caps of one and two steps."""
    kernel.quantum = 37
    builder = ProgramBuilder("/bin/turn-spin")
    builder.start()
    asm = builder.asm
    builder.label("spin")
    asm.add_ri(Reg.RAX, 1)
    asm.add_rr(Reg.RBX, Reg.RAX)
    asm.xor_rr(Reg.RCX, Reg.RBX)
    asm.cmp_ri(Reg.RAX, 7)
    asm.jne(".even")
    asm.add_ri(Reg.RDX, 5)
    builder.label(".even")
    asm.jmp("spin")
    builder.label("faulter")
    asm.xor_rr(Reg.RBX, Reg.RBX)
    builder.label(".again")
    asm.add_ri(Reg.RAX, 1)
    asm.load(Reg.RCX, Reg.RBX)
    asm.add_ri(Reg.RDX, 1)
    asm.jmp(".again")
    builder.register(kernel)
    process = kernel.spawn_process("/bin/turn-spin")
    base, image = _image(process, "/bin/turn-spin")
    main = process.main_thread
    for entry in ("faulter", "spin"):
        sibling = process.spawn_thread()
        sibling.context.restore(main.context.save())
        sibling.context.rip = base + image.symbol(entry)
    process.dispositions.set_action(SIGSEGV, _resume)
    return tuple(kernel.run(max_steps=cap) for cap in (1234, 777, 1, 2))


def _blocked(kernel):
    """``run_process`` while a sibling thread is blocked until the machine
    has retired 600 instructions, next to a competing spinner; the first
    call stops at its ``max_steps`` cap, the second at the exit."""
    spinner = ProgramBuilder("/bin/turn-other")
    spinner.start()
    spinner.label(".forever")
    spinner.asm.add_ri(Reg.RAX, 1)
    spinner.asm.jmp(".forever")
    spinner.register(kernel)
    builder = ProgramBuilder("/bin/turn-blocked")
    builder.start()
    asm = builder.asm
    builder.loop(120)
    asm.add_ri(Reg.RDX, 3)
    builder.direct_syscall(Nr.getpid)
    builder.end_loop()
    builder.direct_syscall(Nr.exit_group, 7)
    builder.label("sibling")
    asm.add_ri(Reg.RBX, 1)
    asm.jmp("sibling")
    builder.register(kernel)
    kernel.spawn_process("/bin/turn-other")
    process = kernel.spawn_process("/bin/turn-blocked")
    base, image = _image(process, "/bin/turn-blocked")
    sibling = process.spawn_thread()
    sibling.context.restore(process.main_thread.context.save())
    sibling.context.rip = base + image.symbol("sibling")
    counts = kernel.cycles.counts
    sibling.block_until(lambda: counts[Event.INSTRUCTION] > 600)
    returns = (kernel.run_process(process, max_steps=900),
               kernel.run_process(process, max_steps=100_000))
    assert process.exited
    return returns + (process.exit_status,)


MACHINES = {"segv": _segv, "trap": _trap, "exit-store": _exit_store,
            "spinners": _spinners, "blocked": _blocked}

#: Instruction counts at which the clipping injector delivers SIGCHLD
#: (ignored by default, so only the unit boundaries move).
CLIP_AT = tuple(range(41, 6000, 97))


#: The ``interp_stats()`` counters, in pinned order.
STAT_NAMES = ("instructions", "icache_hits", "icache_misses", "block_hits",
              "block_installs", "chain_links", "chain_follows",
              "superblocks_formed", "superblock_hits", "traces_compiled",
              "trace_hits", "guard_fails", "invalidation_unlinks")


def observe(monkeypatch, machine, tier, clipped):
    for hatch in HATCHES:
        monkeypatch.delenv(hatch, raising=False)
    kernel = Kernel(seed=5)
    block_cache, engine = TIERS[tier]
    kernel.engine = engine
    kernel.block_cache_enabled = block_cache
    sink = ChargeStreamSink()
    kernel.bus.attach(sink)
    if clipped:
        FaultInjector(kernel, FaultSchedule(
            0, FaultConfig(), (),
            [Fault("insn", at, "signal", arg=SIGCHLD) for at in CLIP_AT]),
            main_phase_only=False)
    returns = MACHINES[machine](kernel)
    stats = kernel.interp_stats()
    return (returns, kernel.cycles.cycles, sink.digest.hexdigest(),
            tuple(stats[name] for name in STAT_NAMES))


#: (machine, clipped) → (returns, sim cycles); the same in every tier.
RESULTS = {
    ('blocked', False): ((1100, 469, 7), 48002),
    ('blocked', True): ((1100, 469, 7), 48002),
    ('exit-store', False): ((1042, 91), 24259),
    ('exit-store', True): ((1042, 91), 24259),
    ('segv', False): ((328, 139), 86765),
    ('segv', True): ((328, 139), 86765),
    ('spinners', False): ((1236, 777, 3, 4), 685423),
    ('spinners', True): ((1236, 777, 3, 4), 685423),
    ('trap', False): ((390, 132), 13729),
    ('trap', True): ((390, 132), 13729),
}

#: (machine, clipped, tier) → (charge-stream digest, interp_stats
#: counters in STAT_NAMES order).
PER_TIER = {
    ('blocked', False, 'block-cache'):
        ('15a367a012710c3487f1ca2036591aeaab5862a6fc5e3fb76d03a610ffa164d7',
         (1570, 5, 145, 651, 38, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('blocked', False, 'chain'):
        ('15a367a012710c3487f1ca2036591aeaab5862a6fc5e3fb76d03a610ffa164d7',
         (1570, 5, 145, 128, 38, 3, 520, 0, 0, 0, 0, 0, 0)),
    ('blocked', False, 'single-step'):
        ('32175af995aca519a26310aba7d2f15e3371ed3214bc1aeb6f1db9c052a3014c',
         (1570, 1425, 145, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('blocked', False, 'trace-jit'):
        ('ecf24d95e893b5dd0865161650fcb62767b6173402dcf5260013203b0fec2283',
         (1570, 5, 145, 128, 38, 3, 417, 3, 488, 3, 488, 1, 0)),
    ('blocked', True, 'block-cache'):
        ('c830660a574048610aef04441cb8c8e92d6d73d5172e27b9e19e06b5bd8c17bc',
         (1570, 9, 145, 655, 44, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('blocked', True, 'chain'):
        ('c830660a574048610aef04441cb8c8e92d6d73d5172e27b9e19e06b5bd8c17bc',
         (1570, 9, 145, 139, 44, 4, 512, 0, 0, 0, 0, 0, 0)),
    ('blocked', True, 'single-step'):
        ('32175af995aca519a26310aba7d2f15e3371ed3214bc1aeb6f1db9c052a3014c',
         (1570, 1425, 145, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('blocked', True, 'trace-jit'):
        ('0effdab801cee14e27c7163fd29aa8834e9a4faeacc53cda0dca37a6f6ad2bd8',
         (1570, 9, 145, 139, 44, 4, 411, 4, 482, 4, 482, 1, 0)),
    ('exit-store', False, 'block-cache'):
        ('9ae6293c367cf2a625c582e21af4c4710af5444955cee4e747789840b673e9bd',
         (1043, 54, 86, 123, 25, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('exit-store', False, 'chain'):
        ('9ae6293c367cf2a625c582e21af4c4710af5444955cee4e747789840b673e9bd',
         (1043, 54, 86, 66, 25, 4, 53, 0, 0, 0, 0, 0, 1)),
    ('exit-store', False, 'single-step'):
        ('05b98a87ca44ccbfaf99d2658197075414d6b8c0cc66e2a8f8054ffceed7c03c',
         (1043, 957, 86, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('exit-store', False, 'trace-jit'):
        ('8b13672059750d385555c7e01b969df9d7f03b17bb0e834949ca3d3f2a46afb3',
         (1043, 54, 86, 66, 25, 4, 28, 4, 26, 4, 26, 0, 1)),
    ('exit-store', True, 'block-cache'):
        ('fa69472be4e127662e590d718f0d58b0ba83c3c4b0843aded37b68c6b7789dfb',
         (1043, 84, 86, 126, 32, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('exit-store', True, 'chain'):
        ('fa69472be4e127662e590d718f0d58b0ba83c3c4b0843aded37b68c6b7789dfb',
         (1043, 84, 86, 69, 32, 4, 53, 0, 0, 0, 0, 0, 1)),
    ('exit-store', True, 'single-step'):
        ('05b98a87ca44ccbfaf99d2658197075414d6b8c0cc66e2a8f8054ffceed7c03c',
         (1043, 957, 86, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('exit-store', True, 'trace-jit'):
        ('0c24b6530d79c9cb43f404cb05dcd2e7db757f36e7fd2b2219b0e1a8c664edf1',
         (1043, 84, 86, 69, 32, 4, 31, 4, 23, 4, 23, 0, 1)),
    ('segv', False, 'block-cache'):
        ('b0a414ecb42908d7a1fecf7e2f4670686cebb75b2b7bbe4ffd6df293177fab99',
         (329, 19, 75, 61, 22, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('segv', False, 'chain'):
        ('b0a414ecb42908d7a1fecf7e2f4670686cebb75b2b7bbe4ffd6df293177fab99',
         (329, 19, 75, 24, 22, 2, 35, 0, 0, 0, 0, 0, 0)),
    ('segv', False, 'single-step'):
        ('36aee3ade9ad8fdec1bab250518b6cb529698d9f60057cf126568ee0c41e74d7',
         (329, 254, 75, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('segv', False, 'trace-jit'):
        ('663ed1fea0da6d959024f592e184a60591baccc87e21486c8e641ac30efa2ab3',
         (329, 19, 75, 24, 22, 2, 31, 2, 25, 2, 25, 0, 0)),
    ('segv', True, 'block-cache'):
        ('2bb0601b510c1f9c5a0d7ea6a41eed910c37b2de242cc790feccceac2c3b7874',
         (329, 21, 75, 62, 24, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('segv', True, 'chain'):
        ('2bb0601b510c1f9c5a0d7ea6a41eed910c37b2de242cc790feccceac2c3b7874',
         (329, 21, 75, 26, 24, 3, 33, 0, 0, 0, 0, 0, 0)),
    ('segv', True, 'single-step'):
        ('36aee3ade9ad8fdec1bab250518b6cb529698d9f60057cf126568ee0c41e74d7',
         (329, 254, 75, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('segv', True, 'trace-jit'):
        ('8c17a697fc4b3a22d1cb7f0c98684d36d9b61733000dbd8466c0635d0d14b218',
         (329, 21, 75, 26, 24, 3, 30, 2, 23, 2, 23, 0, 0)),
    ('spinners', False, 'block-cache'):
        ('cf44d20be3ff390bb2eeeb80f5b1490b0eeed9e20f1c1c126b6d37e00aed2fe3',
         (2020, 208, 84, 855, 34, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('spinners', False, 'chain'):
        ('cf44d20be3ff390bb2eeeb80f5b1490b0eeed9e20f1c1c126b6d37e00aed2fe3',
         (2020, 208, 84, 215, 34, 14, 626, 0, 0, 0, 0, 0, 0)),
    ('spinners', False, 'single-step'):
        ('426576563b638c540ff11addf25b210be9e02d320315ee19200e280237b7fb22',
         (2020, 1936, 84, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('spinners', False, 'trace-jit'):
        ('f1f6773f42887831e7c6dfe56b68547f20fa86a1f9395d7d237493affd03e82f',
         (2020, 208, 84, 215, 34, 14, 384, 7, 442, 7, 442, 0, 0)),
    ('spinners', True, 'block-cache'):
        ('708962b64bc3d743ee78a93e8c4cb8569d1a049104c90566bcac9277cabbf15f',
         (2020, 207, 84, 1024, 35, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('spinners', True, 'chain'):
        ('708962b64bc3d743ee78a93e8c4cb8569d1a049104c90566bcac9277cabbf15f',
         (2020, 207, 84, 231, 35, 14, 779, 0, 0, 0, 0, 0, 0)),
    ('spinners', True, 'single-step'):
        ('426576563b638c540ff11addf25b210be9e02d320315ee19200e280237b7fb22',
         (2020, 1936, 84, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('spinners', True, 'trace-jit'):
        ('ae89c685f72bf8aa4586577b85ebb7040e55c1da77e0d73e6bf66e5c80510812',
         (2020, 207, 84, 231, 35, 14, 396, 8, 435, 8, 435, 0, 0)),
    ('trap', False, 'block-cache'):
        ('2674d054a0891c48bfafd1b413059a2fd54dc43f86da7f780edc6130a5bb3922',
         (391, 3, 79, 116, 20, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('trap', False, 'chain'):
        ('2674d054a0891c48bfafd1b413059a2fd54dc43f86da7f780edc6130a5bb3922',
         (391, 3, 79, 5, 20, 3, 108, 0, 0, 0, 0, 0, 0)),
    ('trap', False, 'single-step'):
        ('48222c45c105632342ae4e245b34d1c3cc97616ccf69c62ece39950b4ac30b02',
         (391, 312, 79, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('trap', False, 'trace-jit'):
        ('175fe4e3d3ea3fd00b5bc93cc5bb58e1958c3fa5765c904a80ec16dd46ddd0e0',
         (391, 3, 79, 5, 20, 3, 62, 2, 24, 2, 24, 1, 0)),
    ('trap', True, 'block-cache'):
        ('2674d054a0891c48bfafd1b413059a2fd54dc43f86da7f780edc6130a5bb3922',
         (391, 3, 79, 116, 21, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('trap', True, 'chain'):
        ('2674d054a0891c48bfafd1b413059a2fd54dc43f86da7f780edc6130a5bb3922',
         (391, 3, 79, 8, 21, 3, 105, 0, 0, 0, 0, 0, 0)),
    ('trap', True, 'single-step'):
        ('48222c45c105632342ae4e245b34d1c3cc97616ccf69c62ece39950b4ac30b02',
         (391, 312, 79, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ('trap', True, 'trace-jit'):
        ('82e821d320381cda09318c1fee08f82fe8cf451ea57eda35aea282441bd039bb',
         (391, 3, 79, 8, 21, 3, 59, 2, 24, 2, 24, 1, 0)),
}


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("clipped", (False, True),
                         ids=("unclipped", "clipped"))
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_turn_loop_is_pinned(monkeypatch, machine, clipped, tier):
    returns, cycles, digest, stats = observe(monkeypatch, machine, tier,
                                             clipped)
    assert (returns, cycles) == RESULTS[machine, clipped]
    assert (digest, stats) == PER_TIER[machine, clipped, tier]
