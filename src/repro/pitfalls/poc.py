"""Proof-of-concept programs for pitfalls P1a–P5 and their evaluators.

Each PoC is a real simulated program (built with
:class:`repro.workloads.programs.ProgramBuilder`) whose behaviour
discriminates "pitfall present" from "pitfall handled" by an observable
outcome — a missed syscall, a corrupted byte surfacing in the exit
status, a crash, or a survived NULL call.  Grading is delegated to the
streaming analyzers in :mod:`repro.observability.analyzers.pitfalls`:
an evaluator stands up the kit, attaches the pitfall's analyzer to the
kernel bus, runs the PoC, and converts the analyzer's
:class:`~repro.observability.analyzers.base.PitfallVerdict` into a
:class:`PitfallOutcome`.  The verdict is judged **from the event stream
alone** (the analyzer never sees the kernel), so the same grading runs
unchanged over a replayed trace.  The one exception is P4b — a memory
*footprint* property with no runtime events — which keeps its
ground-truth evaluator.

The kits mirror the paper's Table 3 columns, each naming the registry
mechanism it builds: zpoline and K23 are evaluated in their checking
(``zpoline-ultra``, ``K23-ultra``) configurations where a pitfall
concerns the optional checks (P4a), exactly as the paper's ✓/✗
semantics do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.registers import Reg
from repro.core.offline import OfflinePhase, import_logs
from repro.interposers.registry import REGISTRY
from repro.kernel import Kernel
from repro.kernel.syscalls import (
    Nr,
    PR_SET_SYSCALL_USER_DISPATCH,
    PR_SYS_DISPATCH_OFF,
)
from repro.loader.image import SimImage
from repro.observability.analyzers import PitfallVerdict, analyzer_for
from repro.workloads.programs import ProgramBuilder, data_ref

PITFALL_IDS = ("P1a", "P1b", "P2a", "P2b", "P3a", "P3b", "P4a", "P4b", "P5")


@dataclass
class PitfallOutcome:
    """Graded result of one PoC under one interposer.

    ``verdict`` carries the analyzer's structured finding (evidence event
    window included) when the grading came from the event stream; it is
    ``None`` for ground-truth-only gradings (P4b).
    """

    pitfall: str
    interposer: str
    handled: bool
    evidence: str
    verdict: Optional[PitfallVerdict] = None


@dataclass
class InterposerKit:
    """How to stand up one Table 3 column on a fresh machine: the column
    name and the registry mechanism it runs."""

    name: str
    mechanism: str

    def build(self, register: Callable, offline_paths: Tuple[str, ...] = (),
              seed: int = 11) -> Tuple[Kernel, object]:
        """Create a kernel with the PoC programs registered and the
        interposer installed.  For K23, runs the offline phase first on a
        separate machine and imports the sealed logs (§5.1)."""
        kernel = Kernel(seed=seed)
        register(kernel)
        if REGISTRY.needs_offline(self.mechanism):
            offline_kernel = Kernel(seed=seed + 100)
            register(offline_kernel)
            offline = OfflinePhase(offline_kernel)
            for path in offline_paths:
                offline.run(path)
            import_logs(kernel, offline.export())
        return kernel, REGISTRY.create(self.mechanism, kernel)


NATIVE_KIT = InterposerKit("native", "native")
ZPOLINE_KIT = InterposerKit("zpoline", "zpoline-ultra")
LAZYPOLINE_KIT = InterposerKit("lazypoline", "lazypoline")
K23_KIT = InterposerKit("K23", "K23-ultra")


def _run(kernel, path: str, max_steps: int = 3_000_000):
    process = kernel.spawn_process(path)
    kernel.run_process(process, max_steps=max_steps)
    return process


def _eval_streaming(pitfall: str, kit: InterposerKit, register: Callable,
                    offline_paths: Tuple[str, ...], path: str,
                    pre_run: Optional[Callable] = None,
                    seed: int = 11) -> PitfallOutcome:
    """Stand up *kit*, attach the pitfall's analyzer to the live bus, run
    the PoC, and convert the streamed verdict into a PitfallOutcome."""
    kernel, interposer = kit.build(register, offline_paths=offline_paths,
                                   seed=seed)
    analyzer = analyzer_for(pitfall)
    kernel.bus.attach(analyzer)
    try:
        if pre_run is not None:
            pre_run(kernel)
        _run(kernel, path)
    finally:
        kernel.bus.detach(analyzer)
    verdict = analyzer.finish()[0]
    return PitfallOutcome(pitfall, kit.name, not verdict.detected,
                          verdict.reason, verdict=verdict)


# =========================================================================
# P1a — interposition bypass via environment scrubbing (Listing 1)
# =========================================================================


def _register_p1a(kernel) -> None:
    target = ProgramBuilder("/usr/bin/p1a_target")
    target.string("m", "MARK\n")
    target.start()
    target.libc("write", 1, data_ref("m"), 5)
    target.exit(0)
    target.register(kernel)

    builder = ProgramBuilder("/bin/p1a")
    builder.string("target", "/usr/bin/p1a_target")
    builder.words("argv", [0, 0])
    builder.words("envp", [0])  # empty environment: LD_PRELOAD not inherited
    builder.start()
    builder.libc("fork")
    asm = builder.asm
    asm.test_rr(Reg.RAX, Reg.RAX)
    asm.jne("parent")
    asm.lea_rip_label(Reg.RBX, "argv")
    asm.lea_rip_label(Reg.RAX, "target")
    asm.store(Reg.RBX, Reg.RAX)
    builder.libc("execve", data_ref("target"), data_ref("argv"),
                 data_ref("envp"))
    builder.exit(99)
    builder.label("parent")
    builder.libc("wait4", 0, 0, 0, 0)
    builder.exit(0)
    builder.register(kernel)


def _eval_p1a(kit: InterposerKit, seed: int = 11) -> PitfallOutcome:
    return _eval_streaming(
        "P1a", kit, _register_p1a,
        offline_paths=("/bin/p1a", "/usr/bin/p1a_target"), path="/bin/p1a",
        seed=seed)


# =========================================================================
# P1b — interposition bypass via prctl(PR_SYS_DISPATCH_OFF) (Listing 2)
# =========================================================================


def _register_p1b(kernel) -> None:
    builder = ProgramBuilder("/bin/p1b")
    builder.start()
    builder.libc("prctl", PR_SET_SYSCALL_USER_DISPATCH,
                 PR_SYS_DISPATCH_OFF, 0, 0, 0)
    # A fresh, never-before-executed inlined syscall site: anything relying
    # on SUD discovery has lost it after the disable.
    builder.direct_syscall(Nr.getuid, mark="fresh_site")
    builder.exit(0)
    builder.register(kernel)


def _eval_p1b(kit: InterposerKit, seed: int = 11) -> PitfallOutcome:
    return _eval_streaming("P1b", kit, _register_p1b,
                           offline_paths=("/bin/p1b",), path="/bin/p1b",
                           seed=seed)


# =========================================================================
# P2a — system call overlook: disassembly miss + dynamically loaded code
# =========================================================================


def _register_p2a(kernel) -> None:
    plugin = SimImage(name="/opt/p2a_plugin.so", entry="")
    pasm = plugin.asm
    pasm.label("plugin_fn")
    pasm.endbr64()
    pasm.mov_ri(Reg.RAX, int(Nr.gettid))
    pasm.mark("plugin_site")
    pasm.syscall_()
    pasm.ret()
    plugin.finalize()
    kernel.loader.register_image(plugin)

    builder = ProgramBuilder("/bin/p2a")
    builder.string("plug", "/opt/p2a_plugin.so")
    builder.start()
    asm = builder.asm
    # Embedded data desynchronizes the linear sweep: the 48 B8 bait absorbs
    # the following mov+syscall into a phantom 10-byte instruction, so a
    # static rewriter never sees the genuine site at `hidden`.
    asm.jmp("hidden")
    asm.raw(b"\x48\xb8")
    asm.label("hidden")
    asm.mov_ri(Reg.RAX, int(Nr.getpid))
    asm.mark("hidden_site")
    asm.syscall_()
    asm.nop(8)  # resync pad: the phantom ends inside this run
    # Dynamically loaded code: the plugin's site does not exist at load time.
    builder.libc("dlopen", data_ref("plug"), 2)
    asm.call_reg(Reg.RAX)  # plugin_fn is at offset 0
    builder.exit(0)
    builder.register(kernel)


def _eval_p2a(kit: InterposerKit, seed: int = 11) -> PitfallOutcome:
    return _eval_streaming("P2a", kit, _register_p2a,
                           offline_paths=("/bin/p2a",), path="/bin/p2a",
                           seed=seed)


# =========================================================================
# P2b — system call overlook: pre-main startup + vDSO
# =========================================================================


def _register_p2b(kernel) -> None:
    builder = ProgramBuilder("/bin/p2b", stub_profile=40)
    builder.buffer("ts", 16)
    builder.start()
    builder.libc("clock_gettime", 0, data_ref("ts"))
    builder.libc("getpid")
    builder.exit(0)
    builder.register(kernel)


def _eval_p2b(kit: InterposerKit, seed: int = 11) -> PitfallOutcome:
    return _eval_streaming("P2b", kit, _register_p2b,
                           offline_paths=("/bin/p2b",), path="/bin/p2b",
                           seed=seed)


# =========================================================================
# P3a — instruction misidentification by static disassembly
# =========================================================================


def _register_p3a(kernel) -> None:
    builder = ProgramBuilder("/bin/p3a")
    builder.start()
    asm = builder.asm
    asm.jmp("over")
    # Jump-table-style data that byte-for-byte resembles a syscall.
    asm.label("datum")
    asm.raw(b"\x0f\x05")
    asm.label("over")
    asm.lea_rip_label(Reg.RBX, "datum")
    asm.load8(Reg.RAX, Reg.RBX)  # read the data back
    builder.libc("exit", Reg.RAX)  # exit(first data byte)
    builder.register(kernel)


def _eval_p3a(kit: InterposerKit, seed: int = 11) -> PitfallOutcome:
    return _eval_streaming("P3a", kit, _register_p3a,
                           offline_paths=("/bin/p3a",), path="/bin/p3a",
                           seed=seed)


# =========================================================================
# P3b — attack-induced misidentification (control-flow hijack → rewrite)
# =========================================================================

ATTACK_FLAG = "/tmp/attack"


def _register_p3b(kernel) -> None:
    builder = ProgramBuilder("/bin/p3b")
    builder.string("flagfile", ATTACK_FLAG)
    builder.start()
    asm = builder.asm
    asm.xor_rr(Reg.R14, Reg.R14)
    builder.libc("access", data_ref("flagfile"), 0)
    asm.test_rr(Reg.RAX, Reg.RAX)
    asm.jne("skip_attack")  # flag file absent → benign path
    # Hijack: jump into the middle of the mov's immediate, where the bytes
    # 0F 05 E9 01 ... decode as `syscall; jmp +1`.
    asm.mov_ri(Reg.RAX, int(Nr.getpid))
    asm.jmp("gadget_plus2")
    asm.label("skip_attack")
    asm.mov_ri(Reg.R14, 1)
    asm.jmp("gadget")
    # The gadget: a legitimate 10-byte mov whose immediate embeds
    # syscall-and-escape bytes (partial-instruction hazard, Figure 1).
    asm.label("gadget")
    asm.raw(b"\x48\xbb")  # mov rbx, imm64 (REX.W B8+3)
    asm.label("gadget_plus2")
    asm.raw(b"\x0f\x05\xe9\x01\x00\x00\x00\x90")  # imm64 payload
    asm.label("after_gadget")
    asm.cmp_ri(Reg.R14, 0)
    asm.jne("done")
    asm.inc(Reg.R14)
    asm.jmp("gadget")  # now execute the mov legitimately
    asm.label("done")
    builder.libc("exit", Reg.RBX)  # exit(imm low byte): 0x0f iff intact
    builder.register(kernel)


def _eval_p3b(kit: InterposerKit, seed: int = 11) -> PitfallOutcome:
    # Offline phase (K23) runs in a controlled environment: no attack flag;
    # the online adversary plants it just before the run.
    return _eval_streaming(
        "P3b", kit, _register_p3b, offline_paths=("/bin/p3b",),
        path="/bin/p3b",
        pre_run=lambda kernel: kernel.vfs.create(ATTACK_FLAG, b""),
        seed=seed)


# =========================================================================
# P4a — NULL-execution goes undetected
# =========================================================================


def _register_p4a(kernel) -> None:
    builder = ProgramBuilder("/bin/p4a")
    builder.string("m", "SURVIVED\n")
    builder.start()
    asm = builder.asm
    asm.xor_rr(Reg.RAX, Reg.RAX)
    asm.xor_rr(Reg.RDI, Reg.RDI)
    asm.xor_rr(Reg.RSI, Reg.RSI)
    asm.xor_rr(Reg.RDX, Reg.RDX)
    asm.mark("null_call")
    asm.call_reg(Reg.RAX)  # the NULL code-pointer bug
    builder.libc("write", 1, data_ref("m"), 9)
    builder.exit(0)
    builder.register(kernel)


def _eval_p4a(kit: InterposerKit, seed: int = 11) -> PitfallOutcome:
    return _eval_streaming("P4a", kit, _register_p4a,
                           offline_paths=("/bin/p4a",), path="/bin/p4a",
                           seed=seed)


# =========================================================================
# P4b — NULL-check memory footprint
# =========================================================================


def _register_p4b(kernel) -> None:
    builder = ProgramBuilder("/bin/p4b")
    builder.start()
    builder.libc("getpid")
    builder.exit(0)
    builder.register(kernel)


#: Footprint threshold: anything over 1 GiB of reserved memory per process
#: is disqualifying for low-end / many-process deployments (§4.4).
P4B_BUDGET_BYTES = 1 << 30


def _eval_p4b(kit: InterposerKit, seed: int = 11) -> PitfallOutcome:
    kernel, interposer = kit.build(_register_p4b, offline_paths=("/bin/p4b",),
                                   seed=seed)
    process = _run(kernel, "/bin/p4b")
    state = process.interposer_state
    if "zpoline" in state and state["zpoline"].get("bitmap") is not None:
        bitmap = state["zpoline"]["bitmap"]
        reserved = bitmap.reserved_virtual_bytes
        handled = reserved <= P4B_BUDGET_BYTES
        evidence = (f"bitmap reserves {reserved / (1 << 40):.0f} TiB of "
                    f"virtual memory per process "
                    f"({bitmap.resident_bytes} B resident)")
        return PitfallOutcome("P4b", kit.name, handled, evidence)
    if "k23" in state:
        hashset = state["k23"]["hashset"]
        evidence = (f"hash set bounded by offline log: "
                    f"{hashset.memory_bytes} B for {len(hashset)} sites")
        return PitfallOutcome("P4b", kit.name, True, evidence)
    return PitfallOutcome("P4b", kit.name, True,
                          "no validity structure retained")


# =========================================================================
# P5 — runtime rewriting races (torn writes, stale instruction streams)
# =========================================================================


def _register_p5(kernel) -> None:
    builder = ProgramBuilder("/bin/p5")
    builder.buffer("flag", 8)
    builder.start()
    asm = builder.asm
    asm.lea_rip_label(Reg.RDI, "spinner")
    builder.libc("pthread_create", Reg.RDI)
    # Release the spinner, then trigger the first execution of getpid's
    # site.  Under a discovery-rewriter, the patch happens now — and the
    # spinner races straight into the half-written instruction.
    asm.lea_rip_label(Reg.RBX, "flag")
    asm.mov_ri(Reg.RAX, 1)
    asm.store8(Reg.RBX, Reg.RAX)
    builder.libc("getpid")
    builder.loop(50)
    asm.nop()
    builder.end_loop()
    builder.exit(0)
    builder.label("spinner")
    asm.endbr64()
    asm.lea_rip_label(Reg.RBX, "flag")
    asm.label("spin")
    asm.load8(Reg.RAX, Reg.RBX)
    asm.test_rr(Reg.RAX, Reg.RAX)
    asm.je("spin")
    builder.libc("getpid")  # fetches the site mid-patch
    builder.libc("pthread_exit")
    builder.register(kernel)


def _eval_p5(kit: InterposerKit, seed: int = 11) -> PitfallOutcome:
    return _eval_streaming("P5", kit, _register_p5,
                           offline_paths=("/bin/p5",), path="/bin/p5",
                           seed=seed)


# =========================================================================


@dataclass(frozen=True)
class PitfallSetup:
    """Everything needed to reproduce one streamed PoC run outside the
    evaluator — the replay-determinism tests and ad-hoc forensics stand up
    the same kernel this way.  P4b has no entry: its property (memory
    footprint) never crosses the event bus, so it stays ground-truth-graded.
    """

    register: Callable
    path: str
    offline_paths: Tuple[str, ...]
    pre_run: Optional[Callable] = None


PITFALL_SETUPS: Dict[str, PitfallSetup] = {
    "P1a": PitfallSetup(_register_p1a, "/bin/p1a",
                        ("/bin/p1a", "/usr/bin/p1a_target")),
    "P1b": PitfallSetup(_register_p1b, "/bin/p1b", ("/bin/p1b",)),
    "P2a": PitfallSetup(_register_p2a, "/bin/p2a", ("/bin/p2a",)),
    "P2b": PitfallSetup(_register_p2b, "/bin/p2b", ("/bin/p2b",)),
    "P3a": PitfallSetup(_register_p3a, "/bin/p3a", ("/bin/p3a",)),
    "P3b": PitfallSetup(
        _register_p3b, "/bin/p3b", ("/bin/p3b",),
        pre_run=lambda kernel: kernel.vfs.create(ATTACK_FLAG, b"")),
    "P4a": PitfallSetup(_register_p4a, "/bin/p4a", ("/bin/p4a",)),
    "P5": PitfallSetup(_register_p5, "/bin/p5", ("/bin/p5",)),
}


_EVALUATORS: Dict[str, Callable[..., PitfallOutcome]] = {
    "P1a": _eval_p1a,
    "P1b": _eval_p1b,
    "P2a": _eval_p2a,
    "P2b": _eval_p2b,
    "P3a": _eval_p3a,
    "P3b": _eval_p3b,
    "P4a": _eval_p4a,
    "P4b": _eval_p4b,
    "P5": _eval_p5,
}


def evaluate_pitfall(pitfall: str, kit: InterposerKit,
                     seed: int = 11) -> PitfallOutcome:
    """Run one PoC under one interposer kit and grade the outcome.

    *seed* feeds the kernels the kit stands up (online and, for K23, the
    offline machine at ``seed + 100``); the grading must be seed-stable,
    which ``pitfallcheck --seed`` lets CI spot-check.
    """
    try:
        evaluator = _EVALUATORS[pitfall]
    except KeyError:
        raise ValueError(f"unknown pitfall {pitfall!r}") from None
    return evaluator(kit, seed=seed)
