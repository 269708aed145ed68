"""Shared helpers for building and running small simulated programs."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cpu.engine import HATCHES
from repro.kernel import Kernel
from repro.workloads.programs import ProgramBuilder, data_ref


#: Each execution-engine tier and the escape hatch that selects it (each
#: hatch disables its tier and every tier above it; ``None`` is the full
#: engine).
TIERS: Dict[str, Optional[str]] = {
    "single-step": "REPRO_NO_BLOCK_CACHE",
    "block-cache": "REPRO_NO_CHAIN",
    "chain": "REPRO_NO_TRACE_JIT",
    "trace-jit": None,
}


def select_tier(monkeypatch, tier: str) -> None:
    """Make kernels built from now on run *tier*: every hatch is cleared
    first, so the choice holds whatever hatch the suite runs under."""
    for hatch in HATCHES:
        monkeypatch.delenv(hatch, raising=False)
    if TIERS[tier] is not None:
        monkeypatch.setenv(TIERS[tier], "1")


class HostcallLog(dict):
    """A kernel-less execution environment's ``hostcall_table``: every
    index resolves to a handler that appends the index to :attr:`calls`."""

    def __init__(self):
        super().__init__()
        self.calls: List[int] = []

    def __missing__(self, index: int):
        return lambda env: self.calls.append(index)


def make_hello(path: str = "/usr/bin/hello", text: str = "hello\n") -> ProgramBuilder:
    """A program that writes *text* to stdout and exits 0."""
    builder = ProgramBuilder(path)
    builder.string("msg", text)
    builder.start()
    builder.libc("write", 1, data_ref("msg"), len(text))
    builder.exit(0)
    return builder


def spawn_and_run(kernel: Kernel, path: str,
                  argv: Optional[List[str]] = None,
                  env: Optional[Dict[str, str]] = None,
                  max_steps: int = 2_000_000):
    """Spawn *path* and run the machine until it exits."""
    process = kernel.spawn_process(path, argv, env)
    kernel.run_process(process, max_steps=max_steps)
    return process


def syscall_names(kernel: Kernel, pid: int) -> List[str]:
    from repro.kernel.syscalls import Nr

    return [Nr.name_of(r.nr) for r in kernel.app_requested_syscalls(pid)]
