"""The offline-phase driver (§5.1).

Runs a target program — optionally several times with different inputs /
workload drivers — under :class:`repro.core.liblogger.LibLogger` in a
controlled environment, accumulates the unique-site log, writes it into the
simulated filesystem, and seals the log directory immutable.

Produces the data behind Table 2 (unique site counts per program) and the
Figure 3 log files.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from repro.core.liblogger import LibLogger
from repro.core.logs import LOG_ROOT, SiteLog, seal_logs

#: A workload driver: called with (kernel, process) while the target runs;
#: may inject client connections, then must let the caller keep scheduling.
WorkloadDriver = Callable[[object, object], None]


class OfflinePhase:
    """Run programs under an exhaustive logger and persist sealed site logs.

    ``backend`` selects the logging mechanism (§5.1: "we use LD_PRELOAD to
    inject an SUD-based interposition library (alternatives include ptrace
    or seccomp)"): ``"sud"`` (default, libLogger) or ``"seccomp"``
    (:class:`repro.core.seccomp_logger.SeccompLogger`).  Both produce
    identical logs; performance is irrelevant offline.
    """

    def __init__(self, kernel, backend: str = "sud"):
        self.kernel = kernel
        if backend == "sud":
            self.logger = LibLogger(kernel)
        elif backend == "seccomp":
            from repro.core.seccomp_logger import SeccompLogger

            self.logger = SeccompLogger(kernel)
        else:
            raise ValueError(f"unknown offline backend {backend!r}")
        self.backend = backend
        self.results: Dict[str, SiteLog] = {}

    def run(self, path: str, argv: Optional[List[str]] = None,
            env: Optional[Dict[str, str]] = None,
            driver: Optional[WorkloadDriver] = None,
            max_steps: int = 5_000_000):
        """One logging run of *path*; returns the (cumulative) SiteLog."""
        previous = self.kernel.interposer
        self.kernel.interposer = self.logger
        try:
            process = self.kernel.spawn_process(path, argv, env)
            if driver is not None:
                driver(self.kernel, process)
            self.kernel.run_process(process, max_steps=max_steps)
        finally:
            self.kernel.interposer = previous
        log = self.logger.log_for(path)
        self.results[path] = log
        return process, log

    def persist(self, seal: bool = True) -> List[str]:
        """Write every accumulated log to the VFS; optionally seal (§5.3)."""
        paths = [log.save(self.kernel.vfs) for log in self.results.values()]
        if seal:
            seal_logs(self.kernel.vfs)
        return paths

    def site_counts(self) -> Dict[str, int]:
        """program path → unique site count (the Table 2 numbers)."""
        return {path: len(log) for path, log in self.results.items()}

    def export(self) -> Dict[str, str]:
        """Rendered log text per program — for shipping the offline phase's
        output into a different (online) machine's filesystem."""
        return {path: log.render() for path, log in self.results.items()}


def import_logs(kernel, rendered: Mapping[str, str],
                seal: bool = True) -> None:
    """Install exported offline logs into *kernel*'s filesystem."""
    for program, text in rendered.items():
        log = SiteLog.parse(program, text)
        log.save(kernel.vfs)
    if seal:
        seal_logs(kernel.vfs)
