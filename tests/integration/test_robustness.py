"""Robustness and failure-injection tests.

The reproduction's claims must be invariant to simulation incidentals —
ASLR seeds, scheduler quantum — and its components must fail safely under
adversarial inputs (tampered logs, truncated logs, mid-run faults).
"""

import itertools

import pytest

from repro import runapi
from repro.core import K23Interposer, OfflinePhase
from repro.core.logs import LOG_ROOT, SiteLog, seal_logs
from repro.core.offline import import_logs
from repro.kernel import Kernel
from repro.workloads.clients import KeepAliveSource
from repro.workloads.coreutils import install_coreutils
from tests.simutil import make_hello, spawn_and_run


class TestSeedInvariance:
    @pytest.mark.parametrize("seed", [1, 7, 99, 1234])
    def test_k23_exhaustive_across_aslr_seeds(self, seed):
        """The (region, offset) log currency must survive any ASLR layout."""
        offline_kernel = Kernel(seed=seed)
        install_coreutils(offline_kernel, names=["/usr/bin/cat"])
        offline = OfflinePhase(offline_kernel)
        offline.run("/usr/bin/cat")
        kernel = Kernel(seed=seed * 31 + 5)
        install_coreutils(kernel, names=["/usr/bin/cat"])
        import_logs(kernel, offline.export())
        K23Interposer(kernel, variant="ultra").install()
        process = spawn_and_run(kernel, "/usr/bin/cat")
        assert process.exit_status == 0
        assert kernel.uninterposed_syscalls(process.pid) == []

    @pytest.mark.parametrize("seed", [3, 17])
    def test_offline_logs_identical_across_seeds(self, seed):
        """Site logs are layout- and length-independent by construction,
        which is what lets :func:`repro.runapi.offline_logs` key on the
        workload build alone: for every workload, each seed, ASLR setting
        and run length must log exactly what the memoised recipe hands
        out."""
        for workload in sorted(runapi.WORKLOADS):
            expected = runapi.offline_logs(workload)
            for run in itertools.product((seed, seed + 1000), (True, False),
                                         (0, 1)):
                assert _offline_export(workload, *run) == expected, \
                    (workload, run)


def _offline_export(workload, seed, aslr, length):
    """One offline phase for *workload*, run independently of the memo.
    *length* picks the short or long run: the spec's run-length param for
    batch workloads, the driven request count for servers."""
    spec = runapi.WORKLOADS[workload]
    params = {}
    if spec.run_length is not None:
        params[spec.run_length] = (16, 150)[length]
    kernel = Kernel(seed=seed, aslr=aslr)
    path = spec.installer(kernel, params)
    offline = OfflinePhase(kernel)
    driver = None
    if spec.kind == "server":
        def driver(kern, proc):
            kern.run(max_steps=(600_000, runapi.SERVER_BOOT_STEPS)[length])
            source = KeepAliveSource(kern, spec.port, 1, spec.payload)
            source.drive((4, 12)[length])
            source.close()
    offline.run(path, driver=driver, max_steps=20_000_000)
    return offline.export()


class TestSchedulerInvariance:
    @pytest.mark.parametrize("quantum", [1, 7, 100, 1000])
    def test_results_independent_of_quantum(self, quantum):
        kernel = Kernel(seed=5)
        kernel.quantum = quantum
        make_hello().register(kernel)
        process = spawn_and_run(kernel, "/usr/bin/hello")
        assert process.exit_status == 0
        assert bytes(process.output) == b"hello\n"

    def test_cycle_counts_deterministic(self):
        totals = []
        for _ in range(2):
            kernel = Kernel(seed=8)
            make_hello().register(kernel)
            spawn_and_run(kernel, "/usr/bin/hello")
            totals.append(kernel.cycles.cycles)
        assert totals[0] == totals[1]


class TestAdversarialLogs:
    def _online(self, log_text: str, seed=66):
        kernel = Kernel(seed=seed)
        install_coreutils(kernel, names=["/usr/bin/pwd"])
        import_logs(kernel, {"/usr/bin/pwd": log_text})
        k23 = K23Interposer(kernel, variant="ultra").install()
        process = spawn_and_run(kernel, "/usr/bin/pwd")
        return kernel, k23, process

    def test_log_pointing_into_data_is_skipped(self):
        """A tampered entry aimed at non-syscall bytes must be skipped by
        libK23's load-time validation, never rewritten."""
        forged = SiteLog("/usr/bin/pwd")
        forged.add("/usr/bin/pwd", 0)  # _start's endbr64
        kernel, k23, process = self._online(forged.render())
        assert process.exit_status == 0
        state = process.interposer_state["k23"]
        assert state["rewritten"] == []
        assert state["skipped_log_entries"]
        # Correctness is carried entirely by the SUD fallback.
        assert kernel.uninterposed_syscalls(process.pid) == []

    def test_log_for_unknown_region_is_skipped(self):
        forged = SiteLog("/usr/bin/pwd")
        forged.add("/opt/nonexistent.so", 1234)
        kernel, k23, process = self._online(forged.render())
        assert process.exit_status == 0
        state = process.interposer_state["k23"]
        assert state["skipped_log_entries"][0][2] == "region not loaded"

    def test_out_of_bounds_offset_is_skipped(self):
        forged = SiteLog("/usr/bin/pwd")
        forged.add("/usr/bin/pwd", 1 << 30)
        kernel, k23, process = self._online(forged.render())
        assert process.exit_status == 0
        assert process.interposer_state["k23"]["rewritten"] == []

    def test_post_seal_tampering_impossible(self):
        kernel = Kernel(seed=67)
        install_coreutils(kernel, names=["/usr/bin/pwd"])
        offline = OfflinePhase(kernel)
        offline.run("/usr/bin/pwd")
        offline.persist(seal=True)
        from repro.errors import VFSError

        with pytest.raises(VFSError):
            kernel.vfs.append(f"{LOG_ROOT}/pwd.log", b"/usr/bin/pwd,0\n")

    def test_empty_log_degrades_to_fallback_only(self):
        kernel, k23, process = self._online("")
        assert process.exit_status == 0
        vias = {via for _nr, via in k23.handled[process.pid]}
        assert "rewrite" not in vias
        assert kernel.uninterposed_syscalls(process.pid) == []


class TestMidRunFaults:
    def test_killed_worker_does_not_wedge_the_machine(self):
        """Killing a server worker mid-drive: the driver's stall guard
        terminates the measurement instead of spinning."""
        from repro.workloads.clients import wrk
        from repro.workloads.nginx import NGINX_PORT, install_nginx

        kernel = Kernel(seed=68)
        path = install_nginx(kernel, workers=1, file_size_kb=0)
        kernel.spawn_process(path)
        kernel.run(max_steps=1_000_000)
        generator = wrk(kernel, NGINX_PORT, connections=1)
        generator.warmup(1)
        worker = next(p for p in kernel.processes.values() if p.parent)
        worker.terminate(137)
        result = generator.drive(10)
        assert result.requests < 10
        assert generator.failures > 0

    def test_deleted_served_file_yields_errors_not_hangs(self):
        from repro.workloads.clients import wrk
        from repro.workloads.http import WWW_EMPTY
        from repro.workloads.nginx import NGINX_PORT, install_nginx

        kernel = Kernel(seed=69)
        path = install_nginx(kernel, workers=1, file_size_kb=0)
        kernel.spawn_process(path)
        kernel.run(max_steps=1_000_000)
        generator = wrk(kernel, NGINX_PORT, connections=1)
        generator.warmup(1)
        kernel.vfs.unlink(WWW_EMPTY)
        result = generator.drive(4)
        # Responses still flow (the server sends headers; openat fails and
        # read on the bad fd returns an error the server tolerates).
        assert result.requests + generator.failures >= 4
