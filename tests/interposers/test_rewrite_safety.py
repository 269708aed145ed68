"""Rewrite-protocol tests: the safe protocol vs lazypoline's flaws (§4.5).

These pin down P5's three sub-claims at the unit level: permission
save/restore, store atomicity, and cross-core instruction-stream
invalidation.
"""

import pytest

from repro.interposers.zpoline import rewrite_sites_safely
from repro.kernel import Kernel
from repro.memory.pages import PAGE_SIZE, Prot
from repro.workloads.programs import ProgramBuilder
from tests.simutil import make_hello, spawn_and_run


@pytest.fixture
def process_with_site(kernel):
    """A runnable process plus one syscall site on a dedicated page."""
    make_hello().register(kernel)
    process = spawn_and_run(kernel, "/usr/bin/hello")
    base = process.address_space.mmap(None, PAGE_SIZE,
                                      Prot.READ | Prot.WRITE, name="patch")
    process.address_space.write_kernel(base, b"\x0f\x05\xc3")
    return process, base


class TestSafeRewrite:
    def test_bytes_patched(self, kernel, process_with_site):
        process, site = process_with_site
        process.address_space.mprotect(site, PAGE_SIZE, Prot.READ | Prot.EXEC)
        rewrite_sites_safely(kernel, process, [site])
        assert process.address_space.read_kernel(site, 2) == b"\xff\xd0"

    def test_permissions_restored_exactly(self, kernel, process_with_site):
        """The save/restore half of the P5 fix: an execute-only (XOM-style)
        page must come back execute-only, not r-x."""
        process, site = process_with_site
        process.address_space.mprotect(site, PAGE_SIZE, Prot.EXEC)
        rewrite_sites_safely(kernel, process, [site])
        assert process.address_space.prot_at(site) == Prot.EXEC

    def test_cross_page_site_restores_both_pages(self, kernel):
        make_hello().register(kernel)
        process = spawn_and_run(kernel, "/usr/bin/hello")
        base = process.address_space.mmap(None, 2 * PAGE_SIZE,
                                          Prot.READ | Prot.WRITE,
                                          name="straddle")
        site = base + PAGE_SIZE - 1  # 0F on page 1, 05 on page 2
        process.address_space.write_kernel(site, b"\x0f\x05")
        process.address_space.mprotect(base, PAGE_SIZE, Prot.EXEC)
        process.address_space.mprotect(base + PAGE_SIZE, PAGE_SIZE,
                                       Prot.READ | Prot.EXEC)
        rewrite_sites_safely(kernel, process, [site])
        assert process.address_space.read_kernel(site, 2) == b"\xff\xd0"
        assert process.address_space.prot_at(base) == Prot.EXEC
        assert process.address_space.prot_at(base + PAGE_SIZE) == \
            Prot.READ | Prot.EXEC

    def test_all_core_icaches_invalidated(self, kernel, process_with_site):
        process, site = process_with_site
        process.address_space.mprotect(site, PAGE_SIZE, Prot.READ | Prot.EXEC)
        # Two threads have the old decode cached.
        second = process.spawn_thread()
        for thread in process.threads:
            thread.icache.fetch(site, process.address_space.read_kernel)
        rewrite_sites_safely(kernel, process, [site])
        for thread in process.threads:
            insn = thread.icache.fetch(site,
                                       process.address_space.read_kernel)
            assert insn.raw == b"\xff\xd0"


class TestLazypolineFlaws:
    def _lazypoline_rewrite(self, kernel, process, site):
        from repro.interposers.lazypoline import LazypolineInterposer

        interposer = LazypolineInterposer(kernel)
        process.interposer_state["lazypoline"] = {"selector": 0,
                                                  "rewritten": []}
        interposer._rewrite_lazily(process.main_thread, site)

    def test_permission_restore_clobbers_xom(self, kernel,
                                             process_with_site):
        """The flaw the safe protocol avoids: an execute-only page comes
        back readable (r-x), silently destroying its XOM property."""
        process, site = process_with_site
        process.address_space.mprotect(site, PAGE_SIZE, Prot.EXEC)
        kernel.torn_window_probability = 0.0
        self._lazypoline_rewrite(kernel, process, site)
        assert process.address_space.prot_at(site) == Prot.READ | Prot.EXEC

    def test_other_cores_keep_stale_decode(self, kernel, process_with_site):
        """No cross-core invalidation: a sibling core's cached decode
        survives the patch."""
        process, site = process_with_site
        process.address_space.mprotect(site, PAGE_SIZE, Prot.READ | Prot.EXEC)
        kernel.torn_window_probability = 0.0
        sibling = process.spawn_thread()
        stale = sibling.icache.fetch(site, process.address_space.read_kernel)
        assert stale.raw == b"\x0f\x05"
        self._lazypoline_rewrite(kernel, process, site)
        still = sibling.icache.fetch(site, process.address_space.read_kernel)
        assert still.raw == b"\x0f\x05"  # stale!
        # Memory, meanwhile, holds the new bytes.
        assert process.address_space.read_kernel(site, 2) == b"\xff\xd0"

    def test_writer_core_sees_its_own_patch(self, kernel, process_with_site):
        process, site = process_with_site
        process.address_space.mprotect(site, PAGE_SIZE, Prot.READ | Prot.EXEC)
        kernel.torn_window_probability = 0.0
        writer = process.main_thread
        writer.icache.fetch(site, process.address_space.read_kernel)
        self._lazypoline_rewrite(kernel, process, site)
        insn = writer.icache.fetch(site, process.address_space.read_kernel)
        assert insn.raw == b"\xff\xd0"  # local coherence holds
