"""The dynamic loader.

Responsible for everything that happens between ``execve`` and ``main``:

1. choose ASLR bases (offsets within a region stay stable across runs — the
   invariant K23's offline logs rely on, §5.1);
2. map the vDSO (unless a tracer disabled it), every ``LD_PRELOAD`` library,
   the needed libraries, and the main executable;
3. generate and map a **startup stub** — real simulated code that issues the
   authentic pre-main syscall storm (``openat``/``read``/``fstat``/``mmap``/
   ``mprotect``/``close`` per library plus locale/gconv probing).  These are
   genuine ``syscall`` instructions executing before any interposition
   library exists, which is why LD_PRELOAD-based interposers structurally
   miss them (P2b) and only a ptrace stage can see them;
4. patch GOT slots and vDSO pointers;
5. arrange for library constructors (including interposer init hooks) to run
   — preloads first — and finally jump to the program entry.

ASLR bases are filtered so their byte encodings never contain ``0F 05`` /
``0F 34`` pairs; otherwise a random base could nondeterministically add
phantom sites to byte-scanning experiments.
"""

from __future__ import annotations

import functools
import struct
from typing import Dict, List, Optional, Tuple

from repro.arch.registers import Reg
from repro.errors import LoaderError
from repro.kernel.syscalls import Nr
from repro.loader.image import DATA_START_LABEL, GOT_PREFIX, SimImage
from repro.memory.pages import PAGE_SIZE, Prot, round_up_pages

#: Virtual-address slots (avoid collisions; every base is slot + jitter).
MAIN_BASE = 0x55_5555_0000
LIB_BASE = 0x7F10_0000_0000
STUB_BASE = 0x7F20_0000_0000
VDSO_BASE = 0x7FFD_0000_0000
STACK_BASE = 0x7FFE_0000_0000
STACK_PAGES = 64

_SCAN_HAZARDS = (b"\x0f\x05", b"\x0f\x34")


def _addr_scan_safe(address: int) -> bool:
    """True when the LE encoding of *address* contains no syscall pattern."""
    packed = struct.pack("<Q", address)
    return not any(pattern in packed for pattern in _SCAN_HAZARDS)


class Loader:
    """Per-kernel dynamic loader."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._vdso_cache: Optional[tuple] = None
        self._libc_registered = False

    # ------------------------------------------------------------ registration

    def ensure_libc(self) -> SimImage:
        """Build and register the libc image once per kernel."""
        if not self._libc_registered:
            from repro.loader.libc import LIBC_PATH, build_libc

            image = build_libc(self.kernel)
            self.register_image(image)
            self._libc_registered = True
        from repro.loader.libc import LIBC_PATH

        return self.kernel.vfs.lookup(LIBC_PATH).image

    def register_image(self, image: SimImage, path: Optional[str] = None) -> None:
        """Place *image* into the VFS as an executable/library file."""
        image.finalize()
        self.kernel.vfs.create(path or image.name, data=image.blob,
                               image=image, mode=0o755)

    # ---------------------------------------------------------------- ASLR

    def _pick_base(self, process, slot: int) -> int:
        if not self.kernel.aslr:
            jitter = 0
        else:
            jitter = self.kernel.rng.randrange(0, 0x4000) * PAGE_SIZE
        base = slot + jitter
        while (not _addr_scan_safe(base)
               or process.address_space.is_mapped(base)):
            base += 0x40 * PAGE_SIZE
        return base

    # ------------------------------------------------------------- image mapping

    def map_image(self, process, image: SimImage, namespace: int = 0) -> int:
        """Map one image (code r-x, data rw-) and record it."""
        image.finalize()
        base = self._pick_base(process, LIB_BASE if image.entry == ""
                               else MAIN_BASE)
        blob = image.blob
        space = process.address_space
        space.mmap(base, round_up_pages(len(blob)), Prot.READ | Prot.WRITE,
                   name=image.name, fixed=True)
        # Images are shared across kernels (DESIGN.md §3c): always copy,
        # so rewriters and GOT patches touch only this process's pages.
        space.write_kernel(base, blob)
        code_len = round_up_pages(image.code_size)
        space.mprotect(base, code_len, Prot.READ | Prot.EXEC)
        if round_up_pages(len(blob)) > code_len:
            space.mprotect(base + code_len,
                           round_up_pages(len(blob)) - code_len,
                           Prot.READ | Prot.WRITE)
        key = image.name if namespace == 0 else f"{image.name}#ns{namespace}"
        process.loaded_images[key] = (base, image, namespace)
        return base

    def resolve_symbol(self, process, name: str,
                       namespace: int = 0) -> Optional[int]:
        """Absolute address of *name* across the process's loaded images."""
        for base, image, img_ns in process.loaded_images.values():
            if img_ns == namespace and image.has_symbol(name):
                return base + image.symbol(name)
        return None

    def _patch_got(self, process, image: SimImage, base: int,
                   namespace: int) -> None:
        for symbol in image.imports:
            target = self.resolve_symbol(process, symbol, namespace)
            if target is None and namespace != 0:
                target = self.resolve_symbol(process, symbol, 0)
            if target is None:
                raise LoaderError(
                    f"{image.name}: unresolved import {symbol!r}")
            process.address_space.write_kernel(
                base + image.got_offset(symbol), struct.pack("<Q", target))

    def _patch_vdso_slots(self, process, image: SimImage, base: int) -> None:
        from repro.kernel.vdso import VDSO_CLOCK_GETTIME, VDSO_GETTIMEOFDAY
        from repro.loader.libc import VDSO_CLOCK_SLOT, VDSO_TOD_SLOT

        for slot, symbol in ((VDSO_CLOCK_SLOT, VDSO_CLOCK_GETTIME),
                             (VDSO_TOD_SLOT, VDSO_GETTIMEOFDAY)):
            if not image.has_symbol(slot):
                continue
            target = 0
            vdso = process.loaded_images.get("[vdso]")
            if vdso is not None and process.vdso_enabled:
                vdso_base, vdso_image, _ = vdso
                target = vdso_base + vdso_image.symbol(symbol)
            process.address_space.write_kernel(
                base + image.symbol(slot), struct.pack("<Q", target))

    def _map_vdso(self, process) -> None:
        if not process.vdso_enabled:
            return
        if self._vdso_cache is None:
            from repro.kernel.vdso import build_vdso

            self._vdso_cache = build_vdso(self.kernel)
        blob, symbols = self._vdso_cache
        image = SimImage(name="[vdso]", entry="")
        image.asm.raw(blob)
        image.begin_data()
        image.asm.dq(0)
        # Rebuild labels from the prebuilt blob's symbol table.
        image.asm.labels.update(symbols)
        image.finalize()
        base = self._pick_base(process, VDSO_BASE)
        space = process.address_space
        space.mmap(base, round_up_pages(len(blob)), Prot.READ | Prot.EXEC,
                   name="[vdso]", fixed=True)
        space.write_kernel(base, blob)
        process.loaded_images["[vdso]"] = (base, image, 0)

    # ---------------------------------------------------------- runtime loading

    def load_library(self, process, path: str, run_constructors_on=None,
                     namespace: int = 0) -> int:
        """dlopen-style load: map, patch, run constructors immediately."""
        inode = self.kernel.vfs.lookup(path)
        if inode.image is None:
            raise LoaderError(f"{path} is not a loadable image")
        image: SimImage = inode.image
        # Dependencies first (one level, matching our image graphs).
        for needed in image.needed:
            already = any(img.name == needed
                          for _, img, ns in process.loaded_images.values()
                          if ns == namespace)
            if not already and needed not in process.loaded_images:
                self.load_library(process, needed, run_constructors_on,
                                  namespace)
        base = self.map_image(process, image, namespace)
        self._patch_got(process, image, base, namespace)
        self._patch_vdso_slots(process, image, base)
        if run_constructors_on is not None:
            for constructor in image.constructors:
                constructor(run_constructors_on, base)
        return base

    # -------------------------------------------------------------- exec loading

    def load_into(self, process, path: str, argv: List[str],
                  env: Dict[str, str]) -> None:
        """Full exec: map everything and point the main thread at the stub."""
        self.ensure_libc()
        inode = self.kernel.vfs.lookup(path)
        if inode.image is None:
            raise LoaderError(f"{path} is not executable")
        main_image: SimImage = inode.image
        main_image.finalize()

        self._map_vdso(process)

        preloads = [entry for entry in
                    env.get("LD_PRELOAD", "").replace(":", " ").split()
                    if entry]
        from repro.loader.libc import LIBC_PATH

        ordered: List[str] = []
        for candidate in (*preloads, LIBC_PATH, *main_image.needed):
            if candidate not in ordered and candidate != path:
                ordered.append(candidate)

        lib_records = []  # (path, base, image)
        process.ld_preload_errors = []
        for lib_path in ordered:
            try:
                lib_inode = self.kernel.vfs.lookup(lib_path)
                if lib_inode.image is None:
                    raise LoaderError(f"{lib_path} is not a loadable image")
            except Exception as exc:
                if lib_path in preloads:
                    # ld.so semantics: a broken LD_PRELOAD entry is warned
                    # about and ignored, never fatal.
                    process.ld_preload_errors.append(
                        f"ERROR: ld.so: object '{lib_path}' cannot be "
                        f"preloaded: ignored ({exc})")
                    continue
                raise
            lib_image: SimImage = lib_inode.image
            base = self.map_image(process, lib_image)
            lib_records.append((lib_path, base, lib_image))

        main_base = self.map_image(process, main_image)

        for lib_path, base, lib_image in lib_records:
            self._patch_got(process, lib_image, base, namespace=0)
            self._patch_vdso_slots(process, lib_image, base)
        self._patch_got(process, main_image, main_base, namespace=0)
        self._patch_vdso_slots(process, main_image, main_base)

        # Stack.
        stack_base = self._pick_base(process, STACK_BASE)
        space = process.address_space
        space.mmap(stack_base, STACK_PAGES * PAGE_SIZE,
                   Prot.READ | Prot.WRITE, name="[stack]", fixed=True)
        stack_top = stack_base + STACK_PAGES * PAGE_SIZE - 16

        # Startup stub (shared code; the entry address is patched into this
        # process's copy of its data page, like a GOT slot).
        entry_abs = main_base + main_image.symbol(main_image.entry)
        stub = self._build_stub(process, main_image, lib_records)
        stub_base = self._pick_base(process, STUB_BASE)
        stub_blob = stub.blob
        space.mmap(stub_base, round_up_pages(len(stub_blob)),
                   Prot.READ | Prot.WRITE, name="[ld.so]", fixed=True)
        space.write_kernel(stub_base, stub_blob)
        space.write_kernel(stub_base + stub.symbol("entry_slot"),
                           struct.pack("<Q", entry_abs))
        code_len = round_up_pages(stub.code_size)
        space.mprotect(stub_base, code_len, Prot.READ | Prot.EXEC)
        process.loaded_images["[ld.so]"] = (stub_base, stub, 0)

        thread = process.main_thread if process.threads else process.spawn_thread()
        thread.context.rip = stub_base
        thread.context.set(Reg.RSP, stack_top)
        thread.icache.flush_all()

    # ------------------------------------------------------------------ stub gen

    def _build_stub(self, process, main_image: SimImage,
                    lib_records) -> SimImage:
        """The pre-main startup stub for this exec.

        Registers the constructor thunks (preloads first — glibc init
        order) and ``loader_done`` with this kernel, then returns the stub
        code for those hostcall indices (:func:`_assemble_stub`).
        """
        kernel = self.kernel
        ctor_indices: List[int] = []
        for lib_path, base, lib_image in lib_records:
            for ordinal, constructor in enumerate(lib_image.constructors):
                ctor_indices.append(kernel.hostcalls.register(
                    _make_ctor_thunk(constructor, base),
                    f"ctor:{lib_path}#{ordinal}"))
        for ordinal, constructor in enumerate(main_image.constructors):
            main_base_entry = process.loaded_images[main_image.name][0]
            ctor_indices.append(kernel.hostcalls.register(
                _make_ctor_thunk(constructor, main_base_entry),
                f"ctor:{main_image.name}#{ordinal}"))

        def loader_done(thread) -> None:
            proc = thread.process
            proc.premain_syscalls = len(
                [r for r in kernel.syscall_log
                 if r.pid == proc.pid and r.app_requested])
            proc.premain_log_len = len(kernel.syscall_log)

        done_index = kernel.hostcalls.register(loader_done, "loader_done")
        return _assemble_stub(tuple(path for path, _, _ in lib_records),
                              main_image.stub_profile, tuple(ctor_indices),
                              done_index)


@functools.lru_cache(maxsize=None)
def _assemble_stub(lib_paths: Tuple[str, ...], stub_profile: int,
                   ctor_indices: Tuple[int, ...],
                   done_index: int) -> SimImage:
    """Assemble the startup stub: its own image ("[ld.so]"), code pages
    r-x, data page rw- (path strings, scratch buffers, and the entry-address
    slot live in non-executable data, so scanners never see their bytes).

    Memoised on exactly its inputs.  The ``entry_slot`` holds 0; the
    loader writes the program entry into each process's mapped copy.
    """
    stub = SimImage(name="[ld.so]", entry="")
    asm = stub.asm
    data_strings: List[tuple] = []  # (label, text)
    counters = {"n": 0}

    def syscall_(number: int) -> None:
        asm.mov_ri(Reg.RAX, int(number))
        asm.mark(f"stub.{counters['n']}")
        counters["n"] += 1
        asm.syscall_()

    def lea_data(reg: Reg, label: str, text: str) -> None:
        if all(lbl != label for lbl, _ in data_strings):
            data_strings.append((label, text))
        asm.lea_rip_label(reg, label)

    # -- early loader work ------------------------------------------------
    asm.xor_rr(Reg.RDI, Reg.RDI)
    syscall_(Nr.brk)
    lea_data(Reg.RDI, "s_preload", "/etc/ld.so.preload")
    syscall_(Nr.access)  # usually ENOENT
    asm.mov_ri(Reg.RDI, 0x1002)
    asm.xor_rr(Reg.RSI, Reg.RSI)
    syscall_(Nr.arch_prctl)
    asm.xor_rr(Reg.RDI, Reg.RDI)
    syscall_(Nr.uname)
    asm.mov_ri(Reg.RDI, (1 << 64) - 100)  # AT_FDCWD
    lea_data(Reg.RSI, "s_cache", "/etc/ld.so.cache")
    asm.xor_rr(Reg.RDX, Reg.RDX)
    syscall_(Nr.openat)
    asm.mov_rr(Reg.RBX, Reg.RAX)
    asm.mov_rr(Reg.RDI, Reg.RBX)
    syscall_(Nr.fstat)
    asm.mov_rr(Reg.RDI, Reg.RBX)
    syscall_(Nr.close)

    # -- per-library mapping storm ------------------------------------------
    for index, lib_path in enumerate(lib_paths):
        asm.mov_ri(Reg.RDI, (1 << 64) - 100)
        lea_data(Reg.RSI, f"s_lib{index}", lib_path)
        asm.xor_rr(Reg.RDX, Reg.RDX)
        syscall_(Nr.openat)
        asm.mov_rr(Reg.RBX, Reg.RAX)
        asm.mov_rr(Reg.RDI, Reg.RBX)
        lea_data(Reg.RSI, "s_buf", "\x00" * 64)
        asm.mov_ri(Reg.RDX, 832)
        syscall_(Nr.read)
        asm.mov_rr(Reg.RDI, Reg.RBX)
        syscall_(Nr.fstat)
        # Two anonymous segment mappings + one mprotect (PT_LOAD replay).
        for _ in range(2):
            asm.xor_rr(Reg.RDI, Reg.RDI)
            asm.mov_ri(Reg.RSI, 4 * PAGE_SIZE)
            asm.mov_ri(Reg.RDX, 0x3)
            asm.mov_ri(Reg.R10, 0x22)  # MAP_PRIVATE|MAP_ANONYMOUS
            asm.mov_ri(Reg.R8, (1 << 64) - 1)
            syscall_(Nr.mmap)
        asm.mov_rr(Reg.RDI, Reg.RAX)
        asm.mov_ri(Reg.RSI, PAGE_SIZE)
        asm.mov_ri(Reg.RDX, 0x1)
        syscall_(Nr.mprotect)
        asm.mov_rr(Reg.RDI, Reg.RBX)
        syscall_(Nr.close)

    # -- locale / gconv probing (the long tail of real startups) --------------
    for probe in range(max(0, stub_profile) // 2):
        asm.mov_ri(Reg.RDI, (1 << 64) - 100)
        lea_data(Reg.RSI, f"s_loc{probe}",
                 f"/usr/lib/locale/C.UTF-8/LC_{probe:02d}")
        asm.xor_rr(Reg.RDX, Reg.RDX)
        syscall_(Nr.openat)  # ENOENT
        lea_data(Reg.RDI, f"s_loc{probe}",
                 f"/usr/lib/locale/C.UTF-8/LC_{probe:02d}")
        syscall_(Nr.stat)  # ENOENT

    # -- constructors, then handoff ----------------------------------------------
    for index in ctor_indices:
        asm.hostcall(index)
    asm.hostcall(done_index)

    # -- jump to the program entry (address loaded from non-exec data) -------
    asm.lea_rip_label(Reg.RAX, "entry_slot")
    asm.load(Reg.RAX, Reg.RAX)
    asm.jmp_reg(Reg.RAX)

    # -- data section ----------------------------------------------------------
    stub.begin_data()
    asm.label("entry_slot")
    asm.dq(0)
    for label, text in data_strings:
        asm.label(label)
        asm.ascii(text)
    stub.finalize()
    return stub


def _make_ctor_thunk(constructor, base: int):
    def thunk(thread, _constructor=constructor, _base=base):
        _constructor(thread, _base)

    return thunk
