"""SimELF program images.

An image is a single assembled blob: code first, then (page-aligned) data.
Mapping one blob per image keeps RIP-relative addressing valid between the
two, exactly like a contiguously-mapped ELF segment pair.  The loader maps
the code pages r-x and the data pages rw-, patches the GOT slots of declared
imports with resolved absolute addresses, and registers constructors to run
before ``main`` (this is how interposer libraries bootstrap — their
constructor is the LD_PRELOAD init hook).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.arch.assembler import Asm
from repro.errors import LoaderError
from repro.memory.pages import PAGE_SIZE

#: Label that separates code pages from data pages inside the blob.
DATA_START_LABEL = "__data_start"

#: GOT slot label prefix; ``__got_write`` holds the address of ``write``.
GOT_PREFIX = "__got_"

#: Constructor signature: (thread, base_address) -> None, where *thread* is
#: the thread executing the loader stub.
Constructor = Callable[[object, int], None]


@dataclass
class SimImage:
    """One loadable object (executable or shared library).

    Attributes:
        name: canonical path (``/usr/lib/x86_64-linux-gnu/libc.so.6``).
        asm: the code+data builder.  Call :meth:`finalize` once done.
        entry: label of the entry point (executables only).
        needed: library paths this image depends on (DT_NEEDED order).
        imports: symbol names resolved through GOT slots at load time.
        constructors: host-level init functions run before ``main``.
        stub_profile: how noisy this program's startup is — the number of
            extra loader-stub syscalls beyond the per-library fixed cost
            (locale/gconv probing and friends).
    """

    name: str
    asm: Asm = field(default_factory=Asm)
    entry: str = "_start"
    needed: List[str] = field(default_factory=list)
    imports: List[str] = field(default_factory=list)
    constructors: List[Constructor] = field(default_factory=list)
    stub_profile: int = 0
    _finalized: bool = False

    # -- building ------------------------------------------------------------

    def begin_data(self) -> None:
        """Close the code section and start the page-aligned data section.

        Emits GOT slots for every declared import first, so importing code
        can use ``lea_rip`` against ``__got_<name>`` labels.
        """
        if DATA_START_LABEL in self.asm.labels:
            raise LoaderError(f"{self.name}: begin_data() called twice")
        self.asm.align(PAGE_SIZE, fill=0x00)
        self.asm.label(DATA_START_LABEL)
        for symbol in self.imports:
            self.asm.label(GOT_PREFIX + symbol)
            self.asm.dq(0)

    def finalize(self) -> "SimImage":
        """Assemble and sanity-check the image (idempotent)."""
        if not self._finalized:
            if DATA_START_LABEL not in self.asm.labels:
                self.begin_data()
                self.asm.dq(0)  # ensure a non-empty data section
            self.asm.assemble()
            if self.entry and self.entry not in self.asm.labels:
                raise LoaderError(
                    f"{self.name}: entry label {self.entry!r} undefined")
            self._finalized = True
        return self

    # -- introspection -----------------------------------------------------------

    @property
    def blob(self) -> bytes:
        self.finalize()
        return self.asm.assemble()

    @property
    def code_size(self) -> int:
        """Bytes of the r-x prefix (everything before ``__data_start``)."""
        self.finalize()
        return self.asm.labels[DATA_START_LABEL]

    def symbol(self, name: str) -> int:
        """Offset of *name* within the image."""
        self.finalize()
        try:
            return self.asm.labels[name]
        except KeyError:
            raise LoaderError(f"{self.name}: unknown symbol {name!r}") from None

    def has_symbol(self, name: str) -> bool:
        self.finalize()
        return name in self.asm.labels

    def got_offset(self, symbol: str) -> int:
        return self.symbol(GOT_PREFIX + symbol)

    @property
    def syscall_sites(self) -> Dict[str, int]:
        """Ground truth: every marked syscall site (mark name → offset)."""
        self.finalize()
        return dict(self.asm.marks)

    def exported_symbols(self) -> Dict[str, int]:
        self.finalize()
        return {name: off for name, off in self.asm.labels.items()
                if not name.startswith("__got_") and not name.startswith(".")}
