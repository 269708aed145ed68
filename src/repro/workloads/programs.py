"""High-level program authoring: the layer every workload is written in.

:class:`ProgramBuilder` wraps a :class:`repro.loader.image.SimImage` and
provides the idioms real compiled programs exhibit:

- libc calls through GOT slots (``lea __got_write(%rip) → load → callq *%rax``),
  so every external call resolves at load time like a PLT-less GOT call;
- counted loops (``mov imm → label → ... → dec/jne``);
- NUL-terminated data strings and scratch buffers in the data section;
- direct (inlined) syscalls for programs that bypass libc — the static-binary
  idiom that gives applications their *own* syscall sites (visible as
  app-binary entries in K23's offline logs, Figure 3).

Argument values may be plain integers, :func:`data_ref` labels (materialized
via ``lea``), :data:`RESULT` (the previous call's return value), or registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.arch.assembler import Asm
from repro.arch.registers import Reg, SYSCALL_ARG_REGS
from repro.errors import AssemblerError
from repro.kernel.syscalls import Nr
from repro.loader.image import SimImage


class _Result:
    """Sentinel: use the previous call's return value (RAX) as an argument."""

    def __repr__(self) -> str:  # pragma: no cover
        return "RESULT"


RESULT = _Result()


@dataclass(frozen=True)
class DataRef:
    """A reference to a data-section label, materialized with ``lea``."""

    label: str


def data_ref(label: str) -> DataRef:
    return DataRef(label)


Arg = Union[int, DataRef, Reg, _Result]


class ProgramBuilder:
    """Author one executable or library image."""

    def __init__(self, path: str, needed: Sequence[str] = (),
                 stub_profile: int = 0, entry: str = "_start"):
        self.image = SimImage(name=path, needed=list(needed),
                              entry=entry, stub_profile=stub_profile)
        self.asm: Asm = self.image.asm
        self._strings: List[Tuple[str, str]] = []
        self._buffers: List[Tuple[str, int]] = []
        self._words: List[Tuple[str, Sequence[int]]] = []
        self._loop_stack: List[Tuple[str, Reg]] = []
        self._label_counter = 0
        self._imports: List[str] = []
        self._finalized = False

    # -- structure ----------------------------------------------------------

    def start(self) -> "ProgramBuilder":
        """Open the entry point."""
        self.asm.label(self.image.entry)
        self.asm.endbr64()
        return self

    def label(self, name: str) -> "ProgramBuilder":
        self.asm.label(name)
        return self

    def _fresh(self, hint: str) -> str:
        self._label_counter += 1
        return f".{hint}{self._label_counter}"

    # -- data ------------------------------------------------------------------

    def string(self, label: str, text: str) -> "ProgramBuilder":
        """Declare a NUL-terminated data string."""
        if all(lbl != label for lbl, _ in self._strings):
            self._strings.append((label, text))
        return self

    def buffer(self, label: str, size: int) -> "ProgramBuilder":
        """Declare a zeroed scratch buffer."""
        if all(lbl != label for lbl, _ in self._buffers):
            self._buffers.append((label, size))
        return self

    def words(self, label: str, values: Sequence[int]) -> "ProgramBuilder":
        """Declare 64-bit data words (e.g. env/argv pointer arrays)."""
        self._words.append((label, list(values)))
        return self

    # -- argument marshalling -------------------------------------------------------

    def _marshal(self, args: Sequence[Arg]) -> None:
        if len(args) > len(SYSCALL_ARG_REGS):
            raise AssemblerError("too many call arguments")
        # RESULT consumers first (RAX gets clobbered by the GOT load).
        for reg, arg in zip(SYSCALL_ARG_REGS, args):
            if isinstance(arg, _Result):
                self.asm.mov_rr(reg, Reg.RAX)
        for reg, arg in zip(SYSCALL_ARG_REGS, args):
            if isinstance(arg, _Result):
                continue
            if isinstance(arg, DataRef):
                self.asm.lea_rip_label(reg, arg.label)
            elif isinstance(arg, Reg):
                if arg is not reg:
                    self.asm.mov_rr(reg, arg)
            else:
                self.asm.mov_ri(reg, int(arg))

    # -- calls ------------------------------------------------------------------------

    def libc(self, name: str, *args: Arg) -> "ProgramBuilder":
        """Call a libc function through its GOT slot."""
        self._marshal(args)
        if name not in self._imports:
            self._imports.append(name)
        self.asm.lea_rip_label(Reg.RAX, f"__got_{name}")
        self.asm.load(Reg.RAX, Reg.RAX)
        self.asm.call_reg(Reg.RAX)
        return self

    def direct_syscall(self, number: Union[int, Nr], *args: Arg,
                       mark: Optional[str] = None) -> "ProgramBuilder":
        """Issue a syscall with an *inlined* instruction (static-binary
        idiom): the site lives in this image, not in libc."""
        self._marshal(args)
        self.asm.mov_ri(Reg.RAX, int(number))
        if mark:
            self.asm.mark(mark)
        self.asm.syscall_()
        return self

    def exit(self, status: int = 0) -> "ProgramBuilder":
        return self.libc("exit", status)

    # -- loops ---------------------------------------------------------------------------

    def loop(self, count: int, counter: Reg = Reg.R15) -> "ProgramBuilder":
        """Open a counted loop (pair with :meth:`end_loop`)."""
        top = self._fresh("loop")
        self.asm.mov_ri(counter, count)
        self.asm.label(top)
        self._loop_stack.append((top, counter))
        return self

    def end_loop(self) -> "ProgramBuilder":
        top, counter = self._loop_stack.pop()
        self.asm.dec(counter)
        self.asm.jne(top)
        return self

    # -- finalization ---------------------------------------------------------------------

    def build(self) -> SimImage:
        """Emit the data section and finalize the image."""
        if not self._finalized:
            if self._loop_stack:
                raise AssemblerError("unclosed loop")
            self.image.imports = list(self._imports)
            self.image.begin_data()
            for label, text in self._strings:
                self.asm.label(label)
                self.asm.ascii(text)
            for label, size in self._buffers:
                self.asm.label(label)
                self.asm.raw(b"\x00" * size)
            for label, values in self._words:
                self.asm.label(label)
                self.asm.dq(*values)
            self.image.finalize()
            self._finalized = True
        return self.image

    def register(self, kernel) -> SimImage:
        """Build and register with *kernel*'s loader; returns the image."""
        image = self.build()
        kernel.loader.register_image(image)
        return image
