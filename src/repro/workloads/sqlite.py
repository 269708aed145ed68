"""Simulated sqlite speedtest1 (tag version-3.50.4, ``-size 800``).

A fresh 4 KiB-page database in WAL mode with ``synchronous=NORMAL`` and no
auto-checkpointing (§6.2.2): per transaction the engine appends WAL frames
(``write``), reads b-tree pages (``lseek`` + ``read``), and — at NORMAL —
syncs the WAL only at checkpoint-ish boundaries (``fdatasync`` every
``SYNC_EVERY`` transactions).  Between syscalls the engine burns parse/
plan/execute compute.  Not throughput-oriented: the benchmark reports
relative *runtime* (§6.2.2, Table 6's sqlite row).
"""

from __future__ import annotations

from repro.arch.registers import Reg
from repro.workloads.http import pad_inline_sites
from repro.workloads.programs import ProgramBuilder, RESULT, data_ref

SQLITE_PATH = "/usr/bin/speedtest1"
DB_PATH = "/var/db/speedtest.db"
WAL_PATH = "/var/db/speedtest.db-wal"

#: Transactions per run (scaled-down stand-in for ``-size 800``).
TRANSACTIONS = 120
SYNC_EVERY = 8

#: Parse/plan/execute compute per transaction.
SQLITE_BURN_CYCLES = 30_300

#: Table 2 target: 20 unique sites for sqlite.
SQLITE_TABLE2_SITES = 20
INLINE_PAD = 11


def build_speedtest1(transactions: int = TRANSACTIONS) -> ProgramBuilder:
    """speedtest1 running *transactions* transactions (the differential
    runtime measurement builds two sizes)."""
    builder = ProgramBuilder(SQLITE_PATH, stub_profile=34)
    builder.string("db", DB_PATH)
    builder.string("wal", WAL_PATH)
    builder.buffer("page", 4096)
    builder.buffer("frame", 4096)
    asm = builder.asm
    builder.start()

    pad_inline_sites(builder, INLINE_PAD, "sqlite")

    builder.libc("openat", (1 << 64) - 100, data_ref("db"), 0o102)
    asm.mov_rr(Reg.R14, Reg.RAX)  # db fd
    builder.libc("openat", (1 << 64) - 100, data_ref("wal"), 0o102)
    asm.mov_rr(Reg.R13, Reg.RAX)  # wal fd
    builder.libc("fstat", Reg.R14, 0)
    builder.libc("newfstatat", (1 << 64) - 100, data_ref("db"), 0, 0)

    asm.mov_ri(Reg.R12, SYNC_EVERY)  # countdown to the next WAL sync
    builder.loop(transactions, counter=Reg.R15)
    # Read three b-tree pages (interior, leaf, overflow).
    builder.libc("lseek", Reg.R14, 0, 0)
    builder.libc("read", Reg.R14, data_ref("page"), 4096)
    builder.libc("lseek", Reg.R14, 4096, 0)
    builder.libc("read", Reg.R14, data_ref("page"), 4096)
    builder.libc("lseek", Reg.R14, 0, 0)
    builder.libc("read", Reg.R14, data_ref("page"), 4096)
    # Execute (parse/plan/btree work).
    builder.libc("burn", SQLITE_BURN_CYCLES)
    # Append one WAL frame.
    builder.libc("write", Reg.R13, data_ref("frame"), 4096)
    # synchronous=NORMAL: sync every SYNC_EVERY transactions.
    asm.dec(Reg.R12)
    asm.jne(".txn_no_sync")
    builder.libc("fdatasync", Reg.R13)
    asm.mov_ri(Reg.R12, SYNC_EVERY)
    builder.label(".txn_no_sync")
    builder.end_loop()
    builder.libc("fdatasync", Reg.R13)  # final WAL flush
    builder.libc("close", Reg.R13)
    builder.libc("close", Reg.R14)
    builder.exit(0)
    return builder


def install_sqlite(kernel, transactions: int = TRANSACTIONS) -> str:
    kernel.vfs.mkdir("/var/db", exist_ok=True)
    kernel.vfs.create(DB_PATH, b"\x00" * 8192)
    kernel.vfs.create(WAL_PATH, b"")
    build_speedtest1(transactions).register(kernel)
    return SQLITE_PATH
