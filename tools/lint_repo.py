#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

Rules (each can be silenced on a single line with `// lint:allow(<rule>)`):

  pragma-once         every header under src/ starts with #pragma once.
  no-reinterpret-cast no reinterpret_cast anywhere under src/.  The wire
                      codecs (common/serialize.h) are written cast-free on
                      purpose; OS-API call sites (sockaddr) carry explicit
                      allows.
  hot-path-alloc      files tagged `// cmh:hot-path` near the top must not
                      heap-allocate (new / make_unique / make_shared /
                      malloc) nor use std::unordered_{map,set} -- the
                      steady-state detection path is zero-alloc and
                      cache-friendly by design (see DESIGN.md).
  transport-bytesview transport send surfaces take BytesView, never
                      `const Bytes&`: senders must accept stack frames
                      without forcing a heap copy at the boundary.  The
                      receive side likewise: a message-handler alias or a
                      handler lambda `(NodeId from, const Bytes& ...)`
                      is flagged, because the simulator delivers small
                      frames from its stack and a `const Bytes&` handler
                      could not accept them without a copy.
  raw-sync            std::mutex / std::condition_variable / the std lock
                      adapters (scoped_lock, lock_guard, unique_lock, ...)
                      and manual .lock()/.unlock() calls are banned outside
                      src/common/sync.h.  Everything else goes through the
                      annotated Mutex / MutexLock / CondVar wrappers so the
                      Clang thread-safety analysis sees every acquisition;
                      a raw std primitive is a hole in the proof.
  raw-socket-io       direct socket syscalls (::send, ::recv, ::read,
                      ::write, ::sendmsg, ...) are banned outside src/net/.
                      Byte transfer goes through the Transport interface;
                      a stray syscall bypasses framing, the I/O counters
                      and the event-loop's fd-lifecycle discipline.

All .h/.cpp files under src/, tests/ and bench/ are scanned.

Usage: tools/lint_repo.py [--root DIR]
Exit status: 0 clean, 1 findings (printed as path:line: [rule] message).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

HOT_PATH_MARKER = "// cmh:hot-path"
ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z0-9-]+)\)")

ALLOC_RE = re.compile(
    r"\bnew\b|\bstd::make_unique\b|\bstd::make_shared\b|\bmalloc\s*\("
)
UNORDERED_RE = re.compile(r"\bstd::unordered_(map|set)\b")
REINTERPRET_RE = re.compile(r"\breinterpret_cast\b")
# A declaration line of a send-like function taking a borrowed Bytes:
# matches `send(`, `send_frame(` etc. followed (same line) by `const Bytes&`.
SEND_BYTES_RE = re.compile(r"\b\w*send\w*\s*\([^)]*const\s+Bytes\s*&")
# The receive side: a handler alias whose std::function takes a borrowed
# Bytes, or a lambda whose parameter list is (NodeId ..., const Bytes& ...).
# Matched over the whole file, so a parameter list may wrap.
HANDLER_ALIAS_BYTES_RE = re.compile(
    r"\busing\s+\w*Handler\s*=\s*std::function\s*<[^>]*const\s+Bytes\s*&"
)
HANDLER_LAMBDA_BYTES_RE = re.compile(
    r"\]\s*\(\s*(?:\w+::)*NodeId\b[^,()]*,\s*const\s+Bytes\s*&"
)

# The raw C++ synchronization vocabulary.  Only src/common/sync.h may use
# these; everyone else holds capabilities through the annotated wrappers.
RAW_SYNC_TYPE_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex"
    r"|condition_variable|condition_variable_any"
    r"|scoped_lock|lock_guard|unique_lock|shared_lock)\b"
)
RAW_SYNC_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)
# Manual lock management defeats scope-based release and, on the annotated
# Mutex, forces callers to spell ACQUIRE/RELEASE by hand; require MutexLock.
# Nullary calls only: the ddb lock manager's lock(txn, resource, mode) is the
# *modeled* resource lock, not thread synchronization.
MANUAL_LOCK_RE = re.compile(r"(?:\.|->)\s*(?:try_)?(?:un)?lock\s*\(\s*\)")

# Direct socket/file-descriptor I/O syscalls.  The lookbehind keeps
# qualified C++ names (Simulator::send, Transport::send_probes) out: only a
# `::` that does NOT follow an identifier is the global-namespace qualifier,
# and the `\b` after the name rejects ::send_frame-style calls too.
RAW_SOCKET_IO_RE = re.compile(
    r"(?<![\w>])::(?:send|sendto|sendmsg|recv|recvfrom|recvmsg"
    r"|read|write|readv|writev)\s*\("
)

# The one file allowed to touch the raw primitives (it wraps them).
SYNC_SHIM = pathlib.PurePosixPath("src/common/sync.h")

# The directories allowed to make socket syscalls (the transport layer and
# the event loop it runs on).
NET_DIR = pathlib.PurePosixPath("src/net")


def strip_comments(lines: list[str]) -> list[str]:
    """Remove // and /* */ comment text, preserving line structure."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                result.append(line[i])
                i += 1
        out.append("".join(result))
    return out


class Linter:
    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.findings: list[tuple[pathlib.Path, int, str, str]] = []

    def report(self, path: pathlib.Path, line_no: int, rule: str,
               message: str, raw_line: str, prev_line: str = "") -> None:
        # An allow silences the rule on its own line or the line below it
        # (long call sites keep the annotation readable on its own line).
        for candidate in (raw_line, prev_line):
            allow = ALLOW_RE.search(candidate)
            if allow and allow.group(1) == rule:
                return
        self.findings.append((path, line_no, rule, message))

    def lint_file(self, path: pathlib.Path) -> None:
        raw = path.read_text(encoding="utf-8").splitlines()
        code = strip_comments(raw)
        head = "\n".join(raw[:15])
        hot_path = HOT_PATH_MARKER in head
        rel = pathlib.PurePosixPath(path.relative_to(self.root).as_posix())
        is_sync_shim = rel == SYNC_SHIM
        in_net = NET_DIR in rel.parents

        if path.suffix == ".h" and not any("#pragma once" in l for l in raw):
            self.report(path, 1, "pragma-once",
                        "header has no #pragma once", raw[0] if raw else "")

        for i, (code_line, raw_line) in enumerate(zip(code, raw), start=1):
            prev = raw[i - 2] if i >= 2 else ""
            if REINTERPRET_RE.search(code_line):
                self.report(path, i, "no-reinterpret-cast",
                            "reinterpret_cast is banned in src/ "
                            "(write the codec cast-free or add an allow)",
                            raw_line, prev)
            if hot_path:
                if ALLOC_RE.search(code_line):
                    self.report(path, i, "hot-path-alloc",
                                "heap allocation in a cmh:hot-path file",
                                raw_line, prev)
                if UNORDERED_RE.search(code_line):
                    self.report(path, i, "hot-path-alloc",
                                "std::unordered_{map,set} in a cmh:hot-path "
                                "file (use FlatSet / sorted vectors)",
                                raw_line, prev)
            if path.suffix == ".h" and SEND_BYTES_RE.search(code_line):
                self.report(path, i, "transport-bytesview",
                            "send surface takes `const Bytes&`; accept "
                            "BytesView so stack frames pass without a copy",
                            raw_line, prev)
            if not is_sync_shim:
                if (RAW_SYNC_TYPE_RE.search(code_line)
                        or RAW_SYNC_INCLUDE_RE.search(code_line)):
                    self.report(path, i, "raw-sync",
                                "raw std synchronization primitive; use "
                                "Mutex/MutexLock/CondVar from common/sync.h "
                                "so the thread-safety analysis sees it",
                                raw_line, prev)
                if MANUAL_LOCK_RE.search(code_line):
                    self.report(path, i, "raw-sync",
                                "manual lock()/unlock() call; hold the "
                                "mutex through a scoped MutexLock instead",
                                raw_line, prev)
            if not in_net and RAW_SOCKET_IO_RE.search(code_line):
                self.report(path, i, "raw-socket-io",
                            "direct socket syscall outside src/net/; go "
                            "through the Transport interface (framing, "
                            "I/O counters, fd lifecycle live there)",
                            raw_line, prev)

        text = "\n".join(code)
        for regex in (HANDLER_ALIAS_BYTES_RE, HANDLER_LAMBDA_BYTES_RE):
            for match in regex.finditer(text):
                # Report on the line holding `const Bytes&`.
                i = text.count("\n", 0, match.end()) + 1
                self.report(path, i, "transport-bytesview",
                            "message handler takes `const Bytes&`; take "
                            "BytesView (valid for the call) so deliveries "
                            "need no heap buffer",
                            raw[i - 1], raw[i - 2] if i >= 2 else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: this script's ../)")
    args = parser.parse_args()
    root = (pathlib.Path(args.root) if args.root
            else pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    if not src.is_dir():
        print(f"lint_repo: no src/ under {root}", file=sys.stderr)
        return 2

    linter = Linter(root)
    roots = [src] + [d for d in (root / "tests", root / "bench")
                     if d.is_dir()]
    for tree in roots:
        for path in sorted(tree.rglob("*")):
            if path.suffix in (".h", ".cpp"):
                linter.lint_file(path)

    for path, line_no, rule, message in linter.findings:
        rel = path.relative_to(root)
        print(f"{rel}:{line_no}: [{rule}] {message}")
    if linter.findings:
        print(f"lint_repo: {len(linter.findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"lint_repo: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
