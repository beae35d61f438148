#!/usr/bin/env python3
"""Invariant linter: greppable architectural rules the type system cannot see.

The Clang thread-safety annotations (util/annotations.hpp) prove the lock
discipline and [[clang::lifetimebound]] proves the borrow lifetimes, but a
handful of this codebase's invariants live above the type system -- which
decode helper the streaming path may call, which lane may push to which
queue source, when the checkpoint version must be bumped. This linter pins
those down as source-level rules so CI catches a regression the reviewer
would otherwise have to remember.

Rules (each suppressible per line with `// invariant-lint: allow(<rule>)`
on the offending line or the line directly above):

  no-materializing-decode   The extraction path (src/pipeline, src/stream,
                            src/core) must stay on the O(1)-scratch cursor/
                            framer decoders; parse_rib()/parse_updates()/
                            decode_all() materialize the whole archive and
                            belong to offline tools and tests only.
  bmp-resync-guard          MrtFramer::resync() scans raw MRT bytes for a
                            plausible header. A BMP lane's record
                            boundaries come from BMP framing -- resyncing
                            inside a synthesized record would anchor on
                            garbage. Every framer.resync() in src/pipeline
                            must sit within a visible `bmp` lane-kind
                            check (same line or the 10 lines above).
  queue-push-own-source     A lane/producer may push only under its OWN
                            source index (`source`, `s`, or `index`), the
                            first argument of ObservationQueue::push and
                            of ShardSet::push; a literal or foreign index
                            would interleave two feeds' observations and
                            break the deterministic merge.
  no-naked-mutex            src/pipeline, src/stream, src/propagation (the
                            routing sweep) and the util thread pool must
                            use the annotated util::Mutex/MutexLock/CondVar
                            shim; naked std:: synchronization primitives
                            are invisible to -Wthread-safety.
  escape-hatch-comment      Every thread-safety escape hatch
                            (MLP_NO_THREAD_SAFETY_ANALYSIS, assert_held())
                            must carry an explanatory comment on the same
                            line or within the 6 lines above: an
                            unexplained hole in the proof is a future bug.
  checkpoint-version-bump   (only with --base REF) If the diff against REF
                            changes serialized-payload encode/decode lines
                            in any checkpoint encoder (PAYLOAD_FILES: the
                            session walk, the component hooks, the value
                            codec) without touching kCheckpointVersion,
                            fail: a loader that speaks the old layout
                            would misparse the new one.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

ALLOW_RE = re.compile(r"//\s*invariant-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Rule scopes, relative to the repo root.
EXTRACTION_DIRS = ("src/pipeline", "src/stream", "src/core")
SHIM_DIRS = ("src/pipeline", "src/stream", "src/propagation",
             "src/util/thread_pool.hpp", "src/util/thread_pool.cpp")
PIPELINE_DIR = "src/pipeline"

MATERIALIZING_RE = re.compile(r"\b(parse_rib|parse_updates|decode_all)\s*\(")
MRT_RESYNC_RE = re.compile(r"\bframer\.resync\s*\(")
QUEUE_PUSH_RE = re.compile(r"(?:\bqueue\.|queues?\[[^\]]+\]->|\.queue\.|\bshards_?\.)push\s*\(\s*([A-Za-z_][A-Za-z0-9_.]*|\d+)\s*,")
NAKED_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
ESCAPE_HATCH_RE = re.compile(r"MLP_NO_THREAD_SAFETY_ANALYSIS|\.assert_held\s*\(")
COMMENT_RE = re.compile(r"^\s*//|//")

ALLOWED_PUSH_SOURCES = {"source", "s", "index"}


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(lines: list[str], idx: int, rule: str) -> bool:
    """True when line idx (0-based) carries or inherits an allow pragma."""
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m and rule in {r.strip() for r in m.group(1).split(",")}:
                return True
    return False


def in_scope(rel: str, scopes: tuple[str, ...]) -> bool:
    return any(rel == s or rel.startswith(s + "/") for s in scopes)


def lint_file(rel: str, text: str) -> list[Finding]:
    findings: list[Finding] = []
    lines = text.splitlines()
    is_header_or_source = rel.endswith((".hpp", ".cpp", ".h", ".cc"))
    if not is_header_or_source:
        return findings

    for i, line in enumerate(lines):
        lineno = i + 1
        # Strip trailing comments for code-token rules, but keep the raw
        # line for comment-aware ones.
        code = line.split("//", 1)[0]

        if in_scope(rel, EXTRACTION_DIRS):
            m = MATERIALIZING_RE.search(code)
            # Declarations/definitions in mrt/ itself are the helpers.
            if m and not allowed(lines, i, "no-materializing-decode"):
                findings.append(Finding(
                    "no-materializing-decode", rel, lineno,
                    f"{m.group(1)}() materializes the whole archive; the "
                    "extraction path must stay on MrtCursor/MrtFramer"))

        if in_scope(rel, (PIPELINE_DIR,)) and rel.endswith(".cpp"):
            if MRT_RESYNC_RE.search(code) and not allowed(lines, i, "bmp-resync-guard"):
                window = "\n".join(lines[max(0, i - 10):i + 1])
                if "bmp" not in window:
                    findings.append(Finding(
                        "bmp-resync-guard", rel, lineno,
                        "MrtFramer::resync() without a visible bmp lane-kind "
                        "check; BMP lanes must reset(), never resync()"))

            m = QUEUE_PUSH_RE.search(code)
            if m and not allowed(lines, i, "queue-push-own-source"):
                first_arg = m.group(1)
                if first_arg not in ALLOWED_PUSH_SOURCES:
                    findings.append(Finding(
                        "queue-push-own-source", rel, lineno,
                        f"queue push under index '{first_arg}'; a producer may "
                        "only push under its own source index "
                        f"({'/'.join(sorted(ALLOWED_PUSH_SOURCES))})"))

        if in_scope(rel, SHIM_DIRS):
            m = NAKED_MUTEX_RE.search(code)
            if m and not allowed(lines, i, "no-naked-mutex"):
                findings.append(Finding(
                    "no-naked-mutex", rel, lineno,
                    f"naked std::{m.group(1)}; use the annotated util::Mutex/"
                    "MutexLock/CondVar shim (util/annotations.hpp)"))

        if rel.startswith("src/") and not rel.endswith("annotations.hpp"):
            if ESCAPE_HATCH_RE.search(code) and not allowed(lines, i, "escape-hatch-comment"):
                window = lines[max(0, i - 6):i] + [line]
                if not any(COMMENT_RE.search(w) for w in window):
                    findings.append(Finding(
                        "escape-hatch-comment", rel, lineno,
                        "thread-safety escape hatch without an explanatory "
                        "comment on the line or the 6 lines above"))

    return findings


# Every file that encodes or decodes checkpoint payload bytes: the session
# walk, the component hooks it calls and the value-type codec under them.
PAYLOAD_FILES = ("src/pipeline/checkpoint.cpp", "src/pipeline/live_session.cpp",
                 "src/pipeline/observation_queue.cpp", "src/core/engine.cpp",
                 "src/pipeline/feed_supervisor.cpp", "src/core/passive.cpp",
                 "src/core/state_codec.cpp", "src/stream/framer.cpp",
                 "src/stream/bmp_framer.cpp", "src/stream/frame_window.hpp",
                 "src/stream/decoder.hpp")
PAYLOAD_LINE_RE = re.compile(r"\b(writer|reader)\.(u8|u16|u32|u64|bytes|sub)\s*\(")
# Hunk contexts (git's enclosing-function line) of the encoders: the
# serialize/restore hooks, the session image walk, the file framing and
# the codec's write_*/read_* functions.
SERIALIZER_CONTEXT_RE = re.compile(
    r"serialize_state|restore_state|read_image|encode_checkpoint|"
    r"decode_checkpoint|\b(?:write|read)_\w+\s*\(")
VERSION_RE = re.compile(r"kCheckpointVersion\s*=")


def scan_payload_diff(diff: str, base: str) -> list[Finding]:
    """Fail when a `git diff --unified=0` text edits payload encode/decode
    lines in an encoder without bumping kCheckpointVersion. Header hunks
    count whole: their inline hooks sit under a class-level context."""
    version_bumped = False
    payload_edits: list[tuple[str, str]] = []
    current_file = ""
    in_serializer_hunk = False
    for line in diff.splitlines():
        if line.startswith("+++ b/"):
            current_file = line[6:]
        elif line.startswith("@@"):
            # The function-context tail of the hunk header names the
            # enclosing function for most edits.
            context = line.split("@@")[-1]
            in_serializer_hunk = (current_file.endswith(".hpp") or
                                  bool(SERIALIZER_CONTEXT_RE.search(context)))
        elif line.startswith(("+", "-")) and not line.startswith(("+++", "---")):
            body = line[1:]
            if VERSION_RE.search(body):
                version_bumped = True
            if in_serializer_hunk and PAYLOAD_LINE_RE.search(body):
                if ALLOW_RE.search(body) and "checkpoint-version-bump" in ALLOW_RE.search(body).group(1):
                    continue
                payload_edits.append((current_file, body.strip()))

    if payload_edits and not version_bumped:
        sample = payload_edits[0]
        return [Finding(
            "checkpoint-version-bump", sample[0], 0,
            f"{len(payload_edits)} payload encode/decode line(s) changed vs "
            f"{base} (e.g. `{sample[1][:60]}`) without bumping "
            "kCheckpointVersion in checkpoint.hpp")]
    return []


def lint_checkpoint_version(root: Path, base: str) -> list[Finding]:
    """Run scan_payload_diff over the diff against `base`."""
    try:
        diff = subprocess.run(
            ["git", "diff", "--unified=0", base, "--", *PAYLOAD_FILES,
             "src/pipeline/checkpoint.hpp"],
            cwd=root, capture_output=True, text=True, check=True).stdout
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"invariant_lint: git diff against {base!r} failed: {e}",
              file=sys.stderr)
        sys.exit(2)
    return scan_payload_diff(diff, base)


# ---------------------------------------------------------------------------
# Self test: every rule must fire on its bad fixture and stay quiet on the
# good one (and on the allow-pragma'd bad one).

SELF_TESTS = [
    ("no-materializing-decode", "src/pipeline/x.cpp",
     "auto rib = mrt::parse_rib(data);\n", True),
    ("no-materializing-decode", "src/pipeline/x.cpp",
     "cursor.next();  // streaming\n", False),
    ("no-materializing-decode", "src/pipeline/x.cpp",
     "// invariant-lint: allow(no-materializing-decode)\n"
     "auto rib = mrt::parse_rib(data);\n", False),
    ("no-materializing-decode", "tools/dump.cpp",
     "auto rib = mrt::parse_rib(data);\n", False),  # out of scope
    ("bmp-resync-guard", "src/pipeline/x.cpp",
     "void f(Lane& t) {\n  t.framer.resync();\n}\n", True),
    ("bmp-resync-guard", "src/pipeline/x.cpp",
     "void f(Lane& t) {\n  if (!t.bmp) t.framer.resync();\n}\n", False),
    ("queue-push-own-source", "src/pipeline/x.cpp",
     "queue.push(other_lane, std::move(batch));\n", True),
    ("queue-push-own-source", "src/pipeline/x.cpp",
     "queue.push(0, std::move(batch));\n", True),
    ("queue-push-own-source", "src/pipeline/x.cpp",
     "shards_[ixp]->queue.push(index, std::move(batch));\n", False),
    ("queue-push-own-source", "src/pipeline/x.cpp",
     "shards_.push(index, ixp, std::move(batch));\n", False),
    ("queue-push-own-source", "src/pipeline/x.cpp",
     "shards.push(s, ixp, std::move(batch));\n", False),
    ("queue-push-own-source", "src/pipeline/x.cpp",
     "shards_.push(ixp, index, std::move(batch));\n", True),
    ("queue-push-own-source", "src/pipeline/x.cpp",
     "shards.push(0, ixp, std::move(batch));\n", True),
    ("no-naked-mutex", "src/stream/x.hpp",
     "std::mutex mu_;\n", True),
    ("no-naked-mutex", "src/stream/x.hpp",
     "util::Mutex mu_;\n", False),
    ("no-naked-mutex", "src/util/annotations.hpp",
     "std::mutex inner_;\n", False),  # the shim itself is out of scope
    ("no-naked-mutex", "src/util/thread_pool.hpp",
     "std::condition_variable idle_;\n", True),
    ("no-naked-mutex", "src/util/thread_pool.cpp",
     "std::lock_guard<std::mutex> lock(mutex_);\n", True),
    ("no-naked-mutex", "src/util/thread_pool.cpp",
     "util::MutexLock lock(mutex_);\n", False),
    ("no-naked-mutex", "src/propagation/routing.cpp",
     "std::unique_lock<std::mutex> lock(mu);\n", True),
    ("no-naked-mutex", "src/util/rng.cpp",
     "std::mutex unrelated_;\n", False),  # rest of util is out of scope
    ("escape-hatch-comment", "src/pipeline/x.cpp",
     "void f() MLP_NO_THREAD_SAFETY_ANALYSIS;\n", True),
    ("escape-hatch-comment", "src/pipeline/x.cpp",
     "// Dynamic lock set: proven by assert_held at each use site.\n"
     "void f() MLP_NO_THREAD_SAFETY_ANALYSIS;\n", False),
]


_HOOK_EDIT = (
    "diff --git a/src/stream/framer.cpp b/src/stream/framer.cpp\n"
    "--- a/src/stream/framer.cpp\n"
    "+++ b/src/stream/framer.cpp\n"
    "@@ -90 +90 @@ void MrtFramer::serialize_state(ByteWriter& writer) const {\n"
    "-  writer.u64(records_);\n"
    "+  writer.u32(records_);\n")
_VERSION_BUMP = (
    "diff --git a/src/pipeline/checkpoint.hpp b/src/pipeline/checkpoint.hpp\n"
    "--- a/src/pipeline/checkpoint.hpp\n"
    "+++ b/src/pipeline/checkpoint.hpp\n"
    "@@ -50 +50 @@ class CheckpointError : public std::runtime_error {\n"
    "-constexpr std::uint32_t kCheckpointVersion = 3;\n"
    "+constexpr std::uint32_t kCheckpointVersion = 4;\n")
_CODEC_EDIT = (
    "diff --git a/src/core/state_codec.cpp b/src/core/state_codec.cpp\n"
    "--- a/src/core/state_codec.cpp\n"
    "+++ b/src/core/state_codec.cpp\n"
    "@@ -40 +40 @@ void write_prefix(ByteWriter& writer, const bgp::IpPrefix& prefix) {\n"
    "-  writer.u8(prefix.length());\n"
    "+  writer.u16(prefix.length());\n")
_INLINE_HOOK_EDIT = (
    "diff --git a/src/stream/frame_window.hpp b/src/stream/frame_window.hpp\n"
    "--- a/src/stream/frame_window.hpp\n"
    "+++ b/src/stream/frame_window.hpp\n"
    "@@ -77 +77 @@ class FrameWindow {\n"
    "-    writer.u8(resyncing_ ? 1 : 0);\n"
    "+    writer.u32(resyncing_ ? 1 : 0);\n")
_UNRELATED_EDIT = (
    "diff --git a/src/stream/framer.cpp b/src/stream/framer.cpp\n"
    "--- a/src/stream/framer.cpp\n"
    "+++ b/src/stream/framer.cpp\n"
    "@@ -20 +20 @@ std::optional<std::span<const std::uint8_t>> MrtFramer::next() {\n"
    "-  ++records_;\n"
    "+  records_ += 1;\n")

# (name, synthetic diff, should fire)
DIFF_SELF_TESTS = [
    ("hook edit without a version bump", _HOOK_EDIT, True),
    ("hook edit with a version bump", _HOOK_EDIT + _VERSION_BUMP, False),
    ("codec edit without a version bump", _CODEC_EDIT, True),
    ("inline header hook edit", _INLINE_HOOK_EDIT, True),
    ("edit outside any encoder", _UNRELATED_EDIT, False),
]


def self_test() -> int:
    failures = 0
    for rule, path, text, should_fire in SELF_TESTS:
        fired = any(f.rule == rule for f in lint_file(path, text))
        if fired != should_fire:
            failures += 1
            print(f"SELF-TEST FAIL: {rule} on {path!r}: expected "
                  f"{'finding' if should_fire else 'clean'}, got "
                  f"{'finding' if fired else 'clean'}", file=sys.stderr)
    for name, diff, should_fire in DIFF_SELF_TESTS:
        fired = bool(scan_payload_diff(diff, "BASE"))
        if fired != should_fire:
            failures += 1
            print(f"SELF-TEST FAIL: checkpoint-version-bump on {name}: "
                  f"expected {'finding' if should_fire else 'clean'}, got "
                  f"{'finding' if fired else 'clean'}", file=sys.stderr)
    if failures:
        return 1
    total = len(SELF_TESTS) + len(DIFF_SELF_TESTS)
    print(f"invariant_lint: self-test OK ({total} cases)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent's parent)")
    parser.add_argument("--base", default=None,
                        help="git ref to diff against for checkpoint-version-bump")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule fixtures and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"invariant_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path in sorted(root.glob("src/**/*")):
        if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
            continue
        rel = path.relative_to(root).as_posix()
        findings.extend(lint_file(rel, path.read_text(encoding="utf-8")))

    if args.base:
        findings.extend(lint_checkpoint_version(root, args.base))

    for finding in findings:
        print(finding)
    if findings:
        print(f"invariant_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("invariant_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
