#!/usr/bin/env python3
"""Repo lint for geored: API conventions, concurrency and determinism.

One rule table drives every check. A rule has a name, a pattern matched
against each comment/string-stripped line (or a whole-file finder), a scope,
path allowlists, and optionally a `// lint: ...` marker that suppresses a
finding on its line. Every rule covers the library (src/); the rules marked
[drivers] also cover bench/, examples/, the frozen references (reference/)
and the CLI (tools/geored.cpp): drivers ship alongside the library and must
model its idioms — a raw assert in an example teaches users the wrong
pattern, and an unseeded RNG in a bench makes its numbers unreproducible.
The rest stay src/-only: entry-point validation is a library-API contract,
and bench timing loops and harnesses legitimately read the real clock and
start threads.

  no-raw-assert    [drivers] No raw `assert(...)`: invariants use
                   GEORED_ENSURE / GEORED_CHECK / GEORED_DCHECK so they throw
                   typed exceptions instead of aborting.
  unseeded-rng     [drivers] No rand()/srand(), std::mt19937,
                   std::random_device, std::default_random_engine or
                   std::minstd_rand outside src/common/random.*: every random
                   stream flows through geored::Rng, seeded explicitly.
  pragma-once      [drivers] Every header has `#pragma once`.
  registry-only    [drivers] No direct OnlineClusteringPlacement construction
                   outside src/placement/ and the epoch's propose step
                   (src/core/replication_manager.cpp): callers go through
                   place::make_strategy("online") or make_collector so every
                   decision rule stays registry-addressable.
  ensure-on-entry  Public entry points (non-static free functions and public
                   methods defined in .cpp files) that take a size/index-like
                   parameter validate it with GEORED_ENSURE (or delegate to a
                   validate_* helper). Suppress: `// lint: no-ensure` on the
                   signature line.
  naked-sync       No raw std::mutex / std::condition_variable (or the std
                   lock adapters) outside src/common/sync.h: every lock is a
                   capability-annotated geored::Mutex so Clang's
                   thread-safety analysis sees it. Suppress:
                   `// lint: naked-sync-ok`.
  wall-clock       No <chrono> clock reads, sleeps or POSIX time calls outside
                   SystemClock (src/net/clock.cpp) and the observational
                   epoch-stage timer (src/core/epoch_trace.cpp): all time
                   flows through the injected net::Clock so fault schedules,
                   backoff and delay faults replay deterministically.
  raw-thread       No std::thread / std::jthread / pthread_create outside the
                   ThreadPool (src/common/thread_pool.*) and the RPC server
                   (src/net/rpc_collector.cpp): data parallelism goes through
                   parallel_for / parallel_reduce_sum, so a second
                   parallelism mechanism cannot come back.
  unordered-iter   No range-for over an unordered container: hash order must
                   not reach serialized or reported output. Suppress (the
                   loop is an order-insensitive reduction, or its result is
                   sorted): `// lint: unordered-iter-ok`.
  run-chunks       No direct ThreadPool::run_chunks call outside
                   src/common/thread_pool.*: parallel_for /
                   parallel_reduce_sum run nested calls inline, while a direct
                   run_chunks inside a chunk deadlocks the pool on itself.
                   Suppress: `// lint: run-chunks-ok`.
  hot-alloc        No std::vector construction in the hot kernel files:
                   per-call scratch there goes through the epoch arena
                   (common/arena.h) or a reused buffer. Suppress (cold paths,
                   frozen scalar references, escaping results):
                   `// lint: alloc-ok`.

The pass is AST-aware over src/ when libclang's Python bindings are
importable (it then classifies tokens by cursor kind, so declarations in
comments or strings can never false-positive); the regex pass always runs and
is authoritative for the exit status.

Exit status is 0 when clean, 1 when any violation is found, 2 on usage
errors (including finding zero files to lint — a silently-empty run would
read as a pass).
Usage: tools/geored_lint.py [repo-root]
"""

from __future__ import annotations

import pathlib
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

# ---------------------------------------------------------------------------
# Source text
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments/strings while keeping line numbers aligned."""

    def blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"//[^\n]*", blank, text)
    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.DOTALL)
    return re.sub(r'"(?:[^"\\\n]|\\.)*"', '""', text)


UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(?P<name>\w+)\s*[;={(]"
)


class FileLint:
    """One file's text in raw (for suppressions) and stripped form."""

    def __init__(self, rel: pathlib.Path, text: str, driver: bool):
        self.rel = rel
        self.posix = rel.as_posix()
        self.driver = driver
        self.text = text
        self.raw_lines = text.splitlines()
        self.lines = strip_comments_and_strings(text).splitlines()
        self.unordered_names = {
            m.group("name") for m in UNORDERED_DECL.finditer("\n".join(self.lines))
        }

    def raw(self, lineno: int) -> str:
        return self.raw_lines[lineno - 1] if lineno - 1 < len(self.raw_lines) else ""


# ---------------------------------------------------------------------------
# Whole-file finders (rules a per-line pattern cannot express)
# ---------------------------------------------------------------------------


def missing_pragma_once(lint: FileLint) -> Iterable[int]:
    if lint.rel.suffix == ".h" and "#pragma once" not in lint.text:
        yield 1


# A range-for whose range expression names an unordered container: either the
# expression contains `unordered_` itself, or its terminal identifier is
# declared with an unordered type elsewhere in the same file.
RANGE_FOR = re.compile(r"\bfor\s*\(\s*(?:const\s+)?[^;:)]*?:\s*(?P<range>[^)]+)\)")


def unordered_range_for(lint: FileLint) -> Iterable[int]:
    for lineno, line in enumerate(lint.lines, 1):
        match = RANGE_FOR.search(line)
        if match:
            range_expr = match.group("range").strip()
            # `node.data_` -> `data_`: strip member access chains and calls.
            terminal = re.split(r"[.\->(]", range_expr)[-1].strip()
            if "unordered_" in range_expr or terminal in lint.unordered_names:
                yield lineno


SIZE_PARAM = re.compile(
    r"\b(?:std::)?(?:size_t|uint32_t|uint64_t|ptrdiff_t)\s+"
    r"(k|n|index|idx|quorum|dim|dimensions|node|node_id|replica|client|count)\b"
    r"|\bNodeId\s+\w+"
)
# A function definition: start of line (possibly indented once for a class),
# a return type token, a name, an argument list, then an opening brace on the
# same or the next line. Good enough for this codebase's clang-format style.
FUNC_DEF = re.compile(
    r"^(?P<indent>[ \t]*)(?!(?:if|for|while|switch|return|else|do|catch)\b)"
    r"(?P<sig>[A-Za-z_][\w:<>,&*\s]*?[\w>&*]\s+[\w:~]+\s*\((?P<args>[^;{}]*)\)"
    r"(?:\s*const)?(?:\s*noexcept)?)\s*(?::[^{;]+)?\{",
    re.MULTILINE,
)
VALIDATORS = ("GEORED_ENSURE", "GEORED_CHECK", "GEORED_DCHECK", "validate_")


def function_body(text: str, open_brace: int) -> str:
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace : i + 1]
    return text[open_brace:]


def unvalidated_entry_points(lint: FileLint) -> Iterable[int]:
    if lint.rel.suffix != ".cpp":
        return
    text = lint.text
    for match in FUNC_DEF.finditer(text):
        sig = match.group("sig")
        if not SIZE_PARAM.search(match.group("args")) or sig.lstrip().startswith("static "):
            continue
        # Helpers in an anonymous namespace are not public entry points.
        before = text[: match.start()]
        if before.count("namespace {") > before.count("}  // namespace\n"):
            if before.rfind("namespace {") > before.rfind("}  // namespace"):
                continue
        body = function_body(text, match.end() - 1)  # match ends at the '{'
        if not any(v in body for v in VALIDATORS):
            yield text.count("\n", 0, match.start()) + 1


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    name: str
    message: str
    pattern: re.Pattern[str] | None = None  # searched in each stripped line
    find: Callable[[FileLint], Iterable[int]] | None = None  # or a whole-file finder
    drivers: bool = False  # also covers bench/, examples/, reference/, tools/geored.cpp
    allow: tuple[str, ...] = ()  # exempt path prefixes (a file path exempts itself)
    only: tuple[str, ...] = ()  # when set, the rule covers just these files
    suppress: str | None = None  # marker that waives a finding on its line

    def covers(self, lint: FileLint) -> bool:
        if lint.driver and not self.drivers:
            return False
        if self.only and lint.posix not in self.only:
            return False
        return not lint.posix.startswith(self.allow)

    def lines(self, lint: FileLint) -> Iterable[int]:
        if self.find is not None:
            return self.find(lint)
        return (n for n, line in enumerate(lint.lines, 1) if self.pattern.search(line))


RULES = (
    Rule(
        "no-raw-assert",
        "use GEORED_ENSURE/CHECK/DCHECK instead of raw assert",
        pattern=re.compile(r"(?<!static_)\bassert\s*\("),
        drivers=True,
    ),
    Rule(
        "unseeded-rng",
        "direct RNG outside common/random; route randomness through "
        "geored::Rng so runs reproduce from a seed",
        pattern=re.compile(
            r"(?<!_)\b(?:s?rand)\s*\("
            r"|\bstd::(?:mt19937(?:_64)?|random_device|default_random_engine|minstd_rand0?)\b"
        ),
        drivers=True,
        allow=("src/common/random",),
    ),
    Rule(
        "pragma-once",
        "header lacks '#pragma once'",
        find=missing_pragma_once,
        drivers=True,
    ),
    Rule(
        "registry-only",
        'construct OnlineClusteringPlacement through place::make_strategy("online") '
        "or the epoch's propose step, not directly",
        # `new`, make_unique / make_shared, a temporary, or a named local.
        pattern=re.compile(
            r"new\s+(?:place::)?OnlineClusteringPlacement\b"
            r"|make_(?:unique|shared)<[^>]*OnlineClusteringPlacement\s*>"
            r"|\bOnlineClusteringPlacement\s*[({]"
            r"|\bOnlineClusteringPlacement\s+\w+\s*[;({]"
        ),
        drivers=True,
        allow=("src/placement/", "src/core/replication_manager.cpp"),
    ),
    Rule(
        "ensure-on-entry",
        "public entry point takes a size/index parameter but never validates "
        "its arguments (GEORED_ENSURE it, delegate to a validate_* helper, or "
        "mark the signature '// lint: no-ensure')",
        find=unvalidated_entry_points,
        suppress="lint: no-ensure",
    ),
    Rule(
        "naked-sync",
        "raw std sync primitive outside common/sync.h; use geored::Mutex / "
        "MutexLock / CondVar so Clang's thread-safety analysis can see the "
        "lock (deliberate wrapping sites: '// lint: naked-sync-ok')",
        pattern=re.compile(
            r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
            r"|shared_mutex|shared_timed_mutex"
            r"|condition_variable|condition_variable_any"
            r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
            r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
        ),
        allow=("src/common/sync.h",),
        suppress="lint: naked-sync-ok",
    ),
    Rule(
        "wall-clock",
        "real-time access outside src/net/clock.cpp; take time from the "
        "injected net::Clock so runs replay deterministically",
        pattern=re.compile(
            r"#\s*include\s*<chrono>"
            r"|\bstd::chrono\b|\bsteady_clock\b|\bsystem_clock\b|\bhigh_resolution_clock\b"
            r"|\bsleep_for\b|\bsleep_until\b|\bthis_thread\s*::\s*sleep"
            r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bnanosleep\s*\(|\busleep\s*\("
            r"|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
        ),
        # Epoch stage tracing is observational-only wall time; nothing
        # deterministic consumes it (core/epoch_trace.h).
        allow=("src/net/clock.cpp", "src/core/epoch_trace.cpp"),
    ),
    Rule(
        "raw-thread",
        "raw thread outside the ThreadPool and the RPC server; run data "
        "parallelism through parallel_for / parallel_reduce_sum",
        pattern=re.compile(r"\bstd::j?thread\b|\bpthread_create\s*\("),
        allow=("src/common/thread_pool", "src/net/rpc_collector.cpp"),
    ),
    Rule(
        "unordered-iter",
        "iteration over an unordered container; hash order must not reach "
        "serialized or reported output — sort the result or, if the loop is "
        "an order-insensitive reduction, assert so with "
        "'// lint: unordered-iter-ok'",
        find=unordered_range_for,
        suppress="lint: unordered-iter-ok",
    ),
    Rule(
        "run-chunks",
        "direct ThreadPool::run_chunks call; use parallel_for / "
        "parallel_reduce_sum, which run nested parallelism inline instead of "
        "deadlocking the pool (sanctioned drivers: '// lint: run-chunks-ok')",
        pattern=re.compile(r"\brun_chunks\s*\("),
        allow=("src/common/thread_pool",),
        suppress="lint: run-chunks-ok",
    ),
    Rule(
        "hot-alloc",
        "std::vector construction in a hot kernel file; use the epoch arena "
        "(common/arena.h) or a reused buffer for per-call scratch "
        "(deliberate sites: '// lint: alloc-ok')",
        # A vector variable declaration or temporary; references and
        # qualified-name function definitions do not allocate per call.
        pattern=re.compile(
            r"\bstd::vector\s*<[^;()]*?>\s+\w+\s*[;({=]|\bstd::vector\s*<[^;()]*?>\s*[({]"
        ),
        only=(
            "src/common/point_set.cpp",
            "src/common/point_set_simd.cpp",
            "src/cluster/kmeans.cpp",
            "src/cluster/moment_store.cpp",
            "src/cluster/summarizer.cpp",
            "src/placement/evaluate.cpp",
            "src/core/epoch_pipeline.cpp",
            "src/core/epoch_trace.h",
            "src/serve/request_router.cpp",
            "src/serve/replica_panel.cpp",
            "src/serve/latency_histogram.h",
        ),
        suppress="lint: alloc-ok",
    ),
)
RULE = {rule.name: rule for rule in RULES}


def emit(errors: list[str], lint: FileLint, lineno: int, rule: Rule) -> None:
    errors.append(f"{lint.rel}:{lineno}: [{rule.name}] {rule.message}")


def suppressed(rule: Rule, raw_line: str) -> bool:
    return rule.suppress is not None and rule.suppress in raw_line


def regex_lint_file(lint: FileLint, errors: list[str]) -> None:
    for rule in RULES:
        if rule.covers(lint):
            for lineno in rule.lines(lint):
                if not suppressed(rule, lint.raw(lineno)):
                    emit(errors, lint, lineno, rule)


# ---------------------------------------------------------------------------
# AST mode (libclang, optional; src/ only)
# ---------------------------------------------------------------------------


def try_load_libclang():
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:  # missing/unloadable shared library
        return None


def ast_lint_file(cindex, root: pathlib.Path, lint: FileLint, errors: list[str]) -> None:
    """AST pass for one file; a file that does not parse adds nothing."""
    path = root / lint.rel
    try:
        tu = cindex.Index.create().parse(
            str(path),
            args=["-std=c++20", f"-I{root / 'src'}", "-fsyntax-only"],
            options=cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0,
        )
    except Exception:
        return
    if any(d.severity >= cindex.Diagnostic.Fatal for d in tu.diagnostics):
        return

    def here(cursor) -> int | None:
        loc = cursor.location
        if loc.file is None or pathlib.Path(loc.file.name) != path:
            return None
        return loc.line

    sync, clock, rng = RULE["naked-sync"], RULE["wall-clock"], RULE["unseeded-rng"]
    chunks, unordered = RULE["run-chunks"], RULE["unordered-iter"]
    K = cindex.CursorKind
    for cursor in tu.cursor.walk_preorder():
        lineno = here(cursor)
        if lineno is None:
            continue
        raw = lint.raw(lineno)
        spelled_type = ""
        if cursor.kind in (K.VAR_DECL, K.FIELD_DECL):
            spelled_type = cursor.type.spelling

        if sync.covers(lint) and sync.pattern.search(spelled_type) and not suppressed(sync, raw):
            emit(errors, lint, lineno, sync)

        if cursor.kind in (K.DECL_REF_EXPR, K.CALL_EXPR):
            name = cursor.spelling or ""
            if (
                clock.covers(lint)
                and name in ("sleep_for", "sleep_until", "now", "gettimeofday",
                             "clock_gettime", "nanosleep", "usleep")
                and "chrono" in (cursor.referenced.location.file.name
                                 if cursor.referenced is not None
                                 and cursor.referenced.location.file is not None
                                 else "chrono")  # no referent info: be strict
            ):
                emit(errors, lint, lineno, clock)
            if (
                chunks.covers(lint)
                and name == "run_chunks"
                and cursor.kind is K.CALL_EXPR
                and not suppressed(chunks, raw)
            ):
                emit(errors, lint, lineno, chunks)

        if rng.covers(lint) and rng.pattern.search(spelled_type):
            emit(errors, lint, lineno, rng)

        if cursor.kind is K.CXX_FOR_RANGE_STMT and not suppressed(unordered, raw):
            children = list(cursor.get_children())
            if children:
                range_type = children[-2].type.spelling if len(children) >= 2 else ""
                if "unordered_" in range_type:
                    emit(errors, lint, lineno, unordered)


# ---------------------------------------------------------------------------


def collect_files(root: pathlib.Path) -> tuple[list[pathlib.Path], list[pathlib.Path]]:
    """(library files under src/, driver files)."""

    def sources(tree: pathlib.Path) -> list[pathlib.Path]:
        return [p for p in sorted(tree.rglob("*")) if p.suffix in (".cpp", ".h")]

    library = sources(root / "src")
    drivers = [p for tree in ("bench", "examples", "reference") for p in sources(root / tree)]
    cli = root / "tools" / "geored.cpp"
    if cli.is_file():
        drivers.append(cli)
    return library, drivers


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    src = root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        return 2
    library, drivers = collect_files(root)
    if not library:
        print(
            f"error: found no .cpp/.h files under {src} — an empty lint run "
            "would falsely read as a pass; check the path argument",
            file=sys.stderr,
        )
        return 2

    cindex = try_load_libclang()
    mode = "libclang AST" if cindex else "regex fallback"

    # The regex pass is authoritative for the exit status: the AST pass can
    # only ever add findings, never quietly pass what regex flags.
    errors: list[str] = []
    for path, driver in [(p, False) for p in library] + [(p, True) for p in drivers]:
        lint = FileLint(path.relative_to(root), path.read_text(encoding="utf-8"), driver)
        regex_lint_file(lint, errors)
        if cindex and not driver:
            ast_lint_file(cindex, root, lint, errors)

    def location_key(error: str) -> tuple[str, int]:
        file, line = error.split(":", 2)[:2]
        return file, int(line)

    reported = sorted(set(errors), key=location_key)
    for error in reported:
        print(error)
    if reported:
        print(f"\n{len(reported)} violation(s) [{mode}].", file=sys.stderr)
        return 1
    print(f"geored_lint: clean [{mode}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
