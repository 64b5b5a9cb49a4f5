#!/usr/bin/env python3
"""Repo-invariant linter: the contracts no compiler flag can check.

Dependency-free (stdlib only).  Each rule is a function returning a list of
Violation; `python3 tools/lint/lint.py` runs them all against the repo and
exits nonzero on any hit.  tools/lint/rules.md documents every rule, its
rationale, and its suppression/update path; tools/lint/selftest.py feeds
each rule a deliberate violation and asserts it fires (wired into ctest, so
tier-1 runs both).

Rules:
  raw-mutex        no std::mutex/condvar primitives in src/ outside
                   common/annotated_mutex.h (everything must go through the
                   thread-safety-annotated wrappers)
  serve-throw      every `throw` in src/serve carries a `lint:allow-throw`
                   marker naming why it is off the request path
  kernel-purity    no throw/try/heap allocation in src/core/simd/kernels_*.cpp
  scalar-oracle    kernels_scalar.cpp matches the committed content hash
                   (update only via --update-scalar-baseline)
  isa-isolation    kernels_avx2.cpp (the one -mavx2 TU) and the core/simd
                   headers it includes pull in only <immintrin.h>,
                   <cstddef>, <cstdint> and core/simd/* headers, and use no
                   std:: names
  kernel-table-live every KernelTable member declared in core/simd/simd.h
                   is called somewhere in src/ outside core/simd/
  include-hygiene  quoted includes in src/ resolve from the src/ root, no
                   `..` segments, every src/ header opens with #pragma once
  bench-schema     the committed BENCH_*.json artifacts parse, carry their
                   contract keys, and never commit bit_identical/conserved
                   == false
"""

import hashlib
import json
import re
import sys
from pathlib import Path


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based, or 0 for whole-file findings
        self.message = message

    def __str__(self):
        loc = f"{self.path}:{self.line}" if self.line else str(self.path)
        return f"{loc}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line structure.

    Good enough for token scans: handles //, /* */, "..." and '...' with
    escapes.  Raw strings are not used in this repo; a stray one degrades to
    over-stripping, never to a missed token.
    """
    out = []
    i, n = 0, len(text)
    mode = None  # None | 'line' | 'block' | 'dq' | 'sq'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "dq"
                out.append(" ")
                i += 1
            elif c == "'":
                mode = "sq"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line":
            if c == "\n":
                mode = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # dq / sq
            if c == "\\":
                out.append("  ")
                i += 2
            elif (mode == "dq" and c == '"') or (mode == "sq" and c == "'"):
                mode = None
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def _src_files(root, suffixes=(".h", ".cpp")):
    src = root / "src"
    return sorted(p for p in src.rglob("*") if p.suffix in suffixes)


# --------------------------------------------------------------------------
# Rule: raw-mutex
# --------------------------------------------------------------------------

RAW_MUTEX_TOKENS = [
    "std::mutex",
    "std::recursive_mutex",
    "std::shared_mutex",
    "std::timed_mutex",
    "std::condition_variable",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
]

ANNOTATED_MUTEX_HEADER = Path("src/common/annotated_mutex.h")


def check_raw_mutex(root):
    violations = []
    for path in _src_files(root):
        rel = path.relative_to(root)
        if rel == ANNOTATED_MUTEX_HEADER:
            continue  # the one place the std primitives may appear
        code = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(code.splitlines(), 1):
            for tok in RAW_MUTEX_TOKENS:
                if tok in line:
                    violations.append(Violation(
                        "raw-mutex", rel, lineno,
                        f"{tok} bypasses the thread-safety-annotated wrappers"
                        " -- use Mutex/CondVar/MutexLock from"
                        " common/annotated_mutex.h"))
    return violations


# --------------------------------------------------------------------------
# Rule: serve-throw
# --------------------------------------------------------------------------

THROW_MARKER = "lint:allow-throw"


def check_serve_throw(root):
    violations = []
    serve = root / "src" / "serve"
    for path in sorted(serve.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = path.relative_to(root)
        raw_lines = path.read_text().splitlines()
        code_lines = strip_comments_and_strings(path.read_text()).splitlines()
        for lineno, line in enumerate(code_lines, 1):
            if not re.search(r"\bthrow\b", line):
                continue
            here = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
            above = raw_lines[lineno - 2] if lineno >= 2 else ""
            if THROW_MARKER in here or THROW_MARKER in above:
                continue
            violations.append(Violation(
                "serve-throw", rel, lineno,
                "throw in src/serve without a 'lint:allow-throw -- <why>'"
                " marker: the request path sheds typed values, it never"
                " throws (README 'Failure semantics')"))
    return violations


# --------------------------------------------------------------------------
# Rule: kernel-purity
# --------------------------------------------------------------------------

KERNEL_BANNED = [
    (r"\bthrow\b", "throw"),
    (r"\btry\b", "try"),
    (r"\bnew\b", "operator new"),
    (r"\bmalloc\s*\(", "malloc"),
    (r"\bcalloc\s*\(", "calloc"),
    (r"\brealloc\s*\(", "realloc"),
    (r"\bstd::vector\b", "std::vector"),
    (r"\bstd::string\b", "std::string"),
    (r"\.push_back\s*\(", "push_back"),
    (r"\.emplace_back\s*\(", "emplace_back"),
    (r"\.resize\s*\(", "resize"),
    (r"\.reserve\s*\(", "reserve"),
]


def check_kernel_purity(root):
    violations = []
    simd = root / "src" / "core" / "simd"
    for path in sorted(simd.glob("kernels_*.cpp")):
        rel = path.relative_to(root)
        code = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(code.splitlines(), 1):
            for pattern, name in KERNEL_BANNED:
                if re.search(pattern, line):
                    violations.append(Violation(
                        "kernel-purity", rel, lineno,
                        f"{name} in a SIMD kernel TU: kernels are"
                        " allocation-free and exception-free by contract"
                        " (callers own every plane)"))
    return violations


# --------------------------------------------------------------------------
# Rule: scalar-oracle
# --------------------------------------------------------------------------

SCALAR_ORACLE = Path("src/core/simd/kernels_scalar.cpp")
SCALAR_BASELINE = Path("tools/lint/scalar_oracle.sha256")


def scalar_oracle_digest(root):
    return hashlib.sha256((root / SCALAR_ORACLE).read_bytes()).hexdigest()


def check_scalar_oracle(root):
    baseline_path = root / SCALAR_BASELINE
    if not baseline_path.exists():
        return [Violation(
            "scalar-oracle", SCALAR_BASELINE, 0,
            "committed baseline missing -- run"
            " 'python3 tools/lint/lint.py --update-scalar-baseline'")]
    baseline = baseline_path.read_text().split()[0]
    actual = scalar_oracle_digest(root)
    if actual != baseline:
        return [Violation(
            "scalar-oracle", SCALAR_ORACLE, 0,
            "kernels_scalar.cpp changed but the committed baseline did not:"
            " the scalar oracle is kept VERBATIM (every vector backend is"
            " diffed against it bit-for-bit).  If the change is deliberate,"
            " re-run the kernel+datapath differential suite and then"
            " 'python3 tools/lint/lint.py --update-scalar-baseline'")]
    return []


# --------------------------------------------------------------------------
# Rule: isa-isolation
# --------------------------------------------------------------------------

ISA_TU = Path("src/core/simd/kernels_avx2.cpp")
ISA_SYSTEM_HEADERS = {"immintrin.h", "cstddef", "cstdint"}
INCLUDE_RE = re.compile(r'\s*#\s*include\s*([<"])([^>"]+)[>"]')


def check_isa_isolation(root):
    """Walk the AVX2 TU and every core/simd header it reaches."""
    violations = []
    todo, seen = [ISA_TU], set()
    while todo:
        rel = todo.pop()
        if rel in seen or not (root / rel).exists():
            continue
        seen.add(rel)
        text = (root / rel).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            quoted, inc = m.group(1) == '"', m.group(2)
            shown = f'"{inc}"' if quoted else f"<{inc}>"
            if quoted and inc.startswith("core/simd/"):
                todo.append(Path("src") / inc)
            elif quoted or inc not in ISA_SYSTEM_HEADERS:
                violations.append(Violation(
                    "isa-isolation", rel, lineno,
                    f"includes {shown}: the -mavx2 TU may pull in"
                    " only <immintrin.h>, <cstddef>, <cstdint> and"
                    " core/simd/* headers (any inline function it"
                    " instantiates is AVX2 code the linker may share)"))
        code = strip_comments_and_strings(text)
        for lineno, line in enumerate(code.splitlines(), 1):
            if re.search(r"\bstd::", line):
                violations.append(Violation(
                    "isa-isolation", rel, lineno,
                    "std:: name in the -mavx2 TU: a library template"
                    " instantiated here is emitted as AVX2 code the linker"
                    " may pick for scalar callers -- use a local helper"))
    return violations


# --------------------------------------------------------------------------
# Rule: kernel-table-live
# --------------------------------------------------------------------------

SIMD_HEADER = Path("src/core/simd/simd.h")
KERNEL_TABLE_RE = re.compile(r"\bstruct\s+KernelTable\s*\{(.*?)\n\};",
                             re.DOTALL)
KERNEL_MEMBER_RE = re.compile(r"\(\s*\*\s*(\w+)\s*\)\s*\(")


def check_kernel_table_live(root):
    """Every kernel-table entry needs a caller outside core/simd/."""
    header = root / SIMD_HEADER
    if not header.exists():
        return []
    code = strip_comments_and_strings(header.read_text())
    table = KERNEL_TABLE_RE.search(code)
    if not table:
        return [Violation(
            "kernel-table-live", SIMD_HEADER, 0,
            "struct KernelTable not found: the rule cannot see the table")]
    body_start = code[:table.start(1)].count("\n") + 1
    members = []
    for offset, line in enumerate(table.group(1).splitlines()):
        for m in KERNEL_MEMBER_RE.finditer(line):
            members.append((m.group(1), body_start + offset))
    simd_dir = root / "src" / "core" / "simd"
    callers = "\n".join(
        strip_comments_and_strings(p.read_text())
        for p in _src_files(root) if simd_dir not in p.parents)
    violations = []
    for name, lineno in members:
        if not re.search(r"(\.|->)\s*" + name + r"\s*\(", callers):
            violations.append(Violation(
                "kernel-table-live", SIMD_HEADER, lineno,
                f"KernelTable::{name} has no call site in src/ outside"
                " core/simd/: a kernel no serve path calls is dead code"
                " every backend must still implement -- delete it from"
                " the table and every backend"))
    return violations


# --------------------------------------------------------------------------
# Rule: include-hygiene
# --------------------------------------------------------------------------

def check_include_hygiene(root):
    violations = []
    src = root / "src"
    for path in _src_files(root):
        rel = path.relative_to(root)
        text = path.read_text()
        if path.suffix == ".h":
            # #pragma once must be the first non-comment directive.
            code = strip_comments_and_strings(text)
            first = next((ln.strip() for ln in code.splitlines()
                          if ln.strip()), "")
            if first != "#pragma once":
                violations.append(Violation(
                    "include-hygiene", rel, 1,
                    "src/ header does not open with #pragma once"))
        for lineno, line in enumerate(text.splitlines(), 1):
            m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
            if not m:
                continue
            inc = m.group(1)
            if ".." in inc.split("/"):
                violations.append(Violation(
                    "include-hygiene", rel, lineno,
                    f'"{inc}": relative ".." includes are banned -- include'
                    " from the src/ root (target_include_directories adds"
                    " it)"))
            elif not (src / inc).exists():
                violations.append(Violation(
                    "include-hygiene", rel, lineno,
                    f'"{inc}" does not resolve from the src/ root: quoted'
                    " includes are reserved for repo-internal headers"
                    " (angle-bracket the system ones)"))
    return violations


# --------------------------------------------------------------------------
# Rule: bench-schema
# --------------------------------------------------------------------------

BENCH_REQUIRED_KEYS = {
    "BENCH_accuracy.json": ["bench", "points"],
    "BENCH_conv.json": ["bench", "workload", "schemes"],
    "BENCH_server.json": ["bench", "recompile_vs_compiled", "saturating",
                          "bit_identical", "soak"],
    "BENCH_tiles.json": ["bench", "network", "configs"],
}

BENCH_INVARIANT_FLAGS = ("bit_identical", "conserved")


def _walk_json(value, path=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _walk_json(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _walk_json(v, f"{path}[{i}]")
    else:
        yield path, value


def check_bench_schema(root):
    violations = []
    for name, required in BENCH_REQUIRED_KEYS.items():
        path = root / name
        rel = Path(name)
        if not path.exists():
            violations.append(Violation(
                "bench-schema", rel, 0,
                "committed bench artifact is missing"))
            continue
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            violations.append(Violation(
                "bench-schema", rel, e.lineno, f"not valid JSON: {e.msg}"))
            continue
        if not isinstance(doc, dict):
            violations.append(Violation(
                "bench-schema", rel, 0, "top level must be a JSON object"))
            continue
        for key in required:
            if key not in doc:
                violations.append(Violation(
                    "bench-schema", rel, 0,
                    f"missing required top-level key '{key}'"))
        for keypath, value in _walk_json(doc):
            leaf = keypath.rsplit(".", 1)[-1]
            if leaf in BENCH_INVARIANT_FLAGS and value is False:
                violations.append(Violation(
                    "bench-schema", rel, 0,
                    f"{keypath} is false: a bench artifact recording a"
                    " broken invariant must never be committed"))
    return violations


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

ALL_RULES = [
    check_raw_mutex,
    check_serve_throw,
    check_kernel_purity,
    check_scalar_oracle,
    check_isa_isolation,
    check_kernel_table_live,
    check_include_hygiene,
    check_bench_schema,
]


def run_all(root):
    violations = []
    for rule in ALL_RULES:
        violations.extend(rule(root))
    return violations


def main(argv):
    root = Path(__file__).resolve().parents[2]
    args = list(argv[1:])
    if "--root" in args:
        i = args.index("--root")
        root = Path(args[i + 1]).resolve()
        del args[i:i + 2]
    if args == ["--update-scalar-baseline"]:
        digest = scalar_oracle_digest(root)
        (root / SCALAR_BASELINE).write_text(
            f"{digest}  {SCALAR_ORACLE.name}\n")
        print(f"scalar-oracle baseline updated: {digest}")
        return 0
    if args:
        print(f"unknown arguments: {args}", file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2
    violations = run_all(root)
    for v in violations:
        print(v)
    if violations:
        print(f"\ntools/lint: {len(violations)} violation(s)."
              "  See tools/lint/rules.md for rationale and fix paths.",
              file=sys.stderr)
        return 1
    print("tools/lint: all rules clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
