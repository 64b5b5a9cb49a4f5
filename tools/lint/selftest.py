#!/usr/bin/env python3
"""Self-test for tools/lint/lint.py: prove every rule actually fires.

Builds a synthetic repo tree in a temp dir, seeds exactly one violation per
rule (plus a clean control), and asserts each rule reports precisely its own
violation.  A rule that stops matching -- a typo in a regex, a renamed
directory -- fails this test instead of going silently dead.  Runs as the
`lint_selftest` ctest.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lint  # noqa: E402


def make_tree(root):
    """A minimal clean repo skeleton the rules accept."""
    (root / "src" / "common").mkdir(parents=True)
    (root / "src" / "serve").mkdir(parents=True)
    (root / "src" / "core" / "simd").mkdir(parents=True)
    (root / "tools" / "lint").mkdir(parents=True)

    (root / "src" / "common" / "annotated_mutex.h").write_text(
        "#pragma once\n#include <mutex>\nclass Mutex { std::mutex mu_; };\n")
    (root / "src" / "serve" / "fault.h").write_text(
        "#pragma once\n"
        "// lint:allow-throw -- config-parse error, off the request path\n"
        "inline void parse_fail() { throw 1; }\n")
    (root / "src" / "core" / "simd" / "kernels_scalar.cpp").write_text(
        "// scalar oracle\nvoid k(float* p, int n) {\n"
        "  for (int i = 0; i < n; ++i) p[i] += 1.0f;\n}\n")
    (root / "tools" / "lint" / "scalar_oracle.sha256").write_text(
        lint.scalar_oracle_digest(root) + "  kernels_scalar.cpp\n")
    (root / "src" / "core" / "simd" / "kernels.h").write_text(
        "#pragma once\n#include <cstdint>\nint32_t k2(int32_t a);\n")
    (root / "src" / "core" / "simd" / "simd.h").write_text(
        "#pragma once\n#include <cstdint>\n"
        "struct KernelTable {\n"
        "  /// k2(a) = max(a, 0)\n"
        "  int32_t (*k2)(int32_t a);\n"
        "};\n")
    (root / "src" / "core" / "user.cpp").write_text(
        "#include \"core/simd/simd.h\"\n"
        "int32_t use(const KernelTable& K) { return K.k2(1); }\n")
    (root / "src" / "core" / "simd" / "kernels_avx2.cpp").write_text(
        "#include <immintrin.h>\n#include \"core/simd/kernels.h\"\n"
        "namespace { int32_t max_of(int32_t a, int32_t b) {"
        " return a < b ? b : a; } }\n"
        "int32_t k2(int32_t a) { return max_of(a, 0); }  // not std::max\n")

    (root / "BENCH_accuracy.json").write_text(json.dumps(
        {"bench": "accuracy", "points": [{"conserved": True}]}))
    (root / "BENCH_conv.json").write_text(json.dumps(
        {"bench": "conv", "workload": {}, "schemes": []}))
    (root / "BENCH_server.json").write_text(json.dumps(
        {"bench": "server", "recompile_vs_compiled": [], "saturating": {},
         "bit_identical": True, "soak": {}}))
    (root / "BENCH_tiles.json").write_text(json.dumps(
        {"bench": "design_space_explorer_tiles", "network": "resnet18",
         "configs": []}))


def expect(name, violations, rule, path_fragment):
    """Assert exactly one violation, from `rule`, naming `path_fragment`."""
    assert len(violations) == 1, (
        f"{name}: expected exactly 1 violation, got "
        f"{[str(v) for v in violations]}")
    v = violations[0]
    assert v.rule == rule, f"{name}: fired as {v.rule}, wanted {rule}"
    assert path_fragment in str(v.path), (
        f"{name}: fired on {v.path}, wanted ...{path_fragment}...")
    print(f"  ok: {name} -> {v}")


def in_fresh_tree(seed_fn):
    tmp = Path(tempfile.mkdtemp(prefix="lint_selftest_"))
    try:
        make_tree(tmp)
        seed_fn(tmp)
        return lint.run_all(tmp)
    finally:
        shutil.rmtree(tmp)


def main():
    # Control: the clean skeleton passes every rule.
    clean = in_fresh_tree(lambda root: None)
    assert not clean, (
        "control tree must be clean, got: " + "; ".join(map(str, clean)))
    print("  ok: clean control tree passes all rules")

    # raw-mutex: a std::mutex outside annotated_mutex.h.
    expect("raw-mutex", in_fresh_tree(lambda root: (
        (root / "src" / "serve" / "bad_mutex.h").write_text(
            "#pragma once\n#include <cstdint>\n"
            "struct S { std::mutex mu_; };\n")
    )), "raw-mutex", "bad_mutex.h")

    # raw-mutex must NOT fire on the token in a comment or a string.
    commented = in_fresh_tree(lambda root: (
        (root / "src" / "serve" / "ok_comment.h").write_text(
            "#pragma once\n// std::mutex is banned here\n"
            "inline const char* kMsg = \"std::lock_guard\";\n")
    ))
    assert not commented, (
        "raw-mutex fired on comment/string text: "
        + "; ".join(map(str, commented)))
    print("  ok: raw-mutex ignores comments and string literals")

    # serve-throw: an unmarked throw in src/serve.
    expect("serve-throw", in_fresh_tree(lambda root: (
        (root / "src" / "serve" / "bad_throw.h").write_text(
            "#pragma once\ninline void f() { throw 42; }\n")
    )), "serve-throw", "bad_throw.h")

    # kernel-purity: an allocation inside a kernel TU.  Also perturbs the
    # oracle hash, so re-baseline first to isolate the purity rule.
    def seed_kernel(root):
        p = root / "src" / "core" / "simd" / "kernels_scalar.cpp"
        p.write_text(p.read_text() + "void bad() { auto* q = new int[4]; }\n")
        (root / "tools" / "lint" / "scalar_oracle.sha256").write_text(
            lint.scalar_oracle_digest(root) + "  kernels_scalar.cpp\n")
    expect("kernel-purity", in_fresh_tree(seed_kernel),
           "kernel-purity", "kernels_scalar.cpp")

    # scalar-oracle: oracle edited, baseline not updated.
    expect("scalar-oracle", in_fresh_tree(lambda root: (
        (root / "src" / "core" / "simd" / "kernels_scalar.cpp").write_text(
            "// \"cleaned up\" oracle\nvoid k(float* p, int n) {}\n")
    )), "scalar-oracle", "kernels_scalar.cpp")

    # isa-isolation: a std:: call in the -mavx2 TU.
    def seed_std_call(root):
        p = root / "src" / "core" / "simd" / "kernels_avx2.cpp"
        p.write_text(p.read_text().replace("max_of(a, 0)", "std::max(a, 0)"))
    expect("isa-isolation (std:: call)", in_fresh_tree(seed_std_call),
           "isa-isolation", "kernels_avx2.cpp")

    # isa-isolation: a disallowed system header reached through a
    # core/simd header the TU includes.
    def seed_header(root):
        p = root / "src" / "core" / "simd" / "kernels.h"
        p.write_text(p.read_text().replace("<cstdint>", "<algorithm>"))
    expect("isa-isolation (transitive include)", in_fresh_tree(seed_header),
           "isa-isolation", "kernels.h")

    # kernel-table-live: a table entry no code outside core/simd calls
    # (a call inside core/simd does not count).
    def seed_dead_kernel(root):
        p = root / "src" / "core" / "simd" / "simd.h"
        p.write_text(p.read_text().replace(
            "};\n", "  int32_t (*dead_i32)(int32_t a);\n};\n"))
        (root / "src" / "core" / "simd" / "inner.cpp").write_text(
            "#include \"core/simd/simd.h\"\n"
            "int32_t inner(const KernelTable& K) { return K.dead_i32(1); }\n")
    expect("kernel-table-live", in_fresh_tree(seed_dead_kernel),
           "kernel-table-live", "simd.h")

    # include-hygiene: a quoted include that does not resolve under src/.
    expect("include-hygiene", in_fresh_tree(lambda root: (
        (root / "src" / "serve" / "bad_include.h").write_text(
            "#pragma once\n#include \"no/such/header.h\"\n")
    )), "include-hygiene", "bad_include.h")

    # include-hygiene: a header missing #pragma once.
    expect("include-hygiene (pragma once)", in_fresh_tree(lambda root: (
        (root / "src" / "serve" / "no_pragma.h").write_text(
            "#ifndef NO_PRAGMA_H\n#define NO_PRAGMA_H\n#endif\n")
    )), "include-hygiene", "no_pragma.h")

    # bench-schema: a committed artifact recording a broken invariant.
    expect("bench-schema", in_fresh_tree(lambda root: (
        (root / "BENCH_server.json").write_text(json.dumps(
            {"bench": "server", "recompile_vs_compiled": [],
             "saturating": {}, "bit_identical": False, "soak": {}}))
    )), "bench-schema", "BENCH_server.json")

    print("lint_selftest: every rule fires on its seeded violation.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
