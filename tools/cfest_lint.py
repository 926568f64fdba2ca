#!/usr/bin/env python3
"""cfest project-invariant linter.

Enforces repo-specific rules that generic tools (clang-tidy, compiler
warnings) cannot express:

  raw-mutex      No raw std:: synchronization primitives (std::mutex,
                 std::condition_variable, std::lock_guard, ...) outside
                 src/common/mutex.h. Everything else must use the
                 thread-safety-annotated Mutex/MutexLock/CondVar wrappers,
                 or clang's -Wthread-safety analysis has nothing to check.
  kernel-parity  Every kernels:: entry point declared in
                 src/compression/kernels.h has a kernels::scalar::
                 reference implementation (the semantics-defining loop the
                 tests pin vector variants against).
  row-count-int  Row counts are uint64_t by contract (tables stream
                 appends past 2^31 rows). Declaring a row-count-named
                 variable as int/int32_t/long, or casting one to int,
                 truncates sizing math.
  metric-name-concat
                 Metric names are fixed family names; dimensions (table,
                 scheme, ...) are labels. Concatenating onto a "cfest."
                 string literal (e.g. `"cfest.engine." + table`) mints
                 per-dimension metric NAMES, which fragments families,
                 breaks the aggregate-parity contract, and bypasses the
                 labeled-child API (GetCounter(name, labels) /
                 RegisterCounters(labels, ...)).
  grouped-columns
                 Declaring a column grouped (its equal cells adjacent in
                 row order) lets the dictionary compressors skip hashing;
                 a false declaration silently over-counts dictionary
                 entries. Only the code that owns the rows' sort may pass
                 a grouped set: src/index/index.cc (Index::Compress) and
                 src/estimator/sample_cf.cc (SampleCFFromIndex) to
                 CompressedIndexBuilder::Make. The compression layer
                 forwards it (Make -> ColumnCompressorSet::Make ->
                 MakeColumnCompressor -> the dictionary makers) and
                 nowhere else passes one; an explicitly empty `{}` is fine.

A finding can be suppressed for one line with a trailing or preceding
comment: // cfest-lint: allow(rule-id)

Usage:
  cfest_lint.py [-p BUILD_DIR] [files...]   lint the tree (or given files)
  cfest_lint.py --check-fixtures            self-test on tests/lint_fixtures

With -p, the file list is seeded from BUILD_DIR/compile_commands.json
(plus all headers under src/, which a compilation database omits); without
it the linter walks src/, bench/, tools/, and examples/. Pure Python 3,
no third-party dependencies.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOW_RE = re.compile(r"cfest-lint:\s*allow\(([a-z0-9-]+)\)")

# ---------------------------------------------------------------------------
# Source preprocessing: strip comments and string/char literals so rules
# never fire on prose or quoted code, while preserving line numbers.
# ---------------------------------------------------------------------------


def collect_allows(text):
    """Line number -> set of rule ids allowed there (the comment's own line
    and, for a comment-only line, the following line)."""
    allows = {}
    lines = text.split("\n")
    for i, line in enumerate(lines, start=1):
        for match in ALLOW_RE.finditer(line):
            rule = match.group(1)
            allows.setdefault(i, set()).add(rule)
            stripped = line.strip()
            if stripped.startswith("//") or stripped.startswith("*"):
                allows.setdefault(i + 1, set()).add(rule)
    return allows


def strip_comments(text):
    """Replaces comment contents with spaces, keeping string literals AND
    newlines intact — for rules that must look inside string literals
    (metric-name-concat)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 2
        elif c == '"' or c == "'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i])
                    i += 1
                out.append(text[i])
                i += 1
            if i < n:
                out.append(quote)
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_comments_and_strings(text):
    """Replaces comment and string-literal contents with spaces, keeping
    newlines (and thus line numbers) intact."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                if i < n:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            i += 1
            out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Rules. Each returns a list of (line, rule_id, message).
# ---------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)

ROW_COUNT_DECL_RE = re.compile(
    r"(?<![\w])(?<!unsigned )(?<!long )(?:int|int32_t|long)\s+"
    r"(\w*(?:num_rows|row_count|total_rows|n_rows|rows)\w*)\s*(?:=|;|,|\))"
)
ROW_COUNT_CAST_RE = re.compile(
    r"static_cast<\s*(?:int|int32_t|long)\s*>\s*\(\s*[^()]*"
    r"\b(?:num_rows|row_count|total_rows|n_rows|rows)\b"
)

FUNC_DECL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(", re.MULTILINE)

# A "cfest." metric-name literal being concatenated with runtime data, in
# either direction: `"cfest.engine." + table` or `prefix + ".cfest.x"`-style
# builds. Metric names are fixed; dimensions travel as labels.
METRIC_NAME_CONCAT_RE = re.compile(
    r"\"cfest\.[A-Za-z0-9_.]*\"\s*\+|\+\s*\"cfest\.[A-Za-z0-9_.]*\""
)


# Entry points that take a grouped-column argument: name -> (arguments
# without it, the files allowed to pass it). A call with more arguments than
# the first number passes a grouped set unless the extra argument is `{}`.
GROUPED_ENTRY_POINTS = {
    "CompressedIndexBuilder::Make": (
        3,
        ("src/index/index.cc", "src/estimator/sample_cf.cc"),
    ),
    "ColumnCompressorSet::Make": (2, ("src/compression/compressed_index.cc",)),
    "MakeColumnCompressor": (3, ("src/compression/scheme.cc",)),
    "MakePageDictionaryCompressor": (2, ("src/compression/compressor.cc",)),
    "MakeGlobalDictionaryCompressor": (2, ("src/compression/compressor.cc",)),
    "MakeCombinedPageCompressor": (1, ("src/compression/compressor.cc",)),
}
GROUPED_CALL_RE = re.compile(
    r"(?<!\w)(%s)\s*\("
    % "|".join(re.escape(name) for name in GROUPED_ENTRY_POINTS)
)


def call_arguments(text, open_paren):
    """Top-level arguments of the call whose '(' is at `open_paren`."""
    args = []
    depth = 0
    start = open_paren + 1
    i = open_paren
    while i < len(text):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i].strip())
                return [a for a in args if a]
        elif c == "," and depth == 1:
            args.append(text[start:i].strip())
            start = i + 1
        i += 1
    return []


def is_declaration(text, name_start):
    """True if the name at `name_start` is declared or defined, not called:
    a return type (identifier, '>', '*' or '&') precedes it, behind any
    namespace qualifier."""
    before = re.sub(r"(\w+\s*::\s*)+$", "", text[:name_start].rstrip())
    before = before.rstrip()
    if not before:
        return False
    last = before[-1]
    if last in ">*&":
        return True
    if last.isalnum() or last == "_":
        word = re.search(r"(\w+)$", before).group(1)
        return word != "return"
    return False


def is_mutex_home(path):
    return path.replace(os.sep, "/").endswith("src/common/mutex.h")


def check_raw_mutex(path, stripped, everywhere=False):
    if not everywhere and is_mutex_home(path):
        return []
    findings = []
    for i, line in enumerate(stripped.split("\n"), start=1):
        for match in RAW_MUTEX_RE.finditer(line):
            findings.append(
                (
                    i,
                    "raw-mutex",
                    "raw std::%s; use the annotated wrappers in "
                    "common/mutex.h" % match.group(1),
                )
            )
    return findings


def check_row_count_int(path, stripped, everywhere=False):
    del path, everywhere  # applies everywhere
    findings = []
    for i, line in enumerate(stripped.split("\n"), start=1):
        for match in ROW_COUNT_DECL_RE.finditer(line):
            findings.append(
                (
                    i,
                    "row-count-int",
                    "row count '%s' declared as a (possibly 32-bit) signed "
                    "type; row counts are uint64_t" % match.group(1),
                )
            )
        if ROW_COUNT_CAST_RE.search(line):
            findings.append(
                (
                    i,
                    "row-count-int",
                    "row count narrowed through static_cast<int>; row "
                    "counts are uint64_t",
                )
            )
    return findings


def check_metric_name_concat(path, comment_stripped, everywhere=False):
    del path, everywhere  # applies everywhere
    findings = []
    for i, line in enumerate(comment_stripped.split("\n"), start=1):
        if METRIC_NAME_CONCAT_RE.search(line):
            findings.append(
                (
                    i,
                    "metric-name-concat",
                    "metric name built by string concatenation; family "
                    "names are fixed — pass the dimension as a label "
                    "(GetCounter(name, {{\"table\", t}}) / "
                    "RegisterCounters(labels, ...))",
                )
            )
    return findings


def check_grouped_columns(path, stripped, everywhere=False):
    norm = path.replace(os.sep, "/")
    findings = []
    for match in GROUPED_CALL_RE.finditer(stripped):
        name = match.group(1)
        if is_declaration(stripped, match.start()):
            continue
        base, homes = GROUPED_ENTRY_POINTS[name]
        if not everywhere and any(norm.endswith(home) for home in homes):
            continue
        args = call_arguments(stripped, match.end() - 1)
        if len(args) <= base or args[base] == "{}":
            continue
        line = stripped.count("\n", 0, match.start()) + 1
        findings.append(
            (
                line,
                "grouped-columns",
                "%s passes a grouped column set outside %s; a false "
                "declaration silently over-counts dictionary entries, so "
                "only the code that owns the rows' sort declares one"
                % (name, " / ".join(homes)),
            )
        )
    return findings


def declared_functions(region):
    """Function names declared (`name(...);`) in a stripped header region."""
    names = set()
    # A declaration's parameter list ends in `);` possibly across lines.
    for match in re.finditer(r"([A-Za-z_]\w*)\s*\(", region):
        name = match.group(1)
        # Walk to the matching close paren; a declaration ends with ';'.
        depth = 0
        j = match.end() - 1
        while j < len(region):
            if region[j] == "(":
                depth += 1
            elif region[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        tail = region[j + 1 : j + 3].strip()
        if tail.startswith(";"):
            names.add(name)
    return names


def check_kernel_parity(path, stripped):
    """Parses the kernels header: every function declared in the top-level
    kernels namespace must also be declared in kernels::scalar."""
    marker = "namespace scalar {"
    pos = stripped.find(marker)
    if pos < 0:
        return [
            (
                1,
                "kernel-parity",
                "no `namespace scalar` region found in kernels header",
            )
        ]
    kernels_start = stripped.find("namespace kernels {")
    public_region = stripped[max(kernels_start, 0) : pos]
    scalar_region = stripped[pos : stripped.find("}", pos + len(marker) + 1)]
    scalar_end = stripped.find("}  // namespace scalar", pos)
    if scalar_end > 0:
        scalar_region = stripped[pos:scalar_end]
    public_fns = declared_functions(public_region)
    scalar_fns = declared_functions(scalar_region)
    findings = []
    for name in sorted(public_fns - scalar_fns):
        line = 1
        match = re.search(r"\b%s\s*\(" % re.escape(name), stripped)
        if match:
            line = stripped.count("\n", 0, match.start()) + 1
        findings.append(
            (
                line,
                "kernel-parity",
                "kernels::%s has no kernels::scalar::%s reference "
                "implementation" % (name, name),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

SOURCE_DIRS = ("src", "bench", "tools", "examples")
SOURCE_EXTS = (".cc", ".h", ".cpp")
KERNELS_HEADER = os.path.join("src", "compression", "kernels.h")


def files_from_compile_db(build_dir):
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db_path):
        return None
    with open(db_path, encoding="utf-8") as f:
        db = json.load(f)
    files = set()
    for entry in db:
        path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"])
        )
        rel = os.path.relpath(path, REPO_ROOT)
        if rel.split(os.sep)[0] in SOURCE_DIRS and rel.endswith(SOURCE_EXTS):
            files.add(path)
    return sorted(files)


def walk_source_tree():
    files = []
    for top in SOURCE_DIRS:
        for dirpath, _, names in os.walk(os.path.join(REPO_ROOT, top)):
            for name in names:
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def repo_headers():
    files = []
    for dirpath, _, names in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in names:
            if name.endswith(".h"):
                files.append(os.path.join(dirpath, name))
    return files


def lint_file(path, everywhere=False):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    allows = collect_allows(text)
    stripped = strip_comments_and_strings(text)
    comment_stripped = strip_comments(text)
    findings = []
    findings += check_raw_mutex(path, stripped, everywhere)
    findings += check_row_count_int(path, stripped, everywhere)
    findings += check_metric_name_concat(path, comment_stripped, everywhere)
    findings += check_grouped_columns(path, stripped, everywhere)
    norm = path.replace(os.sep, "/")
    if norm.endswith(KERNELS_HEADER.replace(os.sep, "/")) or (
        everywhere and "kernel_parity" in os.path.basename(path)
    ):
        findings += check_kernel_parity(path, stripped)
    return [
        (line, rule, msg)
        for line, rule, msg in findings
        if rule not in allows.get(line, ())
    ]


def run_lint(paths):
    total = 0
    for path in paths:
        for line, rule, msg in lint_file(path):
            rel = os.path.relpath(path, REPO_ROOT)
            print("%s:%d: [%s] %s" % (rel, line, rule, msg))
            total += 1
    if total:
        print("cfest_lint: %d finding(s)" % total, file=sys.stderr)
        return 1
    return 0


def run_fixture_check():
    """Self-test: every fixture file named <rule-with-underscores>_*.cc must
    trip exactly that rule; every ok_*.cc must be clean."""
    fixture_dir = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print("cfest_lint: missing %s" % fixture_dir, file=sys.stderr)
        return 1
    failures = 0
    checked = 0
    for name in sorted(os.listdir(fixture_dir)):
        if not name.endswith(SOURCE_EXTS):
            continue
        path = os.path.join(fixture_dir, name)
        findings = lint_file(path, everywhere=True)
        rules_hit = {rule for _, rule, _ in findings}
        checked += 1
        if name.startswith("ok_"):
            if findings:
                print(
                    "FIXTURE FAIL %s: expected clean, got %s"
                    % (name, sorted(rules_hit)),
                    file=sys.stderr,
                )
                failures += 1
            continue
        expected = None
        for rule in ("raw-mutex", "kernel-parity", "row-count-int",
                     "metric-name-concat", "grouped-columns"):
            if name.startswith(rule.replace("-", "_")):
                expected = rule
                break
        if expected is None:
            print(
                "FIXTURE FAIL %s: name matches no rule id" % name,
                file=sys.stderr,
            )
            failures += 1
        elif expected not in rules_hit:
            print(
                "FIXTURE FAIL %s: expected [%s], got %s"
                % (name, expected, sorted(rules_hit) or "no findings"),
                file=sys.stderr,
            )
            failures += 1
    if checked == 0:
        print("cfest_lint: no fixtures found", file=sys.stderr)
        return 1
    if failures:
        return 1
    print("cfest_lint: %d fixture(s) OK" % checked)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-p",
        dest="build_dir",
        help="build directory holding compile_commands.json",
    )
    parser.add_argument(
        "--check-fixtures",
        action="store_true",
        help="self-test the rules against tests/lint_fixtures",
    )
    parser.add_argument("files", nargs="*", help="explicit files to lint")
    args = parser.parse_args()

    if args.check_fixtures:
        return run_fixture_check()

    if args.files:
        paths = [os.path.abspath(f) for f in args.files]
    elif args.build_dir:
        paths = files_from_compile_db(args.build_dir)
        if paths is None:
            print(
                "cfest_lint: no compile_commands.json in %s; walking the "
                "source tree" % args.build_dir,
                file=sys.stderr,
            )
            paths = walk_source_tree()
        else:
            paths = sorted(set(paths) | set(repo_headers()))
    else:
        paths = walk_source_tree()
    return run_lint(paths)


if __name__ == "__main__":
    sys.exit(main())
