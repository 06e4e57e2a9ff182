#!/usr/bin/env python3
"""Knob lint: every field of a `struct *Config` must have a caller that sets it.

Scans each `struct <Name>Config { ... };` in src/**/*.hpp, collects its data
members, and fails when a member has no write anywhere in src/, tests/,
bench/, examples/ or perfbench/ other than its own default in the struct
(a setter elsewhere in the same header counts). A knob that nothing sets
is a constant with extra configurations nobody tests: turn it into a named
`constexpr` in the .cpp that reads it instead.

A write is any of, with comments stripped first:

  x.field = ...      x->field += ...      {.field = ...}  (designated init)
  x.field[k] = ...   x.field.sub = ...    x.field.push_back(...) / emplace /
                                          insert / assign

The lint also fails on positional brace-init of a config struct
(`FooConfig{a, b}`): positional writes are invisible to it, and a later field
removal would silently shift them. Use designated initializers.

This is a regex floor, not a proof. It matches field names, not types: a
write to any member of the same name counts, so two configs sharing a field
name (`metrics`, `seed`, ...) vouch for each other, and a config built by a
function returning `{a, b}` is not seen. It never reports a field that has a
write; it can miss a field that has none.

Usage: python3 scripts/knob_lint.py [--list]   (run from anywhere)
  --list   print every config field with its number of writes and the first
           one found (file:line)
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tests", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
DECL_SKIP = ("static ", "using ", "friend ", "enum ", "struct ", "class ",
             "template", "public:", "private:", "protected:")


def strip_comments(text):
    """Drop // and /* */ comments, keeping string and char literals and line
    breaks intact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))  # keep line numbers
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def config_structs(header_text):
    """Yields (struct name, [field names], (body start, body end)) for each
    `struct *Config` body."""
    for m in re.finditer(r"\bstruct\s+(\w+Config)\s*\{", header_text):
        depth, stmt, fields = 1, [], []
        i = m.end()
        while depth > 0 and i < len(header_text):
            c = header_text[i]
            i += 1
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    break
            stmt.append(c)
            # A statement ends at a `;` or at a `}` back at member depth
            # (function bodies, nested types, brace initializers).
            if depth == 1 and c in ";}":
                name = member_name("".join(stmt))
                if name:
                    fields.append(name)
                stmt = []
        yield m.group(1), fields, (m.start(), i)


def member_name(stmt):
    stmt = " ".join(stmt.split()).rstrip(";}").strip()
    if not stmt or stmt.startswith(DECL_SKIP):
        return None
    declarator = re.split(r"[={]", stmt, maxsplit=1)[0]
    if "(" in declarator:  # member function
        return None
    names = re.findall(r"[A-Za-z_]\w*", declarator)
    return names[-1] if len(names) >= 2 else None


def write_pattern(field):
    # The field, then any chain of subscripts and nested members (a write to
    # `cfg.overload.max_in_flight` sets `overload`), then an assignment or a
    # mutating container call.
    return re.compile(
        r"(?:\.|->)\s*" + field + r"\b(?:\s*(?:\[[^\]]*\]|\.\s*\w+\b))*\s*"
        r"(?:(?:[-+*/|&]?=)(?!=)|\.(?:push_back|emplace_back|emplace|insert|assign)\s*\()")


def main(argv):
    sources = {}
    for d in SCAN_DIRS:
        for path in sorted((ROOT / d).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                sources[path] = strip_comments(path.read_text(encoding="utf-8"))

    failures = []
    rows = []
    config_names = set()
    for header in sorted(p for p in sources if p.suffix == ".hpp" and
                         p.is_relative_to(ROOT / "src")):
        for struct, fields, (start, end) in config_structs(sources[header]):
            config_names.add(struct)
            # The declaration's own default is not a write; a setter or
            # another struct's default in the same header is. Blank the body
            # but keep its line breaks so reported line numbers hold.
            text = sources[header]
            own = text[:start] + "\n" * text.count("\n", start, end) + text[end:]
            for field in fields:
                pat = write_pattern(field)
                writes, first = 0, "-"
                for path, text in sources.items():
                    searched = own if path == header else text
                    matches = list(pat.finditer(searched))
                    if matches and writes == 0:
                        line = searched.count("\n", 0, matches[0].start()) + 1
                        first = f"{path.relative_to(ROOT)}:{line}"
                    writes += len(matches)
                rows.append((struct, field, writes, first, header))
                if writes == 0:
                    failures.append(
                        f"{header.relative_to(ROOT)}: {struct}::{field} has no "
                        "caller that sets it; make it a constexpr where it is read")

    positional = re.compile(
        r"(?<!\w)(?<!struct )(" + "|".join(sorted(config_names)) +
        r")\b(?!\s*::)[^;{}()]*?\{\s*(?=[^}\s.])")
    for path, text in sources.items():
        for m in positional.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            failures.append(
                f"{path.relative_to(ROOT)}:{line}: positional brace-init of "
                f"{m.group(1)}; use designated initializers")

    if "--list" in argv:
        for struct, field, writes, first, _ in rows:
            print(f"{writes:4d}  {struct}::{field}  {first}")
    n_structs = len({r[0] for r in rows})
    print(f"knob_lint: {len(rows)} fields in {n_structs} config structs")
    for f in failures:
        print(f"knob_lint: {f}")
    if failures:
        print(f"knob_lint: FAILED ({len(failures)} findings)")
        return 1
    print("knob_lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
