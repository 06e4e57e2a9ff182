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

A write counts for a config by the declared type of its receiver where the
lint can find it, and by field name where it cannot:

  - `x.field = ...` / `x->field = ...` with `x` a plain identifier (or
    `this->x`) declared with a `*Config` type in the same file or, for a
    .cpp, in its header (`FooConfig x;`, `const FooConfig& x`,
    `FooConfig* x`, a `config_` member) counts for that config only. The
    last such declaration before the write wins, so a name reused for
    another config later in a file resolves to the nearest one;
  - `x.sub.field = ...`, with `sub` a config-typed member of x's config
    (`MultiAccessConfig access;`), counts for sub's config only;
  - a designated initializer `.field = ...` inside `FooConfig{...}` or
    `FooConfig x{...}` counts for FooConfig only;
  - every other write (a receiver declared with another type or `auto`, a
    chain through a member that is not a config, `{.field = ...}` with no
    type before the brace) is unresolved: it counts for every config with a
    field of that name, as a name match. `--unresolved` lists them.

This is a regex floor, not a proof: an unresolved write still lets two
configs sharing a field name vouch for each other, and a config built by a
function returning `{a, b}` is not seen. It never reports a field that has
a write; it can miss a field that has none.

Usage: python3 scripts/knob_lint.py [--list] [--unresolved]   (run from anywhere)
  --list        print every config field with its number of writes (resolved
                to the config's type + matched by name only) and the first
                one found (file:line)
  --unresolved  print every write counted by field name only
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
    """Yields (struct name, [(field name, config type or None)], (body start,
    body end)) for each `struct *Config` body. A field's config type is set
    when the field is itself a `*Config` (`MultiAccessConfig access;`)."""
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
                member = member_name("".join(stmt))
                if member:
                    fields.append(member)
                stmt = []
        yield m.group(1), fields, (m.start(), i)


def member_name(stmt):
    """(name, config type or None) of a data member declaration, else None."""
    stmt = " ".join(stmt.split()).rstrip(";}").strip()
    if not stmt or stmt.startswith(DECL_SKIP):
        return None
    declarator = re.split(r"[={]", stmt, maxsplit=1)[0]
    if "(" in declarator:  # member function
        return None
    names = re.findall(r"[A-Za-z_]\w*", declarator)
    if len(names) < 2:
        return None
    name = names[-1]
    type_text = declarator.strip()[:-len(name)].strip()
    config = re.fullmatch(r"(?:const\s+)?(?:\w+::)*(\w+Config)", type_text)
    return name, config.group(1) if config else None


def write_pattern(field):
    # The field, then any chain of subscripts and nested members (a write to
    # `cfg.overload.max_in_flight` sets `overload`), then an assignment or a
    # mutating container call.
    return re.compile(
        r"(?:\.|->)\s*" + field + r"\b(?:\s*(?:\[[^\]]*\]|\.\s*\w+\b))*\s*"
        r"(?:(?:[-+*/|&]?=)(?!=)|\.(?:push_back|emplace_back|emplace|insert|assign)\s*\()")


def declaration_pattern(name):
    """`name` declared with a `*Config` type (a local, a parameter or a
    member): `FooConfig name`, `const ns::FooConfig& name`, `FooConfig*
    name`, followed by `;`, `=`, `,`, `)`, `[` or `{`."""
    return re.compile(r"\b(?:\w+::)*(\w+Config)\s*(?:const\s*)?[&*]*\s*(?:const\s+)?" +
                      re.escape(name) + r"\s*[;=,)\[{]")


def opening_brace(text, pos):
    """Index of the innermost `{` still open at `pos`, or -1."""
    depth = 0
    for i in range(pos - 1, -1, -1):
        c = text[i]
        if c in ")]}":
            depth += 1
        elif c in "([{":
            if depth == 0:
                return i if c == "{" else -1
            depth -= 1
    return -1


class ReceiverTypes:
    """Resolves the declared config type of a write's receiver."""

    def __init__(self, sources, member_types):
        self.sources = sources
        # (config, field) -> config type of that field, for chains.
        self.member_types = member_types
        # (id(text), name) -> (text, [(offset, config type)]); holding the
        # text keeps its id from being reused.
        self.declarations = {}

    def declared(self, text, name):
        key = (id(text), name)
        if key not in self.declarations:
            self.declarations[key] = (text, [(m.start(), m.group(1))
                                             for m in declaration_pattern(name).finditer(text)])
        return self.declarations[key][1]

    def of_identifier(self, path, text, name, pos):
        """The config type of the last declaration of `name` before `pos` in
        the file, else its only one in the .cpp's header."""
        found = [config for start, config in self.declared(text, name) if start < pos]
        if found:
            return found[-1]
        header = path.with_suffix(".hpp")
        if path.suffix == ".cpp" and header in self.sources:
            types = {config for _, config in self.declared(self.sources[header], name)}
            if len(types) == 1:
                return types.pop()
        return None

    def resolve(self, path, text, match_start):
        """The config type a write at `match_start` (its `.` or `->`)
        targets, or None when it cannot be told."""
        window = max(0, match_start - 200)
        before = text[window:match_start].rstrip()
        if before.endswith(("{", ",")):  # designated initializer
            brace = opening_brace(text, match_start)
            if brace < 0:
                return None
            m = re.search(r"\b(\w+Config)\s*(?:\w+\s*)?(?:=\s*)?$", text[:brace])
            return m.group(1) if m else None
        # The receiver: an identifier (or this->identifier), then any chain
        # of `.member` / `->member`.
        m = re.search(r"(?:(?<=this->)|(?<![\w.>:]))(\w+)((?:\s*(?:\.|->)\s*\w+)*)$", before)
        if not m:  # a call or a subscript
            return None
        config = self.of_identifier(path, text, m.group(1), window + m.start())
        for member in re.findall(r"\w+", m.group(2)):
            config = self.member_types.get((config, member))
        return config


def main(argv):
    sources = {}
    for d in SCAN_DIRS:
        for path in sorted((ROOT / d).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                sources[path] = strip_comments(path.read_text(encoding="utf-8"))
    headers = sorted(p for p in sources if p.suffix == ".hpp" and p.is_relative_to(ROOT / "src"))
    structs = [(header, struct, fields, span) for header in headers
               for struct, fields, span in config_structs(sources[header])]
    member_types = {(struct, field): config for _, struct, fields, _ in structs
                    for field, config in fields if config}
    receivers = ReceiverTypes(sources, member_types)

    failures = []
    rows = []
    unresolved = set()
    config_names = set()
    for header, struct, fields, (start, end) in structs:
        config_names.add(struct)
        # The declaration's own default is not a write; a setter or
        # another struct's default in the same header is. Blank the body
        # but keep its line breaks so reported line numbers hold.
        text = sources[header]
        own = text[:start] + "\n" * text.count("\n", start, end) + text[end:]
        for field, _ in fields:
            pat = write_pattern(field)
            typed, by_name, first = 0, 0, "-"
            for path, text in sources.items():
                searched = own if path == header else text
                for m in pat.finditer(searched):
                    target = receivers.resolve(path, searched, m.start())
                    if target is not None and target != struct:
                        continue  # a write to another config's field
                    line = searched.count("\n", 0, m.start()) + 1
                    where = f"{path.relative_to(ROOT)}:{line}"
                    if target is None:
                        by_name += 1
                        unresolved.add(f"{where}: .{field}")
                    else:
                        typed += 1
                    if first == "-":
                        first = where
            rows.append((struct, field, typed, by_name, first))
            if typed + by_name == 0:
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
        for struct, field, typed, by_name, first in rows:
            print(f"{typed:4d} +{by_name:3d}  {struct}::{field}  {first}")
    if "--unresolved" in argv:
        for write in sorted(unresolved):
            print(f"unresolved  {write}")
    n_structs = len({r[0] for r in rows})
    n_typed = sum(r[2] for r in rows)
    print(f"knob_lint: {len(rows)} fields in {n_structs} config structs; "
          f"{n_typed} writes resolved to their config, {len(unresolved)} unresolved "
          "(matched by field name)")
    for f in failures:
        print(f"knob_lint: {f}")
    if failures:
        print(f"knob_lint: FAILED ({len(failures)} findings)")
        return 1
    print("knob_lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
