#!/usr/bin/env python3
"""Fail on broken relative links and undeclared code names in the docs.

Links: scans README.md plus every file under docs/ (and the other top-level
*.md) for markdown links to repo files, resolves them relative to the
containing file, and lists every target that does not exist. External
(http/https/mailto) and pure-anchor links are ignored; `#fragment` suffixes
on relative links are stripped.

Names: in README.md and docs/, every namespace-qualified name that starts
with a namespace of the code (`obs::Tracer::global`) and every CamelCase
name inside inline backticks (`DeviceModel`) must be declared somewhere
under src/ bench/ hpcbench/ examples/ tests/ -- that is, appear as an
identifier in their C++ code outside comments and string literals. This
catches docs that still name deleted or renamed classes and functions.

Exits non-zero if either check finds anything.

Usage: python3 tools/check_doc_links.py [repo_root]
"""

import glob
import os
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

CODE_DIRS = ("src", "bench", "hpcbench", "examples", "tests")
CODE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
# Raw strings, string literals and comments: names there declare nothing.
NON_CODE_RE = re.compile(
    r'R"([^(\s]*)\((?:.|\n)*?\)\1"|"(?:\\.|[^"\\\n])*"|//[^\n]*|/\*(?:.|\n)*?\*/')
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
NAMESPACE_RE = re.compile(r"\bnamespace\s+([A-Za-z_][\w:]*)")
QUALIFIED_RE = re.compile(r"\b[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+")
FENCE_RE = re.compile(r"^```[^\n]*\n.*?^```", re.S | re.M)
SPAN_RE = re.compile(r"`([^`\n]+)`")
CAMEL_RE = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]+)+")


def md_files(root):
    files = sorted(glob.glob(os.path.join(root, "*.md")))
    files += sorted(glob.glob(os.path.join(root, "docs", "**", "*.md"), recursive=True))
    return files


def check_file(path, root):
    broken = []
    text = open(path, encoding="utf-8").read()
    for target in LINK_RE.findall(text):
        if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), rel))
        if not os.path.exists(resolved):
            broken.append((target, resolved))
    return broken


def code_names(root):
    """Identifiers of the C++ code and the namespaces it declares."""
    idents, namespaces = set(), set()
    for d in CODE_DIRS:
        for path in glob.glob(os.path.join(root, d, "**", "*"), recursive=True):
            if not path.endswith(CODE_SUFFIXES):
                continue
            code = NON_CODE_RE.sub(" ", open(path, encoding="utf-8").read())
            idents.update(IDENT_RE.findall(code))
            for decl in NAMESPACE_RE.findall(code):
                namespaces.update(decl.split("::"))
    return idents, namespaces


def undeclared_names(path, idents, namespaces):
    """(line, name, undeclared part) for each code name in `path` that the
    code does not declare; one report per part and line."""
    found = {}
    text = open(path, encoding="utf-8").read()
    for m in QUALIFIED_RE.finditer(text):
        parts = m.group(0).split("::")
        if parts[0] not in namespaces:
            continue  # std::, or not a name of this code
        line = text.count("\n", 0, m.start()) + 1
        for part in parts[1:]:
            part = part.lstrip("~")
            if part not in namespaces and part not in idents:
                found.setdefault((line, part), m.group(0))
    # Fenced blocks hold diagrams and trees as well as code; only inline
    # code spans are read for bare CamelCase names.
    prose = FENCE_RE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for span in SPAN_RE.finditer(prose):
        line = prose.count("\n", 0, span.start()) + 1
        for name in IDENT_RE.findall(span.group(1)):
            if CAMEL_RE.fullmatch(name) and name not in idents:
                found.setdefault((line, name), name)
    return sorted((line, name, part) for (line, part), name in found.items())


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = md_files(root)
    if not files:
        print("check_doc_links: no markdown files found under", root)
        return 1
    failures = 0
    for path in files:
        for target, resolved in check_file(path, root):
            print(f"{path}: broken link '{target}' -> {resolved}")
            failures += 1
    checked = len(files)
    if failures:
        print(f"check_doc_links: {failures} broken link(s) across {checked} files")

    idents, namespaces = code_names(root)
    named_docs = [os.path.join(root, "README.md")]
    named_docs += sorted(glob.glob(os.path.join(root, "docs", "**", "*.md"), recursive=True))
    undeclared = 0
    for path in named_docs:
        for line, name, part in undeclared_names(path, idents, namespaces):
            print(f"{path}:{line}: '{name}' names '{part}', which no code declares")
            undeclared += 1
    if undeclared:
        print(f"check_doc_links: {undeclared} undeclared code name(s) in README.md and docs/")
    if failures or undeclared:
        return 1
    print(f"check_doc_links: {checked} markdown files OK, code names declared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
