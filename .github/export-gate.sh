#!/bin/sh
# Export gate: every value a library interface exports must have a user
# outside its own module.  A value only its own module uses belongs out
# of the .mli; one nothing uses belongs deleted.
#
# For each `val NAME` in lib/**/*.mli, some .ml/.mli file under the
# directories below, other than the module's own .ml/.mli, must use it.
# Comments and string literals are stripped first, so a mention in
# prose does not count.  A top-level `val` of module M counts as used
# in a file that
#   - names it qualified, `M.NAME` (also as the tail of a longer path);
#   - names it as `X.NAME` after aliasing `module X = ….M` (or `:=`);
#   - or names NAME anywhere after opening M: `open ….M` (also
#     `let open`), `include ….M`, or a local `….M.( … )`.
# A shared name in an unrelated module does not count.  A `val` inside
# a nested `sig … end` (a module type, a functor result, a submodule)
# only needs NAME as a whole word in some other file.
#
# Run from the repository root: sh .github/export-gate.sh
# Prints each offender as "<file.mli>: <name>" and exits 1 if any.
set -eu
exec python3 - lib bin bench examples perfbench test <<'EOF'
import os
import re
import sys

ident = r"[A-Za-z0-9_']"
char_literal = re.compile(r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-3][0-7]{2}))'")
quoted_open = re.compile(r"\{([a-z_]*)\|")


def strip(src):
    """Blank out comments (nested) and string, quoted-string and char
    literals, keeping newlines so the rest keeps its positions."""
    out = []
    i, n, depth = 0, len(src), 0

    def skip_string(j):
        j += 1
        while j < n and src[j] != '"':
            j += 2 if src[j] == "\\" else 1
        return j + 1

    def blank(a, b):
        out.append("".join(c if c == "\n" else " " for c in src[a:b]))

    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            blank(i, i + 2)
            i += 2
        elif depth > 0 and src.startswith("*)", i):
            depth -= 1
            blank(i, i + 2)
            i += 2
        elif c == '"':
            j = skip_string(i)
            blank(i, j)
            i = j
        elif c == "{" and quoted_open.match(src, i):
            tag = quoted_open.match(src, i).group(1)
            j = src.find("|" + tag + "}", i + 1)
            j = n if j < 0 else j + len(tag) + 2
            blank(i, j)
            i = j
        elif c == "'" and not (i > 0 and re.match(ident, src[i - 1])):
            m = char_literal.match(src, i)
            j = m.end() if m else i + 1
            if m or depth > 0:
                blank(i, j)
            else:
                out.append(c)
            i = j
        elif depth > 0:
            blank(i, i + 1)
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def sources(dirs):
    for d in dirs:
        for root, subdirs, files in os.walk(d):
            subdirs[:] = sorted(s for s in subdirs if s != "_build")
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(root, f)


def vals(text):
    """(name, nested) for each `val` of an interface, nested when it
    sits inside some `sig … end` (or `struct … end`)."""
    depth = 0
    for m in re.finditer(r"\b(sig|struct|end|val)\b(?:\s+([a-z_]" + ident + r"*))?", text):
        word = m.group(1)
        if word == "end":
            depth -= 1
        elif word == "val":
            if m.group(2):
                yield m.group(2), depth > 0
        else:
            depth += 1


def word(name):
    return r"(?<!" + ident + r")" + re.escape(name) + r"(?!" + ident + r")"


def path_to(module):
    """A module path whose last component is [module]."""
    return (r"(?<!" + ident + r"|\.)(?:[A-Z]" + ident + r"*\s*\.\s*)*" + module
            + r"(?!" + ident + r"|\s*\.\s*[A-Z])")


texts = {f: strip(open(f, encoding="utf-8").read()) for f in sources(sys.argv[1:])}


def used(module, name, nested, own):
    for f, text in texts.items():
        if f in own or not re.search(word(name), text):
            continue
        if nested:
            return True
        qualifiers = [module] + re.findall(
            r"\bmodule\s+([A-Z]" + ident + r"*)\s*:?=\s*" + path_to(module), text)
        for q in qualifiers:
            if re.search(word(q) + r"\s*\.\s*" + re.escape(name) + r"(?!" + ident + r")", text):
                return True
        opened = r"\b(?:open!?|include)\s+" + path_to(module)
        local = path_to(module) + r"\s*\.\s*[(\[{]"
        if re.search(opened, text) or re.search(local, text):
            return True
    return False


status = 0
for mli in sorted(f for f in texts if f.startswith("lib/") and f.endswith(".mli")):
    base = mli[: -len(".mli")]
    module = os.path.basename(base).capitalize()
    own = {base + ".ml", base + ".mli"}
    for name, nested in sorted(set(vals(texts[mli]))):
        if not used(module, name, nested, own):
            print(f"{mli}: {name}")
            status = 1
sys.exit(status)
EOF
