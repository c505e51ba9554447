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
#   - or names NAME bare (not as a field, a label or a `let`) after
#     opening M: `open ….M` (also `let open`), `include ….M`, or a
#     local `….M.( … )`.
# A shared name in an unrelated module does not count.  A `val` inside
# a nested `sig … end` (a module type, a functor result, a submodule)
# only needs NAME as a whole word in some other file.
#
# Every optional argument `?label` a `val` declares must also be passed,
# as `~label` or `?label`, at some call of that value: a knob no caller
# sets belongs replaced by its default.  A call is a use found as above
# (a submodule's `val` is called as `Sub.NAME`), or bare NAME in the
# module's own .ml, so forwarding inside the module counts, as do
# tests.  Its arguments are the labels that follow NAME up to the end
# of the application: an unmatched closing bracket, `;`, `,`, `in`,
# `|>` and the like; labels inside nested brackets belong to other
# calls.
#
# Run from the repository root: sh .github/export-gate.sh
# Prints each offender as "<file.mli>: <name>" or
# "<file.mli>: <name> ?<label>" and exits 1 if any.
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


item = re.compile(r"\b(?:val|type|module|exception|include|external|class|end)\b")


def vals(text):
    """(name, nested, sub, labels) for each `val` of an interface:
    nested when it sits inside some `sig … end` (or `struct … end`),
    sub the name of the innermost `module Sub : sig` around it (None at
    top level or in a module type), labels its optional arguments."""
    subs = []
    for m in re.finditer(r"\b(sig|struct|end)\b|\b(val)\s+([a-z_]" + ident + r"*)", text):
        word = m.group(1) or m.group(2)
        if word == "end":
            subs.pop()
        elif word == "val":
            stop = item.search(text, m.end())
            decl = text[m.end() : stop.start() if stop else len(text)]
            labels = re.findall(r"\?\s*([a-z_]" + ident + r"*)\s*:", decl)
            yield m.group(3), bool(subs), subs[-1] if subs else None, labels
        else:
            sub = re.search(r"\bmodule\s+([A-Z]" + ident + r"*)\s*:\s*$", text[: m.start()])
            subs.append(sub.group(1) if sub and word == "sig" else None)


def word(name):
    return r"(?<!" + ident + r")" + re.escape(name) + r"(?!" + ident + r")"


def path_to(module):
    """A module path whose last component is [module]."""
    return (r"(?<!" + ident + r"|\.)(?:[A-Z]" + ident + r"*\s*\.\s*)*" + module
            + r"(?!" + ident + r"|\s*\.\s*[A-Z])")


texts = {f: strip(open(f, encoding="utf-8").read()) for f in sources(sys.argv[1:])}


def qualified(q, name):
    return word(q) + r"\s*\.\s*" + re.escape(name) + r"(?!" + ident + r")"


def unqualified(name):
    """NAME bare: not a field, a label or a definition."""
    return (r"(?<![.~?]|" + ident + r")(?<!\blet )(?<!\band )(?<!\brec )" + re.escape(name)
            + r"(?!" + ident + r")")


def uses(module, name, text):
    """A pattern for the uses of a top-level `val` of [module] in [text]:
    qualified by the module or an alias of it, or also bare where the
    file opens or includes it."""
    qualifiers = [module] + re.findall(
        r"\bmodule\s+([A-Z]" + ident + r"*)\s*:?=\s*" + path_to(module), text)
    patterns = [qualified(q, name) for q in qualifiers]
    opened = r"\b(?:open!?|include)\s+" + path_to(module)
    local = path_to(module) + r"\s*\.\s*[(\[{]"
    if re.search(opened, text) or re.search(local, text):
        patterns.append(unqualified(name))
    return "|".join(patterns)


def used(module, name, nested, own):
    for f, text in texts.items():
        if f in own or not re.search(word(name), text):
            continue
        if nested or re.search(uses(module, name, text), text):
            return True
    return False


def calls(module, name, sub, own):
    """(text, offset) just after each call of a `val`: a use, a call
    qualified by its submodule [sub], or a bare call in its own .ml."""
    for f, text in texts.items():
        if f.endswith(".mli"):
            continue
        if f in own:
            pattern = unqualified(name)
        elif sub is not None:
            pattern = qualified(sub, name)
        else:
            pattern = uses(module, name, text)
        for m in re.finditer(pattern, text):
            yield text, m.end()


token = re.compile(
    r"\s+|(?P<open>[(\[{]|\bbegin\b)|(?P<close>[)\]}]|\bend\b)"
    r"|[~?](?P<label>[a-z_]" + ident + r"*)"
    r"|(?P<stop>;|,|->|<-|:=|\|\||\||&&|@@|\b(?:in|then|else|with|do|done|let|and|if|match"
    r"|fun|function|when|of|try|val|type|module|open)\b)"
    r"|" + ident + r"+|.")


def passed(text, at):
    """The labels a call ending at [at] passes at its own level."""
    depth = 0
    for m in token.finditer(text, at):
        if m.group("open"):
            depth += 1
        elif m.group("close"):
            depth -= 1
            if depth < 0:
                return
        elif depth == 0 and m.group("stop"):
            return
        elif depth == 0 and m.group("label"):
            yield m.group("label")


status = 0
for mli in sorted(f for f in texts if f.startswith("lib/") and f.endswith(".mli")):
    base = mli[: -len(".mli")]
    module = os.path.basename(base).capitalize()
    own = {base + ".ml", base + ".mli"}
    for name, nested, sub, labels in sorted(set((n, d, s, tuple(l)) for n, d, s, l in vals(texts[mli]))):
        if not used(module, name, nested, own):
            print(f"{mli}: {name}")
            status = 1
        elif labels and (not nested or sub is not None):
            given = {l for text, at in calls(module, name, sub, own) for l in passed(text, at)}
            for label in labels:
                if label not in given:
                    print(f"{mli}: {name} ?{label}")
                    status = 1
sys.exit(status)
EOF
