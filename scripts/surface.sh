#!/usr/bin/env bash
# Surface report: how big the workspace is and how much of its public
# API has no caller.
#
#   scripts/surface.sh
#
# Prints the line count ROADMAP tracks (every .rs file under crates,
# src, tests and examples), then every `pub` fn, struct, enum, trait,
# type, const or static in a crate's library source that nothing
# outside that library names. Callers are the other crates, the
# crate's own binaries, integration tests, benches and doc examples,
# the root package, its tests and examples, and perfbench. A type also
# counts as called when the library's own public signatures name it (a
# `pub fn`'s parameters or return type, a `pub` field, an enum variant,
# a trait, an exported macro), since callers then reach it through
# them. Comment lines name nothing. The match is by name, so an item
# that shares its name with something used elsewhere counts as called.
#
# Informational only: always exits 0. An item it lists is a candidate
# for `pub(crate)`, after which the dead-code lint says whether the
# crate itself still needs it.
set -uo pipefail
cd "$(dirname "$0")/.."

echo "lines of Rust (crates src tests examples): $(find crates src tests examples -name '*.rs' | xargs cat | wc -l)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

decl='pub (const fn|unsafe fn|fn|struct|enum|union|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*'

# The names in a library's public declarations: `pub fn` signatures up
# to their body, `pub` fields, whole enum and trait bodies, type
# aliases, const/static types and macro bodies. Neither an item's own
# name nor, in an `impl` block, the implementing type counts.
public_names() {
  awk '
    function emit(text,    t) {
      while (match(text, /[A-Za-z_][A-Za-z0-9_]*/)) {
        t = substr(text, RSTART, RLENGTH)
        if (t != self) print t
        text = substr(text, RSTART + RLENGTH)
      }
    }
    function braces(text) {
      gsub(/"([^"\\]|\\.)*"/, "", text); gsub(/\x27[{}]\x27/, "", text)
      return gsub(/\{/, "{", text) - gsub(/\}/, "}", text)
    }
    /^[ \t]*\/\// { next }
    {
      line = $0; opened = braces(line)
      if (self == "" && line ~ /^[ \t]*impl[ <]/) {
        t = line; sub(/[ \t]*\{.*/, "", t); sub(/ where .*/, "", t)
        if (t ~ / for /) sub(/.* for /, "", t); else { sub(/^[ \t]*impl(<[^>]*>)? */, "", t) }
        sub(/[<(].*/, "", t); sub(/.*::/, "", t); self = t; impl_depth = depth
      }
      depth += opened
      if (self != "" && depth <= impl_depth && line !~ /^[ \t]*impl[ <]/) self = ""
    }
    mode == "sig" { emit(line); if (line ~ /[{;]/) mode = ""; next }
    mode == "body" {
      if (kind != "struct" || line ~ /^[ \t]*pub /) emit(line)
      body += opened
      if (body <= 0) mode = ""
      next
    }
    line ~ /^[ \t]*macro_rules!/ { kind = "other"; body = opened; if (body > 0) mode = "body"; next }
    match(line, /^[ \t]*pub (const fn|unsafe fn|fn|struct|enum|union|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*/) {
      head = substr(line, 1, RLENGTH); rest = substr(line, RLENGTH + 1)
      if (head !~ / fn / && head ~ / (const|static) /) sub(/=.*/, "", rest)
      emit(rest)
      if (head ~ / fn /) { if (rest !~ /[{;]/) mode = "sig"; next }
      if (head ~ / (struct|enum|union|trait) /) {
        kind = head ~ / struct / ? "struct" : "other"
        body = opened
        if (body > 0) mode = "body"
      }
      next
    }
    line ~ /^[ \t]*pub [a-z_][a-z0-9_]* *:/ { emit(line) }
  ' "$@"
}

# The code in a library's doc examples: each is compiled as a crate of
# its own, so it is a caller like any other.
doc_examples() {
  awk '
    /^[ \t]*\/\/[\/!][ \t]*```/ { inblock = !inblock; next }
    /^[ \t]*\/\/[\/!]/ { if (inblock) print; next }
    { inblock = 0 }
  ' "$@"
}

for dir in crates/*/; do
  crate=${dir%/}
  # The library: everything under src/ except binary targets.
  find "$crate/src" -name '*.rs' ! -path "$crate/src/bin/*" ! -path "$crate/src/main.rs" | sort >"$tmp/lib"
  find crates src tests examples perfbench/src perfbench/tests -name '*.rs' 2>/dev/null |
    grep -vxF -f "$tmp/lib" >"$tmp/callers"
  {
    xargs cat <"$tmp/callers" | grep -vE '^[[:space:]]*//' | grep -oE '[A-Za-z_][A-Za-z0-9_]*'
    xargs cat <"$tmp/lib" | public_names
    xargs cat <"$tmp/lib" | doc_examples | grep -oE '[A-Za-z_][A-Za-z0-9_]*'
  } | sort -u >"$tmp/names"
  while IFS= read -r file; do
    grep -nE "^[[:space:]]*$decl" "$file" | while IFS= read -r hit; do
      name=$(grep -oE "$decl" <<<"$hit" | awk '{ print $NF }')
      grep -qxF "$name" "$tmp/names" || echo "$file:${hit%%:*}: $name"
    done
  done <"$tmp/lib" >>"$tmp/report"
done

echo "pub items with no caller outside their crate: $(wc -l <"$tmp/report")"
cat "$tmp/report"
exit 0
