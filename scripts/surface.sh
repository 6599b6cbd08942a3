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
# A second list names those items whose name is also declared outside
# their crate (a fn or method, a type, a field or a parameter), so the
# scan cannot tell their callers from the other declaration's: "shared
# names, not verified by this scan". An item is left off it when a
# caller reaches it by path: `Type::name` for an item in an `impl
# Type` block, otherwise `module::name` (the module its file defines),
# or the name in a `use` of the crate or in a path that starts with the
# crate's name.
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

# awk code both scans below start with: skips comment lines, and for
# every other line sets `line`, `opened` (its net count of `{` over `}`
# outside string and char literals) and `self` (the type of the
# enclosing `impl` block, or "").
impl_tracking='
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
'

# The names in a library's public declarations: `pub fn` signatures up
# to their body, `pub` fields, whole enum and trait bodies, type
# aliases, const/static types and macro bodies. Neither an item's own
# name nor, in an `impl` block, the implementing type counts.
public_names() {
  awk "$impl_tracking"'
    function emit(text,    t) {
      while (match(text, /[A-Za-z_][A-Za-z0-9_]*/)) {
        t = substr(text, RSTART, RLENGTH)
        if (t != self) print t
        text = substr(text, RSTART + RLENGTH)
      }
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

# Every `pub` item a library declares, as `line name impl-type`, where
# impl-type is the type of the enclosing `impl` block, or `-`.
declarations() {
  awk -v decl="^[ \t]*$decl" "$impl_tracking"'
    match(line, decl) {
      n = split(substr(line, RSTART, RLENGTH), w, / +/)
      print NR, w[n], (self == "" ? "-" : self)
    }
  ' "$1"
}

# The names declared in the code on stdin: fns and methods, types,
# consts, statics, modules, fields and parameters (`name: Type` at the
# start of a line).
declared_names() {
  local text
  text=$(cat)
  grep -oE '\b(fn|struct|enum|union|trait|type|const|static|mod) +[A-Za-z_][A-Za-z0-9_]*' <<<"$text" |
    awk '{ print $NF }'
  grep -oE '^[[:space:]]*(pub(\([a-z]+\))? )?[a-z_][a-z0-9_]* *:([^:]|$)' <<<"$text" |
    sed -E 's/^[[:space:]]*(pub(\([a-z]+\))? )?//; s/ *:.*//'
}

# The names the code on stdin reaches through crate IDENT by path:
# every name in a `use IDENT…;` statement, and every segment of an
# `IDENT::…` path.
path_names() {
  awk -v ident="$1" '
    $0 ~ "^[ \t]*(pub(\\([a-z]+\\))? )?use " ident "(::|[ ;{])" { inuse = 1 }
    inuse { print; if ($0 ~ /;/) inuse = 0; next }
    {
      while (match($0, ident "(::[A-Za-z_][A-Za-z0-9_]*)+")) {
        print substr($0, RSTART, RLENGTH)
        $0 = substr($0, RSTART + RLENGTH)
      }
    }
  ' | grep -oE '[A-Za-z_][A-Za-z0-9_]*'
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
  ident=$(sed -nE 's/^name *= *"([^"]*)".*/\1/p' "$crate/Cargo.toml" | head -n 1 | tr - _)
  xargs cat <"$tmp/callers" | grep -vE '^[[:space:]]*//' >"$tmp/caller_text"
  declared_names <"$tmp/caller_text" | sort -u >"$tmp/declared"
  path_names "$ident" <"$tmp/caller_text" | sort -u >"$tmp/by_path"
  while IFS= read -r file; do
    module=$(basename "$file" .rs)
    declarations "$file" | while read -r line name self; do
      if ! grep -qxF "$name" "$tmp/names"; then
        echo "$file:$line: $name" >>"$tmp/report"
      elif grep -qxF "$name" "$tmp/declared"; then
        if [[ $self == - ]]; then
          grep -qxF "$name" "$tmp/by_path" && continue
          grep -qF "$module::$name" "$tmp/caller_text" && continue
        else
          grep -qF "$self::$name" "$tmp/caller_text" && continue
        fi
        [[ $self == - ]] && item=$name || item=$self::$name
        echo "$file:$line: $item" >>"$tmp/shared"
      fi
    done
  done <"$tmp/lib"
done

touch "$tmp/report" "$tmp/shared"
echo "pub items with no caller outside their crate: $(wc -l <"$tmp/report")"
cat "$tmp/report"
echo "shared names, not verified by this scan: $(wc -l <"$tmp/shared")"
cat "$tmp/shared"
exit 0
