#!/usr/bin/env bash
# Guard "public surface has callers": every `pub` (not `pub(crate)`)
# fn / struct / enum / trait / type / const / static under crates/*/src,
# outside #[cfg(test)] and comments, must have a caller. Run from
# anywhere; exits 1 and lists the items without one.
#
#     ./scripts/pub_surface.sh
#
# An item has a caller when its name appears in another .rs file under
# crates, src, tests, examples or benchmark. A type (struct, enum,
# trait, type alias) also has one when the signature of an item of its
# own file that has a caller names it — the return type of a called
# fn, the type of a pub field or enum payload of a called type — unless
# that item is a method of the type itself. Rust's dead_code lint
# cannot see a `pub` item of a library crate, so this is what keeps
# the surface from growing exports nobody calls (DESIGN.md §4).
#
# scripts/pub_surface.allow lists intended API that nothing calls yet,
# one `path name  # reason` a line. The guard also fails on an entry
# that names no pub item or names one that has a caller.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/pub_surface.allow

# One record per pub item and per pub field / enum body line, in the
# non-test part of each file:
#   ITEM <tab> file <tab> name <tab> kind <tab> owner <tab> signature
#   FIELD <tab> file <tab> - <tab> - <tab> owner <tab> text
# `owner` is the type an impl block or a struct/enum body belongs to.
records=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
  awk -v file="$f" '
    function impl_target(s,    depth, i, c) {
      sub(/^impl/, "", s)
      if (substr(s, 1, 1) == "<") {
        depth = 0
        for (i = 1; i <= length(s); i++) {
          c = substr(s, i, 1)
          if (c == "<") depth++
          else if (c == ">" && --depth == 0) break
        }
        s = substr(s, i + 1)
      }
      if (match(s, / for /)) s = substr(s, RSTART + 5)
      gsub(/[&]|dyn |mut /, "", s)
      return match(s, /[A-Za-z_][A-Za-z0-9_]*/) ? substr(s, RSTART, RLENGTH) : ""
    }
    /^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    sig_open {
      sig = sig " " $0
      if ($0 ~ /[{;]/ || ++sig_lines > 30) { print sig; sig_open = 0 }
      next
    }
    /^}/ { owner = ""; body = ""; next }
    /^impl[[:space:]<]/ { owner = impl_target($0); next }
    body != "" {
      if (body == "enum" || $0 ~ /^[[:space:]]+pub[[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*:/)
        print "FIELD\t" file "\t-\t-\t" owner "\t" $0
      next
    }
    match($0, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|type|const|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
      decl = substr($0, RSTART, RLENGTH)
      n = split(decl, w, /[[:space:]]+/)
      name = w[n]; kind = w[n - 1]
      if ($0 ~ /^pub/ && (kind == "struct" || kind == "enum") && $0 ~ /\{[[:space:]]*$/) {
        owner = name; body = kind
      }
      sig = "ITEM\t" file "\t" name "\t" kind "\t" owner "\t" $0
      if ($0 ~ /[{;]/) print sig
      else { sig_open = 1; sig_lines = 0 }
    }
  ' "$f"
done)

# Names that appear in some other file.
items=$(awk -F'\t' '$1 == "ITEM" { print $2 "\t" $3 }' <<<"$records" | sort -u)
called=$(while IFS=$'\t' read -r file name; do
  if grep -rlwF --include='*.rs' -e "$name" crates src tests examples benchmark 2>/dev/null |
    grep -qvxF "$file"; then
    printf '%s\t%s\n' "$file" "$name"
  fi
done <<<"$items")

# Close over signatures, then subtract what has a caller.
orphans=$(awk -F'\t' '
  FNR == NR { called[$1 SUBSEP $2] = 1; next }
  { n++; typ[n] = $1; file[n] = $2; name[n] = $3; kind[n] = $4; owner[n] = $5; text[n] = $6 }
  END {
    do {
      grew = 0
      for (i = 1; i <= n; i++) {
        if (typ[i] != "ITEM" || called[file[i] SUBSEP name[i]]) continue
        if (kind[i] !~ /^(struct|enum|trait|type)$/) continue
        for (j = 1; j <= n; j++) {
          if (file[j] != file[i] || owner[j] == name[i] || j == i) continue
          via = typ[j] == "ITEM" ? name[j] : owner[j]
          if (!called[file[j] SUBSEP via]) continue
          if (text[j] ~ ("(^|[^A-Za-z0-9_])" name[i] "([^A-Za-z0-9_]|$)")) {
            called[file[i] SUBSEP name[i]] = 1; grew = 1; break
          }
        }
      }
    } while (grew)
    for (i = 1; i <= n; i++)
      if (typ[i] == "ITEM" && !called[file[i] SUBSEP name[i]] && !seen[file[i] SUBSEP name[i]]++)
        print file[i] "\t" name[i] "\t" kind[i]
  }
' <(printf '%s\n' "$called") <(printf '%s\n' "$records"))

status=0
allowed=$(grep -vE '^[[:space:]]*(#|$)' "$allow" 2>/dev/null || true)
while read -r file name rest; do
  [[ -z "$file" ]] && continue
  if [[ "$rest" != \#* ]]; then
    echo "error: $allow: '$file $name' has no '# reason'" >&2
    status=1
  elif ! grep -qxF "$(printf '%s\t%s' "$file" "$name")" <<<"$items"; then
    echo "error: $allow: '$file $name' names no pub item; remove the entry" >&2
    status=1
  elif ! grep -qF "$(printf '%s\t%s\t' "$file" "$name")" <<<"$orphans"; then
    echo "error: $allow: '$file $name' has a caller now; remove the entry" >&2
    status=1
  fi
done <<<"$allowed"

allowed_keys=$(awk '{ print $1 "\t" $2 }' <<<"$allowed")
unlisted=$(while IFS=$'\t' read -r file name kind; do
  [[ -z "$file" ]] && continue
  grep -qxF "$(printf '%s\t%s' "$file" "$name")" <<<"$allowed_keys" ||
    echo "$file: pub $kind $name"
done <<<"$orphans")
if [[ -n "$unlisted" ]]; then
  echo "$unlisted"
  echo "error: the pub items above have no caller outside their own file; make them" \
    "pub(crate) or private, delete them, move test-only ones into the tests, or list" \
    "intended API in $allow with a reason" >&2
  status=1
fi
exit $status
