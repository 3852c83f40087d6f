#!/usr/bin/env bash
# Caller-based dead-`pub` audit: prints `file: name` for every `pub` item of
# the nine library crates whose name occurs nowhere outside its defining
# file. `unreachable_pub` cannot do this job — it only sees `pub` inside
# private modules, and every module here is `pub mod`.
#
# "Outside" is every other file of non-test code (`#[cfg(test)]` items and
# comment lines stripped from `src`) in `crates/`, `src/`, `examples/` and
# `benchmark/src`, plus integration tests and benches unstripped: they are
# callers. A name that only its own file mentions — a definition, a
# same-named delegate, its docs, its own unit test — has no caller.
#
# The audit is by name, so it cannot tell two items that share one. The
# reviewed remainder (constants read in place, types that only appear as a
# return or field type, test oracles) lives in scripts/dead_pub.kept; CI
# runs `scripts/dead_pub.sh | diff <(grep -v '^#' scripts/dead_pub.kept) -`,
# so a new line is a `pub` item that needs a caller, a demotion, or a
# reviewed entry.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# A source file minus its `#[cfg(test)]` items and comment-only lines.
strip() {
  awk '/^ *#\[cfg\(test\)\]/{s=1;d=0;o=0;next}
       s{n=gsub(/\{/,"{");m=gsub(/\}/,"}");d+=n-m;if(n)o=1;if((o&&d==0)||(!o&&/; *$/))s=0;next}
       {print}' "$1" | grep -v '^ *//' || true
}
words() { grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sed "s|^|W $1 |" || true; }

{
  for f in $(git ls-files 'crates/*/src/*.rs' 'src/*.rs' 'examples/*.rs' 'benchmark/src/*.rs'); do
    strip "$f" | words "$f"
  done
  for f in $(git ls-files 'tests/*.rs' 'crates/*/tests/*.rs' 'crates/*/benches/*.rs' 'benchmark/tests/*.rs'); do
    words "$f" <"$f"
  done
  for f in $(git ls-files 'crates/'{dsp,geom,phy,core,sim,city,log,live,serve}'/src/*.rs'); do
    strip "$f" |
      { grep -oE '^ *pub (unsafe )?(const )?(fn|struct|enum|trait|const|static|type) [A-Za-z_0-9]+' || true; } |
      awk -v f="$f" '{print "P", f, $NF}'
  done
} | awk '$1 == "W" { total[$3]++; own[$2, $3]++; next }
         total[$3] == own[$2, $3] { print $2 ": " $3 }' | sort -u
