#!/usr/bin/env bash
# Docs gate, run by CI and registered as the `docs.check` ctest:
#   1. every relative markdown link in the repo's *.md files resolves to an
#      existing file/directory;
#   2. every subsystem under src/ is described in both DESIGN.md (as
#      `src/<name>`) and README.md (as `<name>/`);
#   3. diagnostic rule ids stay in sync with the docs, both directions:
#      every id declared in analysis/diagnostic.hpp is documented in
#      DESIGN.md or QUANTIZATION.md, and every backticked rule-shaped
#      token those docs use is a real declared id (catches typos and
#      stale ids left behind by renames);
#   4. README.md perf claims are backed by the checked-in bench records:
#      the kernel-performance section cites BENCH_kernels.json, and every
#      `N.NN×` speedup quoted in README.md prefix-matches a "speedup"
#      value in a checked-in BENCH_*.json;
#   5. span and metric names stay in sync with OBSERVABILITY.md, both
#      directions: (a) every string literal src/ passes as the name to
#      counter(/gauge(/histogram(/summary(, obs::Span or DCNAS_TRACE_SPAN
#      appears backticked in OBSERVABILITY.md; (b) every span in its span
#      table, and every other backticked name there with at least two dots
#      whose first segment is a src/ subsystem, is a quoted literal in
#      src/ (catches stale names left behind by renames and deletions).
#      A `{label=...}` suffix is stripped before matching;
#   6. every backticked `<Name>Options::<field>` (or `<Name>Options.<field>`)
#      in README, DESIGN, OBSERVABILITY, QUANTIZATION and EXPERIMENTS names
#      a member declared inside `struct <Name>Options { ... }` in a header
#      under src/*/include (catches docs that still cite a deleted option);
#   7. bench records and binaries cited in those same docs exist: every
#      BENCH_<name>.json token is a file at the repo root, and every
#      backticked `bench_<name>` has a bench/bench_<name>.cpp (catches docs
#      that still cite a retired bench or a record that is not checked in).
#
# Usage: check_docs.sh [repo-root]   (defaults to the script's parent dir)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2
failures=0

fail() {
  echo "check_docs: $*" >&2
  failures=$((failures + 1))
}

# --- 1. markdown link targets -------------------------------------------
# Extract inline [text](target) links; skip absolute URLs, mailto, and
# pure-anchor links. Anchored file links (FILE.md#section) check FILE only.
while IFS=: read -r file target; do
  case "$target" in
    http://*|https://*|mailto:*|'#'*) continue ;;
  esac
  path="${target%%#*}"
  [ -z "$path" ] && continue
  dir=$(dirname "$file")
  if [ ! -e "$path" ] && [ ! -e "$dir/$path" ]; then
    fail "$file: broken link -> $target"
  fi
done < <(find . -name '*.md' -not -path './build*/*' -print0 |
         xargs -0 grep -oH '\[[^][]*\]([^()[:space:]]*)' |
         sed -E 's/^([^:]+):\[[^][]*\]\(([^()]*)\)$/\1:\2/')

# --- 2. every src subsystem is documented --------------------------------
for dir in src/*/; do
  name=$(basename "$dir")
  if ! grep -q "src/$name" DESIGN.md; then
    fail "DESIGN.md does not describe src/$name"
  fi
  if ! grep -q "$name/" README.md; then
    fail "README.md does not mention $name/"
  fi
done

# --- 3. diagnostic rule ids <-> docs, both directions --------------------
diag=src/analysis/include/dcnas/analysis/diagnostic.hpp
rule_ids=$(sed -nE 's/.*constexpr const char\* k[A-Za-z0-9]+ = "([a-z.-]+)";.*/\1/p' "$diag")
if [ -z "$rule_ids" ]; then
  fail "no rule ids extracted from $diag (pattern drift?)"
fi
for id in $rule_ids; do
  if ! grep -q "\`$id\`" DESIGN.md QUANTIZATION.md; then
    fail "rule id $id ($diag) is documented in neither DESIGN.md nor QUANTIZATION.md"
  fi
done
# Reverse: backticked one-dot tokens in a rule namespace must be declared.
# (Metric/span names use >= two dots, so they never match this shape.)
prefixes=$(printf '%s\n' "$rule_ids" | cut -d. -f1 | sort -u | paste -sd'|' -)
while read -r tok; do
  if ! printf '%s\n' "$rule_ids" | grep -qx "$tok"; then
    fail "docs cite rule id $tok, which $diag does not declare"
  fi
done < <(grep -ohE '`[a-z-]+\.[a-z-]+`' DESIGN.md QUANTIZATION.md |
         tr -d '`' | grep -E "^($prefixes)\." | sort -u)

# --- 4. README perf numbers cite checked-in bench records ----------------
if ! grep -q '`BENCH_kernels.json`' README.md; then
  fail "README.md kernel-performance section does not cite BENCH_kernels.json"
fi
if [ ! -f BENCH_kernels.json ]; then
  fail "BENCH_kernels.json is not checked in at the repo root"
fi
while read -r num; do
  n="${num%×}"
  if ! grep -q "\"speedup\": $n" BENCH_*.json 2>/dev/null; then
    fail "README.md quotes speedup $num not backed by any checked-in BENCH_*.json"
  fi
done < <(grep -oE '[0-9]+\.[0-9]+×' README.md | sort -u)

# --- 5. obs span/metric names <-> OBSERVABILITY.md, both directions -----
obs_doc=OBSERVABILITY.md
doc_names=$(grep -oE '`[^`]+`' "$obs_doc" | tr -d '`' |
            sed -E 's/\{[^}]*\}$//' | sort -u)
src_names=$(find src \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
  xargs -0 perl -0777 -ne '
    print "$1\n" while /\b(?:counter|gauge|histogram|summary)\(\s*"([^"]+)"/g;
    print "$1\n" while /(?:\bobs::Span\s+\w+|\bDCNAS_TRACE_SPAN)\(\s*"[^"]*"\s*,\s*"([^"]+)"/g;' |
  sort -u)
if [ -z "$src_names" ]; then
  fail "no span/metric names extracted from src/ (pattern drift?)"
fi
for name in $src_names; do
  if ! printf '%s\n' "$doc_names" | grep -qxF "$name"; then
    fail "$name is registered in src/ but not documented in $obs_doc"
  fi
done
src_literals=$(grep -rhoE '"[A-Za-z0-9_.]+"' src | tr -d '"' | sort -u)
subsystems=$(for dir in src/*/; do basename "$dir"; done | paste -sd'|' -)
span_rows=$(sed -nE 's/^\| `[^`]*` \| `([^`]+)` \|.*/\1/p' "$obs_doc")
dotted=$(printf '%s\n' "$doc_names" | grep -E "^($subsystems)\.[^.]+\..+")
for name in $(printf '%s\n%s\n' "$span_rows" "$dotted" | sort -u); do
  if ! printf '%s\n' "$src_literals" | grep -qxF "$name"; then
    fail "$obs_doc names $name, which is no quoted literal in src/"
  fi
done

# --- 6. documented option fields are declared members ------------------
option_docs="README.md DESIGN.md OBSERVABILITY.md QUANTIZATION.md EXPERIMENTS.md"
headers=$(find src/*/include -name '*.hpp' | sort)
while read -r tok; do
  [ -z "$tok" ] && continue
  struct="${tok%%[:.]*}"
  field="${tok##*[:.]}"
  # The struct's brace-balanced body with // comments stripped; the field
  # counts as declared when it is followed by an initializer or `;`.
  # shellcheck disable=SC2086
  if ! perl -e '
      my ($struct, $field) = splice(@ARGV, 0, 2);
      local $/;
      for my $file (@ARGV) {
        open(my $fh, "<", $file) or next;
        my $src = <$fh>;
        $src =~ s{//[^\n]*}{}g;
        while ($src =~ /\bstruct\s+\Q$struct\E\s*(\{(?:[^{}]++|(?1))*\})/g) {
          exit 0 if $1 =~ /\b\Q$field\E\s*[=;{]/;
        }
      }
      exit 1;' "$struct" "$field" $headers; then
    fail "docs cite $tok, which is no member of struct $struct under src/*/include"
  fi
done < <(grep -ohE '`[A-Z][A-Za-z0-9]*Options(::|\.)[A-Za-z_][A-Za-z0-9_]*' \
           $option_docs 2>/dev/null | tr -d '`' | sort -u)

# --- 7. cited bench records and bench binaries exist -------------------
# shellcheck disable=SC2086
for rec in $(grep -ohE 'BENCH_[A-Za-z0-9_]+\.json' $option_docs | sort -u); do
  [ -f "$rec" ] || fail "docs cite $rec, which is not checked in at the repo root"
done
# shellcheck disable=SC2086
for bin in $(grep -ohE '`bench_[A-Za-z0-9_]+`' $option_docs | tr -d '`' | sort -u); do
  [ -f "bench/$bin.cpp" ] || fail "docs cite \`$bin\`, which has no bench/$bin.cpp"
done

if [ "$failures" -ne 0 ]; then
  echo "check_docs: $failures problem(s) found" >&2
  exit 1
fi
echo "check_docs: OK (links resolve, subsystems documented, rule ids in sync, perf numbers backed by BENCH_*.json, obs names in sync, option fields declared, cited benches exist)"
