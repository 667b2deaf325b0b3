#!/usr/bin/env bash
# Zero-allocation lint for the router hot path, plus a ban on
# environment reads in the library and the bench binaries.
#
# The inner routing loops (routeEdge and the structures it touches) must
# not allocate: RouterWorkspace exists precisely so per-edge routing
# reuses its scratch storage. This script fails the build when
#
#   1. a raw heap allocation (new / make_unique / make_shared / malloc /
#      calloc / realloc) appears anywhere in a hot-path file, or
#   2. a container-growth call (push_back / emplace_back / insert /
#      resize / assign / reserve on a member vector) appears on a line
#      that is not annotated with `lint:allow-growth` on the same or the
#      preceding line, or
#   3. any getenv( appears under src/ or bench/. The library takes its
#      settings from its callers (config structs, flags), never from the
#      environment: a bench binary parses them in initBench, lisa-serve
#      in its main.
#
# The allow marker is reserved for amortized workspace buffers whose
# growth is tracked by RouterWorkspace::growthEvents and settles after
# warm-up. Anything else — in particular a per-edge push_back into a
# fresh vector — is a hot-loop allocation and must be rewritten against
# the workspace.
#
# Some hot-listed files also carry genuinely cold code: model loading in
# routability_filter.cc, the per-race setup in portfolio.hh. Wrap those
# in `lint:cold-begin(reason)` / `lint:cold-end` marker comments and
# rules 1 and 2 skip the region; unbalanced markers fail the lint. The
# markers are deliberately loud in review — a region creeping into a hot
# loop has to move out of the markers first.
#
# Pure grep/awk on purpose: runs in any container, no clang tooling
# needed.

set -u

cd "$(dirname "$0")/.."

HOT_FILES=(
    src/mapping/router.cc
    src/mapping/router_workspace.cc
    src/mapping/router_workspace.hh
    src/mapping/distance_oracle.cc
    src/mapping/distance_oracle.hh
    src/mapping/routability_filter.hh
    src/mapping/routability_filter.cc
    src/mapping/mapping.hh
    src/mapping/portfolio.hh
    src/arch/arch_context.hh
    src/arch/mrrg.hh
    src/serve/cache.hh
    src/serve/cache.cc
)

ALLOC_RE='(^|[^[:alnum:]_."])new[[:space:]]|std::make_unique|std::make_shared|[^[:alnum:]_]malloc[[:space:]]*\(|[^[:alnum:]_]calloc[[:space:]]*\(|[^[:alnum:]_]realloc[[:space:]]*\('
GROWTH_RE='\.(push_back|emplace_back|insert|resize|assign|reserve)[[:space:]]*\('
ENV_RE='(^|[^[:alnum:]_])getenv[[:space:]]*\('
ALLOW_MARK='lint:allow-growth'
COLD_BEGIN='lint:cold-begin'
COLD_END='lint:cold-end'

fail=0

# Blank out lint:cold-begin/end regions while preserving line numbers,
# so grep -n results still point into the real file. Exits non-zero on
# unbalanced markers.
cold_filtered() {
    awk -v b="$COLD_BEGIN" -v e="$COLD_END" '
        index($0, b) { depth++ }
        { print (depth > 0 ? "" : $0) }
        index($0, e) { if (depth == 0) { bad = 1; exit 3 }; depth-- }
        END { if (depth != 0 || bad) exit 3 }
    ' "$1"
}

for f in "${HOT_FILES[@]}"; do
    if [ ! -f "$f" ]; then
        echo "lint.sh: missing hot-path file $f (update HOT_FILES?)" >&2
        base=$(basename "$f")
        stem=${base%%.*}
        ext=${base##*.}
        # Moved: same name elsewhere. Renamed: same stem prefix, or any
        # same-extension sibling in the expected directory.
        candidates=$({
            find src -type f \
                \( -name "$base" -o -name "${stem}.*" -o -name "${stem}_*" \)
            find "$(dirname "$f")" -maxdepth 1 -type f -name "*.${ext}"
        } 2>/dev/null | sort -u)
        if [ -n "$candidates" ]; then
            echo "    candidates with a similar name:" >&2
            printf '%s\n' "$candidates" | sed 's/^/      /' >&2
        else
            echo "    (no similarly named file under src/ — if the" >&2
            echo "     hot path was deleted, drop the entry)" >&2
        fi
        fail=1
        continue
    fi

    filtered=$(cold_filtered "$f")
    if [ $? -ne 0 ]; then
        echo "lint.sh: FAIL: unbalanced $COLD_BEGIN/$COLD_END markers in $f" >&2
        fail=1
        continue
    fi

    # Rule 1: no raw heap allocation at all (outside cold regions).
    if grep -nE "$ALLOC_RE" <<< "$filtered"; then
        echo "lint.sh: FAIL: raw heap allocation in router hot path: $f" >&2
        fail=1
    fi

    # Rule 2: container growth only on allow-marked lines.
    # A marker counts when it is on the matching line or the line above.
    while IFS=: read -r lineno line; do
        [ -n "$lineno" ] || continue
        if printf '%s' "$line" | grep -q "$ALLOW_MARK"; then
            continue
        fi
        prev=$((lineno - 1))
        if [ "$prev" -ge 1 ] &&
           sed -n "${prev}p" "$f" | grep -q "$ALLOW_MARK"; then
            continue
        fi
        echo "lint.sh: FAIL: unannotated container growth at $f:$lineno:" >&2
        echo "    $line" >&2
        echo "    (use RouterWorkspace scratch storage, annotate an" >&2
        echo "     amortized buffer with '// $ALLOW_MARK (reason)', or" >&2
        echo "     wrap genuinely cold code in $COLD_BEGIN/$COLD_END)" >&2
        fail=1
    done < <(grep -nE "$GROWTH_RE" <<< "$filtered")
done

# Rule 3: neither the library nor the bench binaries read the
# environment.
if grep -rnE "$ENV_RE" src bench; then
    echo "lint.sh: FAIL: environment read under src/ or bench/" >&2
    echo "    (take the setting as a config field or a flag)" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "lint.sh: router hot-path lint FAILED" >&2
    exit 1
fi
echo "lint.sh: router hot-path lint OK (${#HOT_FILES[@]} files," \
     "no getenv under src/ or bench/)"
