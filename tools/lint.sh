#!/usr/bin/env bash
# Zero-allocation and no-knob lint for the router hot path, plus the
# allow-list of environment knobs the library reads.
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
#   3. an environment read (getenv) appears in a hot-path file. A
#      per-workspace or per-call knob is a second route path; process-
#      wide knobs resolve once, in cold code, or
#   4. any getenv( under src/ reads something other than a string literal
#      on the ENV_KNOBS list below, or any getenv( appears under bench/.
#      Adding a knob to the library means editing that list, in review;
#      a bench binary takes its settings as initBench flags.
#
# The allow marker is reserved for amortized workspace buffers whose
# growth is tracked by RouterWorkspace::growthEvents and settles after
# warm-up. Anything else — in particular a per-edge push_back into a
# fresh vector — is a hot-loop allocation and must be rewritten against
# the workspace.
#
# Some hot-listed files also carry genuinely cold code: model loading in
# routability_filter.cc, the per-race setup in portfolio.hh. Wrap those in `lint:cold-begin(reason)`
# / `lint:cold-end` marker comments and every rule skips the region; unbalanced markers fail the lint. The markers
# are deliberately loud in review — a region creeping into a hot loop
# has to move out of the markers first.
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

# Every environment variable the library reads.
ENV_KNOBS=(
    LISA_THREADS
    LISA_SERVE_CACHE
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

    # Rule 3: no environment reads (outside cold regions).
    if grep -nE "$ENV_RE" <<< "$filtered"; then
        echo "lint.sh: FAIL: environment read in router hot path: $f" >&2
        echo "    (resolve process-wide knobs once, inside a" >&2
        echo "     $COLD_BEGIN/$COLD_END region)" >&2
        fail=1
    fi
done

# Rule 4: the library reads only the listed environment knobs, and the
# bench binaries read none.
knob_alt=$(IFS='|'; echo "${ENV_KNOBS[*]}")
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    if ! printf '%s' "$hit" |
         grep -qE "getenv[[:space:]]*\\([[:space:]]*\"($knob_alt)\"[[:space:]]*\\)"; then
        echo "lint.sh: FAIL: environment read outside the knob list: $hit" >&2
        echo "    (allowed: ${ENV_KNOBS[*]}; edit ENV_KNOBS to add one)" >&2
        fail=1
    fi
done < <(grep -rnE "$ENV_RE" src)
if grep -rnE "$ENV_RE" bench; then
    echo "lint.sh: FAIL: environment read under bench/" >&2
    echo "    (take the setting as a flag parsed in initBench)" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "lint.sh: router hot-path lint FAILED" >&2
    exit 1
fi
echo "lint.sh: router hot-path lint OK (${#HOT_FILES[@]} files," \
     "${#ENV_KNOBS[@]} env knobs)"
