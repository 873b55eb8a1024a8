#!/usr/bin/env bash
# Unsafe-code gate for every source the workspace builds, vendor/ included,
# and for benchmark/, the pipeline ledger's own workspace (its build
# directory excluded).
#
# The workspace forbids `unsafe_code` outright (see [workspace.lints.rust]
# in Cargo.toml), so today this gate expects *zero* `unsafe` tokens. If a
# future change genuinely needs unsafe, the crate must opt out of the
# forbid explicitly, and every unsafe site must carry both:
#
#   * an `#[allow(unsafe_code)]` within the three lines above it, and
#   * a `// SAFETY:` comment in the same window justifying why the
#     invariants hold.
#
# Usage: ci/check_unsafe.sh [root]   (defaults to the repo root)
set -euo pipefail

root="${1:-$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)}"
cd "$root"

bad=0
while IFS=: read -r file line text; do
    # The lint name itself (`unsafe_code` in attributes, comments and this
    # script's own docs) is not an unsafe site.
    case "$text" in
    *unsafe_code*) continue ;;
    esac
    # Prose in comments and docs may legitimately say "unsafe".
    case "$(printf '%s' "$text" | sed 's/^[[:space:]]*//')" in
    "//"*) continue ;;
    esac
    from=$((line > 3 ? line - 3 : 1))
    window="$(sed -n "${from},${line}p" "$file")"
    ok=1
    grep -q 'allow(unsafe_code)' <<<"$window" || ok=0
    grep -q 'SAFETY:' <<<"$window" || ok=0
    if [ "$ok" -eq 0 ]; then
        echo "error: $file:$line: unsafe without allow(unsafe_code) + // SAFETY: justification"
        echo "    $text"
        bad=1
    fi
done < <(grep -rn --include='*.rs' --exclude-dir=target -E '\bunsafe\b' src crates tests examples vendor benchmark 2>/dev/null || true)

if [ "$bad" -ne 0 ]; then
    echo "ci/check_unsafe.sh: FAIL — document or remove the unsafe sites above"
    exit 1
fi
echo "ci/check_unsafe.sh: PASS — no undocumented unsafe in the workspace"
