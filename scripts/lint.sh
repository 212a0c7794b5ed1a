#!/usr/bin/env bash
# Lint: the repo's static-analysis gate, used verbatim by CI and locally.
#
#   1. go vet (stock toolchain checks);
#   2. dfvet — the project's own go/analysis-style suite (determinism,
#      jsonfloat, ctxflow, hotpath, optvalidate, deadexport; see
#      cmd/dfvet). deadexport fails on an exported package-level symbol
#      of an internal/ package that only tests reference, counting
#      references from this module and from perfbench/;
#   3. a dead-package check: every package under internal/ must be
#      imported by a non-test package of the module, except test-helper
#      packages (name ending in "test", e.g. internal/analysis/
#      analysistest), which must be imported by some test;
#   4. staticcheck (honnef.co/go/tools), pinned by STATICCHECK_VERSION
#      with repo-tracked configuration in staticcheck.conf.
#
# staticcheck is not vendored and the sandbox has no network, so the
# step runs when either (a) a staticcheck binary is already on PATH, or
# (b) RUN_STATICCHECK=1 is set (CI), in which case the pinned version is
# fetched with `go run`. Locally without the binary it is skipped with a
# notice — dfvet and vet still run, and CI remains the backstop.
#
# Usage:
#   scripts/lint.sh              # vet + dfvet (+ staticcheck if available)
#   RUN_STATICCHECK=1 scripts/lint.sh   # force the pinned staticcheck (CI)
set -euo pipefail

cd "$(dirname "$0")/.."

STATICCHECK_VERSION="${STATICCHECK_VERSION:-2025.1.1}"

echo "==> go vet ./..."
go vet ./...

echo "==> dfvet ./..."
go run ./cmd/dfvet ./...

echo "==> dead internal packages"
imported=$(go list -f '{{join .Imports "\n"}}' ./... | sort -u)
test_imported=$(go list -f '{{join .TestImports "\n"}}
{{join .XTestImports "\n"}}' ./... | sort -u)
dead=()
for pkg in $(go list ./internal/...); do
  case "$pkg" in
    *test) grep -qxF "$pkg" <<<"$test_imported" || dead+=("$pkg") ;;
    *) grep -qxF "$pkg" <<<"$imported" || dead+=("$pkg") ;;
  esac
done
if ((${#dead[@]})); then
  echo "lint: internal packages nothing imports: ${dead[*]}" >&2
  exit 1
fi

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck ./... ($(staticcheck -version 2>/dev/null | head -1))"
  staticcheck ./...
elif [[ "${RUN_STATICCHECK:-0}" == "1" ]]; then
  echo "==> staticcheck ./... (honnef.co/go/tools@${STATICCHECK_VERSION})"
  go run "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" ./...
else
  echo "==> staticcheck skipped (no binary on PATH and RUN_STATICCHECK unset)"
fi

echo "lint ok"
