#!/usr/bin/env bash
# sloc.sh — print the repository's code-line count: lines of non-test
# .go files outside benchmarks/, not counting the generated planner
# table (internal/plan/model_data.go), blank lines or lines that hold
# only a // comment. This is the number size targets are stated in.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -co --exclude-standard '*.go' |
    grep -v -e '_test\.go$' -e '^benchmarks/' -e '^internal/plan/model_data\.go$' |
    xargs cat | grep -cvE '^\s*(//.*)?$'
