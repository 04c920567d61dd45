#!/usr/bin/env sh
# clang-format helper (ISSUE 7 satellite).
#
#   tools/format.sh            rewrite all tracked C++ sources in place
#   tools/format.sh --check    exit 1 if any file needs formatting (CI)
#   tools/format.sh [files..]  format (or --check) just those files
#
# Degrades gracefully: exits 0 with a notice when clang-format is not
# installed (the format-check CI step provides it).
set -eu
cd "$(dirname "$0")/.."

CLANG_FORMAT="${CLANG_FORMAT:-clang-format}"
if ! command -v "$CLANG_FORMAT" >/dev/null 2>&1; then
  echo "format.sh: $CLANG_FORMAT not found; skipping (CI enforces format)"
  exit 0
fi

MODE=write
if [ "${1:-}" = "--check" ]; then
  MODE=check
  shift
fi

if [ "$#" -gt 0 ]; then
  FILES="$*"
else
  # Default scope: the files the ISSUE 7 formatting pass covered (the
  # concurrency layer + linter). Widen as more of the tree is formatted;
  # pass explicit paths to format anything else.
  FILES=$(git ls-files \
      'src/common/thread_annotations.h' 'src/common/thread_pool.*' \
      'src/common/sharded_executor.*' 'src/common/failpoint.cpp' \
      'src/common/logging.cpp' 'src/server/*.cpp' 'src/server/*.h' \
      'src/services/search/query_cache.*' 'tools/atlint/*.cpp')
fi

if [ "$MODE" = "check" ]; then
  # --dry-run --Werror: non-zero exit on any file that would change.
  # shellcheck disable=SC2086
  $CLANG_FORMAT --dry-run --Werror $FILES
  echo "format.sh: all files clean"
else
  # shellcheck disable=SC2086
  $CLANG_FORMAT -i $FILES
  echo "format.sh: formatted"
fi
