#!/usr/bin/env bash
# Runs the tier-1 test suite four times: the default build, ThreadSanitizer
# (LCI_SANITIZE=thread), AddressSanitizer (LCI_SANITIZE=address), and
# UndefinedBehaviorSanitizer (LCI_SANITIZE=undefined). CI gate: every leg
# must be green. A per-leg summary table prints at the end (legs keep
# running after a failure so the table shows every result).
#
# Usage: scripts/run_tier1.sh [build-dir] [tsan-dir] [asan-dir] [ubsan-dir]
#   build-dir       default: build
#   tsan-build-dir  default: build-tsan
#   asan-build-dir  default: build-asan
#   ubsan-build-dir default: build-ubsan
#
# Environment:
#   CTEST_PARALLEL  parallel ctest jobs (default: 8)
#   CTEST_REPEAT    passed to ctest --repeat when set (e.g. until-fail:3)
#   CMAKE_ARGS      extra arguments forwarded to all cmake configures
#   LCI_TIER1_LEGS  space-separated subset of "default tsan asan ubsan"
set -uo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
tsan_dir="${2:-${repo_root}/build-tsan}"
asan_dir="${3:-${repo_root}/build-asan}"
ubsan_dir="${4:-${repo_root}/build-ubsan}"
jobs="${CTEST_PARALLEL:-8}"
repeat=()
[[ -n "${CTEST_REPEAT:-}" ]] && repeat=(--repeat "${CTEST_REPEAT}")
legs="${LCI_TIER1_LEGS:-default tsan asan ubsan}"

summary_labels=()
summary_results=()
failures=0

configure_and_test() {
  local dir="$1"
  shift
  local label="$1"
  shift
  local result="PASS"
  echo "== ${label}: configure + build (${dir})"
  # shellcheck disable=SC2086
  if cmake -S "${repo_root}" -B "${dir}" ${CMAKE_ARGS:-} "$@" &&
     cmake --build "${dir}" -j; then
    echo "== ${label}: ctest -L tier1 -j ${jobs} ${repeat[*]}"
    if ! ctest --test-dir "${dir}" -L tier1 -j "${jobs}" "${repeat[@]}" \
         --output-on-failure
    then
      result="FAIL (tests)"
    fi
  else
    result="FAIL (build)"
  fi
  [[ "${result}" == "PASS" ]] || failures=$((failures + 1))
  summary_labels+=("${label}")
  summary_results+=("${result}")
}

for leg in ${legs}; do
  case "${leg}" in
    default) configure_and_test "${build_dir}" "default" ;;
    tsan)
      configure_and_test "${tsan_dir}" "thread-sanitizer" \
        -DLCI_SANITIZE=thread
      ;;
    asan)
      configure_and_test "${asan_dir}" "address-sanitizer" \
        -DLCI_SANITIZE=address
      ;;
    ubsan)
      configure_and_test "${ubsan_dir}" "ub-sanitizer" \
        -DLCI_SANITIZE=undefined
      ;;
    *)
      echo "unknown leg: ${leg}" >&2
      exit 2
      ;;
  esac
done

echo
echo "== tier-1 summary"
printf '%-20s %s\n' "leg" "result"
printf '%-20s %s\n' "---" "------"
for i in "${!summary_labels[@]}"; do
  printf '%-20s %s\n' "${summary_labels[$i]}" "${summary_results[$i]}"
done

if [[ "${failures}" -ne 0 ]]; then
  echo "== tier-1: ${failures} leg(s) failed"
  exit 1
fi
echo "== tier-1: all legs green"
