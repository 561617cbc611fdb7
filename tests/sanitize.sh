#!/usr/bin/env bash
# Sanitizer sweep over the test suite.
#
#   tests/sanitize.sh
#
# It runs two halves:
# asan: ASan + UBSan (-fno-sanitize-recover=undefined,
#       -D_GLIBCXX_ASSERTIONS) in build-asan/, running test_math,
#       test_boltzmann, test_integrator and test_golden: the Runge-Kutta
#       stage kernel and the hierarchy streams, whose pointers are
#       __restrict__, run there.
# tsan: ThreadSanitizer in build-tsan/, running the parallel, transport,
#       serve, store and run ctest slices (their bench --smoke runs
#       included): worker pools, socket threads, the daemon and the
#       journal.
#
# Both trees are RelWithDebInfo builds at the repository root
# (git-ignored), so they compile the hot path with the same vectorizer
# flags as a release build.  ASan and TSan reports go to files under
# <build>/sanitizer-reports/, child processes included; UBSan errors
# are fatal and print to the failing test's output.  The script exits
# non-zero when a test fails or any report was written.  Builds and
# ctest use one job per available CPU.
set -uo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
JOBS=$(nproc)
status=0

# configure_and_build <dir> <cxx flags> <targets...>
configure_and_build() {
  local dir=$1 flags=$2
  shift 2
  cmake -S "$ROOT" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        "-DCMAKE_CXX_FLAGS=$flags" >/dev/null &&
    cmake --build "$dir" -j "$JOBS" --target "$@"
}

# check_reports <dir> <label>: fail on any report file under <dir>.
check_reports() {
  local reports
  reports=$(find "$1" -type f 2>/dev/null)
  if [[ -n $reports ]]; then
    echo "sanitize: $2 wrote $(wc -l <<<"$reports") report(s):"
    cat $reports
    status=1
  else
    echo "sanitize: $2 clean"
  fi
}

run_asan() {
  local dir=$ROOT/build-asan reports=$ROOT/build-asan/sanitizer-reports
  local tests=(test_math test_boltzmann test_integrator test_golden)
  configure_and_build "$dir" \
    "-g -fsanitize=address,undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
    "${tests[@]}" || { echo "sanitize: asan build failed"; status=1; return; }
  rm -rf "$reports" && mkdir -p "$reports"
  for t in "${tests[@]}"; do
    ASAN_OPTIONS=log_path=$reports/asan UBSAN_OPTIONS=print_stacktrace=1 \
      "$dir/tests/$t" --gtest_brief=1 || { echo "sanitize: $t failed"; status=1; }
  done
  check_reports "$reports" "ASan+UBSan"
}

run_tsan() {
  local dir=$ROOT/build-tsan reports=$ROOT/build-tsan/sanitizer-reports
  configure_and_build "$dir" "-fsanitize=thread" \
    test_mp test_plinger test_store test_trace test_fault test_transport \
    plinger_worker test_serve test_run test_integration \
    bench_batch bench_serve bench_transport ||
    { echo "sanitize: tsan build failed"; status=1; return; }
  rm -rf "$reports" && mkdir -p "$reports"
  TSAN_OPTIONS=log_path=$reports/tsan:second_deadlock_stack=1 \
    ctest --test-dir "$dir" -L 'parallel|transport|serve|store|run' \
          --output-on-failure -j "$JOBS" ||
    { echo "sanitize: tsan ctest failed"; status=1; }
  check_reports "$reports" "TSan"
}

run_asan
run_tsan
exit $status
