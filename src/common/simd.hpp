#pragma once

/// PLINGER_HOT builds a function twice, for the x86-64 baseline (SSE2,
/// 2 doubles per vector) and for AVX2 (4), and the loader binds it to
/// one copy per process from the CPU (GCC function multiversioning), so
/// one portable binary runs its loops 4-wide where it can.  `flatten`
/// inlines what the body calls in its own file (compute_common, the
/// neutrino rows, the stage loops), so each copy runs them at its own
/// width.
///
/// Both copies compute the same bits: the loops keep each element's
/// scalar sequence of IEEE operations, and the clone list names avx2
/// alone.  With FMA enabled (directly, through an arch= level, or with
/// AVX-512F) GCC fuses a * b + c into one rounding even under
/// -std=c++20.
///
/// The macro is empty off x86-64, off GCC (Clang's multiversioning does
/// not take function templates, and the integrators' steps are member
/// templates) and under ThreadSanitizer: the ifunc resolvers run at load
/// time, before the TSan runtime is up, and a program with one clone
/// segfaults before main.  The TSan build checks the threading on the
/// baseline copy.

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define PLINGER_HOT_CLONES 1
#define PLINGER_HOT __attribute__((target_clones("avx2", "default"), flatten))
#else
#define PLINGER_HOT
#endif

namespace plinger {

/// Which copy of the PLINGER_HOT functions this process runs: "avx2" or
/// "default", from the same CPU test the resolvers make.  Benches record
/// it, so timings from hosts that run different copies are not
/// compared blind.
inline const char* hot_copy() {
#if defined(PLINGER_HOT_CLONES)
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "default";
}

}  // namespace plinger
