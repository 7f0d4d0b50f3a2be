#ifndef CEM_CORE_MESSAGE_PASSING_H_
#define CEM_CORE_MESSAGE_PASSING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cover.h"
#include "core/match_set.h"
#include "core/matcher.h"

namespace cem::core {

/// Options shared by the sequential message-passing drivers.
struct MpOptions {
  /// Processing order of the initial active set (the schemes are provably
  /// order-invariant for well-behaved matchers — Theorem 2(3)/4 — and tests
  /// exercise that by permuting this). Ids outside [0, cover size) are
  /// ignored; an empty vector means 0..n-1.
  std::vector<uint32_t> initial_order;

  /// Hard safety cap on neighborhood evaluations (0 = the theoretical
  /// bound n * k^2; convergence is guaranteed for well-behaved matchers,
  /// the cap only guards buggy/non-monotone custom matchers).
  size_t max_evaluations = 0;
};

/// Result of a message-passing run.
struct MpResult {
  MatchSet matches;
  /// Neighborhood evaluations (pops of the active set).
  size_t neighborhood_evaluations = 0;
  /// Total black-box matcher invocations, exact: one Match per evaluation
  /// plus, for MMP, one MatchConditioned per COMPUTEMAXIMAL hypothesis.
  size_t matcher_calls = 0;
  /// MMP: maximal messages computed / promoted into sound matches.
  size_t messages_created = 0;
  size_t messages_promoted = 0;
  /// Wall-clock seconds of the run.
  double seconds = 0.0;
};

/// NO-MP baseline: runs the matcher once per neighborhood with no evidence
/// and unions the results (blocking-style execution, Figure 3's "NO-MP").
MpResult RunNoMp(const Matcher& matcher, const Cover& cover);

/// SMP — Simple Message Passing (Algorithm 1). Sound, consistent and
/// convergent for well-behaved Type-I matchers (Theorem 2); linear in the
/// number of neighborhoods for bounded neighborhood size (Theorem 3).
MpResult RunSmp(const Matcher& matcher, const Cover& cover,
                const MpOptions& options = {});

/// MMP — Maximal Message Passing (Algorithm 3), for Type-II probabilistic
/// matchers. Additionally exchanges maximal messages (Definition 8),
/// merging overlaps ((T ∪ TC)*, Proposition 3) and promoting a message M to
/// sound matches when P_E(M+ ∪ M) >= P_E(M+) (step 7). Sound, consistent,
/// convergent for supermodular matchers (Theorem 4); complexity
/// O(k^4 f(k) n) (Theorem 5).
MpResult RunMmp(const ProbabilisticMatcher& matcher, const Cover& cover,
                const MpOptions& options = {});

/// Ablation: MMP with message *merging* disabled — each maximal message is
/// only ever tested in isolation, so inference chains spanning
/// neighborhoods (the paper's {(a1,a2),(b2,b3),(c2,c3)} example) are never
/// completed. Used by bench/ablation_mmp_merge.
MpResult RunMmpWithoutMerge(const ProbabilisticMatcher& matcher,
                            const Cover& cover, const MpOptions& options = {});

}  // namespace cem::core

#endif  // CEM_CORE_MESSAGE_PASSING_H_
