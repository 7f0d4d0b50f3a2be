#ifndef CEM_CORE_MESSAGE_PASSING_H_
#define CEM_CORE_MESSAGE_PASSING_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/cover.h"
#include "core/match_set.h"
#include "core/matcher.h"
#include "core/maximal_message.h"

namespace cem::core {

/// Options shared by the sequential message-passing drivers.
struct MpOptions {
  /// Processing order of the initial active set (the schemes are provably
  /// order-invariant for well-behaved matchers — Theorem 2(3)/4 — and tests
  /// exercise that by permuting this). Ids outside [0, cover size) are
  /// ignored; an empty vector means 0..n-1.
  std::vector<uint32_t> initial_order;

  /// Hard safety cap on neighborhood evaluations (0 = the theoretical
  /// bound, see MessagePassingEngine::Drain; convergence is guaranteed for
  /// well-behaved matchers, the cap only guards buggy/non-monotone custom
  /// matchers).
  size_t max_evaluations = 0;
};

/// Work counters of message passing; deterministic for a fixed cover and
/// activation order.
struct MpWork {
  /// Neighborhood evaluations (pops of the active set).
  size_t neighborhood_evaluations = 0;
  /// Total black-box matcher invocations, exact: one Match per evaluation
  /// plus, for MMP, one MatchConditioned per COMPUTEMAXIMAL hypothesis.
  size_t matcher_calls = 0;
  /// MMP: maximal messages computed / promoted into sound matches.
  size_t messages_created = 0;
  size_t messages_promoted = 0;
};

/// Result of a message-passing run.
struct MpResult : MpWork {
  MatchSet matches;
  /// Wall-clock seconds of the run.
  double seconds = 0.0;
};

/// `skip` value of AffectedNeighborhoods that skips nothing.
inline constexpr uint32_t kNoNeighborhood = 0xffffffffu;

/// Neighbor(.) of Algorithms 1 and 3: the neighborhoods that `new_matches`
/// re-activate, sorted and unique. A neighborhood is affected by a match
/// (u, v) iff it contains *both* endpoints: evidence is conditioned on
/// C x C, so a pair with an endpoint outside C cannot change C's
/// inference. `skip` (the neighborhood that just ran — by idempotence it
/// cannot add anything to its own output) is left out.
std::vector<uint32_t> AffectedNeighborhoods(
    const CoverMembership& membership,
    const std::vector<data::EntityPair>& new_matches,
    uint32_t skip = kNoNeighborhood);

/// What step 6 does with the maximal messages of an evaluation.
enum class MessageMode {
  /// SMP: no messages are computed.
  kNone,
  /// MMP: T = (T ∪ TC)*, and step 7 promotes to fixpoint.
  kMerged,
  /// Ablation: each message is tested once, in isolation, and dropped.
  kIsolated,
};

/// The message-passing loop of Algorithms 1 (SMP) and 3 (MMP), shared by
/// the sequential drivers, the grid executor's reduce step and the
/// streaming matcher. Owns M+ (the matches so far), T (the maximal-message
/// set) and the FIFO active set A with set semantics, which grows with the
/// cover; reads the cover and its entity -> neighborhood index, both of
/// which may grow between drains (streaming) but not during one.
class MessagePassingEngine {
 public:
  /// `matcher`, `cover` and `membership` must outlive the engine, and
  /// `membership` must index `cover`. Any mode but kNone needs a
  /// ProbabilisticMatcher.
  MessagePassingEngine(const Matcher& matcher, const Cover& cover,
                       const CoverMembership& membership, MessageMode mode);

  /// Adds neighborhood `id` to the active set (a no-op if already queued).
  void Activate(uint32_t id);

  /// True when the active set is empty.
  bool idle() const { return queue_.empty(); }

  /// Evaluates active neighborhoods until the active set drains or the
  /// evaluation cap is reached: `max_evaluations`, or 0 for the
  /// theoretical n * max(k^2, 16) + 64 (Theorem 3, floored generously).
  /// Convergence is guaranteed for well-behaved matchers; a drain stopped
  /// by the cap empties the active set. `on_evaluate`, when set, runs
  /// before each evaluation with the neighborhood id. Returns this drain's
  /// work, which it also adds to the core_mp_* registry counters.
  MpWork Drain(size_t max_evaluations,
               const std::function<void(uint32_t)>& on_evaluate = {});

  /// Step 6 for one neighborhood's output: M+ ∪= MC, then the messages TC
  /// by the engine's MessageMode. Returns the pairs new to M+.
  std::vector<data::EntityPair> Absorb(const MatchSet& mc,
                                       const std::vector<MaximalMessage>& tc);

  /// Step 7: promotes sound messages of T until fixpoint, appending the
  /// pairs new to M+ to `new_matches`.
  void Promote(std::vector<data::EntityPair>& new_matches);

  /// M+.
  const MatchSet& matches() const { return matched_; }

  /// Moves M+ out; the engine is spent afterwards.
  MatchSet TakeMatches() { return std::move(matched_); }

 private:
  /// Adds message `id`'s pairs to M+ (and `new_matches`) and drops it.
  void PromoteMessage(uint32_t id, std::vector<data::EntityPair>& new_matches);

  const Matcher& matcher_;
  const ProbabilisticMatcher* probabilistic_;  // Null under kNone.
  const Cover& cover_;
  const CoverMembership& membership_;
  const MessageMode mode_;
  MatchSet matched_;           // M+
  MaximalMessageSet messages_;  // T
  std::deque<uint32_t> queue_;  // A, in FIFO order.
  std::vector<uint8_t> queued_;
  size_t messages_promoted_ = 0;
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
