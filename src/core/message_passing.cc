#include "core/message_passing.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cem::core {
namespace {

// Tolerance of the MMP step-7 test  P_E(M+ ∪ M) >= P_E(M+): tiny negative
// score deltas caused by floating-point noise still count as non-decreasing.
constexpr double kScoreEps = 1e-9;

/// Registry bump of one drain's totals, once, at its serial tail.
void BumpMpCounters(const MpWork& work) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& evaluations = registry.counter("core_mp_evaluations");
  static obs::Counter& calls = registry.counter("core_mp_matcher_calls");
  static obs::Counter& created = registry.counter("core_mp_messages_created");
  static obs::Counter& promoted =
      registry.counter("core_mp_messages_promoted");
  evaluations.Add(work.neighborhood_evaluations);
  calls.Add(work.matcher_calls);
  created.Add(work.messages_created);
  promoted.Add(work.messages_promoted);
}

/// A sequential driver: every neighborhood active (options.initial_order
/// first), drained once.
MpResult RunSequential(const Matcher& matcher, const Cover& cover,
                       const MpOptions& options, MessageMode mode) {
  Timer timer;
  const CoverMembership membership(cover);
  MessagePassingEngine engine(matcher, cover, membership, mode);
  for (uint32_t id : options.initial_order) {
    if (id < cover.size()) engine.Activate(id);
  }
  for (uint32_t id = 0; id < cover.size(); ++id) engine.Activate(id);
  MpResult result;
  MpWork& work = result;
  work = engine.Drain(options.max_evaluations);
  result.matches = engine.TakeMatches();
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

std::vector<uint32_t> AffectedNeighborhoods(
    const CoverMembership& membership,
    const std::vector<data::EntityPair>& new_matches, uint32_t skip) {
  std::vector<uint32_t> out;
  for (const data::EntityPair& p : new_matches) {
    const std::vector<uint32_t>& in_a = membership.HomesOf(p.a);
    const std::vector<uint32_t>& in_b = membership.HomesOf(p.b);
    std::set_intersection(in_a.begin(), in_a.end(), in_b.begin(), in_b.end(),
                          std::back_inserter(out));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  const auto it = std::lower_bound(out.begin(), out.end(), skip);
  if (it != out.end() && *it == skip) out.erase(it);
  return out;
}

MessagePassingEngine::MessagePassingEngine(const Matcher& matcher,
                                           const Cover& cover,
                                           const CoverMembership& membership,
                                           MessageMode mode)
    : matcher_(matcher),
      probabilistic_(dynamic_cast<const ProbabilisticMatcher*>(&matcher)),
      cover_(cover),
      membership_(membership),
      mode_(mode),
      queued_(cover.size(), 0) {
  CEM_CHECK(mode == MessageMode::kNone || probabilistic_ != nullptr)
      << "maximal messages require a Type-II (probabilistic) matcher";
}

void MessagePassingEngine::Activate(uint32_t id) {
  if (id >= queued_.size()) queued_.resize(id + 1, 0);
  if (queued_[id]) return;
  queued_[id] = 1;
  queue_.push_back(id);
}

MpWork MessagePassingEngine::Drain(
    size_t max_evaluations, const std::function<void(uint32_t)>& on_evaluate) {
  size_t cap = max_evaluations;
  if (cap == 0) {
    const size_t k = cover_.MaxNeighborhoodSize();
    cap = cover_.size() * std::max<size_t>(k * k, 16) + 64;
  }
  MpWork work;
  const size_t promoted_before = messages_promoted_;
  while (!queue_.empty()) {
    if (work.neighborhood_evaluations >= cap) {
      CEM_LOG(Warning) << "message-passing evaluation cap reached (" << cap
                       << "); matcher may not be well-behaved";
      for (uint32_t id : queue_) queued_[id] = 0;
      queue_.clear();
      break;
    }
    const uint32_t c = queue_.front();
    queue_.pop_front();
    queued_[c] = 0;
    ++work.neighborhood_evaluations;
    if (on_evaluate) on_evaluate(c);
    const std::vector<data::EntityId>& entities =
        cover_.neighborhood(c).entities;

    // Step 5: direct matches and, for MMP, maximal messages. Matcher
    // calls: the base Match plus one MatchConditioned per hypothesis
    // ComputeMaximal tests.
    const MatchSet mc = matcher_.Match(entities, matched_);
    std::vector<MaximalMessage> tc;
    size_t conditioned_runs = 0;
    if (mode_ != MessageMode::kNone) {
      tc = ComputeMaximal(matcher_, entities, matched_, mc, &conditioned_runs);
    }
    work.matcher_calls += 1 + conditioned_runs;
    work.messages_created += tc.size();

    std::vector<data::EntityPair> new_matches = Absorb(mc, tc);  // Step 6.
    Promote(new_matches);                                        // Step 7.
    // Step 8: re-activate the neighborhoods affected by anything new.
    for (uint32_t affected :
         AffectedNeighborhoods(membership_, new_matches, c)) {
      Activate(affected);
    }
  }
  work.messages_promoted = messages_promoted_ - promoted_before;
  BumpMpCounters(work);
  return work;
}

std::vector<data::EntityPair> MessagePassingEngine::Absorb(
    const MatchSet& mc, const std::vector<MaximalMessage>& tc) {
  std::vector<data::EntityPair> new_matches = mc.Difference(matched_);
  if (!new_matches.empty()) matched_.InsertAll(mc);
  for (const MaximalMessage& m : tc) {
    if (mode_ == MessageMode::kMerged) {
      messages_.Insert(m);
    } else if (probabilistic_->ScoreDelta(matched_, m) >= -kScoreEps) {
      // Ablation: no merge — each message is its own island, tested
      // immediately and dropped afterwards.
      for (const data::EntityPair& p : m) {
        if (matched_.Insert(p)) new_matches.push_back(p);
      }
      ++messages_promoted_;
    }
  }
  return new_matches;
}

void MessagePassingEngine::Promote(
    std::vector<data::EntityPair>& new_matches) {
  // Two triggers, until fixpoint:
  //  (a) a message intersecting M+ is entirely sound (Definition 8 +
  //      soundness of M+);
  //  (b) the probabilistic test P_E(M+ ∪ M) >= P_E(M+).
  bool promoted = messages_.num_live() > 0;
  while (promoted) {
    promoted = false;
    for (uint32_t id : messages_.FindIntersecting(matched_)) {
      PromoteMessage(id, new_matches);
      promoted = true;
    }
    for (uint32_t id : messages_.LiveIds()) {
      if (probabilistic_->ScoreDelta(matched_, messages_.Message(id)) >=
          -kScoreEps) {
        PromoteMessage(id, new_matches);
        promoted = true;
      }
    }
  }
}

void MessagePassingEngine::PromoteMessage(
    uint32_t id, std::vector<data::EntityPair>& new_matches) {
  for (const data::EntityPair& p : messages_.Message(id)) {
    if (matched_.Insert(p)) new_matches.push_back(p);
  }
  messages_.RemoveMessage(id);
  ++messages_promoted_;
}

MpResult RunNoMp(const Matcher& matcher, const Cover& cover) {
  Timer timer;
  MpResult result;
  for (const Neighborhood& n : cover.neighborhoods()) {
    result.matches.InsertAll(matcher.Match(n.entities));
    ++result.neighborhood_evaluations;
    ++result.matcher_calls;
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

MpResult RunSmp(const Matcher& matcher, const Cover& cover,
                const MpOptions& options) {
  return RunSequential(matcher, cover, options, MessageMode::kNone);
}

MpResult RunMmp(const ProbabilisticMatcher& matcher, const Cover& cover,
                const MpOptions& options) {
  return RunSequential(matcher, cover, options, MessageMode::kMerged);
}

MpResult RunMmpWithoutMerge(const ProbabilisticMatcher& matcher,
                            const Cover& cover, const MpOptions& options) {
  return RunSequential(matcher, cover, options, MessageMode::kIsolated);
}

}  // namespace cem::core
