#include "mln/map_inference.h"

#include <algorithm>

#include "graph/max_flow.h"
#include "util/epoch_set.h"
#include "util/logging.h"

namespace cem::mln {
namespace {

/// Clamp states of a variable inside one inference call.
enum class Clamp : uint8_t { kFree, kOne, kZero };

/// The induced subproblem: variables (candidate pairs fully inside C),
/// their clamp states and induced unary weights, and the induced links.
struct Induced {
  std::vector<data::PairId> vars;                 // All in-C candidate pairs.
  std::vector<Clamp> clamp;
  std::vector<double> theta;                      // Induced unary weight.
  // Links between in-C variables, each unordered link once (i < j by
  // position).
  std::vector<std::pair<int, int>> links;
};

/// One thread's scratch for a neighborhood solve: membership stamps for
/// the entities of C and for its candidate pairs, each in-C pair's
/// position in `induced.vars`, and the solver's reusable buffers. Every
/// entry point below starts by resetting it, so they must not nest.
struct Scratch {
  EpochSet members;
  EpochSet pairs;
  std::vector<int> position;  // PairId -> index in vars, where `pairs` has it.
  Induced induced;
  std::vector<int> free_index;
  std::vector<double> free_theta;
  std::vector<std::pair<int, int>> free_links;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Stamps the members of C and empties the variable set.
void BeginNeighborhood(const PairGraph& graph,
                       std::span<const data::EntityId> members, Scratch& s) {
  s.members.Reset(graph.num_entities());
  for (data::EntityId e : members) {
    CEM_CHECK(e < graph.num_entities()) << "entity " << e << " out of range";
    s.members.Insert(e);
  }
  s.pairs.Reset(graph.num_nodes());
  if (s.position.size() < graph.num_nodes()) {
    s.position.resize(graph.num_nodes());
  }
  s.induced.vars.clear();
}

void AddVar(data::PairId id, Scratch& s) {
  if (!s.pairs.Insert(id)) return;
  s.position[id] = static_cast<int>(s.induced.vars.size());
  s.induced.vars.push_back(id);
}

/// Collects the candidate pairs fully inside C, each once, from the
/// members' pair lists.
void CollectInducedPairs(const data::Dataset& dataset, const PairGraph& graph,
                         std::span<const data::EntityId> members,
                         Scratch& s) {
  BeginNeighborhood(graph, members, s);
  for (data::EntityId e : members) {
    for (data::PairId id : dataset.PairsOfEntity(e)) {
      const data::EntityPair p = graph.node(id).pair;
      // Each pair is seen from both endpoints; take it from the smaller.
      if (p.a == e && s.members.Contains(p.b)) AddVar(id, s);
    }
  }
}

/// Fills clamps, induced unary weights and induced links of the collected
/// variables.
void BuildInduced(const PairGraph& graph, const MlnWeights& weights,
                  const core::MatchSet& positive,
                  const core::MatchSet& negative, Scratch& s) {
  Induced& induced = s.induced;
  const size_t n = induced.vars.size();
  induced.clamp.assign(n, Clamp::kFree);
  induced.theta.assign(n, 0.0);
  induced.links.clear();

  for (size_t i = 0; i < n; ++i) {
    const PairGraph::Node& node = graph.node(induced.vars[i]);
    if (negative.Contains(node.pair)) {
      induced.clamp[i] = Clamp::kZero;
    } else if (positive.Contains(node.pair)) {
      induced.clamp[i] = Clamp::kOne;
    }
    // Induced unary: similarity rule + reflexive groundings whose shared
    // coauthor lies inside C.
    double theta = weights.SimWeight(node.level);
    for (data::EntityId c : node.shared_coauthors) {
      if (s.members.Contains(c)) theta += weights.w_coauthor;
    }
    induced.theta[i] = theta;
  }

  // Induced links. A link {p, q} is inside C iff q is an in-C variable
  // (p already is); record once per unordered link.
  for (size_t i = 0; i < n; ++i) {
    const PairGraph::Node& node = graph.node(induced.vars[i]);
    for (data::PairId q : node.links) {
      if (!s.pairs.Contains(q)) continue;
      const int j = s.position[q];
      if (static_cast<int>(i) < j) induced.links.emplace_back(i, j);
    }
  }
}

}  // namespace

double InducedScore(const data::Dataset& dataset, const PairGraph& graph,
                    const MlnWeights& weights,
                    std::span<const data::EntityId> members,
                    const core::MatchSet& matches) {
  Scratch& s = ThreadScratch();
  CollectInducedPairs(dataset, graph, members, s);
  BuildInduced(graph, weights, /*positive=*/core::MatchSet(),
               /*negative=*/core::MatchSet(), s);
  const Induced& induced = s.induced;
  double score = 0.0;
  std::vector<bool> x(induced.vars.size(), false);
  for (size_t i = 0; i < induced.vars.size(); ++i) {
    x[i] = matches.Contains(graph.node(induced.vars[i]).pair);
    if (x[i]) score += induced.theta[i];
  }
  for (const auto& [i, j] : induced.links) {
    if (x[i] && x[j]) score += weights.w_coauthor;
  }
  return score;
}

core::MatchSet SolveNeighborhoodMap(
    const data::Dataset& dataset, const PairGraph& graph,
    const MlnWeights& weights, std::span<const data::EntityId> members,
    const core::MatchSet& positive, const core::MatchSet& negative,
    InferenceStats* stats) {
  Scratch& s = ThreadScratch();
  CollectInducedPairs(dataset, graph, members, s);
  BuildInduced(graph, weights, positive, negative, s);
  const Induced& induced = s.induced;
  const size_t n = induced.vars.size();

  // Fold clamped variables into the free subproblem.
  std::vector<int>& free_index = s.free_index;
  free_index.assign(n, -1);
  int num_free = 0;
  for (size_t i = 0; i < n; ++i) {
    if (induced.clamp[i] == Clamp::kFree) free_index[i] = num_free++;
  }
  std::vector<double>& theta = s.free_theta;
  theta.assign(num_free, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (free_index[i] >= 0) theta[free_index[i]] = induced.theta[i];
  }
  std::vector<std::pair<int, int>>& free_links = s.free_links;
  free_links.clear();
  for (const auto& [i, j] : induced.links) {
    const Clamp ci = induced.clamp[i];
    const Clamp cj = induced.clamp[j];
    if (ci == Clamp::kFree && cj == Clamp::kFree) {
      free_links.emplace_back(free_index[i], free_index[j]);
    } else if (ci == Clamp::kFree && cj == Clamp::kOne) {
      theta[free_index[i]] += weights.w_coauthor;
    } else if (cj == Clamp::kFree && ci == Clamp::kOne) {
      theta[free_index[j]] += weights.w_coauthor;
    }
    // Links to clamped-zero variables never fire.
  }

  if (stats != nullptr) {
    stats->num_variables = static_cast<size_t>(num_free);
    stats->num_clamped = n - static_cast<size_t>(num_free);
    stats->num_edges = free_links.size();
  }

  // Maximise sum(theta_i x_i) + sum(w x_i x_j)  ==  min-cut (see DESIGN.md).
  std::vector<bool> on_source_side;
  if (num_free > 0) {
    const double w = weights.w_coauthor;
    CEM_CHECK(w >= 0.0) << "attractive coauthor weight required for exact "
                           "graph-cut inference";
    // c_i = -theta_i - (w/2) * degree_i ; pairwise w/2 both ways. The
    // costs overwrite theta in place.
    std::vector<double>& c = theta;
    for (int i = 0; i < num_free; ++i) c[i] = -c[i];
    for (const auto& [i, j] : free_links) {
      c[i] -= w / 2.0;
      c[j] -= w / 2.0;
    }
    graph::MaxFlow flow(num_free + 2);
    const int source = num_free;
    const int sink = num_free + 1;
    for (int i = 0; i < num_free; ++i) {
      if (c[i] > 0) {
        flow.AddEdge(i, sink, c[i]);
      } else if (c[i] < 0) {
        flow.AddEdge(source, i, -c[i]);
      }
    }
    for (const auto& [i, j] : free_links) {
      flow.AddEdge(i, j, w / 2.0, w / 2.0);
    }
    flow.Solve(source, sink);
    on_source_side = flow.SinkUnreachableSet();
  }

  core::MatchSet out;
  for (size_t i = 0; i < n; ++i) {
    if (induced.clamp[i] == Clamp::kOne ||
        (free_index[i] >= 0 && on_source_side[free_index[i]])) {
      out.Insert(graph.node(induced.vars[i]).pair);
    }
  }
  return out;
}

core::MatchSet BruteForceMap(const PairGraph& graph, const MlnWeights& weights,
                             std::span<const data::EntityId> members,
                             const core::MatchSet& positive,
                             const core::MatchSet& negative) {
  Scratch& s = ThreadScratch();
  BeginNeighborhood(graph, members, s);
  // Independent of the graph-cut solver's collection path: scan every
  // candidate pair of the graph for both endpoints inside C.
  for (data::PairId id = 0; id < graph.num_nodes(); ++id) {
    const data::EntityPair p = graph.node(id).pair;
    if (s.members.Contains(p.a) && s.members.Contains(p.b)) AddVar(id, s);
  }
  BuildInduced(graph, weights, positive, negative, s);
  const Induced& induced = s.induced;
  const size_t n = induced.vars.size();

  std::vector<int> free_vars;
  for (size_t i = 0; i < n; ++i) {
    if (induced.clamp[i] == Clamp::kFree) free_vars.push_back(static_cast<int>(i));
  }
  CEM_CHECK(free_vars.size() <= 25) << "brute force limited to 25 variables";

  std::vector<bool> x(n, false);
  for (size_t i = 0; i < n; ++i) x[i] = induced.clamp[i] == Clamp::kOne;

  auto score_of = [&](const std::vector<bool>& assignment) {
    double score = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (assignment[i]) score += induced.theta[i];
    }
    for (const auto& [i, j] : induced.links) {
      if (assignment[i] && assignment[j]) score += weights.w_coauthor;
    }
    return score;
  };

  double best_score = -1e300;
  size_t best_size = 0;
  std::vector<bool> best = x;
  const uint64_t limit = 1ull << free_vars.size();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    std::vector<bool> assignment = x;
    size_t size = 0;
    for (size_t k = 0; k < free_vars.size(); ++k) {
      assignment[free_vars[k]] = (mask >> k) & 1;
    }
    for (size_t i = 0; i < n; ++i) size += assignment[i] ? 1 : 0;
    const double score = score_of(assignment);
    // Largest most-likely set: better score wins; equal score prefers the
    // larger set (tolerance guards float ties).
    if (score > best_score + 1e-9 ||
        (score > best_score - 1e-9 && size > best_size)) {
      best_score = score;
      best_size = size;
      best = assignment;
    }
  }

  core::MatchSet out;
  for (size_t i = 0; i < n; ++i) {
    if (best[i]) out.Insert(graph.node(induced.vars[i]).pair);
  }
  return out;
}

std::vector<data::EntityPair> EntangledPairsOf(
    const data::Dataset& dataset, const PairGraph& graph,
    std::span<const data::EntityId> members, const core::MatchSet& evidence,
    const core::MatchSet& base) {
  Scratch& s = ThreadScratch();
  BeginNeighborhood(graph, members, s);
  auto unresolved = [&](data::PairId id) {
    const data::EntityPair p = graph.node(id).pair;
    return s.members.Contains(p.a) && s.members.Contains(p.b) &&
           !base.Contains(p) && !evidence.Contains(p);
  };

  std::vector<data::EntityPair> out;
  for (data::EntityId e : members) {
    for (data::PairId id : dataset.PairsOfEntity(e)) {
      const data::EntityPair p = graph.node(id).pair;
      if (p.a != e || !unresolved(id)) continue;
      for (data::PairId q : graph.node(id).links) {
        if (unresolved(q)) {
          out.push_back(p);
          break;
        }
      }
    }
  }
  // Duplicate members would list a pair twice.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace cem::mln
