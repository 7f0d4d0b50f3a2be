#include "data/bib_generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "util/logging.h"

namespace cem::data {
namespace {

// Syllable pools for pronounceable synthetic names.
constexpr const char* kOnsets[] = {"b",  "ch", "d",  "f",  "g",  "h",  "j",
                                   "k",  "l",  "m",  "n",  "p",  "r",  "s",
                                   "sh", "t",  "v",  "w",  "y",  "z",  "br",
                                   "st", "kr", "tr", "gl"};
constexpr const char* kVowels[] = {"a", "e", "i", "o", "u", "ai", "ou", "ee"};
constexpr const char* kCodas[] = {"",  "n", "m", "r", "l", "s",
                                  "t", "k", "ng", "rd", "ck"};

std::string MakeSyllable(Rng& rng) {
  std::string s = kOnsets[rng.NextBounded(std::size(kOnsets))];
  s += kVowels[rng.NextBounded(std::size(kVowels))];
  s += kCodas[rng.NextBounded(std::size(kCodas))];
  return s;
}

std::string MakeName(Rng& rng, int min_syllables, int max_syllables) {
  std::string name;
  const int syllables =
      static_cast<int>(rng.NextInt(min_syllables, max_syllables));
  for (int i = 0; i < syllables; ++i) name += MakeSyllable(rng);
  name[0] = static_cast<char>(std::toupper(name[0]));
  return name;
}

/// One random character edit: substitute, insert, or delete.
std::string MutateOnce(const std::string& text, Rng& rng) {
  if (text.empty()) return text;
  std::string out = text;
  const uint64_t kind = rng.NextBounded(3);
  const size_t pos = rng.NextBounded(out.size());
  const char letter = static_cast<char>('a' + rng.NextBounded(26));
  switch (kind) {
    case 0:  // substitution
      out[pos] = letter;
      break;
    case 1:  // insertion
      out.insert(out.begin() + pos, letter);
      break;
    default:  // deletion (keep at least 2 chars so names stay non-trivial)
      if (out.size() > 2) out.erase(out.begin() + pos);
      break;
  }
  return out;
}

}  // namespace

BibConfig BibConfig::HepthLike(double scale) {
  BibConfig c;
  c.num_authors = static_cast<uint32_t>(400 * scale);
  c.num_papers = static_cast<uint32_t>(1050 * scale);
  c.mean_authors_per_paper = 3.0;
  c.num_communities = std::max<uint32_t>(4, static_cast<uint32_t>(20 * scale));
  // HEPTH: abbreviated first names plus occasional typos -> heavy name
  // ambiguity; matching hinges on coauthor evidence chains.
  c.abbreviate_prob = 0.5;
  c.mutate_prob = 0.4;
  c.second_mutation_prob = 0.4;
  c.last_name_pool =
      std::max<uint32_t>(150, static_cast<uint32_t>(350 * scale));
  c.seed = 20030101;  // KDD Cup 2003 homage.
  return c;
}

BibConfig BibConfig::DblpLike(double scale) {
  BibConfig c;
  c.num_authors = static_cast<uint32_t>(450 * scale);
  c.num_papers = static_cast<uint32_t>(1000 * scale);
  c.mean_authors_per_paper = 2.6;
  c.num_communities = std::max<uint32_t>(4, static_cast<uint32_t>(30 * scale));
  // DBLP: full names, synthetic character noise (as in the paper's own
  // data preparation). Full names keep canopies small.
  c.abbreviate_prob = 0.0;
  c.mutate_prob = 0.5;
  c.second_mutation_prob = 0.45;
  c.last_name_pool =
      std::max<uint32_t>(250, static_cast<uint32_t>(600 * scale));
  c.seed = 19408;  // Paper's DBLP paper count homage.
  return c;
}

RenderedName RenderNoisyName(const BibConfig& config, const std::string& first,
                             const std::string& last, Rng& rng) {
  RenderedName out{first, last};
  if (!first.empty() && rng.NextBernoulli(config.abbreviate_prob)) {
    out.first = std::string(1, first[0]) + ".";
  }
  if (rng.NextBernoulli(config.mutate_prob)) {
    // Mutate one of the two fields; last name twice as likely (longer).
    if (rng.NextBounded(3) == 0 && out.first.size() > 1 &&
        out.first.back() != '.') {
      out.first = MutateOnce(out.first, rng);
    } else {
      out.last = MutateOnce(out.last, rng);
    }
    if (rng.NextBernoulli(config.second_mutation_prob)) {
      out.last = MutateOnce(out.last, rng);
    }
  }
  return out;
}

std::unique_ptr<Dataset> GenerateBibDataset(
    const BibConfig& config, const CandidateOptions& candidate_options,
    const ExecutionContext& ctx) {
  CEM_CHECK(config.num_authors > 0);
  CEM_CHECK(config.num_papers > 0);
  Rng rng(config.seed);
  auto dataset = std::make_unique<Dataset>();

  // 1. Clean author identities. Last names drawn from a limited pool so
  //    distinct authors collide; first names unique-ish per author.
  std::vector<std::string> last_pool;
  last_pool.reserve(config.last_name_pool);
  for (uint32_t i = 0; i < config.last_name_pool; ++i) {
    last_pool.push_back(MakeName(rng, 2, 3));
  }
  struct AuthorIdentity {
    std::string first;
    std::string last;
    uint32_t community;
  };
  std::vector<AuthorIdentity> authors;
  authors.reserve(config.num_authors);
  const uint32_t communities = std::max<uint32_t>(1, config.num_communities);
  for (uint32_t a = 0; a < config.num_authors; ++a) {
    authors.push_back({MakeName(rng, 2, 3),
                       last_pool[rng.NextBounded(last_pool.size())],
                       static_cast<uint32_t>(rng.NextBounded(communities))});
  }

  // Author productivity ranking (Zipf): productive authors appear on more
  // papers, giving the coauthor graph realistic hubs.
  std::vector<std::vector<uint32_t>> community_members(communities);
  for (uint32_t a = 0; a < config.num_authors; ++a) {
    community_members[authors[a].community].push_back(a);
  }
  // Every community needs at least one member; reassign from the largest
  // if some are empty (tiny configs).
  for (uint32_t c = 0; c < communities; ++c) {
    if (community_members[c].empty()) {
      community_members[c].push_back(rng.NextBounded(config.num_authors));
    }
  }

  auto pick_author = [&](uint32_t community) -> uint32_t {
    const std::vector<uint32_t>* pool = &community_members[community];
    if (rng.NextBernoulli(config.cross_community_prob)) {
      pool = &community_members[rng.NextBounded(communities)];
    }
    if (config.productivity_skew > 0) {
      return (*pool)[rng.NextZipf(pool->size(), config.productivity_skew)];
    }
    return (*pool)[rng.NextBounded(pool->size())];
  };

  // 2. Papers and author references.
  //
  // Reference model: a reference entity is one (author, rendered-name
  // variant) — occurrences of the exact same string are collapsed, the
  // standard exact-string dedup every bibliographic pipeline applies
  // before EM (and the model behind the paper's Figure 1, where a single
  // reference node d1 coauthors with refs on several papers). A reference
  // therefore spans all the papers its variant appears on, which is what
  // makes the reflexive coauthor grounding (shared coauthor d1) and the
  // cross-neighborhood inference chains of Section 2 possible.
  std::vector<EntityId> paper_ids;
  paper_ids.reserve(config.num_papers);
  std::map<std::pair<uint32_t, std::string>, EntityId> variant_refs;
  auto ref_of_variant = [&](uint32_t author, const RenderedName& name) {
    const auto key = std::make_pair(author, name.first + "\t" + name.last);
    auto it = variant_refs.find(key);
    if (it != variant_refs.end()) return it->second;
    const EntityId ref =
        dataset->AddAuthorRef(name.first, name.last, /*truth=*/author);
    variant_refs.emplace(key, ref);
    return ref;
  };

  // Era renderings (variant drift): an author renders consistently within
  // an era and switches rendering at era boundaries.
  struct Era {
    double until;  // Fraction of the timeline this era covers.
    RenderedName name;
  };
  std::vector<std::vector<Era>> eras(config.num_authors);
  auto era_name = [&](uint32_t author, double when) -> RenderedName {
    std::vector<Era>& timeline = eras[author];
    if (timeline.empty()) {
      int count = 1;
      if (rng.NextBernoulli(config.variant_drift)) ++count;
      if (count == 2 && rng.NextBernoulli(config.variant_drift)) ++count;
      for (int i = 0; i < count; ++i) {
        timeline.push_back(
            {static_cast<double>(i + 1) / count,
             RenderNoisyName(config, authors[author].first,
                             authors[author].last, rng)});
      }
    }
    for (const Era& era : timeline) {
      if (when <= era.until) return era.name;
    }
    return timeline.back().name;
  };

  for (uint32_t p = 0; p < config.num_papers; ++p) {
    const uint32_t community = static_cast<uint32_t>(
        rng.NextBounded(communities));
    const EntityId paper = dataset->AddPaper(
        "paper-" + std::to_string(p), 1990 + static_cast<int>(p % 25),
        /*truth=*/p);
    paper_ids.push_back(paper);

    // Geometric-ish author count with the configured mean.
    int num_slots = 1;
    const double p_more = 1.0 - 1.0 / std::max(1.0, config.mean_authors_per_paper);
    while (num_slots < 12 && rng.NextBernoulli(p_more)) ++num_slots;

    std::set<uint32_t> used;
    for (int s = 0; s < num_slots; ++s) {
      uint32_t author = pick_author(community);
      for (int tries = 0; tries < 8 && used.count(author); ++tries) {
        author = pick_author(community);
      }
      if (used.count(author)) continue;
      used.insert(author);
      // With drift enabled, the rendering is the author's era rendering;
      // otherwise every occurrence renders independently (per-slot noise).
      RenderedName name =
          config.variant_drift > 0.0
              ? era_name(author, static_cast<double>(p) / config.num_papers)
              : RenderNoisyName(config, authors[author].first,
                                authors[author].last, rng);
      if (rng.NextBernoulli(config.slot_typo_prob)) {
        name.last = MutateOnce(name.last, rng);
      }
      dataset->AddAuthored(ref_of_variant(author, name), paper);
    }
  }

  // 3. Citations to earlier papers.
  for (uint32_t p = 1; p < config.num_papers; ++p) {
    int cites = 0;
    const double p_more =
        1.0 - 1.0 / std::max(1.0, config.mean_cites_per_paper + 1.0);
    while (cites < 8 && rng.NextBernoulli(p_more)) ++cites;
    for (int c = 0; c < cites; ++c) {
      dataset->AddCites(paper_ids[p], paper_ids[rng.NextBounded(p)]);
    }
  }

  dataset->Finalize(ctx);
  dataset->BuildCandidatePairs(candidate_options, ctx);
  return dataset;
}

}  // namespace cem::data
