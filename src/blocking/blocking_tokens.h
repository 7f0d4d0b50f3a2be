#ifndef CEM_BLOCKING_BLOCKING_TOKENS_H_
#define CEM_BLOCKING_BLOCKING_TOKENS_H_

#include <string>
#include <vector>

#include "data/entity.h"
#include "text/token_arena.h"

namespace cem::blocking {

/// Blocking tokens of one author reference: lower-cased last-name character
/// trigrams plus a fused first-initial|last-name-head token so abbreviated
/// references ("J. Doe") block together with full ones. This is the single
/// token definition every blocking structure shares — the candidate-pair
/// prefilter (Dataset::BuildCandidatePairs), the canopy cheap distance and
/// the MinHash signatures — so their notions of "nearby" agree. This string
/// form is the test oracle; the library tokenizes through the arena path
/// below, once per dataset (data::Dataset::blocking_index()).
std::vector<std::string> AuthorBlockingTokens(const data::Entity& entity);

/// Arena hot path: emits exactly the AuthorBlockingTokens token set into
/// `builder`. The lower-cased last name is interned once and the trigrams
/// alias slices of it, so a k-character name costs k arena bytes instead
/// of 3(k-2) heap-string bytes plus allocator overhead.
void AppendAuthorBlockingTokens(const data::Entity& entity,
                                text::TokenCorpus::DocBuilder& builder);

}  // namespace cem::blocking

#endif  // CEM_BLOCKING_BLOCKING_TOKENS_H_
