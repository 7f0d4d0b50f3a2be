#include "blocking/blocking_tokens.h"

#include <algorithm>
#include <cctype>
#include <string_view>

#include "util/string_util.h"

namespace cem::blocking {

namespace {

char AsciiLower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

/// Builds the fused first-initial|last-name-head token ("j|do" for
/// "J. Doe") into `buf` (at least 4 bytes); returns its length, or 0 when
/// the reference has no first name. `name` must already be lower-cased.
size_t FusedInitialToken(const data::Entity& entity, std::string_view name,
                         char* buf) {
  if (entity.first_name.empty()) return 0;
  size_t len = 0;
  buf[len++] = AsciiLower(entity.first_name[0]);
  buf[len++] = '|';
  const size_t head = std::min<size_t>(2, name.size());
  for (size_t i = 0; i < head; ++i) buf[len++] = name[i];
  return len;
}

}  // namespace

std::vector<std::string> AuthorBlockingTokens(const data::Entity& entity) {
  std::string name = ToLower(entity.last_name);
  std::vector<std::string> grams = CharNgrams(name, 3);
  char fused[4];
  const size_t fused_len = FusedInitialToken(entity, name, fused);
  if (fused_len > 0) grams.emplace_back(fused, fused_len);
  return grams;
}

void AppendAuthorBlockingTokens(const data::Entity& entity,
                                text::TokenCorpus::DocBuilder& builder) {
  // Intern the lower-cased last name once; every trigram (CharNgrams
  // semantics: none when empty, the whole string when <= 3 chars) aliases
  // a slice of that single copy.
  const std::string_view name = builder.InternLower(entity.last_name);
  if (!name.empty()) {
    if (name.size() <= 3) {
      builder.EmitAlias(name.data(), name.size());
    } else {
      for (size_t i = 0; i + 3 <= name.size(); ++i) {
        builder.EmitAlias(name.data() + i, 3);
      }
    }
  }
  char fused[4];
  const size_t fused_len = FusedInitialToken(entity, name, fused);
  if (fused_len > 0) builder.Emit({fused, fused_len});
}

}  // namespace cem::blocking
