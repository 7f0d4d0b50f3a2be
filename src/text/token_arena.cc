#include "text/token_arena.h"

#include <algorithm>
#include <cctype>

#include "obs/metrics.h"
#include "util/logging.h"

namespace cem::text {

/// One chunk: the token-byte arena plus the SoA token table of up to
/// kChunkDocs documents. Exactly one Build() worker fills a chunk, so no
/// member needs synchronisation.
struct TokenChunk {
  /// Small blocks: a chunk's token bytes are a few KiB (trigrams alias one
  /// interned name), and a dataset keeps its corpus for its lifetime.
  Arena arena{4096};
  std::vector<TokenRef> tokens;
  /// doc_begin[i] is the first token of local document i; one extra entry
  /// closes the last document.
  std::vector<uint32_t> doc_begin{0};
};

namespace {

/// Sorts the open document's tokens lexicographically and drops duplicate
/// strings — the canonical per-document form (matches the historical
/// string token-set normalisation, so overlap counts stay bit-identical).
void FinishDoc(TokenChunk& chunk) {
  const auto begin = chunk.tokens.begin() + chunk.doc_begin.back();
  const auto end = chunk.tokens.end();
  std::sort(begin, end, [](const TokenRef& a, const TokenRef& b) {
    return a.view() < b.view();
  });
  const auto last = std::unique(
      begin, end,
      [](const TokenRef& a, const TokenRef& b) { return a.view() == b.view(); });
  chunk.tokens.erase(last, chunk.tokens.end());
  chunk.doc_begin.push_back(static_cast<uint32_t>(chunk.tokens.size()));
}

char AsciiLower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

}  // namespace

std::string_view TokenCorpus::DocBuilder::InternLower(std::string_view text) {
  char* dst = chunk_->arena.AllocateBytes(text.size());
  for (size_t i = 0; i < text.size(); ++i) dst[i] = AsciiLower(text[i]);
  return {dst, text.size()};
}

void TokenCorpus::DocBuilder::EmitAlias(const char* data, size_t size) {
  chunk_->tokens.push_back({data, static_cast<uint32_t>(size),
                            Fnv1a64({data, size})});
}

void TokenCorpus::DocBuilder::Emit(std::string_view token) {
  const std::string_view stored = chunk_->arena.CopyString(token);
  chunk_->tokens.push_back({stored.data(), static_cast<uint32_t>(stored.size()),
                            Fnv1a64(stored)});
}

void TokenCorpus::DocBuilder::EmitLower(std::string_view token) {
  const std::string_view stored = InternLower(token);
  chunk_->tokens.push_back({stored.data(), static_cast<uint32_t>(stored.size()),
                            Fnv1a64(stored)});
}

TokenCorpus::TokenCorpus() = default;
TokenCorpus::~TokenCorpus() = default;
TokenCorpus::TokenCorpus(TokenCorpus&&) noexcept = default;
TokenCorpus& TokenCorpus::operator=(TokenCorpus&&) noexcept = default;

TokenCorpus TokenCorpus::Build(size_t num_docs, const TokenizeFn& tokenize,
                               const ExecutionContext& ctx) {
  TokenCorpus corpus;
  corpus.num_docs_ = num_docs;
  const size_t num_chunks = (num_docs + kChunkDocs - 1) / kChunkDocs;
  corpus.chunks_.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    corpus.chunks_.push_back(std::make_unique<TokenChunk>());
  }
  // One worker per chunk: chunk contents depend only on (doc range,
  // tokenize), never on scheduling, so the layout is thread-count-proof.
  ParallelFor(ctx.pool(), num_chunks, [&](size_t c) {
    TokenChunk& chunk = *corpus.chunks_[c];
    const size_t begin = c * kChunkDocs;
    const size_t end = std::min(num_docs, begin + kChunkDocs);
    chunk.doc_begin.reserve(end - begin + 1);
    DocBuilder builder(&chunk);
    for (size_t doc = begin; doc < end; ++doc) {
      tokenize(doc, builder);
      FinishDoc(chunk);
    }
    chunk.tokens.shrink_to_fit();
  });
  static obs::Gauge& arena_gauge =
      obs::MetricsRegistry::Global().gauge("blocking_token_arena_bytes");
  arena_gauge.Set(static_cast<double>(corpus.arena_bytes()));
  return corpus;
}

void TokenCorpus::AppendDoc(const std::function<void(DocBuilder&)>& tokenize) {
  if (num_docs_ % kChunkDocs == 0) {
    chunks_.push_back(std::make_unique<TokenChunk>());
  }
  TokenChunk& chunk = *chunks_.back();
  DocBuilder builder(&chunk);
  tokenize(builder);
  FinishDoc(chunk);
  ++num_docs_;
}

size_t TokenCorpus::num_tokens() const {
  size_t total = 0;
  for (const auto& chunk : chunks_) total += chunk->tokens.size();
  return total;
}

size_t TokenCorpus::arena_bytes() const {
  size_t total = 0;
  for (const auto& chunk : chunks_) total += chunk->arena.bytes_allocated();
  return total;
}

std::span<const TokenRef> TokenCorpus::doc(size_t doc) const {
  CEM_CHECK(doc < num_docs_) << "document id out of range";
  const TokenChunk& chunk = *chunks_[doc / kChunkDocs];
  const size_t local = doc % kChunkDocs;
  const uint32_t begin = chunk.doc_begin[local];
  const uint32_t end = chunk.doc_begin[local + 1];
  return {chunk.tokens.data() + begin, end - begin};
}

}  // namespace cem::text
