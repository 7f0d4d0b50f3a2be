#ifndef CEM_TEXT_TOKEN_ARENA_H_
#define CEM_TEXT_TOKEN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "util/arena.h"
#include "util/execution_context.h"
#include "util/hash.h"

namespace cem::text {

/// One token of one document: a slice of the corpus arena plus the
/// precomputed FNV-1a base hash every downstream consumer (MinHash
/// salting, postings interning, hashed Jaccard) reuses instead of
/// re-walking the bytes.
struct TokenRef {
  const char* data = nullptr;
  uint32_t size = 0;
  /// Fnv1a64(view()), computed once at tokenisation time.
  uint64_t hash = 0;

  std::string_view view() const { return {data, size}; }
};

/// Internal per-chunk storage of TokenCorpus (defined in token_arena.cc).
struct TokenChunk;

/// Flat, arena-backed token storage for a document corpus — the hot-path
/// replacement for `std::vector<std::vector<std::string>>` token sets.
/// Token bytes live contiguously in per-chunk arenas; each document is a
/// span of TokenRef slices, normalised (lower-cased at emit time, sorted,
/// deduplicated) exactly like the historical string-vector per-document
/// form, so postings overlap counts and MinHash signatures are
/// bit-identical to the string-vector layout they replace.
///
/// Documents are grouped into fixed-size chunks (kChunkDocs). The chunk
/// boundaries depend only on the document count, so the parallel Build()
/// produces byte-identical storage for any thread count — each chunk is
/// filled by exactly one worker.
class TokenCorpus {
 public:
  /// Documents per chunk. Fixed (never derived from the thread count):
  /// chunking is part of the deterministic layout, not a scheduling knob.
  static constexpr size_t kChunkDocs = 512;

  // Special members live in the .cc: TokenChunk is incomplete here.
  TokenCorpus();
  ~TokenCorpus();
  TokenCorpus(const TokenCorpus&) = delete;
  TokenCorpus& operator=(const TokenCorpus&) = delete;
  TokenCorpus(TokenCorpus&&) noexcept;
  TokenCorpus& operator=(TokenCorpus&&) noexcept;

  /// Emission interface handed to tokenisers for one document. Tokens may
  /// alias bytes previously interned into the same document's chunk (the
  /// trigram pattern: intern the lower-cased name once, emit n-gram
  /// slices of it), so a k-character name costs k bytes, not 3(k-2).
  class DocBuilder {
   public:
    /// Copies `text` lower-cased into the arena and returns the stable
    /// storage view for later aliasing. Does not emit a token.
    std::string_view InternLower(std::string_view text);

    /// Emits a token aliasing `size` bytes at `data` — which must point
    /// into storage stable for the corpus lifetime (normally a previous
    /// InternLower result).
    void EmitAlias(const char* data, size_t size);

    /// Copies `token` (already canonical bytes) into the arena and emits.
    void Emit(std::string_view token);

    /// Lower-cases `token` into the arena and emits — the generic path
    /// for caller-supplied token sets of unknown case.
    void EmitLower(std::string_view token);

   private:
    friend class TokenCorpus;
    explicit DocBuilder(TokenChunk* chunk) : chunk_(chunk) {}
    TokenChunk* chunk_;
  };

  using TokenizeFn = std::function<void(size_t doc, DocBuilder& builder)>;

  /// Builds the corpus of `num_docs` documents by invoking `tokenize` for
  /// each, chunks in parallel on `ctx`. The result is bit-identical for
  /// any thread count. Also publishes the arena footprint to the
  /// `blocking_token_arena_bytes` gauge.
  static TokenCorpus Build(size_t num_docs, const TokenizeFn& tokenize,
                           const ExecutionContext& ctx);

  /// Appends one document serially (the streaming / incremental-index
  /// path); equivalent to a Build() that tokenised it last.
  void AppendDoc(const std::function<void(DocBuilder&)>& tokenize);

  size_t num_docs() const { return num_docs_; }
  /// Total tokens across documents, after per-document deduplication.
  size_t num_tokens() const;
  /// Bytes handed out by the token-byte arenas (the gauge's value).
  size_t arena_bytes() const;

  /// The normalised (lower-cased, sorted, unique) tokens of document `doc`.
  std::span<const TokenRef> doc(size_t doc) const;

 private:
  std::vector<std::unique_ptr<TokenChunk>> chunks_;
  size_t num_docs_ = 0;
};

}  // namespace cem::text

#endif  // CEM_TEXT_TOKEN_ARENA_H_
