#include "data/tsv_io.h"

#include <charconv>
#include <fstream>
#include <optional>
#include <string_view>
#include <vector>

#include "util/string_util.h"

namespace cem::data {
namespace {

// Record kinds in the TSV stream.
constexpr char kAuthorTag[] = "A";
constexpr char kPaperTag[] = "P";
constexpr char kAuthoredTag[] = "W";  // "wrote"
constexpr char kCitesTag[] = "C";

// All of `field` as a base-10 number of type T; nullopt when it is not one
// or does not fit T.
template <typename T>
std::optional<T> ParseNumber(std::string_view field) {
  T value{};
  const char* const end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

Status SaveDatasetTsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return InvalidArgumentError("cannot open for writing: " + path);
  for (const Entity& e : dataset.entities()) {
    if (e.type == EntityType::kAuthorRef) {
      out << kAuthorTag << '\t' << e.id << '\t' << e.first_name << '\t'
          << e.last_name << '\t' << static_cast<int64_t>(e.truth) << '\n';
    } else {
      out << kPaperTag << '\t' << e.id << '\t' << e.title << '\t' << e.year
          << '\t' << static_cast<int64_t>(e.truth) << '\n';
    }
  }
  for (const Entity& e : dataset.entities()) {
    if (e.type != EntityType::kAuthorRef) continue;
    for (EntityId paper : dataset.authored().Neighbors(e.id)) {
      out << kAuthoredTag << '\t' << e.id << '\t' << paper << '\n';
    }
  }
  for (const Entity& e : dataset.entities()) {
    if (e.type != EntityType::kPaper) continue;
    for (EntityId to : dataset.cites().Neighbors(e.id)) {
      out << kCitesTag << '\t' << e.id << '\t' << to << '\n';
    }
  }
  if (!out.good()) return InternalError("write failed: " + path);
  return OkStatus();
}

Result<std::unique_ptr<Dataset>> LoadDatasetTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return InvalidArgumentError("cannot open for reading: " + path);
  auto dataset = std::make_unique<Dataset>();
  auto bad = [&path](size_t line_no, const std::string& why) {
    return InvalidArgumentError(path + ":" + std::to_string(line_no) + ": " +
                                why);
  };
  // Entity ids in the file must be dense and in insertion order; we verify.
  std::string line;
  size_t line_no = 0;
  // Relation tuples are buffered until all entities exist.
  struct Tuple {
    EntityId from;
    EntityId to;
    size_t line_no;
  };
  std::vector<Tuple> authored_tuples;
  std::vector<Tuple> cites_tuples;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields[0] == kAuthorTag || fields[0] == kPaperTag) {
      const bool author = fields[0] == kAuthorTag;
      if (fields.size() != 5) {
        return bad(line_no, std::string(author ? "author" : "paper") +
                                " record needs 5 fields");
      }
      const std::optional<EntityId> file_id = ParseNumber<EntityId>(fields[1]);
      const std::optional<uint32_t> truth = ParseNumber<uint32_t>(fields[4]);
      const std::optional<int> year =
          author ? std::optional<int>(0) : ParseNumber<int>(fields[3]);
      if (!file_id || !truth || !year) {
        return bad(line_no, "bad number in record");
      }
      if (*file_id != dataset->num_entities()) {
        return bad(line_no, "non-dense entity id");
      }
      if (author) {
        dataset->AddAuthorRef(fields[2], fields[3], *truth);
      } else {
        dataset->AddPaper(fields[2], *year, *truth);
      }
    } else if (fields[0] == kAuthoredTag || fields[0] == kCitesTag) {
      if (fields.size() != 3) return bad(line_no, "tuple needs 3 fields");
      const std::optional<EntityId> from = ParseNumber<EntityId>(fields[1]);
      const std::optional<EntityId> to = ParseNumber<EntityId>(fields[2]);
      if (!from || !to) return bad(line_no, "bad entity id in tuple");
      (fields[0] == kAuthoredTag ? authored_tuples : cites_tuples)
          .push_back({*from, *to, line_no});
    } else {
      return bad(line_no, "unknown record tag '" + fields[0] + "'");
    }
  }
  const auto is = [&](EntityId id, EntityType type) {
    return id < dataset->num_entities() && dataset->entity(id).type == type;
  };
  for (const Tuple& t : authored_tuples) {
    if (!is(t.from, EntityType::kAuthorRef) || !is(t.to, EntityType::kPaper)) {
      return bad(t.line_no,
                 "authored tuple must link an author ref to a paper");
    }
    dataset->AddAuthored(t.from, t.to);
  }
  for (const Tuple& t : cites_tuples) {
    if (!is(t.from, EntityType::kPaper) || !is(t.to, EntityType::kPaper)) {
      return bad(t.line_no, "cites tuple must link two papers");
    }
    dataset->AddCites(t.from, t.to);
  }
  dataset->Finalize();
  return dataset;
}

}  // namespace cem::data
