#include <algorithm>

#include "bench.h"
#include "oql/parser.h"
#include "translate/query_translator.h"

namespace servebench {

uint64_t RowsDigest(const Rows& rows) {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const std::vector<sqo::Value>& row : rows) {
    std::string line;
    for (const sqo::Value& v : row) {
      line += v.ToString();
      line += '\x1f';
    }
    rendered.push_back(std::move(line));
  }
  std::sort(rendered.begin(), rendered.end());
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  for (const std::string& line : rendered) {
    for (unsigned char c : line) {
      hash = (hash ^ c) * 1099511628211ULL;
    }
    hash = (hash ^ 0x1e) * 1099511628211ULL;
  }
  return hash;
}

sqo::Status Oracle::Build(const sqo::core::Pipeline& pipeline,
                          const sqo::engine::Database& primary,
                          const std::vector<std::string>& queries) {
  for (const std::string& text : queries) {
    SQO_ASSIGN_OR_RETURN(sqo::oql::SelectQuery parsed, sqo::oql::ParseOql(text));
    SQO_ASSIGN_OR_RETURN(sqo::translate::TranslatedQuery translated,
                         sqo::translate::TranslateQuery(pipeline.schema(), parsed));
    SQO_ASSIGN_OR_RETURN(Rows rows, primary.Run(translated.query));
    expected_[text] = RowsDigest(rows);
  }
  return sqo::Status::Ok();
}

void Oracle::Corrupt(const std::string& query) { expected_[query] ^= 1; }

bool Oracle::Check(const std::string& query, const Rows& rows) const {
  auto it = expected_.find(query);
  return it != expected_.end() && it->second == RowsDigest(rows);
}

}  // namespace servebench
