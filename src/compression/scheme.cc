#include "compression/scheme.h"

namespace cfest {

std::string CompressionScheme::ToString() const {
  if (per_column.empty()) return CompressionTypeName(default_type);
  std::string out = "mixed(";
  for (size_t i = 0; i < per_column.size(); ++i) {
    if (i > 0) out += ",";
    out += CompressionTypeName(per_column[i]);
  }
  out += ")";
  return out;
}

Result<ColumnCompressorSet> ColumnCompressorSet::Make(
    const Schema& schema, const CompressionScheme& scheme,
    const std::vector<size_t>& grouped_columns) {
  if (!scheme.per_column.empty() &&
      scheme.per_column.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "scheme lists " + std::to_string(scheme.per_column.size()) +
        " columns but schema has " + std::to_string(schema.num_columns()));
  }
  std::vector<bool> grouped(schema.num_columns(), false);
  for (const size_t c : grouped_columns) {
    if (c >= schema.num_columns()) {
      return Status::InvalidArgument(
          "grouped column " + std::to_string(c) + " but schema has " +
          std::to_string(schema.num_columns()) + " columns");
    }
    grouped[c] = true;
  }
  ColumnCompressorSet set;
  set.compressors_.reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    const CompressionType type =
        scheme.per_column.empty() ? scheme.default_type : scheme.per_column[i];
    CFEST_ASSIGN_OR_RETURN(
        auto compressor,
        MakeColumnCompressor(type, schema.column(i).type, scheme.options,
                             grouped[i]));
    set.compressors_.push_back(std::move(compressor));
  }
  return set;
}

uint64_t ColumnCompressorSet::AuxiliaryBytes() const {
  uint64_t total = 0;
  for (const auto& c : compressors_) total += c->AuxiliaryBytes();
  return total;
}

uint64_t ColumnCompressorSet::TotalDictionaryEntries() const {
  uint64_t total = 0;
  for (const auto& c : compressors_) total += c->TotalDictionaryEntries();
  return total;
}

Status ColumnCompressorSet::Validate() const {
  for (const auto& c : compressors_) {
    CFEST_RETURN_NOT_OK(c->Validate());
  }
  return Status::OK();
}

}  // namespace cfest
