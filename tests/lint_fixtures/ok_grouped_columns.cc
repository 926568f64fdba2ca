// Fixture: must lint clean under [grouped-columns] — calls that pass no
// grouped set (or an explicitly empty one), declarations and definitions of
// the entry points, and mentions in comments and strings. Never compiled;
// parsed by tools/cfest_lint.py --check-fixtures.
namespace cfest_fixture {

// Declarations and a definition name the parameter; they pass nothing.
Result<std::unique_ptr<ColumnCompressor>> MakeColumnCompressor(
    CompressionType type, const DataType& data_type,
    const CompressionOptions& options, bool grouped);
std::unique_ptr<ColumnCompressor> MakeCombinedPageCompressor(
    const DataType& data_type, bool grouped);
Result<ColumnCompressorSet> ColumnCompressorSet::Make(
    const Schema& schema, const CompressionScheme& scheme,
    const std::vector<size_t>& grouped_columns) {
  return MakeColumnCompressor(scheme.default_type, schema.column(0).type);
}

Status CompressInCallerOrder(const Schema& schema,
                             const CompressionScheme& scheme,
                             const IndexBuildOptions& options) {
  auto builder = CompressedIndexBuilder::Make(schema, scheme, options);
  auto hashed = CompressedIndexBuilder::Make(schema, scheme, options, {});
  auto set = ColumnCompressorSet::Make(schema, scheme);
  // CompressedIndexBuilder::Make(schema, scheme, options, {0}) in a comment.
  const char* doc = "ColumnCompressorSet::Make(schema, scheme, {0})";
  return Status::OK();
}

}  // namespace cfest_fixture
