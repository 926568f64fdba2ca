// Fixture: trips [grouped-columns] — only the code that owns the rows' sort
// (src/index/index.cc, src/estimator/sample_cf.cc) may declare a column
// grouped, since a false declaration silently over-counts dictionary
// entries. Never compiled; parsed by tools/cfest_lint.py --check-fixtures.
namespace cfest_fixture {

Status CompressUnsortedRows(const Schema& schema,
                            const CompressionScheme& scheme,
                            const Index& index) {
  // finding: a grouped set passed to the builder from elsewhere
  auto builder = CompressedIndexBuilder::Make(schema, scheme, {}, {0});
  // finding: the same, qualified and spread over lines
  auto other = cfest::CompressedIndexBuilder::Make(
      index.schema(), scheme, IndexBuildOptions{},
      index.GroupedColumns());
  // finding: the compression layer's entry points below the builder
  auto set = ColumnCompressorSet::Make(schema, scheme, {1});
  auto column = MakeColumnCompressor(CompressionType::kDictionaryPage,
                                     Int64Type(), {}, true);
  return Status::OK();
}

}  // namespace cfest_fixture
