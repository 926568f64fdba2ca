#include "index/index.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "compression/kernels.h"

namespace cfest {
namespace {

constexpr const char* kRidColumnName = "__rid";

/// Builds the index-row schema and the mapping from index column to source
/// table column (SIZE_MAX marks the synthetic __rid column).
Status PlanIndexSchema(const Table& table, const IndexDescriptor& descriptor,
                       Schema* schema, std::vector<size_t>* source_columns) {
  if (descriptor.key_columns.empty()) {
    return Status::InvalidArgument("index " + descriptor.name +
                                   " has no key columns");
  }
  std::vector<Column> columns;
  std::vector<size_t> sources;
  std::vector<bool> used(table.schema().num_columns(), false);
  for (const std::string& name : descriptor.key_columns) {
    CFEST_ASSIGN_OR_RETURN(size_t idx, table.schema().ColumnIndex(name));
    if (used[idx]) {
      return Status::InvalidArgument("duplicate key column " + name);
    }
    used[idx] = true;
    columns.push_back(table.schema().column(idx));
    sources.push_back(idx);
  }
  if (descriptor.clustered) {
    for (size_t i = 0; i < table.schema().num_columns(); ++i) {
      if (!used[i]) {
        columns.push_back(table.schema().column(i));
        sources.push_back(i);
      }
    }
  } else {
    columns.push_back(Column{kRidColumnName, Int64Type()});
    sources.push_back(SIZE_MAX);
  }
  CFEST_ASSIGN_OR_RETURN(*schema, Schema::Make(std::move(columns)));
  *source_columns = std::move(sources);
  return Status::OK();
}

/// Rows the projection looks up ahead of the one it copies. Sample rows are
/// scattered over the base table's heap, so every row is a cache miss; this
/// many in flight hides most of the latency.
constexpr uint64_t kPrefetchRows = 8;

/// How one index row is assembled from one source row: byte spans copied
/// verbatim (adjacent columns merged), plus where the synthetic __rid goes.
struct ProjectionPlan {
  struct Span {
    uint32_t src = 0;
    uint32_t dst = 0;
    uint32_t width = 0;
  };
  std::vector<Span> spans;
  bool has_rid = false;
  uint32_t rid_offset = 0;
  uint32_t row_width = 0;
  /// The source bytes the spans read, [src_begin, src_end): all the
  /// projection needs to prefetch of a row.
  uint32_t src_begin = 0;
  uint32_t src_end = 0;
};

ProjectionPlan PlanProjection(const Schema& source, const Schema& index,
                              const std::vector<size_t>& source_columns) {
  ProjectionPlan plan;
  plan.row_width = index.row_width();
  for (size_t c = 0; c < source_columns.size(); ++c) {
    if (source_columns[c] == SIZE_MAX) {
      plan.has_rid = true;
      plan.rid_offset = index.offset(c);
      continue;
    }
    const ProjectionPlan::Span span{source.offset(source_columns[c]),
                                    index.offset(c), index.width(c)};
    if (!plan.spans.empty()) {
      ProjectionPlan::Span& last = plan.spans.back();
      if (last.src + last.width == span.src &&
          last.dst + last.width == span.dst) {
        last.width += span.width;
        continue;
      }
    }
    plan.spans.push_back(span);
  }
  plan.src_begin = UINT32_MAX;
  for (const ProjectionPlan::Span& span : plan.spans) {
    plan.src_begin = std::min(plan.src_begin, span.src);
    plan.src_end = std::max(plan.src_end, span.src + span.width);
  }
  return plan;
}

/// Writes the first `n` projected index rows of `table` to `out` (n * row
/// width bytes), numbering the synthetic __rid column from `rid_base`.
void ProjectRows(const Table& table, const ProjectionPlan& plan, uint64_t n,
                 uint64_t rid_base, char* out) {
  // Each row is looked up once, kPrefetchRows ahead of its copy, and parked
  // in a ring until the cursor reaches it.
  Slice ring[kPrefetchRows];
  auto fetch = [&](uint64_t id) {
    const Slice row = table.row(id);
    for (uint32_t off = plan.src_begin; off < plan.src_end; off += 64) {
      __builtin_prefetch(row.data() + off);
    }
    __builtin_prefetch(row.data() + plan.src_end - 1);
    ring[id % kPrefetchRows] = row;
  };
  for (uint64_t id = 0; id < std::min(n, kPrefetchRows); ++id) fetch(id);
  const uint32_t w = plan.row_width;
  for (uint64_t id = 0; id < n; ++id) {
    const char* src = ring[id % kPrefetchRows].data();
    if (id + kPrefetchRows < n) fetch(id + kPrefetchRows);
    char* dst = out + static_cast<size_t>(id) * w;
    for (const ProjectionPlan::Span& span : plan.spans) {
      std::memcpy(dst + span.dst, src + span.src, span.width);
    }
    if (plan.has_rid) {
      const uint64_t rid = rid_base + id;
      std::memcpy(dst + plan.rid_offset, &rid, 8);  // little-endian host
    }
  }
}

/// Writes the byte-comparable form of one row's key columns to `key`:
/// memcmp over the keys orders rows exactly like RowComparator. Integer
/// cells (int32/int64/date/decimal, little-endian two's complement) become
/// big-endian with the sign bit flipped; string cells already compare
/// bytewise and are copied as they are.
void EncodeKey(const Schema& schema, size_t num_keys, const char* row,
               unsigned char* key) {
  for (size_t c = 0; c < num_keys; ++c) {
    const char* cell = row + schema.offset(c);
    const uint32_t w = schema.width(c);
    if (schema.column(c).type.IsString()) {
      std::memcpy(key, cell, w);
    } else {
      for (uint32_t b = 0; b < w; ++b) {
        key[b] = static_cast<unsigned char>(cell[w - 1 - b]);
      }
      key[0] ^= 0x80;
    }
    key += w;
  }
}

/// Stable LSD radix sort of `n` projected rows on their key columns: the
/// order std::stable_sort with RowComparator gives, equal keys in source
/// order. Encodes every key once, histograms every key byte in the same
/// pass, then runs one counting-sort pass per byte position (last first) of
/// a row permutation, skipping positions where all rows agree. One scratch
/// allocation holds the histograms, the permutation and its double buffer,
/// and the keys.
template <typename RowIndex>
std::string RadixSortRows(const Schema& schema, size_t num_keys,
                          std::string rows, uint64_t n) {
  size_t key_width = 0;
  for (size_t c = 0; c < num_keys; ++c) key_width += schema.width(c);
  const size_t key_words =
      (static_cast<size_t>(n) * key_width + sizeof(RowIndex) - 1) /
      sizeof(RowIndex);
  const size_t count_words = key_width * 256;
  auto scratch = std::make_unique_for_overwrite<RowIndex[]>(
      count_words + 2 * static_cast<size_t>(n) + key_words);
  RowIndex* counts = scratch.get();
  RowIndex* perm = counts + count_words;
  RowIndex* tmp = perm + n;
  unsigned char* keys = reinterpret_cast<unsigned char*>(tmp + n);

  std::fill(counts, counts + count_words, RowIndex{0});
  const uint32_t w = schema.row_width();
  for (uint64_t i = 0; i < n; ++i) {
    unsigned char* key = keys + static_cast<size_t>(i) * key_width;
    EncodeKey(schema, num_keys, rows.data() + static_cast<size_t>(i) * w,
              key);
    for (size_t b = 0; b < key_width; ++b) ++counts[b * 256 + key[b]];
  }

  std::iota(perm, perm + n, RowIndex{0});
  bool sorted = true;  // the identity permutation until a pass runs
  for (size_t b = key_width; b-- > 0;) {
    RowIndex* count = counts + b * 256;
    if (count[keys[b]] == n) continue;  // every row has the same byte here
    RowIndex start = 0;
    for (size_t v = 0; v < 256; ++v) {
      const RowIndex c = count[v];
      count[v] = start;
      start += c;
    }
    for (uint64_t i = 0; i < n; ++i) {
      const RowIndex row = perm[i];
      tmp[count[keys[static_cast<size_t>(row) * key_width + b]]++] = row;
    }
    std::swap(perm, tmp);
    sorted = false;
  }
  if (sorted) return rows;
  std::string out(rows.size(), '\0');
  kernels::GatherRows(rows.data(), w, perm, static_cast<size_t>(n),
                      out.data());
  return out;
}

/// `rows` (n projected rows of `schema`) stably sorted on the first
/// `num_keys` columns.
std::string SortRows(const Schema& schema, size_t num_keys, std::string rows,
                     uint64_t n) {
  if (n < 2) return rows;
  if (n <= std::numeric_limits<uint32_t>::max()) {
    return RadixSortRows<uint32_t>(schema, num_keys, std::move(rows), n);
  }
  return RadixSortRows<uint64_t>(schema, num_keys, std::move(rows), n);
}

}  // namespace

uint64_t InternalPageCount(uint64_t leaf_pages, uint64_t fanout) {
  if (leaf_pages <= 1 || fanout < 2) return 0;
  uint64_t total = 0;
  uint64_t level = leaf_pages;
  while (level > 1) {
    level = (level + fanout - 1) / fanout;
    total += level;
  }
  return total;
}

uint64_t Index::fanout() const {
  // Internal entry: separator key (key column widths) + 8-byte child pointer.
  uint64_t key_width = 0;
  for (size_t c = 0; c < num_key_columns(); ++c) key_width += schema_.width(c);
  const uint64_t entry = key_width + 8 + kSlotSize;
  const uint64_t capacity = stats_.page_size - kPageHeaderSize;
  return std::max<uint64_t>(2, capacity / entry);
}

Result<Index> Index::Build(const Table& table,
                           const IndexDescriptor& descriptor,
                           const IndexBuildOptions& options) {
  Index index;
  index.descriptor_ = descriptor;
  std::vector<size_t> source_columns;
  CFEST_RETURN_NOT_OK(
      PlanIndexSchema(table, descriptor, &index.schema_, &source_columns));
  // One snapshot of the row count: a base table may grow under a concurrent
  // appender, and everything below must agree on how many rows it reads.
  const uint64_t n = table.num_rows();
  const uint32_t w = index.schema_.row_width();
  index.row_width_ = w;
  index.num_rows_ = n;
  index.stats_.page_size = options.page_size;
  index.stats_.row_count = n;
  index.stats_.row_data_bytes = n * w;

  std::string projected(static_cast<size_t>(n) * w, '\0');
  ProjectRows(table,
              PlanProjection(table.schema(), index.schema_, source_columns),
              n, /*rid_base=*/0, projected.data());
  index.sorted_rows_ = SortRows(index.schema_, descriptor.key_columns.size(),
                                std::move(projected), n);

  CFEST_RETURN_NOT_OK(index.PackLeafPages(options));
  return index;
}

Status Index::PackLeafPages(const IndexBuildOptions& options) {
  const uint32_t w = row_width_;
  if (w > PageBuilder::MaxRecordSize(options.page_size)) {
    return Status::InvalidArgument(
        "index row of " + std::to_string(w) +
        " bytes exceeds page capacity (the paper assumes tuple size <= page "
        "size)");
  }
  // PageBuilder's capacity rules: a page takes rows while header + records
  // + one slot per record fit, and at most 0xFFFF slots. Every leaf but the
  // last is full; an empty index still owns one (empty) leaf.
  const uint64_t per_page = std::min<uint64_t>(
      (options.page_size - kPageHeaderSize) / (w + kSlotSize), 0xFFFF);
  stats_.leaf_pages =
      num_rows_ == 0 ? 1 : (num_rows_ + per_page - 1) / per_page;
  stats_.leaf_used_bytes =
      stats_.leaf_pages * kPageHeaderSize + num_rows_ * (w + kSlotSize);
  stats_.internal_pages = InternalPageCount(stats_.leaf_pages, fanout());

  if (options.keep_pages) {
    leaf_pages_.reserve(static_cast<size_t>(stats_.leaf_pages));
    uint64_t i = 0;
    for (uint64_t page_id = 0; page_id < stats_.leaf_pages; ++page_id) {
      PageBuilder builder(page_id, PageType::kDataLeaf, options.page_size);
      for (const uint64_t end = std::min(num_rows_, i + per_page); i < end;
           ++i) {
        CFEST_RETURN_NOT_OK(builder.Add(row(i)));
      }
      leaf_pages_.push_back(builder.Finish());
    }
  }
  return Status::OK();
}

Result<Index> Index::ExtendedWith(const Table& delta, uint64_t rid_base,
                                  const IndexBuildOptions& options) const {
  if (options.page_size != stats_.page_size) {
    return Status::InvalidArgument(
        "ExtendedWith page size " + std::to_string(options.page_size) +
        " differs from the original build's " +
        std::to_string(stats_.page_size));
  }
  Schema delta_schema;
  std::vector<size_t> source_columns;
  CFEST_RETURN_NOT_OK(
      PlanIndexSchema(delta, descriptor_, &delta_schema, &source_columns));
  if (!(delta_schema == schema_)) {
    return Status::InvalidArgument(
        "delta table schema does not project to this index's row schema");
  }

  // Project and sort the delta on its own (one row-count snapshot, as in
  // Build).
  const uint32_t w = row_width_;
  const uint64_t delta_n = delta.num_rows();
  std::string delta_rows(static_cast<size_t>(delta_n) * w, '\0');
  ProjectRows(delta, PlanProjection(delta.schema(), schema_, source_columns),
              delta_n, rid_base, delta_rows.data());
  const std::string delta_sorted = SortRows(
      schema_, descriptor_.key_columns.size(), std::move(delta_rows), delta_n);
  const char* dsorted = delta_sorted.data();

  // Merge the two sorted runs, old rows first on ties: that is exactly the
  // stable sort of [old source rows..., delta rows...], i.e. what Build()
  // produces over the grown source.
  Index merged;
  merged.descriptor_ = descriptor_;
  merged.schema_ = schema_;
  merged.row_width_ = w;
  merged.num_rows_ = num_rows_ + delta_n;
  merged.stats_.page_size = options.page_size;
  merged.stats_.row_count = merged.num_rows_;
  merged.stats_.row_data_bytes = merged.num_rows_ * w;
  merged.sorted_rows_.reserve(static_cast<size_t>(merged.num_rows_) * w);
  RowComparator cmp(&schema_, descriptor_.key_columns.size());
  uint64_t old_i = 0;
  uint64_t delta_i = 0;
  while (old_i < num_rows_ && delta_i < delta_n) {
    const Slice old_row = row(old_i);
    const Slice delta_row(dsorted + delta_i * w, w);
    if (cmp.Compare(old_row, delta_row) <= 0) {
      merged.sorted_rows_.append(old_row.data(), w);
      ++old_i;
    } else {
      merged.sorted_rows_.append(delta_row.data(), w);
      ++delta_i;
    }
  }
  for (; old_i < num_rows_; ++old_i) {
    merged.sorted_rows_.append(row(old_i).data(), w);
  }
  if (delta_i < delta_n) {
    merged.sorted_rows_.append(dsorted + delta_i * w,
                               (delta_n - delta_i) * w);
  }

  CFEST_RETURN_NOT_OK(merged.PackLeafPages(options));
  return merged;
}

Result<CompressedIndex> Index::Compress(
    const CompressionScheme& scheme, const IndexBuildOptions& options) const {
  CFEST_ASSIGN_OR_RETURN(
      auto builder, CompressedIndexBuilder::Make(schema_, scheme, options));
  CFEST_RETURN_NOT_OK(builder->AddRows(sorted_rows_.data(), num_rows_));
  return builder->Finish();
}

}  // namespace cfest
