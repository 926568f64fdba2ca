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

/// Writes `n` projected index rows of `table` to `out` (n * row width
/// bytes): the rows at `positions[0..n)`, or rows 0..n-1 when `positions`
/// is null. The synthetic __rid column holds each row's position.
void ProjectRows(const Table& table, const ProjectionPlan& plan, uint64_t n,
                 const uint64_t* positions, char* out) {
  auto position = [&](uint64_t i) {
    return positions == nullptr ? i : positions[i];
  };
  // Each row is looked up once, kPrefetchRows ahead of its copy, and parked
  // in a ring until the cursor reaches it.
  Slice ring[kPrefetchRows];
  auto fetch = [&](uint64_t i) {
    const Slice row = table.row(position(i));
    for (uint32_t off = plan.src_begin; off < plan.src_end; off += 64) {
      __builtin_prefetch(row.data() + off);
    }
    __builtin_prefetch(row.data() + plan.src_end - 1);
    ring[i % kPrefetchRows] = row;
  };
  for (uint64_t i = 0; i < std::min(n, kPrefetchRows); ++i) fetch(i);
  const uint32_t w = plan.row_width;
  for (uint64_t i = 0; i < n; ++i) {
    const char* src = ring[i % kPrefetchRows].data();
    if (i + kPrefetchRows < n) fetch(i + kPrefetchRows);
    char* dst = out + static_cast<size_t>(i) * w;
    for (const ProjectionPlan::Span& span : plan.spans) {
      std::memcpy(dst + span.dst, src + span.src, span.width);
    }
    if (plan.has_rid) {
      const uint64_t rid = position(i);
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
              n, /*positions=*/nullptr, projected.data());
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

Result<Index> Index::Patched(const Table& old_source, const Table& source,
                             std::vector<uint64_t> changed,
                             const IndexBuildOptions& options) const {
  if (options.page_size != stats_.page_size) {
    return Status::InvalidArgument(
        "patch page size " + std::to_string(options.page_size) +
        " differs from the original build's " +
        std::to_string(stats_.page_size));
  }
  Schema projected;
  std::vector<size_t> source_columns;
  CFEST_RETURN_NOT_OK(
      PlanIndexSchema(source, descriptor_, &projected, &source_columns));
  if (!(old_source.schema() == source.schema()) || !(projected == schema_)) {
    return Status::InvalidArgument(
        "patch sources must share a schema that projects to this index's "
        "row schema");
  }

  // Changed positions, ascending and distinct: [0, old_n) are replaced
  // rows, and every appended position [old_n, new_n) must be among them.
  const uint64_t old_n = num_rows_;
  const uint64_t new_n = source.num_rows();  // one snapshot, as in Build
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  const size_t replaced = static_cast<size_t>(
      std::lower_bound(changed.begin(), changed.end(), old_n) -
      changed.begin());
  if (new_n < old_n || old_source.num_rows() < old_n ||
      (!changed.empty() && changed.back() >= new_n) ||
      changed.size() - replaced != new_n - old_n) {
    return Status::InvalidArgument(
        "patch positions do not turn a " + std::to_string(old_n) +
        "-row source into a " + std::to_string(new_n) +
        "-row one (positions must cover every appended row and stay inside "
        "the new source)");
  }
  if (descriptor_.clustered && replaced > 0) {
    return Status::InvalidArgument(
        "clustered index " + descriptor_.name +
        " cannot patch replaced rows: without a __rid nothing orders a "
        "replacement among equal keys");
  }

  // Build order is (key, source position): equal keys keep source order.
  // A non-clustered row carries its position as __rid; a clustered patch
  // only appends, so every old row precedes every new row on equal keys.
  const uint32_t w = row_width_;
  const size_t num_keys = descriptor_.key_columns.size();
  const RowComparator cmp(&schema_, num_keys);
  const uint32_t rid_offset =
      descriptor_.clustered ? 0 : schema_.offset(schema_.num_columns() - 1);
  auto rid = [&](const char* row) {
    uint64_t value;
    std::memcpy(&value, row + rid_offset, 8);
    return value;
  };
  auto before = [&](Slice old_row, const char* row) {
    const int c = cmp.Compare(old_row, Slice(row, w));
    if (c != 0) return c < 0;
    return descriptor_.clustered || rid(old_row.data()) < rid(row);
  };
  // First old position in [lo, old_n) that does not come before `row`:
  // galloping from lo, so k ascending probes cost O(k log(old_n / k)).
  auto seek = [&](uint64_t lo, const char* row) {
    uint64_t step = 1;
    uint64_t hi = lo;
    while (hi < old_n && before(this->row(hi), row)) {
      lo = hi + 1;
      hi = std::min(old_n, hi + step);
      step *= 2;
    }
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (before(this->row(mid), row)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };

  // Old rows leaving the run: projected from the old source, sorted, and
  // located in ascending order. Each must be present byte for byte.
  const ProjectionPlan plan =
      PlanProjection(source.schema(), schema_, source_columns);
  std::string leaving(replaced * w, '\0');
  ProjectRows(old_source, plan, replaced, changed.data(), leaving.data());
  leaving = SortRows(schema_, num_keys, std::move(leaving), replaced);
  std::vector<uint64_t> gone(replaced);
  for (size_t i = 0; i < replaced; ++i) {
    const char* row = leaving.data() + i * w;
    gone[i] = seek(i == 0 ? 0 : gone[i - 1] + 1, row);
    if (gone[i] == old_n ||
        std::memcmp(this->row(gone[i]).data(), row, w) != 0) {
      return Status::InvalidArgument(
          "patch old source does not match the rows this index was built "
          "on");
    }
  }

  // Rows entering the run: projected from the new source and sorted.
  const uint64_t entering_n = changed.size();
  std::string entering(static_cast<size_t>(entering_n) * w, '\0');
  ProjectRows(source, plan, entering_n, changed.data(), entering.data());
  entering = SortRows(schema_, num_keys, std::move(entering), entering_n);

  Index patched;
  patched.descriptor_ = descriptor_;
  patched.schema_ = schema_;
  patched.row_width_ = w;
  patched.num_rows_ = new_n;
  patched.stats_.page_size = options.page_size;
  patched.stats_.row_count = new_n;
  patched.stats_.row_data_bytes = new_n * w;
  patched.sorted_rows_.resize(static_cast<size_t>(new_n) * w);
  char* out = patched.sorted_rows_.data();
  // Splice: copy the surviving old rows up to each entering row's place in
  // runs (skipping the leaving ones), then the entering row.
  uint64_t cursor = 0;
  size_t next_gone = 0;
  auto copy_old = [&](uint64_t end) {
    while (cursor < end) {
      const uint64_t stop =
          next_gone < gone.size() ? std::min(end, gone[next_gone]) : end;
      const size_t bytes = static_cast<size_t>(stop - cursor) * w;
      std::memcpy(out, sorted_rows_.data() + cursor * w, bytes);
      out += bytes;
      cursor = stop;
      if (next_gone < gone.size() && cursor == gone[next_gone]) {
        ++cursor;
        ++next_gone;
      }
    }
  };
  for (uint64_t i = 0; i < entering_n; ++i) {
    const char* row = entering.data() + i * w;
    copy_old(seek(cursor, row));
    std::memcpy(out, row, w);
    out += w;
  }
  copy_old(old_n);

  CFEST_RETURN_NOT_OK(patched.PackLeafPages(options));
  return patched;
}

std::vector<size_t> Index::GroupedColumns() const {
  if (descriptor_.clustered) return {0};
  return {0, schema_.num_columns() - 1};  // the leading key and __rid
}

Result<CompressedIndex> Index::Compress(
    const CompressionScheme& scheme, const IndexBuildOptions& options) const {
  CFEST_ASSIGN_OR_RETURN(auto builder,
                         CompressedIndexBuilder::Make(schema_, scheme, options,
                                                      GroupedColumns()));
  CFEST_RETURN_NOT_OK(builder->AddRows(sorted_rows_.data(), num_rows_));
  return builder->Finish();
}

}  // namespace cfest
