#include "compression/compressed_index.h"

#include <algorithm>
#include <string>
#include <vector>

#include "compression/encoding_util.h"
#include "compression/kernels.h"
#include "storage/row_codec.h"

namespace cfest {

Status CompressedIndex::DecodeAllRows(std::vector<std::string>* rows) const {
  if (stats_.row_count > 0 && pages_.empty()) {
    return Status::InvalidArgument(
        "index was built with keep_pages = false; pages unavailable");
  }
  const size_t ncols = schema_.num_columns();
  for (const Page& page : pages_) {
    CFEST_ASSIGN_OR_RETURN(Slice record, page.record(0));
    std::vector<std::vector<std::string>> columns(ncols);
    size_t pos = 0;
    for (size_t c = 0; c < ncols; ++c) {
      uint32_t chunk_len = 0;
      if (!encoding::GetU32(record, &pos, &chunk_len)) {
        return Status::Corruption("compressed page missing chunk length");
      }
      if (pos + chunk_len > record.size()) {
        return Status::Corruption("compressed chunk overruns page record");
      }
      CFEST_RETURN_NOT_OK(compressors_->column(c)->DecodeChunk(
          record.SubSlice(pos, chunk_len), &columns[c]));
      pos += chunk_len;
    }
    const size_t page_rows = columns.empty() ? 0 : columns[0].size();
    for (size_t c = 1; c < ncols; ++c) {
      if (columns[c].size() != page_rows) {
        return Status::Corruption("column chunks disagree on row count");
      }
    }
    for (size_t r = 0; r < page_rows; ++r) {
      std::string row;
      row.reserve(schema_.row_width());
      for (size_t c = 0; c < ncols; ++c) row += columns[c][r];
      rows->push_back(std::move(row));
    }
  }
  return Status::OK();
}

CompressedIndexBuilder::CompressedIndexBuilder(
    Schema schema, CompressionScheme scheme,
    std::shared_ptr<ColumnCompressorSet> compressors, const Options& options)
    : schema_(std::move(schema)),
      scheme_(std::move(scheme)),
      options_(options),
      compressors_(std::move(compressors)) {
  stats_.page_size = options_.page_size;
  stats_.columns.resize(schema_.num_columns());
  chunks_.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    stats_.columns[c].type = compressors_->column(c)->type();
    chunks_.push_back(compressors_->column(c)->NewChunk());
  }
}

Result<std::unique_ptr<CompressedIndexBuilder>> CompressedIndexBuilder::Make(
    const Schema& schema, const CompressionScheme& scheme,
    const Options& options, const std::vector<size_t>& grouped_columns) {
  if (options.page_size < kPageHeaderSize + kSlotSize + 64) {
    return Status::InvalidArgument("page size too small: " +
                                   std::to_string(options.page_size));
  }
  if (options.page_size > 0xFFFF) {
    return Status::InvalidArgument(
        "page size exceeds 16-bit slot addressing: " +
        std::to_string(options.page_size));
  }
  std::vector<size_t> grouped = grouped_columns;
  if (options.keep_pages) {
    // A kept build decodes its pages through the global dictionaries'
    // entries, which a grouped one does not keep: those columns hash.
    std::erase_if(grouped, [&scheme](size_t c) {
      const CompressionType type =
          c < scheme.per_column.size() ? scheme.per_column[c]
          : scheme.per_column.empty()  ? scheme.default_type
                                       : CompressionType::kNone;
      return type == CompressionType::kDictionaryGlobal;
    });
  }
  CFEST_ASSIGN_OR_RETURN(ColumnCompressorSet set,
                         ColumnCompressorSet::Make(schema, scheme, grouped));
  auto shared = std::make_shared<ColumnCompressorSet>(std::move(set));
  return std::unique_ptr<CompressedIndexBuilder>(new CompressedIndexBuilder(
      schema, scheme, std::move(shared), options));
}

size_t CompressedIndexBuilder::PageCost(size_t extra_chunk_bytes) const {
  // Page header + one slot + per-column u32 chunk-length framing + chunks.
  size_t cost = kPageHeaderSize + kSlotSize + 4 * schema_.num_columns() +
                extra_chunk_bytes;
  for (const auto& chunk : chunks_) cost += chunk->Cost();
  return cost;
}

Status CompressedIndexBuilder::Add(Slice encoded_row) {
  if (finished_) return Status::InvalidArgument("builder already finished");
  if (encoded_row.size() != schema_.row_width()) {
    return Status::InvalidArgument(
        "encoded row has " + std::to_string(encoded_row.size()) +
        " bytes, expected " + std::to_string(schema_.row_width()));
  }
  // Chunk row counts are u16 on the wire; a page whose rows cost ~0 bytes
  // (e.g. a 0-bit-pointer dictionary page holding one distinct value) must
  // still be closed before the count wraps.
  if (chunks_[0]->count() >= 0xFFFF) {
    CFEST_RETURN_NOT_OK(FlushPage());
  }
  // Exact prospective page size if this row joined the current page.
  size_t prospective = kPageHeaderSize + kSlotSize + 4 * schema_.num_columns();
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    prospective += chunks_[c]->CostWith(
        encoded_row.SubSlice(schema_.offset(c), schema_.width(c)));
  }
  if (prospective > options_.page_size) {
    if (chunks_[0]->count() == 0) {
      return Status::CapacityExceeded(
          "a single row compresses to more than one page (" +
          std::to_string(prospective) + " > " +
          std::to_string(options_.page_size) + " bytes)");
    }
    CFEST_RETURN_NOT_OK(FlushPage());
    return Add(encoded_row);
  }
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    chunks_[c]->Add(
        encoded_row.SubSlice(schema_.offset(c), schema_.width(c)));
  }
  if (options_.keep_pages) {
    page_rows_.append(encoded_row.data(), encoded_row.size());
  }
  ++rows_added_;
  return Status::OK();
}

Status CompressedIndexBuilder::AddRows(const char* rows, uint64_t n) {
  if (finished_) return Status::InvalidArgument("builder already finished");
  const size_t row_width = schema_.row_width();
  const size_t ncols = schema_.num_columns();
  // Page splits are identical to the per-row path: a batch is accepted only
  // when its exact total prospective page cost fits, and chunk costs are
  // monotone nondecreasing in the cells added, so whenever a whole batch
  // fits every prefix fits too — the per-row path would not have flushed
  // mid-batch. Every column stages the batch (appends it tentatively and
  // reports its exact cost); a batch that fits is committed, so each
  // accepted cell is sized once. One that does not is dropped, restoring
  // every chunk, and halves until it fits or degenerates to Add(), which
  // performs the flush exactly as before.
  constexpr uint64_t kFallbackBatchRows = 1024;
  std::vector<char*> cols(ncols);
  uint64_t i = 0;
  const size_t framing = kPageHeaderSize + kSlotSize + 4 * ncols;
  while (i < n) {
    if (chunks_[0]->count() >= 0xFFFF) {
      CFEST_RETURN_NOT_OK(FlushPage());
    }
    const uint64_t room = 0xFFFF - chunks_[0]->count();
    // Size the attempt to the page's remaining capacity instead of a fixed
    // chunk: the per-row cost observed on the current page (or the
    // previous page's row count when this one is still empty) predicts how
    // many more rows fit. The exact cost check below stays the gate — a
    // bad prediction costs one halving round, never correctness — but a
    // good one fills the page in one transpose + one cost pass where the
    // fixed 1024-row chunk took many (large pages), or avoided repeated
    // halving (small pages).
    uint64_t predicted = kFallbackBatchRows;
    const uint64_t page_rows = chunks_[0]->count();
    if (page_rows > 0) {
      const size_t used = PageCost(0);
      const size_t chunk_bytes = used - framing;
      if (chunk_bytes == 0) {
        predicted = room;  // rows currently cost nothing (0-bit pointers)
      } else {
        // Ceil per-row cost under-predicts the fit, so the attempt is
        // usually accepted on its first cost pass.
        const size_t per_row = (chunk_bytes + page_rows - 1) / page_rows;
        const size_t remaining =
            options_.page_size > used ? options_.page_size - used : 0;
        predicted = remaining / per_row;
      }
    } else if (last_page_rows_ > 0) {
      predicted = last_page_rows_;
    }
    uint64_t batch =
        std::min(std::min(n - i, room), std::max<uint64_t>(predicted, 1));
    // Transpose once at the attempted size; halved retries size prefixes of
    // the same contiguous column slices.
    transpose_arena_.Reset();
    for (size_t c = 0; c < ncols; ++c) {
      const uint32_t w = schema_.width(c);
      cols[c] = transpose_arena_.Allocate(batch * w);
      kernels::GatherStrided(rows + i * row_width + schema_.offset(c),
                             row_width, w, batch, cols[c]);
    }
    for (;;) {
      // Chunk costs are nonnegative, so staging stops at the first column
      // that pushes the page over; only the staged columns are dropped.
      size_t prospective = framing;
      size_t staged = 0;
      while (staged < ncols && prospective <= options_.page_size) {
        prospective += chunks_[staged]->StageBatch(cols[staged], batch);
        ++staged;
      }
      if (prospective <= options_.page_size) {
        for (auto& chunk : chunks_) chunk->CommitStaged();
        if (options_.keep_pages) {
          page_rows_.append(rows + i * row_width, batch * row_width);
        }
        rows_added_ += batch;
        i += batch;
        break;
      }
      for (size_t c = 0; c < staged; ++c) chunks_[c]->DropStaged();
      if (batch == 1) {
        // Delegates the flush (or the single-oversized-row error) to Add().
        CFEST_RETURN_NOT_OK(Add(Slice(rows + i * row_width, row_width)));
        ++i;
        break;
      }
      batch /= 2;
    }
  }
  return Status::OK();
}

Status CompressedIndexBuilder::FlushPage() {
  // The page is sized from the chunks' exact costs: one record of
  // per-column u32 framing plus chunk bytes, behind the page header and one
  // slot — what Page::used_bytes() reports for the serialized image. Only a
  // kept page is serialized, from its buffered rows one column at a time,
  // and there each chunk must produce exactly the bytes it charged. Each
  // chunk is then reset, empty for the next page.
  const uint64_t page_rows = chunks_[0]->count();
  last_page_rows_ = page_rows;
  size_t used = kPageHeaderSize + kSlotSize;
  std::string record;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const size_t cost = chunks_[c]->Cost();
    used += 4 + cost;
    stats_.chunk_bytes += cost;
    stats_.columns[c].chunk_bytes += cost;
    if (!options_.keep_pages) continue;
    const uint32_t w = schema_.width(c);
    page_column_.resize(page_rows * w);
    kernels::GatherStrided(page_rows_.data() + schema_.offset(c),
                           schema_.row_width(), w, page_rows,
                           page_column_.data());
    const std::string bytes =
        chunks_[c]->Finish(page_column_.data(), page_rows);
    if (bytes.size() != cost) {
      return Status::Internal(
          std::string(CompressionTypeName(stats_.columns[c].type)) +
          " chunk serialized " + std::to_string(bytes.size()) +
          " bytes but charged " + std::to_string(cost));
    }
    encoding::PutU32(&record, static_cast<uint32_t>(cost));
    record += bytes;
  }
  stats_.used_bytes += used;
  ++stats_.data_pages;
  for (auto& chunk : chunks_) chunk->Reset();
  if (!options_.keep_pages) return Status::OK();
  page_rows_.clear();
  PageBuilder builder(next_page_id_++, PageType::kCompressedLeaf,
                      options_.page_size);
  CFEST_RETURN_NOT_OK(builder.Add(Slice(record)));
  pages_.push_back(builder.Finish());
  return Status::OK();
}

Result<CompressedIndex> CompressedIndexBuilder::Finish() {
  if (finished_) return Status::InvalidArgument("builder already finished");
  finished_ = true;
  if (chunks_[0]->count() > 0 || rows_added_ == 0) {
    // Flush the trailing partial page; an empty index still owns one page
    // (real engines allocate the root/first leaf eagerly).
    CFEST_RETURN_NOT_OK(FlushPage());
  }
  CFEST_RETURN_NOT_OK(compressors_->Validate());

  stats_.row_count = rows_added_;
  stats_.aux_bytes = compressors_->AuxiliaryBytes();
  stats_.dictionary_entries = compressors_->TotalDictionaryEntries();
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    stats_.columns[c].aux_bytes = compressors_->column(c)->AuxiliaryBytes();
    stats_.columns[c].dictionary_entries =
        compressors_->column(c)->TotalDictionaryEntries();
  }
  const size_t aux_capacity = options_.page_size - kPageHeaderSize;
  stats_.aux_pages = (stats_.aux_bytes + aux_capacity - 1) / aux_capacity;

  CompressedIndex index(schema_, scheme_);
  index.stats_ = stats_;
  index.pages_ = std::move(pages_);
  index.compressors_ = compressors_;
  return index;
}

}  // namespace cfest
