#include "compression/dictionary_page.h"

#include <cassert>
#include <vector>

#include "common/bit_util.h"
#include "compression/cell_dictionary.h"
#include "compression/encoding_util.h"

namespace cfest {
namespace {

class PageDictChunk final : public ColumnChunkCompressor {
 public:
  PageDictChunk(const DataType& type, const CompressionOptions& options,
                bool grouped, uint64_t* total_dict_entries)
      : type_(type),
        options_(options),
        total_dict_entries_(total_dict_entries),
        dict_(256, grouped) {}

  size_t CostWith(const Slice& cell) override {
    const bool is_new = !dict_.Contains(cell.data(), type_.FixedWidth());
    const size_t dict_count = dict_.size() + (is_new ? 1 : 0);
    const size_t dict_bytes = dict_bytes_ + (is_new ? EntryCost(cell) : 0);
    return ChunkCost(dict_count, dict_bytes, rows_ + 1);
  }

  void Add(const Slice& cell) override {
    assert(cell.size() == type_.FixedWidth());
    const size_t entries = dict_.size();
    Insert(cell.data());
    *total_dict_entries_ += dict_.size() - entries;
    ++rows_;
  }

  /// The batch's new distinct values enter the dictionary tentatively, so
  /// the cost includes intra-batch dedup and a commit keeps them as is.
  size_t StageBatch(const char* cells, size_t n) override {
    const uint32_t w = type_.FixedWidth();
    staged_ = {dict_.size(), dict_bytes_, rows_};
    dict_.BeginTentative();
    for (size_t i = 0; i < n; ++i) Insert(cells + i * w);
    rows_ += n;
    return Cost();
  }

  void CommitStaged() override {
    *total_dict_entries_ += dict_.size() - staged_.entries;
    dict_.Commit();
  }

  void DropStaged() override {
    dict_.RollBack();
    dict_bytes_ = staged_.dict_bytes;
    rows_ = staged_.rows;
  }

  size_t Cost() const override {
    return ChunkCost(dict_.size(), dict_bytes_, rows_);
  }

  uint32_t count() const override { return static_cast<uint32_t>(rows_); }

  std::string Finish(const char* cells, size_t n) const override;

  void Reset() override {
    dict_.Clear();
    dict_bytes_ = 0;
    rows_ = 0;
    staged_ = {};
  }

 private:
  /// Makes the cell an entry, charging a new entry's bytes.
  void Insert(const char* cell) {
    const uint32_t w = type_.FixedWidth();
    if (dict_.Insert(cell, w).inserted) {
      dict_bytes_ += EntryCost(Slice(cell, w));
    }
  }

  size_t EntryCost(const Slice& cell) const {
    return options_.dict_entries_full_width
               ? type_.FixedWidth()
               : encoding::NullSuppressedCost(cell, type_);
  }

  int PointerBits(size_t dict_count) const {
    int bits = BitsFor(dict_count);
    if (!options_.dict_bit_packed_pointers) {
      bits = static_cast<int>(BytesForBits(bits)) * 8;
    }
    return bits;
  }

  size_t ChunkCost(size_t dict_count, size_t dict_bytes,
                   size_t row_count) const {
    const int bits = PointerBits(dict_count);
    return 2 + 1 + dict_bytes + 2 +
           BytesForBits(bits * row_count);
  }

  DataType type_;
  CompressionOptions options_;
  uint64_t* total_dict_entries_;  // owned by the parent compressor
  CellDictionary dict_;           // the page's distinct full-width cells
  size_t dict_bytes_ = 0;
  size_t rows_ = 0;
  struct {
    size_t entries;
    size_t dict_bytes;
    size_t rows;
  } staged_ = {};  // restore point of the staged batch
};

std::string PageDictChunk::Finish(const char* cells, size_t n) const {
  const uint32_t w = type_.FixedWidth();
  CellDictionary dict;
  std::vector<uint32_t> codes(n);
  for (size_t i = 0; i < n; ++i) codes[i] = dict.Insert(cells + i * w, w).code;
  const int bits = PointerBits(dict.size());
  std::string out;
  out.reserve(Cost());
  encoding::PutU16(&out, static_cast<uint16_t>(dict.size()));
  out.push_back(static_cast<char>(bits));
  for (uint32_t code = 0; code < dict.size(); ++code) {
    const Slice entry = dict.entry(code);
    if (options_.dict_entries_full_width) {
      out.append(entry.data(), entry.size());
    } else {
      encoding::PutNullSuppressed(entry, type_, &out);
    }
  }
  encoding::PutU16(&out, static_cast<uint16_t>(n));
  BitWriter writer(&out);
  for (uint32_t code : codes) {
    writer.Put(code, bits);
  }
  return out;
}

class PageDictCompressor final : public ColumnCompressor {
 public:
  PageDictCompressor(const DataType& type, const CompressionOptions& options,
                     bool grouped)
      : type_(type), options_(options), grouped_(grouped) {}

  CompressionType type() const override {
    return CompressionType::kDictionaryPage;
  }
  const DataType& data_type() const override { return type_; }

  std::unique_ptr<ColumnChunkCompressor> NewChunk() override {
    return std::make_unique<PageDictChunk>(type_, options_, grouped_,
                                           &total_dict_entries_);
  }

  Status DecodeChunk(Slice chunk,
                     std::vector<std::string>* cells) const override {
    size_t pos = 0;
    uint16_t dict_count = 0;
    if (!encoding::GetU16(chunk, &pos, &dict_count)) {
      return Status::Corruption("page-dict chunk missing dict count");
    }
    if (pos + 1 > chunk.size()) {
      return Status::Corruption("page-dict chunk missing pointer width");
    }
    const int bits = static_cast<unsigned char>(chunk[pos]);
    ++pos;
    if (bits > 32) {
      return Status::Corruption("page-dict pointer width too large");
    }
    std::vector<std::string> entries;
    entries.reserve(dict_count);
    const uint32_t w = type_.FixedWidth();
    for (uint16_t i = 0; i < dict_count; ++i) {
      if (options_.dict_entries_full_width) {
        if (pos + w > chunk.size()) {
          return Status::Corruption("truncated page-dict entry");
        }
        entries.emplace_back(chunk.data() + pos, w);
        pos += w;
      } else {
        std::string cell;
        CFEST_RETURN_NOT_OK(
            encoding::GetNullSuppressed(chunk, &pos, type_, &cell));
        entries.push_back(std::move(cell));
      }
    }
    uint16_t row_count = 0;
    if (!encoding::GetU16(chunk, &pos, &row_count)) {
      return Status::Corruption("page-dict chunk missing row count");
    }
    if (row_count > 0 && dict_count == 0) {
      return Status::Corruption("page-dict rows with empty dictionary");
    }
    BitReader reader(chunk.SubSlice(pos, chunk.size() - pos));
    for (uint16_t i = 0; i < row_count; ++i) {
      uint64_t code = 0;
      if (!reader.Get(bits, &code)) {
        return Status::Corruption("truncated page-dict pointer stream");
      }
      if (code >= dict_count) {
        return Status::Corruption("page-dict pointer out of range");
      }
      cells->push_back(entries[static_cast<size_t>(code)]);
    }
    return Status::OK();
  }

  uint64_t TotalDictionaryEntries() const override {
    return total_dict_entries_;
  }

 private:
  DataType type_;
  CompressionOptions options_;
  bool grouped_;
  uint64_t total_dict_entries_ = 0;  // the paper's sum_i Pg(i)
};

}  // namespace

std::unique_ptr<ColumnCompressor> MakePageDictionaryCompressor(
    const DataType& data_type, const CompressionOptions& options,
    bool grouped) {
  return std::make_unique<PageDictCompressor>(data_type, options, grouped);
}

}  // namespace cfest
