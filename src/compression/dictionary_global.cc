#include "compression/dictionary_global.h"

#include <cstring>
#include <string>
#include <vector>

#include "compression/cell_dictionary.h"
#include "compression/encoding_util.h"

namespace cfest {
namespace {

class GlobalDictCompressor;

class GlobalDictChunk final : public ColumnChunkCompressor {
 public:
  GlobalDictChunk(GlobalDictCompressor* parent, uint32_t pointer_bytes)
      : parent_(parent), pointer_bytes_(pointer_bytes) {}

  size_t CostWith(const Slice& cell) override;
  void Add(const Slice& cell) override;
  size_t StageBatch(const char* cells, size_t n) override;
  void CommitStaged() override;
  void DropStaged() override {}

  size_t Cost() const override { return 2 + rows_ * pointer_bytes_; }

  uint32_t count() const override { return static_cast<uint32_t>(rows_); }

  std::string Finish(const char* cells, size_t n) const override;

  void Reset() override {
    rows_ = 0;
    staged_cells_ = nullptr;
    staged_n_ = 0;
  }

 private:
  GlobalDictCompressor* parent_;
  uint32_t pointer_bytes_;
  size_t rows_ = 0;
  // The staged batch: its cost is arithmetic, and only a commit inserts it,
  // so a dropped batch never touches the shared dictionary.
  const char* staged_cells_ = nullptr;
  size_t staged_n_ = 0;
};

class GlobalDictCompressor final : public ColumnCompressor {
 public:
  GlobalDictCompressor(const DataType& type, const CompressionOptions& options,
                       bool grouped)
      : type_(type),
        pointer_bytes_(options.global_pointer_bytes == 0
                           ? 4
                           : options.global_pointer_bytes),
        grouped_(grouped),
        dict_(1024, grouped) {}

  CompressionType type() const override {
    return CompressionType::kDictionaryGlobal;
  }
  const DataType& data_type() const override { return type_; }

  std::unique_ptr<ColumnChunkCompressor> NewChunk() override {
    return std::make_unique<GlobalDictChunk>(this, pointer_bytes_);
  }

  Status DecodeChunk(Slice chunk,
                     std::vector<std::string>* cells) const override {
    if (grouped_) {
      return Status::NotSupported(
          "a grouped global dictionary keeps no entries to decode with");
    }
    size_t pos = 0;
    uint16_t row_count = 0;
    if (!encoding::GetU16(chunk, &pos, &row_count)) {
      return Status::Corruption("global-dict chunk missing row count");
    }
    if (pos + static_cast<size_t>(row_count) * pointer_bytes_ != chunk.size()) {
      return Status::Corruption("global-dict chunk size mismatch");
    }
    for (uint16_t i = 0; i < row_count; ++i) {
      uint64_t code = 0;
      for (uint32_t b = 0; b < pointer_bytes_; ++b) {
        code |= static_cast<uint64_t>(
                    static_cast<unsigned char>(chunk[pos + b]))
                << (8 * b);
      }
      pos += pointer_bytes_;
      if (code >= dict_.size()) {
        return Status::Corruption("global-dict pointer out of range");
      }
      cells->push_back(dict_.entry(static_cast<uint32_t>(code)).ToString());
    }
    return Status::OK();
  }

  /// The paper's d * k: every distinct value stored once at full width.
  uint64_t AuxiliaryBytes() const override {
    return static_cast<uint64_t>(dict_.size()) * type_.FixedWidth();
  }

  uint64_t TotalDictionaryEntries() const override { return dict_.size(); }

  Status Validate() const override {
    const uint64_t capacity = pointer_bytes_ >= 4
                                  ? ~uint64_t{0}
                                  : (uint64_t{1} << (8 * pointer_bytes_));
    if (dict_.size() > capacity) {
      return Status::CapacityExceeded(
          "global dictionary has " + std::to_string(dict_.size()) +
          " entries but " + std::to_string(pointer_bytes_) +
          "-byte pointers address only " + std::to_string(capacity));
    }
    return Status::OK();
  }

  /// Makes the cell an entry, in first-appearance order.
  void Insert(const char* cell) { dict_.Insert(cell, type_.FixedWidth()); }

  /// Writes the codes of a closing page's `n` cells. A grouped dictionary
  /// keeps only its newest entry, but no later cell has been inserted yet:
  /// the page's last cell holds the newest code, and each earlier cell the
  /// next one's code, or the code before it where the value changes.
  void Codes(const char* cells, size_t n, uint32_t* codes) const {
    const uint32_t w = type_.FixedWidth();
    if (!grouped_) {
      for (size_t i = 0; i < n; ++i) codes[i] = dict_.Code(cells + i * w, w);
      return;
    }
    uint32_t code = static_cast<uint32_t>(dict_.size());
    for (size_t i = n; i-- > 0;) {
      if (i + 1 == n ||
          std::memcmp(cells + i * w, cells + (i + 1) * w, w) != 0) {
        --code;
      }
      codes[i] = code;
    }
  }

 private:
  DataType type_;
  uint32_t pointer_bytes_;
  bool grouped_;
  CellDictionary dict_;
};

size_t GlobalDictChunk::CostWith(const Slice& cell) {
  (void)cell;  // cost is independent of the value under the global model
  return Cost() + pointer_bytes_;
}

void GlobalDictChunk::Add(const Slice& cell) {
  parent_->Insert(cell.data());
  ++rows_;
}

size_t GlobalDictChunk::StageBatch(const char* cells, size_t n) {
  staged_cells_ = cells;
  staged_n_ = n;
  return Cost() + n * pointer_bytes_;
}

void GlobalDictChunk::CommitStaged() {
  const uint32_t w = parent_->data_type().FixedWidth();
  for (size_t i = 0; i < staged_n_; ++i) {
    parent_->Insert(staged_cells_ + i * w);
  }
  rows_ += staged_n_;
}

std::string GlobalDictChunk::Finish(const char* cells, size_t n) const {
  std::vector<uint32_t> codes(n);
  parent_->Codes(cells, n, codes.data());
  std::string out;
  out.reserve(Cost());
  encoding::PutU16(&out, static_cast<uint16_t>(n));
  // Widened first: pointers of 5-8 bytes shift by 32 bits or more.
  for (const uint64_t code : codes) {
    for (uint32_t b = 0; b < pointer_bytes_; ++b) {
      out.push_back(static_cast<char>((code >> (8 * b)) & 0xFF));
    }
  }
  return out;
}

}  // namespace

std::unique_ptr<ColumnCompressor> MakeGlobalDictionaryCompressor(
    const DataType& data_type, const CompressionOptions& options,
    bool grouped) {
  return std::make_unique<GlobalDictCompressor>(data_type, options, grouped);
}

}  // namespace cfest
