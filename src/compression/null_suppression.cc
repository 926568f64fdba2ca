#include "compression/null_suppression.h"

#include <cassert>
#include <string>
#include <vector>

#include "compression/encoding_util.h"

namespace cfest {
namespace {

// ---------------------------------------------------------------------------
// Null suppression
// ---------------------------------------------------------------------------

class NsChunk final : public ColumnChunkCompressor {
 public:
  explicit NsChunk(const DataType& type)
      : type_(type), header_(LengthHeaderBytes(type)) {}

  size_t CostWith(const Slice& cell) override {
    return Cost() + encoding::NullSuppressedCost(cell, type_);
  }

  void Add(const Slice& cell) override {
    assert(cell.size() == type_.FixedWidth());
    bytes_ += encoding::NullSuppressedCost(cell, type_);
    ++count_;
  }

  size_t StageBatch(const char* cells, size_t n) override {
    staged_ = {bytes_, count_};
    encoding::ForEachSuppressed(
        cells, type_, n,
        [this](const char*, uint32_t len) { bytes_ += header_ + len; });
    count_ += static_cast<uint32_t>(n);
    return Cost();
  }

  void CommitStaged() override {}

  void DropStaged() override {
    bytes_ = staged_.bytes;
    count_ = staged_.count;
  }

  size_t Cost() const override { return 2 + bytes_; }
  uint32_t count() const override { return count_; }

  std::string Finish(const char* cells, size_t n) const override {
    std::string out;
    out.reserve(Cost());
    encoding::PutU16(&out, static_cast<uint16_t>(n));
    encoding::ForEachSuppressed(
        cells, type_, n, [&](const char* cell, uint32_t len) {
          encoding::PutLength(&out, len, header_);
          out.append(cell, len);
        });
    return out;
  }

  void Reset() override {
    bytes_ = 0;
    count_ = 0;
    staged_ = {};
  }

 private:
  DataType type_;
  uint32_t header_;
  size_t bytes_ = 0;  // length headers + suppressed payloads
  uint32_t count_ = 0;
  struct {
    size_t bytes;
    uint32_t count;
  } staged_ = {};  // restore point of the staged batch
};

class NsCompressor final : public ColumnCompressor {
 public:
  explicit NsCompressor(const DataType& type) : type_(type) {}

  CompressionType type() const override {
    return CompressionType::kNullSuppression;
  }
  const DataType& data_type() const override { return type_; }

  std::unique_ptr<ColumnChunkCompressor> NewChunk() override {
    return std::make_unique<NsChunk>(type_);
  }

  Status DecodeChunk(Slice chunk,
                     std::vector<std::string>* cells) const override {
    size_t pos = 0;
    uint16_t count = 0;
    if (!encoding::GetU16(chunk, &pos, &count)) {
      return Status::Corruption("NS chunk missing count");
    }
    for (uint16_t i = 0; i < count; ++i) {
      std::string cell;
      CFEST_RETURN_NOT_OK(encoding::GetNullSuppressed(chunk, &pos, type_, &cell));
      cells->push_back(std::move(cell));
    }
    if (pos != chunk.size()) {
      return Status::Corruption("NS chunk has trailing bytes");
    }
    return Status::OK();
  }

 private:
  DataType type_;
};

// ---------------------------------------------------------------------------
// Raw pass-through
// ---------------------------------------------------------------------------

class NoneChunk final : public ColumnChunkCompressor {
 public:
  explicit NoneChunk(const DataType& type) : type_(type) {}

  size_t CostWith(const Slice& cell) override {
    return Cost() + cell.size();
  }

  void Add(const Slice& cell) override {
    assert(cell.size() == type_.FixedWidth());
    (void)cell;
    ++count_;
  }

  size_t StageBatch(const char* cells, size_t n) override {
    (void)cells;
    staged_count_ = count_;
    count_ += static_cast<uint32_t>(n);
    return Cost();
  }

  void CommitStaged() override {}

  void DropStaged() override { count_ = staged_count_; }

  size_t Cost() const override {
    return 2 + static_cast<size_t>(count_) * type_.FixedWidth();
  }
  uint32_t count() const override { return count_; }

  std::string Finish(const char* cells, size_t n) const override {
    std::string out;
    out.reserve(Cost());
    encoding::PutU16(&out, static_cast<uint16_t>(n));
    out.append(cells, n * type_.FixedWidth());
    return out;
  }

  void Reset() override {
    count_ = 0;
    staged_count_ = 0;
  }

 private:
  DataType type_;
  uint32_t count_ = 0;
  uint32_t staged_count_ = 0;  // restore point of the staged batch
};

class NoneCompressor final : public ColumnCompressor {
 public:
  explicit NoneCompressor(const DataType& type) : type_(type) {}

  CompressionType type() const override { return CompressionType::kNone; }
  const DataType& data_type() const override { return type_; }

  std::unique_ptr<ColumnChunkCompressor> NewChunk() override {
    return std::make_unique<NoneChunk>(type_);
  }

  Status DecodeChunk(Slice chunk,
                     std::vector<std::string>* cells) const override {
    size_t pos = 0;
    uint16_t count = 0;
    if (!encoding::GetU16(chunk, &pos, &count)) {
      return Status::Corruption("raw chunk missing count");
    }
    const uint32_t w = type_.FixedWidth();
    if (pos + static_cast<size_t>(count) * w != chunk.size()) {
      return Status::Corruption("raw chunk size mismatch");
    }
    for (uint16_t i = 0; i < count; ++i) {
      cells->emplace_back(chunk.data() + pos, w);
      pos += w;
    }
    return Status::OK();
  }

 private:
  DataType type_;
};

}  // namespace

std::unique_ptr<ColumnCompressor> MakeNullSuppressionCompressor(
    const DataType& data_type) {
  return std::make_unique<NsCompressor>(data_type);
}

std::unique_ptr<ColumnCompressor> MakeNoneCompressor(
    const DataType& data_type) {
  return std::make_unique<NoneCompressor>(data_type);
}

}  // namespace cfest
