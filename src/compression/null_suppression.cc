#include "compression/null_suppression.h"

#include <cassert>
#include <vector>

#include "compression/encoding_util.h"

namespace cfest {
namespace {

// ---------------------------------------------------------------------------
// Null suppression
// ---------------------------------------------------------------------------

class NsChunk final : public ColumnChunkCompressor {
 public:
  explicit NsChunk(const DataType& type) : type_(type) { buf_.reserve(256); }

  size_t CostWith(const Slice& cell) override {
    return Cost() + encoding::NullSuppressedCost(cell, type_);
  }

  void Add(const Slice& cell) override {
    assert(cell.size() == type_.FixedWidth());
    encoding::PutNullSuppressed(cell, type_, &buf_);
    ++count_;
  }

  size_t StageBatch(const char* cells, size_t n) override {
    const uint32_t header = LengthHeaderBytes(type_);
    staged_ = {buf_.size(), count_};
    encoding::ForEachSuppressed(
        cells, type_, n, [&](const char* cell, uint32_t len) {
          encoding::PutLength(&buf_, len, header);
          buf_.append(cell, len);
        });
    count_ += static_cast<uint32_t>(n);
    return Cost();
  }

  void CommitStaged() override {}

  void DropStaged() override {
    buf_.resize(staged_.bytes);
    count_ = staged_.count;
  }

  size_t Cost() const override { return 2 + buf_.size(); }
  uint32_t count() const override { return count_; }

  std::string Finish() const override {
    std::string out;
    out.reserve(Cost());
    encoding::PutU16(&out, static_cast<uint16_t>(count_));
    out += buf_;
    return out;
  }

  void Reset() override {
    buf_.clear();
    count_ = 0;
    staged_ = {};
  }

 private:
  DataType type_;
  std::string buf_;
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
    buf_.append(cell.data(), cell.size());
    ++count_;
  }

  /// The cost is arithmetic; only a commit copies the cells.
  size_t StageBatch(const char* cells, size_t n) override {
    staged_cells_ = cells;
    staged_n_ = n;
    return Cost() + n * type_.FixedWidth();
  }

  void CommitStaged() override {
    buf_.append(staged_cells_, staged_n_ * type_.FixedWidth());
    count_ += static_cast<uint32_t>(staged_n_);
  }

  void DropStaged() override {}

  size_t Cost() const override { return 2 + buf_.size(); }
  uint32_t count() const override { return count_; }

  std::string Finish() const override {
    std::string out;
    encoding::PutU16(&out, static_cast<uint16_t>(count_));
    out += buf_;
    return out;
  }

  void Reset() override {
    buf_.clear();
    count_ = 0;
    staged_cells_ = nullptr;
    staged_n_ = 0;
  }

 private:
  DataType type_;
  std::string buf_;
  uint32_t count_ = 0;
  const char* staged_cells_ = nullptr;
  size_t staged_n_ = 0;
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
