#include "compression/prefix.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "compression/encoding_util.h"

namespace cfest {
namespace {

class PrefixChunk final : public ColumnChunkCompressor {
 public:
  explicit PrefixChunk(const DataType& type)
      : type_(type), len_hdr_(LengthHeaderBytes(type)) {}

  size_t CostWith(const Slice& cell) override {
    const uint32_t l = NullSuppressedLength(cell, type_);
    // The first value's full suppressed bytes form the prefix.
    const size_t prefix = lengths_.empty() ? l : SharedPrefix(cell.data(), l);
    // sum of suffix lengths = sum of l_i - n * prefix
    return ChunkCost(lengths_.size() + 1, sum_lengths_ + l, prefix);
  }

  void Add(const Slice& cell) override {
    assert(cell.size() == type_.FixedWidth());
    Append(cell.data(), NullSuppressedLength(cell, type_));
  }

  size_t StageBatch(const char* cells, size_t n) override {
    staged_ = {pool_.size(), lengths_.size(), sum_lengths_, prefix_len_};
    encoding::ForEachSuppressed(
        cells, type_, n,
        [this](const char* cell, uint32_t l) { Append(cell, l); });
    return Cost();
  }

  void CommitStaged() override {}

  void DropStaged() override {
    pool_.resize(staged_.pool_bytes);
    lengths_.resize(staged_.count);
    sum_lengths_ = staged_.sum_lengths;
    prefix_len_ = staged_.prefix_len;
  }

  size_t Cost() const override {
    return ChunkCost(lengths_.size(), sum_lengths_, prefix_len_);
  }

  uint32_t count() const override {
    return static_cast<uint32_t>(lengths_.size());
  }

  std::string Finish() const override {
    std::string out;
    out.reserve(Cost());
    encoding::PutU16(&out, static_cast<uint16_t>(lengths_.size()));
    const size_t prefix = lengths_.empty() ? 0 : prefix_len_;
    encoding::PutLength(&out, prefix, len_hdr_);
    out.append(pool_.data(), prefix);
    size_t offset = 0;
    for (const uint32_t l : lengths_) {
      encoding::PutLength(&out, l - prefix, len_hdr_);
      out.append(pool_.data() + offset + prefix, l - prefix);
      offset += l;
    }
    return out;
  }

  void Reset() override {
    pool_.clear();
    lengths_.clear();
    sum_lengths_ = 0;
    prefix_len_ = 0;
    staged_ = {};
  }

 private:
  /// Appends the cell's `l` null-suppressed payload bytes.
  void Append(const char* cell, uint32_t l) {
    prefix_len_ = lengths_.empty() ? l : SharedPrefix(cell, l);
    pool_.append(cell, l);
    lengths_.push_back(l);
    sum_lengths_ += l;
  }

  /// The common prefix of the current prefix and the `l` payload bytes.
  size_t SharedPrefix(const char* payload, uint32_t l) const {
    return encoding::CommonPrefixLength(payload, pool_.data(),
                                        std::min<size_t>(prefix_len_, l));
  }

  size_t ChunkCost(size_t n, size_t total_lengths, size_t prefix) const {
    if (n == 0) return 2 + len_hdr_;
    return 2 + len_hdr_ + prefix + n * len_hdr_ + (total_lengths - n * prefix);
  }

  DataType type_;
  uint32_t len_hdr_;
  std::string pool_;               // null-suppressed payloads, back to back
  std::vector<uint32_t> lengths_;  // payload length per value
  size_t sum_lengths_ = 0;
  size_t prefix_len_ = 0;
  struct {
    size_t pool_bytes;
    size_t count;
    size_t sum_lengths;
    size_t prefix_len;
  } staged_ = {};  // restore point of the staged batch
};

class PrefixCompressor final : public ColumnCompressor {
 public:
  explicit PrefixCompressor(const DataType& type) : type_(type) {}

  CompressionType type() const override { return CompressionType::kPrefix; }
  const DataType& data_type() const override { return type_; }

  std::unique_ptr<ColumnChunkCompressor> NewChunk() override {
    return std::make_unique<PrefixChunk>(type_);
  }

  Status DecodeChunk(Slice chunk,
                     std::vector<std::string>* cells) const override {
    const uint32_t len_hdr = LengthHeaderBytes(type_);
    size_t pos = 0;
    uint16_t count = 0;
    if (!encoding::GetU16(chunk, &pos, &count)) {
      return Status::Corruption("prefix chunk missing count");
    }
    uint32_t prefix_len = 0;
    CFEST_RETURN_NOT_OK(
        encoding::GetLength(chunk, &pos, len_hdr, &prefix_len));
    if (pos + prefix_len > chunk.size()) {
      return Status::Corruption("truncated prefix bytes");
    }
    const Slice prefix(chunk.data() + pos, prefix_len);
    pos += prefix_len;
    for (uint16_t i = 0; i < count; ++i) {
      uint32_t suffix_len = 0;
      CFEST_RETURN_NOT_OK(
          encoding::GetLength(chunk, &pos, len_hdr, &suffix_len));
      if (pos + suffix_len > chunk.size()) {
        return Status::Corruption("truncated prefix-chunk suffix");
      }
      if (prefix_len + suffix_len > type_.FixedWidth()) {
        return Status::Corruption("prefix-chunk cell exceeds column width");
      }
      std::string payload(prefix.data(), prefix.size());
      payload.append(chunk.data() + pos, suffix_len);
      pos += suffix_len;
      std::string cell;
      encoding::PadCell(Slice(payload), type_, &cell);
      cells->push_back(std::move(cell));
    }
    if (pos != chunk.size()) {
      return Status::Corruption("prefix chunk has trailing bytes");
    }
    return Status::OK();
  }

 private:
  DataType type_;
};

}  // namespace

std::unique_ptr<ColumnCompressor> MakePrefixCompressor(
    const DataType& data_type) {
  return std::make_unique<PrefixCompressor>(data_type);
}

}  // namespace cfest
