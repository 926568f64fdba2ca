#include "compression/prefix.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "compression/encoding_util.h"
#include "compression/kernels.h"

namespace cfest {
namespace {

class PrefixChunk final : public ColumnChunkCompressor {
 public:
  explicit PrefixChunk(const DataType& type)
      : type_(type), len_hdr_(LengthHeaderBytes(type)) {}

  size_t CostWith(const Slice& cell) override {
    const uint32_t l = NullSuppressedLength(cell, type_);
    // The first value's full suppressed bytes form the prefix.
    const size_t prefix = count_ == 0 ? l : SharedPrefix(cell.data(), l);
    // sum of suffix lengths = sum of l_i - n * prefix
    return ChunkCost(count_ + 1, sum_lengths_ + l, prefix);
  }

  void Add(const Slice& cell) override {
    assert(cell.size() == type_.FixedWidth());
    Append(cell.data(), NullSuppressedLength(cell, type_));
  }

  size_t StageBatch(const char* cells, size_t n) override {
    staged_ = {count_, sum_lengths_, prefix_len_};
    encoding::ForEachSuppressed(
        cells, type_, n,
        [this](const char* cell, uint32_t l) { Append(cell, l); });
    return Cost();
  }

  void CommitStaged() override {}

  void DropStaged() override {
    count_ = staged_.count;
    sum_lengths_ = staged_.sum_lengths;
    prefix_len_ = staged_.prefix_len;
  }

  size_t Cost() const override {
    return ChunkCost(count_, sum_lengths_, prefix_len_);
  }

  uint32_t count() const override { return static_cast<uint32_t>(count_); }

  std::string Finish(const char* cells, size_t n) const override {
    const uint32_t w = type_.FixedWidth();
    std::vector<uint32_t> lengths(n);
    kernels::NullSuppressedLengths(cells, w, n, type_.IsString(),
                                   lengths.data());
    size_t prefix = n == 0 ? 0 : lengths[0];
    for (size_t i = 1; i < n; ++i) {
      prefix = encoding::CommonPrefixLength(
          cells + i * w, cells, std::min<size_t>(prefix, lengths[i]));
    }
    std::string out;
    out.reserve(Cost());
    encoding::PutU16(&out, static_cast<uint16_t>(n));
    encoding::PutLength(&out, prefix, len_hdr_);
    out.append(cells, prefix);
    for (size_t i = 0; i < n; ++i) {
      encoding::PutLength(&out, lengths[i] - prefix, len_hdr_);
      out.append(cells + i * w + prefix, lengths[i] - prefix);
    }
    return out;
  }

  void Reset() override {
    count_ = 0;
    sum_lengths_ = 0;
    prefix_len_ = 0;
    staged_ = {};
  }

 private:
  /// Takes the cell's `l` null-suppressed payload bytes.
  void Append(const char* cell, uint32_t l) {
    if (count_ == 0) {
      first_.assign(cell, l);
      prefix_len_ = l;
    } else {
      prefix_len_ = SharedPrefix(cell, l);
    }
    sum_lengths_ += l;
    ++count_;
  }

  /// The common prefix of the current prefix and the `l` payload bytes.
  size_t SharedPrefix(const char* payload, uint32_t l) const {
    return encoding::CommonPrefixLength(payload, first_.data(),
                                        std::min<size_t>(prefix_len_, l));
  }

  size_t ChunkCost(size_t n, size_t total_lengths, size_t prefix) const {
    if (n == 0) return 2 + len_hdr_;
    return 2 + len_hdr_ + prefix + n * len_hdr_ + (total_lengths - n * prefix);
  }

  DataType type_;
  uint32_t len_hdr_;
  std::string first_;  // the page's first suppressed payload
  size_t count_ = 0;
  size_t sum_lengths_ = 0;
  size_t prefix_len_ = 0;
  struct {
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
