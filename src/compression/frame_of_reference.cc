#include "compression/frame_of_reference.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "compression/encoding_util.h"
#include "compression/kernels.h"

namespace cfest {
namespace {

int64_t DecodeCellValue(const Slice& cell, uint32_t width) {
  uint64_t v = 0;
  for (uint32_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(cell[i])) << (8 * i);
  }
  if (width < 8) {
    const uint64_t sign = 1ull << (8 * width - 1);
    if (v & sign) v |= ~((sign << 1) - 1);
  }
  return static_cast<int64_t>(v);
}

/// Bits to encode offsets in [0, span] (span as unsigned difference).
int OffsetBits(uint64_t span) {
  if (span == 0) return 0;
  if (span == ~uint64_t{0}) return 64;
  return BitsFor(span + 1);
}

class ForChunk final : public ColumnChunkCompressor {
 public:
  explicit ForChunk(const DataType& type) : type_(type) {}

  size_t CostWith(const Slice& cell) override {
    const int64_t v = DecodeCellValue(cell, type_.FixedWidth());
    const int64_t lo = count_ == 0 ? v : std::min(min_, v);
    const int64_t hi = count_ == 0 ? v : std::max(max_, v);
    return ChunkCost(count_ + 1,
                     static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo));
  }

  void Add(const Slice& cell) override {
    assert(cell.size() == type_.FixedWidth());
    const int64_t v = DecodeCellValue(cell, type_.FixedWidth());
    Extend({v, v}, 1);
  }

  size_t StageBatch(const char* cells, size_t n) override {
    staged_ = {count_, min_, max_};
    encoding::ForEachIntBlock(
        cells, type_.FixedWidth(), n, [this](const int64_t* values, size_t m) {
          Extend(kernels::MinMaxInts(values, m), m);
        });
    return Cost();
  }

  void CommitStaged() override {}

  void DropStaged() override {
    count_ = staged_.count;
    min_ = staged_.min;
    max_ = staged_.max;
  }

  size_t Cost() const override {
    return ChunkCost(count_,
                     static_cast<uint64_t>(max_) - static_cast<uint64_t>(min_));
  }

  uint32_t count() const override { return static_cast<uint32_t>(count_); }

  std::string Finish(const char* cells, size_t n) const override {
    std::string out;
    out.reserve(Cost());
    encoding::PutU16(&out, static_cast<uint16_t>(n));
    if (n == 0) return out;
    std::vector<int64_t> values(n);
    kernels::DecodeInts(cells, type_.FixedWidth(), n, values.data());
    const kernels::MinMax mm = kernels::MinMaxInts(values.data(), n);
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>(
          (static_cast<uint64_t>(mm.min) >> (8 * i)) & 0xFF));
    }
    const int bits = OffsetBits(static_cast<uint64_t>(mm.max) -
                                static_cast<uint64_t>(mm.min));
    out.push_back(static_cast<char>(bits));
    BitWriter writer(&out);
    for (int64_t v : values) {
      writer.Put(static_cast<uint64_t>(v) - static_cast<uint64_t>(mm.min),
                 bits);
    }
    return out;
  }

  void Reset() override {
    count_ = 0;
    min_ = 0;
    max_ = 0;
    staged_ = {};
  }

 private:
  /// Takes `m` values whose extremes are `mm`.
  void Extend(const kernels::MinMax& mm, size_t m) {
    if (m == 0) return;
    min_ = count_ == 0 ? mm.min : std::min(min_, mm.min);
    max_ = count_ == 0 ? mm.max : std::max(max_, mm.max);
    count_ += m;
  }

  size_t ChunkCost(size_t n, uint64_t span) const {
    if (n == 0) return 2;
    return 2 + 8 + 1 + BytesForBits(static_cast<size_t>(OffsetBits(span)) * n);
  }

  DataType type_;
  size_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  struct {
    size_t count;
    int64_t min;
    int64_t max;
  } staged_ = {};  // restore point of the staged batch
};

class ForCompressor final : public ColumnCompressor {
 public:
  explicit ForCompressor(const DataType& type) : type_(type) {}

  CompressionType type() const override {
    return CompressionType::kFrameOfReference;
  }
  const DataType& data_type() const override { return type_; }

  std::unique_ptr<ColumnChunkCompressor> NewChunk() override {
    return std::make_unique<ForChunk>(type_);
  }

  Status DecodeChunk(Slice chunk,
                     std::vector<std::string>* cells) const override {
    size_t pos = 0;
    uint16_t count = 0;
    if (!encoding::GetU16(chunk, &pos, &count)) {
      return Status::Corruption("FOR chunk missing count");
    }
    if (count == 0) {
      if (pos != chunk.size()) {
        return Status::Corruption("FOR chunk has trailing bytes");
      }
      return Status::OK();
    }
    if (pos + 9 > chunk.size()) {
      return Status::Corruption("FOR chunk missing base/width");
    }
    uint64_t base = 0;
    for (int i = 0; i < 8; ++i) {
      base |= static_cast<uint64_t>(static_cast<unsigned char>(chunk[pos + i]))
              << (8 * i);
    }
    pos += 8;
    const int bits = static_cast<unsigned char>(chunk[pos]);
    ++pos;
    if (bits > 64) return Status::Corruption("FOR offset width too large");
    BitReader reader(chunk.SubSlice(pos, chunk.size() - pos));
    const uint32_t w = type_.FixedWidth();
    for (uint16_t i = 0; i < count; ++i) {
      uint64_t offset = 0;
      if (!reader.Get(bits, &offset)) {
        return Status::Corruption("FOR chunk truncated offsets");
      }
      const uint64_t v = base + offset;
      std::string cell;
      for (uint32_t b = 0; b < w; ++b) {
        cell.push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
      }
      cells->push_back(std::move(cell));
    }
    return Status::OK();
  }

 private:
  DataType type_;
};

}  // namespace

Result<std::unique_ptr<ColumnCompressor>> MakeFrameOfReferenceCompressor(
    const DataType& data_type) {
  if (!data_type.IsInteger()) {
    return Status::InvalidArgument(
        "frame-of-reference requires an integer column, got " +
        data_type.ToString());
  }
  return {std::make_unique<ForCompressor>(data_type)};
}

}  // namespace cfest
