#include "compression/delta.h"

#include <bit>
#include <cassert>
#include <string>

#include "compression/encoding_util.h"

namespace cfest {
namespace {

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// v - prev with two's-complement wraparound (no signed overflow).
int64_t Delta(int64_t v, int64_t prev) {
  return static_cast<int64_t>(static_cast<uint64_t>(v) -
                              static_cast<uint64_t>(prev));
}

/// Bytes of PutVarint(v): one per started 7 bits, at least one.
size_t VarintSize(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(Slice in, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < in.size() && shift <= 63) {
    const unsigned char byte = static_cast<unsigned char>(in[*pos]);
    ++*pos;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

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

class DeltaChunk final : public ColumnChunkCompressor {
 public:
  explicit DeltaChunk(const DataType& type) : type_(type) {}

  size_t CostWith(const Slice& cell) override {
    return Cost() + ValueCost(DecodeCellValue(cell, type_.FixedWidth()),
                              count_, prev_);
  }

  void Add(const Slice& cell) override {
    assert(cell.size() == type_.FixedWidth());
    Append(DecodeCellValue(cell, type_.FixedWidth()));
  }

  size_t StageBatch(const char* cells, size_t n) override {
    staged_ = {bytes_, prev_, count_};
    encoding::ForEachIntBlock(
        cells, type_.FixedWidth(), n, [this](const int64_t* values, size_t m) {
          for (size_t i = 0; i < m; ++i) Append(values[i]);
        });
    return Cost();
  }

  void CommitStaged() override {}

  void DropStaged() override {
    bytes_ = staged_.bytes;
    prev_ = staged_.prev;
    count_ = staged_.count;
  }

  size_t Cost() const override { return 2 + bytes_; }
  uint32_t count() const override { return count_; }

  std::string Finish(const char* cells, size_t n) const override {
    std::string out;
    out.reserve(Cost());
    encoding::PutU16(&out, static_cast<uint16_t>(n));
    size_t i = 0;
    int64_t prev = 0;
    encoding::ForEachIntBlock(
        cells, type_.FixedWidth(), n, [&](const int64_t* values, size_t m) {
          for (size_t k = 0; k < m; ++k, ++i) {
            const int64_t v = values[k];
            if (i == 0) {
              for (int b = 0; b < 8; ++b) {
                out.push_back(static_cast<char>(
                    (static_cast<uint64_t>(v) >> (8 * b)) & 0xFF));
              }
            } else {
              PutVarint(ZigZag(Delta(v, prev)), &out);
            }
            prev = v;
          }
        });
    return out;
  }

  void Reset() override {
    bytes_ = 0;
    prev_ = 0;
    count_ = 0;
    staged_ = {};
  }

 private:
  /// Bytes `v` adds after `count` values ending in `prev`: the first value
  /// is stored raw in 8 bytes, every later one as a zigzag-varint delta.
  static size_t ValueCost(int64_t v, uint32_t count, int64_t prev) {
    return count == 0 ? 8 : VarintSize(ZigZag(Delta(v, prev)));
  }

  void Append(int64_t v) {
    bytes_ += ValueCost(v, count_, prev_);
    prev_ = v;
    ++count_;
  }

  DataType type_;
  size_t bytes_ = 0;  // the raw first value and the later varints
  int64_t prev_ = 0;
  uint32_t count_ = 0;
  struct {
    size_t bytes;
    int64_t prev;
    uint32_t count;
  } staged_ = {};  // restore point of the staged batch
};

class DeltaCompressor final : public ColumnCompressor {
 public:
  explicit DeltaCompressor(const DataType& type) : type_(type) {}

  CompressionType type() const override { return CompressionType::kDelta; }
  const DataType& data_type() const override { return type_; }

  std::unique_ptr<ColumnChunkCompressor> NewChunk() override {
    return std::make_unique<DeltaChunk>(type_);
  }

  Status DecodeChunk(Slice chunk,
                     std::vector<std::string>* cells) const override {
    size_t pos = 0;
    uint16_t count = 0;
    if (!encoding::GetU16(chunk, &pos, &count)) {
      return Status::Corruption("delta chunk missing count");
    }
    if (count == 0) {
      if (pos != chunk.size()) {
        return Status::Corruption("delta chunk has trailing bytes");
      }
      return Status::OK();
    }
    if (pos + 8 > chunk.size()) {
      return Status::Corruption("delta chunk missing first value");
    }
    int64_t value = 0;
    {
      uint64_t raw = 0;
      for (int i = 0; i < 8; ++i) {
        raw |= static_cast<uint64_t>(
                   static_cast<unsigned char>(chunk[pos + i]))
               << (8 * i);
      }
      value = static_cast<int64_t>(raw);
      pos += 8;
    }
    AppendCell(value, cells);
    for (uint16_t i = 1; i < count; ++i) {
      uint64_t zz = 0;
      if (!GetVarint(chunk, &pos, &zz)) {
        return Status::Corruption("delta chunk truncated varint");
      }
      value = static_cast<int64_t>(static_cast<uint64_t>(value) +
                                   static_cast<uint64_t>(UnZigZag(zz)));
      AppendCell(value, cells);
    }
    if (pos != chunk.size()) {
      return Status::Corruption("delta chunk has trailing bytes");
    }
    return Status::OK();
  }

 private:
  void AppendCell(int64_t v, std::vector<std::string>* cells) const {
    std::string cell;
    const uint32_t w = type_.FixedWidth();
    for (uint32_t i = 0; i < w; ++i) {
      cell.push_back(
          static_cast<char>((static_cast<uint64_t>(v) >> (8 * i)) & 0xFF));
    }
    cells->push_back(std::move(cell));
  }

  DataType type_;
};

}  // namespace

Result<std::unique_ptr<ColumnCompressor>> MakeDeltaCompressor(
    const DataType& data_type) {
  if (!data_type.IsInteger()) {
    return Status::InvalidArgument(
        "delta compression requires an integer column, got " +
        data_type.ToString());
  }
  return {std::make_unique<DeltaCompressor>(data_type)};
}

}  // namespace cfest
