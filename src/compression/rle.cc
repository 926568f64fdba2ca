#include "compression/rle.h"

#include <cassert>
#include <cstring>
#include <string>
#include <vector>

#include "compression/encoding_util.h"
#include "compression/kernels.h"

namespace cfest {
namespace {

class RleChunk final : public ColumnChunkCompressor {
 public:
  explicit RleChunk(const DataType& type) : type_(type) {}

  size_t CostWith(const Slice& cell) override {
    if (ExtendsOpenRun(cell.data())) {
      return Cost();  // extends the open run; u32 length already counted
    }
    return Cost() + RunCost(cell.data());
  }

  void Add(const Slice& cell) override {
    assert(cell.size() == type_.FixedWidth());
    if (!ExtendsOpenRun(cell.data())) {
      runs_bytes_ += RunCost(cell.data());
      open_.assign(cell.data(), cell.size());
      ++runs_;
    }
    ++count_;
  }

  size_t StageBatch(const char* cells, size_t n) override {
    const uint32_t w = type_.FixedWidth();
    staged_ = {runs_, runs_bytes_, count_};
    starts_.clear();
    kernels::RunStarts(cells, w, n, OpenRunValue(), &starts_);
    // Cells before the first boundary extend the run left open before.
    for (const uint32_t start : starts_) {
      runs_bytes_ += RunCost(cells + static_cast<size_t>(start) * w);
    }
    if (!starts_.empty()) {
      saved_open_.swap(open_);
      open_.assign(cells + static_cast<size_t>(starts_.back()) * w, w);
      runs_ += starts_.size();
    }
    count_ += static_cast<uint32_t>(n);
    return Cost();
  }

  void CommitStaged() override {}

  void DropStaged() override {
    if (runs_ != staged_.runs) open_.swap(saved_open_);
    runs_ = staged_.runs;
    runs_bytes_ = staged_.runs_bytes;
    count_ = staged_.count;
  }

  size_t Cost() const override { return 2 + runs_bytes_; }
  uint32_t count() const override { return count_; }

  std::string Finish(const char* cells, size_t n) const override {
    const uint32_t w = type_.FixedWidth();
    std::vector<uint32_t> starts;
    kernels::RunStarts(cells, w, n, nullptr, &starts);
    std::string out;
    out.reserve(Cost());
    encoding::PutU16(&out, static_cast<uint16_t>(starts.size()));
    for (size_t r = 0; r < starts.size(); ++r) {
      const uint32_t end =
          r + 1 < starts.size() ? starts[r + 1] : static_cast<uint32_t>(n);
      encoding::PutU32(&out, end - starts[r]);
      encoding::PutNullSuppressed(
          Slice(cells + static_cast<size_t>(starts[r]) * w, w), type_, &out);
    }
    return out;
  }

  void Reset() override {
    runs_ = 0;
    runs_bytes_ = 0;
    count_ = 0;
    staged_ = {};
  }

 private:
  /// The value of the open (last) run, or null before the first cell.
  const char* OpenRunValue() const {
    return runs_ == 0 ? nullptr : open_.data();
  }

  bool ExtendsOpenRun(const char* cell) const {
    return runs_ > 0 &&
           std::memcmp(open_.data(), cell, type_.FixedWidth()) == 0;
  }

  /// Bytes a run of `cell` costs: its u32 length and its suppressed value.
  size_t RunCost(const char* cell) const {
    return 4 + encoding::NullSuppressedCost(Slice(cell, type_.FixedWidth()),
                                            type_);
  }

  DataType type_;
  std::string open_;        // the open run's fixed-width value
  std::string saved_open_;  // the value open_ held before the staged batch
  size_t runs_ = 0;
  size_t runs_bytes_ = 0;
  uint32_t count_ = 0;
  struct {
    size_t runs;
    size_t runs_bytes;
    uint32_t count;
  } staged_ = {};  // restore point of the staged batch
  std::vector<uint32_t> starts_;  // StageBatch's run-start scratch
};

class RleCompressor final : public ColumnCompressor {
 public:
  explicit RleCompressor(const DataType& type) : type_(type) {}

  CompressionType type() const override { return CompressionType::kRle; }
  const DataType& data_type() const override { return type_; }

  std::unique_ptr<ColumnChunkCompressor> NewChunk() override {
    return std::make_unique<RleChunk>(type_);
  }

  Status DecodeChunk(Slice chunk,
                     std::vector<std::string>* cells) const override {
    size_t pos = 0;
    uint16_t run_count = 0;
    if (!encoding::GetU16(chunk, &pos, &run_count)) {
      return Status::Corruption("RLE chunk missing run count");
    }
    // Pre-scan the run headers for the total cell count so the expansion
    // loop below reserves once instead of reallocating per push_back.
    // Lenient by design: on any malformed header the scan just stops, and
    // the main loop reports the precise corruption as before.
    {
      const uint32_t header = LengthHeaderBytes(type_);
      uint64_t total = 0;
      size_t p = pos;
      bool complete = true;
      for (uint16_t i = 0; i < run_count && complete; ++i) {
        uint32_t run_length = 0;
        if (!encoding::GetU32(chunk, &p, &run_length) ||
            p + header > chunk.size()) {
          complete = false;
          break;
        }
        uint32_t len = static_cast<unsigned char>(chunk[p]);
        if (header == 2) {
          len |= static_cast<uint32_t>(static_cast<unsigned char>(chunk[p + 1]))
                 << 8;
        }
        p += header + len;
        if (p > chunk.size()) {
          complete = false;
          break;
        }
        total += run_length;
      }
      if (complete && total <= 0xFFFF) {
        cells->reserve(cells->size() + static_cast<size_t>(total));
      }
    }
    uint64_t total_rows = 0;
    for (uint16_t i = 0; i < run_count; ++i) {
      uint32_t run_length = 0;
      if (!encoding::GetU32(chunk, &pos, &run_length)) {
        return Status::Corruption("RLE chunk missing run length");
      }
      if (run_length == 0) {
        return Status::Corruption("RLE zero-length run");
      }
      total_rows += run_length;
      // The page packer caps chunks at 65535 rows; a larger total means a
      // corrupted run length (and would otherwise trigger a giant alloc).
      if (total_rows > 0xFFFF) {
        return Status::Corruption("RLE run lengths exceed chunk row limit");
      }
      std::string cell;
      CFEST_RETURN_NOT_OK(
          encoding::GetNullSuppressed(chunk, &pos, type_, &cell));
      for (uint32_t j = 0; j < run_length; ++j) cells->push_back(cell);
    }
    if (pos != chunk.size()) {
      return Status::Corruption("RLE chunk has trailing bytes");
    }
    return Status::OK();
  }

 private:
  DataType type_;
};

}  // namespace

std::unique_ptr<ColumnCompressor> MakeRleCompressor(const DataType& data_type) {
  return std::make_unique<RleCompressor>(data_type);
}

}  // namespace cfest
