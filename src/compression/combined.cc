#include "compression/combined.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "compression/cell_dictionary.h"
#include "compression/encoding_util.h"

namespace cfest {
namespace {

class CombinedChunk final : public ColumnChunkCompressor {
 public:
  CombinedChunk(const DataType& type, bool grouped,
                uint64_t* total_dict_entries)
      : type_(type),
        len_hdr_(LengthHeaderBytes(type)),
        total_dict_entries_(total_dict_entries),
        dict_(256, grouped) {}

  size_t CostWith(const Slice& cell) override {
    const uint32_t l = NullSuppressedLength(cell, type_);
    size_t dict_count = dict_.size();
    size_t sum_lens = sum_entry_lengths_;
    size_t prefix = prefix_len_;
    if (!dict_.Contains(cell.data(), l)) {
      ++dict_count;
      sum_lens += l;
      prefix = dict_.empty() ? l : SharedPrefix(cell.data(), l);
    }
    return ChunkCost(dict_count, sum_lens, prefix, rows_ + 1);
  }

  void Add(const Slice& cell) override {
    assert(cell.size() == type_.FixedWidth());
    const size_t entries = dict_.size();
    Insert(cell.data(), NullSuppressedLength(cell, type_));
    *total_dict_entries_ += dict_.size() - entries;
    ++rows_;
  }

  /// The batch's new distinct payloads enter the dictionary tentatively;
  /// a drop rolls them back together with the prefix length and the
  /// entry-length sum.
  size_t StageBatch(const char* cells, size_t n) override {
    staged_ = {dict_.size(), sum_entry_lengths_, prefix_len_, rows_};
    dict_.BeginTentative();
    encoding::ForEachSuppressed(
        cells, type_, n,
        [this](const char* cell, uint32_t l) { Insert(cell, l); });
    rows_ += n;
    return Cost();
  }

  void CommitStaged() override {
    *total_dict_entries_ += dict_.size() - staged_.entries;
    dict_.Commit();
  }

  void DropStaged() override {
    dict_.RollBack();
    sum_entry_lengths_ = staged_.sum_entry_lengths;
    prefix_len_ = staged_.prefix_len;
    rows_ = staged_.rows;
  }

  size_t Cost() const override {
    return ChunkCost(dict_.size(), sum_entry_lengths_, prefix_len_, rows_);
  }

  uint32_t count() const override { return static_cast<uint32_t>(rows_); }

  std::string Finish(const char* cells, size_t n) const override {
    CellDictionary dict;
    std::vector<uint32_t> codes;
    codes.reserve(n);
    encoding::ForEachSuppressed(
        cells, type_, n, [&](const char* cell, uint32_t l) {
          codes.push_back(dict.Insert(cell, l).code);
        });
    size_t prefix = dict.empty() ? 0 : dict.entry(0).size();
    for (uint32_t code = 1; code < dict.size(); ++code) {
      const Slice entry = dict.entry(code);
      prefix = encoding::CommonPrefixLength(
          entry.data(), dict.entry(0).data(),
          std::min<size_t>(prefix, entry.size()));
    }
    const int bits = BitsFor(dict.size());
    std::string out;
    out.reserve(Cost());
    encoding::PutU16(&out, static_cast<uint16_t>(dict.size()));
    out.push_back(static_cast<char>(bits));
    encoding::PutLength(&out, prefix, len_hdr_);
    if (!dict.empty()) out.append(dict.entry(0).data(), prefix);
    for (uint32_t code = 0; code < dict.size(); ++code) {
      const Slice entry = dict.entry(code);
      encoding::PutLength(&out, entry.size() - prefix, len_hdr_);
      out.append(entry.data() + prefix, entry.size() - prefix);
    }
    encoding::PutU16(&out, static_cast<uint16_t>(n));
    BitWriter writer(&out);
    for (uint32_t code : codes) writer.Put(code, bits);
    return out;
  }

  void Reset() override {
    dict_.Clear();
    sum_entry_lengths_ = 0;
    prefix_len_ = 0;
    rows_ = 0;
    staged_ = {};
  }

 private:
  /// Makes the null-suppressed payload (the cell's first `l` bytes) an
  /// entry; a new entry grows the entry-length sum and may shorten the
  /// prefix.
  void Insert(const char* cell, uint32_t l) {
    const CellDictionary::Insertion ins = dict_.Insert(cell, l);
    if (!ins.inserted) return;
    sum_entry_lengths_ += l;
    if (ins.code == 0) {
      first_.assign(cell, l);
      prefix_len_ = l;
    } else {
      prefix_len_ = SharedPrefix(cell, l);
    }
  }

  /// The common prefix of the current prefix and the `l` payload bytes.
  size_t SharedPrefix(const char* payload, uint32_t l) const {
    return encoding::CommonPrefixLength(payload, first_.data(),
                                        std::min<size_t>(prefix_len_, l));
  }

  size_t ChunkCost(size_t dict_count, size_t sum_lens, size_t prefix,
                   size_t row_count) const {
    int bits = BitsFor(dict_count);
    const size_t entry_region =
        dict_count == 0
            ? len_hdr_
            : len_hdr_ + prefix + dict_count * len_hdr_ +
                  (sum_lens - dict_count * prefix);
    return 2 + 1 + entry_region + 2 + BytesForBits(bits * row_count);
  }

  DataType type_;
  uint32_t len_hdr_;
  uint64_t* total_dict_entries_;  // owned by the parent compressor
  CellDictionary dict_;           // the page's distinct suppressed payloads
  std::string first_;             // the page's first entry
  size_t sum_entry_lengths_ = 0;
  size_t prefix_len_ = 0;
  size_t rows_ = 0;
  struct {
    size_t entries;
    size_t sum_entry_lengths;
    size_t prefix_len;
    size_t rows;
  } staged_ = {};  // restore point of the staged batch
};

class CombinedCompressor final : public ColumnCompressor {
 public:
  CombinedCompressor(const DataType& type, bool grouped)
      : type_(type), grouped_(grouped) {}

  CompressionType type() const override {
    return CompressionType::kPrefixDictionary;
  }
  const DataType& data_type() const override { return type_; }

  std::unique_ptr<ColumnChunkCompressor> NewChunk() override {
    return std::make_unique<CombinedChunk>(type_, grouped_,
                                           &total_dict_entries_);
  }

  uint64_t TotalDictionaryEntries() const override {
    return total_dict_entries_;
  }

  Status DecodeChunk(Slice chunk,
                     std::vector<std::string>* cells) const override {
    const uint32_t len_hdr = LengthHeaderBytes(type_);
    size_t pos = 0;
    uint16_t dict_count = 0;
    if (!encoding::GetU16(chunk, &pos, &dict_count)) {
      return Status::Corruption("combined chunk missing dict count");
    }
    if (pos + 1 > chunk.size()) {
      return Status::Corruption("combined chunk missing pointer width");
    }
    const int bits = static_cast<unsigned char>(chunk[pos]);
    ++pos;
    if (bits > 32) {
      return Status::Corruption("combined pointer width too large");
    }
    uint32_t prefix_len = 0;
    CFEST_RETURN_NOT_OK(
        encoding::GetLength(chunk, &pos, len_hdr, &prefix_len));
    if (pos + prefix_len > chunk.size()) {
      return Status::Corruption("combined chunk truncated prefix");
    }
    const Slice prefix(chunk.data() + pos, prefix_len);
    pos += prefix_len;
    std::vector<std::string> entries;
    entries.reserve(dict_count);
    for (uint16_t i = 0; i < dict_count; ++i) {
      uint32_t suffix_len = 0;
      CFEST_RETURN_NOT_OK(
          encoding::GetLength(chunk, &pos, len_hdr, &suffix_len));
      if (pos + suffix_len > chunk.size()) {
        return Status::Corruption("combined chunk truncated suffix");
      }
      if (prefix_len + suffix_len > type_.FixedWidth()) {
        return Status::Corruption("combined entry exceeds column width");
      }
      std::string payload(prefix.data(), prefix.size());
      payload.append(chunk.data() + pos, suffix_len);
      pos += suffix_len;
      std::string cell;
      encoding::PadCell(Slice(payload), type_, &cell);
      entries.push_back(std::move(cell));
    }
    uint16_t row_count = 0;
    if (!encoding::GetU16(chunk, &pos, &row_count)) {
      return Status::Corruption("combined chunk missing row count");
    }
    if (row_count > 0 && dict_count == 0) {
      return Status::Corruption("combined rows with empty dictionary");
    }
    BitReader reader(chunk.SubSlice(pos, chunk.size() - pos));
    for (uint16_t i = 0; i < row_count; ++i) {
      uint64_t code = 0;
      if (!reader.Get(bits, &code)) {
        return Status::Corruption("combined chunk truncated pointers");
      }
      if (code >= dict_count) {
        return Status::Corruption("combined pointer out of range");
      }
      cells->push_back(entries[static_cast<size_t>(code)]);
    }
    return Status::OK();
  }

 private:
  DataType type_;
  bool grouped_;
  uint64_t total_dict_entries_ = 0;
};

}  // namespace

std::unique_ptr<ColumnCompressor> MakeCombinedPageCompressor(
    const DataType& data_type, bool grouped) {
  return std::make_unique<CombinedCompressor>(data_type, grouped);
}

}  // namespace cfest
