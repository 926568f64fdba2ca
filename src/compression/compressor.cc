#include "compression/compressor.h"

#include "compression/combined.h"
#include "compression/delta.h"
#include "compression/frame_of_reference.h"
#include "compression/dictionary_global.h"
#include "compression/dictionary_page.h"
#include "compression/null_suppression.h"
#include "compression/prefix.h"
#include "compression/rle.h"

namespace cfest {

const char* CompressionTypeName(CompressionType type) {
  switch (type) {
    case CompressionType::kNone:
      return "none";
    case CompressionType::kNullSuppression:
      return "null_suppression";
    case CompressionType::kDictionaryPage:
      return "dictionary_page";
    case CompressionType::kDictionaryGlobal:
      return "dictionary_global";
    case CompressionType::kRle:
      return "rle";
    case CompressionType::kPrefix:
      return "prefix";
    case CompressionType::kDelta:
      return "delta";
    case CompressionType::kPrefixDictionary:
      return "prefix_dictionary";
    case CompressionType::kFrameOfReference:
      return "frame_of_reference";
  }
  return "unknown";
}

Result<CompressionType> CompressionTypeFromName(const std::string& name) {
  for (CompressionType t : AllCompressionTypes()) {
    if (name == CompressionTypeName(t)) return t;
  }
  return Status::NotFound("unknown compression type: " + name);
}

std::vector<CompressionType> AllCompressionTypes() {
  return {CompressionType::kNone,
          CompressionType::kNullSuppression,
          CompressionType::kDictionaryPage,
          CompressionType::kDictionaryGlobal,
          CompressionType::kRle,
          CompressionType::kPrefix,
          CompressionType::kDelta,
          CompressionType::kPrefixDictionary,
          CompressionType::kFrameOfReference};
}

Result<std::unique_ptr<ColumnCompressor>> MakeColumnCompressor(
    CompressionType type, const DataType& data_type,
    const CompressionOptions& options, bool grouped) {
  if (data_type.FixedWidth() == 0) {
    return Status::InvalidArgument("cannot compress zero-width column type " +
                                   data_type.ToString());
  }
  if (options.global_pointer_bytes > 8) {
    return Status::InvalidArgument(
        "global dictionary pointers are at most 8 bytes, got " +
        std::to_string(options.global_pointer_bytes));
  }
  switch (type) {
    case CompressionType::kNone:
      return MakeNoneCompressor(data_type);
    case CompressionType::kNullSuppression:
      return MakeNullSuppressionCompressor(data_type);
    case CompressionType::kDictionaryPage:
      return MakePageDictionaryCompressor(data_type, options, grouped);
    case CompressionType::kDictionaryGlobal:
      return MakeGlobalDictionaryCompressor(data_type, options, grouped);
    case CompressionType::kRle:
      return MakeRleCompressor(data_type);
    case CompressionType::kPrefix:
      return MakePrefixCompressor(data_type);
    case CompressionType::kDelta:
      return MakeDeltaCompressor(data_type);
    case CompressionType::kPrefixDictionary:
      return MakeCombinedPageCompressor(data_type, grouped);
    case CompressionType::kFrameOfReference:
      return MakeFrameOfReferenceCompressor(data_type);
  }
  return Status::NotSupported("unhandled compression type");
}

}  // namespace cfest
