#include "compression/encoding_util.h"

namespace cfest {
namespace encoding {

Status GetLength(Slice in, size_t* pos, uint32_t header_bytes,
                 uint32_t* len) {
  if (header_bytes == 1) {
    if (*pos + 1 > in.size()) {
      return Status::Corruption("truncated length header");
    }
    *len = static_cast<unsigned char>(in[*pos]);
    *pos += 1;
    return Status::OK();
  }
  uint16_t l16 = 0;
  if (!GetU16(in, pos, &l16)) {
    return Status::Corruption("truncated length header");
  }
  *len = l16;
  return Status::OK();
}

void PutNullSuppressed(const Slice& cell, const DataType& type,
                       std::string* out) {
  const uint32_t len = NullSuppressedLength(cell, type);
  PutLength(out, len, LengthHeaderBytes(type));
  out->append(cell.data(), len);
}

Status GetNullSuppressed(Slice in, size_t* pos, const DataType& type,
                         std::string* cell_out) {
  uint32_t len = 0;
  CFEST_RETURN_NOT_OK(GetLength(in, pos, LengthHeaderBytes(type), &len));
  if (len > type.FixedWidth()) {
    return Status::Corruption("NS length exceeds column width");
  }
  if (*pos + len > in.size()) {
    return Status::Corruption("truncated NS payload");
  }
  PadCell(Slice(in.data() + *pos, len), type, cell_out);
  *pos += len;
  return Status::OK();
}

void PadCell(Slice payload, const DataType& type, std::string* cell_out) {
  cell_out->append(payload.data(), payload.size());
  const char pad = type.IsString() ? ' ' : '\0';
  cell_out->append(type.FixedWidth() - payload.size(), pad);
}

}  // namespace encoding
}  // namespace cfest
