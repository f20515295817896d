#include "core/types.h"

#include "util/hex.h"

namespace pisrep::core {

util::Result<SoftwareId> SoftwareIdFromHex(std::string_view hex) {
  SoftwareId id;
  if (!util::HexDecodeTo(hex, id.bytes)) {
    return util::Status::InvalidArgument(
        "software id must be 40 hex characters");
  }
  return id;
}

}  // namespace pisrep::core
