#ifndef PISREP_UTIL_HEX_H_
#define PISREP_UTIL_HEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pisrep::util {

/// Encodes `len` bytes as lowercase hex.
std::string HexEncode(const std::uint8_t* data, std::size_t len);
std::string HexEncode(std::string_view data);

/// Decodes a hex string (case-insensitive). Fails on odd length or non-hex
/// characters.
Result<std::vector<std::uint8_t>> HexDecode(std::string_view hex);

/// Decodes `hex` into exactly `out.size()` bytes without allocating (the
/// per-row id decode of the stores' scans). False on a length mismatch or
/// a non-hex character; `out` is then unspecified.
bool HexDecodeTo(std::string_view hex, std::span<std::uint8_t> out);

}  // namespace pisrep::util

#endif  // PISREP_UTIL_HEX_H_
