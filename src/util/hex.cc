#include "util/hex.h"

namespace pisrep::util {

namespace {

constexpr char kHexChars[] = "0123456789abcdef";

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string HexEncode(const std::uint8_t* data, std::size_t len) {
  std::string out;
  out.reserve(len * 2);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kHexChars[data[i] >> 4]);
    out.push_back(kHexChars[data[i] & 0x0F]);
  }
  return out;
}

std::string HexEncode(std::string_view data) {
  return HexEncode(reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size());
}

Result<std::vector<std::uint8_t>> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex character in input");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

bool HexDecodeTo(std::string_view hex, std::span<std::uint8_t> out) {
  if (hex.size() != out.size() * 2) return false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    int hi = HexNibble(hex[2 * i]);
    int lo = HexNibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return false;
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return true;
}

}  // namespace pisrep::util
