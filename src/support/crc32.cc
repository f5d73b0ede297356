#include "src/support/crc32.h"

#include <array>
#include <cstdio>

namespace alt {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint64_t Fnv1a64(std::string_view data, uint64_t basis) {
  uint64_t hash = basis;
  for (unsigned char byte : data) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string FrameLine(const std::string& payload) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x ", Crc32(payload));
  return crc + payload;
}

bool UnframeLine(std::string_view line, std::string* payload) {
  if (line.size() < 10 || line[8] != ' ') {
    return false;
  }
  uint32_t crc = 0;
  for (int i = 0; i < 8; ++i) {
    char c = line[i];
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = 10 + (c - 'a');
    } else {
      return false;
    }
    crc = (crc << 4) | digit;
  }
  *payload = std::string(line.substr(9));
  return Crc32(*payload) == crc;
}

}  // namespace alt
