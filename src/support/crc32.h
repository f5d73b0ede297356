// Checksums and stable hashes for on-disk framing and cache-key
// fingerprinting.
//
// Crc32 (IEEE 802.3, reflected polynomial 0xEDB88320) frames every tuning
// database line so a crashed or torn write is detected on load instead of
// silently corrupting a resumed run. Fnv1a64 fingerprints measurement cache
// keys: the full keys are long structural strings, the database only needs a
// stable 64-bit identity for them. Both are fixed algorithms — values written
// by one build must verify on any other — so neither may ever be swapped for
// std::hash (which is unspecified across implementations).

#ifndef ALT_SUPPORT_CRC32_H_
#define ALT_SUPPORT_CRC32_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace alt {

// CRC-32 (IEEE) of `data`, starting from the conventional ~0 seed.
uint32_t Crc32(std::string_view data);

// FNV-1a 64-bit hash of `data`, starting from `basis` (the standard FNV
// offset basis unless a caller must keep values it hashed from another).
uint64_t Fnv1a64(std::string_view data, uint64_t basis = 0xcbf29ce484222325ull);

// Line framing shared by every CRC-checked text format (tuning database,
// compiled-network artifacts): "<crc32-hex-8> <payload>", checksum over
// exactly <payload>.
std::string FrameLine(const std::string& payload);

// Splits a framed line and verifies its checksum. Returns false on short
// lines, malformed hex, or a CRC mismatch; `payload` is valid only on true.
bool UnframeLine(std::string_view line, std::string* payload);

}  // namespace alt

#endif  // ALT_SUPPORT_CRC32_H_
