// Bit-pattern digests for the *Golden suites: each suite pins a
// computation to hex digests captured from an earlier implementation,
// so a kernel rewrite that must not move a bit is checked bit for bit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace stsense::golden {

/// 64-bit FNV-1a over the bit patterns of `values`, as 16 hex digits.
inline std::string digest(const std::vector<double>& values) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double v : values) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (bits >> (8 * byte)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

/// 64-bit FNV-1a over the bytes of `text`, as 16 hex digits.
inline std::string digest_bytes(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

} // namespace stsense::golden
