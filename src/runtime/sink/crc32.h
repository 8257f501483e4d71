#ifndef COSTSENSE_RUNTIME_SINK_CRC32_H_
#define COSTSENSE_RUNTIME_SINK_CRC32_H_

#include <cstdint>
#include <string_view>

namespace costsense::runtime::sink {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`. The checksum
/// behind every framed record in the repo: cache-store snapshot records
/// carry it so a torn write or flipped bit is detected before a single
/// stale byte can reach an analysis.
uint32_t Crc32(std::string_view data);

}  // namespace costsense::runtime::sink

#endif  // COSTSENSE_RUNTIME_SINK_CRC32_H_
