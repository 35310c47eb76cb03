// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the frame and segment-header
// checksum of the durable evidence journal.
//
// A CRC is deliberately *not* a cryptographic check: it detects torn writes
// and media corruption cheaply at scan time, while end-to-end integrity of
// journal contents is carried by the evidence hash chain (SHA-256) inside
// every record. Keeping the two concerns separate lets crash recovery run a
// fast scan without touching the crypto layer.
//
// Two implementations sit behind one entry point: an SSE4.2 hardware path
// (`_mm_crc32_u64`, 8 input bytes per instruction) picked by runtime CPUID
// dispatch, and the portable slicing-by-4 table path as the fallback. Both
// compute the identical function — the differential suite in util_test
// pins them against each other and against RFC 3720 known-answer vectors.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace nonrep {

/// One-shot CRC32C over `data`.
std::uint32_t crc32c(BytesView data) noexcept;

/// Incremental form: feed the previous return value back in as `state` to
/// extend a running checksum (state 0 == fresh).
std::uint32_t crc32c_extend(std::uint32_t state, BytesView data) noexcept;

/// Portable slicing-by-4 path, dispatch bypassed — exposed so tests can
/// differentially check the hardware path against it. Same function value
/// as crc32c_extend for every input.
std::uint32_t crc32c_extend_sw(std::uint32_t state, BytesView data) noexcept;

/// True when the SSE4.2 hardware path is compiled in and the running CPU
/// selects it (i.e. crc32c_extend and crc32c_extend_sw take different code
/// paths).
bool crc32c_hw_available() noexcept;

}  // namespace nonrep
