// The SafeSpec trace encoding ("SSTR"), version 1.
//
// A trace is a complete, replayable workload: the static program image
// (one fixed-width record per instruction) plus the address-space setup
// the program assumes (mapped regions with their permission, initial
// memory words). Because the simulator is execute-driven — speculative
// data flow must be real, see src/isa/instruction.h — a trace carries
// the decoded static stream rather than a dynamic instruction log:
// decoding it reconstructs the exact isa::Program and address space,
// so an encoded synthetic workload replays with bit-identical cycle
// counts and architectural state (enforced by tests/trace_test.cc).
// The codec runs in memory only: the trace:@NAME workloads and the
// benchmark round-trip images through encode() and decode().
//
// Encoded layout (all integers little-endian):
//
//   offset size  field
//   ------ ----  -----------------------------------------------------
//        0    4  magic "SSTR"
//        4    4  version (u32, currently 1)
//        8    4  flags (u32; bit 0: chunk payloads may be compressed)
//       12    4  reserved (0)
//       16    8  entry pc
//       24    8  fault handler + 1 (0 = program has no fault handler)
//       32    8  record count (static instructions)
//       40    8  region count
//       48    8  init-word count
//       56    8  FNV-1a-64 checksum of the entire payload (everything
//                after this 64-byte header)
//   ------ ----  ----------------------------------------------------
//   regions      region_count x 24 bytes: {base u64, bytes u64,
//                flags u64 (bit 0: kernel-only mapping)}
//   init words   init_word_count x 16 bytes: {addr u64, value u64}
//   chunks       until record_count records have been produced:
//                {raw_bytes u32, encoded_bytes u32, encoded payload}
//
// Records are fixed-width (kTraceRecordBytes = 32):
//
//   offset size  field
//   ------ ----  -----------------------------------------------------
//        0    8  pc
//        8    1  op      (isa::OpClass)
//        9    1  alu     (isa::AluOp)
//       10    1  cond    (isa::CondOp)
//       11    1  dst     (register index)
//       12    1  src1
//       13    1  src2
//       14    1  flags   (bit 0: use_imm; bit 1: statically taken —
//                set for unconditional transfers; conditional branch
//                direction is data-dependent and resolved at execute,
//                so it is a replay *output*, not a trace input)
//       15    1  reserved (0)
//       16    8  imm     (i64: ALU immediate / memory displacement)
//       24    8  target  (branch/jump/call target pc)
//
// Chunking + compression: records are grouped into chunks of
// kTraceChunkRecords. Each chunk is independently encoded — the first
// record deltas against an all-zero record. The codec is dependency-free:
// each 32-byte record is XOR-delta'd byte-wise against the previous
// record (consecutive records share pc high bytes, opcode mixes and zero
// operand fields, so deltas are mostly zero), then the delta stream is
// zero-run-length encoded (0x00 followed by run-length-minus-1; other
// bytes literal). A chunk whose encoding would not shrink is stored raw,
// signalled by encoded_bytes == raw_bytes. The payload checksum is
// common/hash.h's fnv1a64.
//
// Versioning: decode() rejects any version other than kTraceVersion with
// an error naming both versions. Additions that keep the record width
// and header layout (new flag bits) stay in version 1; anything else
// bumps the version.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace safespec::trace {

/// "SSTR" in byte order (read as a little-endian u32).
inline constexpr std::uint32_t kTraceMagic = 0x52545353u;
inline constexpr std::uint32_t kTraceVersion = 1;

/// Header flag: chunk payloads may be delta+RLE compressed.
inline constexpr std::uint32_t kTraceFlagCompressed = 1u << 0;

/// Region flag bit (third u64 of each region entry): kernel-only mapping.
inline constexpr std::uint64_t kTraceRegionKernel = 1u << 0;

/// Record flag bits (byte 14 of each record).
inline constexpr std::uint8_t kTraceRecUseImm = 1u << 0;
inline constexpr std::uint8_t kTraceRecStaticTaken = 1u << 1;

inline constexpr std::size_t kTraceHeaderBytes = 64;
inline constexpr std::size_t kTraceRecordBytes = 32;
inline constexpr std::size_t kTraceRegionBytes = 24;
inline constexpr std::size_t kTraceInitWordBytes = 16;

/// Records per chunk (64 KiB raw) — the compression unit.
inline constexpr std::size_t kTraceChunkRecords = 2048;

/// One fixed-width instruction record, in memory. Field meanings match
/// isa::Instruction; conversion (with enum-range validation on decode)
/// lives in trace.cc.
struct TraceRecord {
  Addr pc = 0;
  std::uint8_t op = 0;
  std::uint8_t alu = 0;
  std::uint8_t cond = 0;
  std::uint8_t dst = 0;
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;
  std::uint8_t flags = 0;
  std::int64_t imm = 0;
  Addr target = 0;
};

}  // namespace safespec::trace
