// Trace images and their in-memory codec.
//
// See src/trace/trace_format.h for the encoded layout. The API here is
// deliberately small:
//
//   * TraceImage — the in-memory form of a trace: entry / fault handler
//     / regions / init words / fixed-width records, convertible to and
//     from isa::Program;
//   * encode()/decode() — the whole-image codec (decode validates magic,
//     version, structure and the payload checksum, throwing
//     std::runtime_error with a message naming the problem).
//
// The workload-facing glue (WorkloadImage conversions) lives in
// src/trace/trace_workload.h.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "isa/program.h"
#include "memory/main_memory.h"
#include "trace/trace_format.h"

namespace safespec::trace {

/// A complete trace in memory.
struct TraceImage {
  Addr entry = 0;
  std::optional<Addr> fault_handler;
  std::vector<memory::Region> regions;
  std::vector<memory::Poke> init_words;
  std::vector<TraceRecord> records;  ///< pc-ascending static stream

  /// Rebuilds the exact static program (entry, fault handler, every
  /// instruction). Throws std::runtime_error on out-of-range enum
  /// fields (a corrupt or hand-forged trace).
  isa::Program to_program() const;

  /// Records + entry + fault handler from a program (regions and init
  /// words are the caller's to fill; see trace_workload.h).
  static TraceImage from_program(const isa::Program& program);
};

/// Converts one record to an instruction, validating enum ranges.
isa::Instruction to_instruction(const TraceRecord& rec);
/// Converts one placed instruction to a record.
TraceRecord to_record(Addr pc, const isa::Instruction& inst);

/// Serializes a trace (compressed by default; `compress = false` stores
/// every chunk raw, for debugging).
std::vector<std::uint8_t> encode(const TraceImage& image,
                                 bool compress = true);
/// Parses and fully validates a serialized trace in one pass: magic,
/// version, implausible table counts, chunk headers, truncation and the
/// checksum over the consumed payload. Any failure throws
/// std::runtime_error.
TraceImage decode(const std::vector<std::uint8_t>& buffer);

}  // namespace safespec::trace
