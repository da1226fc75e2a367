// Trace images, the codec, and the chunked streaming reader.
//
// See src/trace/trace_format.h for the on-disk layout. The API here is
// deliberately small:
//
//   * TraceImage — the in-memory form of a trace: entry / fault handler
//     / regions / init words / fixed-width records, convertible to and
//     from isa::Program;
//   * encode()/decode() and write_trace_file()/read_trace_file() — the
//     whole-image codec (decode validates magic, version, structure and
//     the payload checksum, throwing std::runtime_error with a message
//     naming the problem);
//   * TraceReader — the chunked decompressing loader: header, regions
//     and init words parsed up front, records streamed one chunk at a
//     time so a multi-gigabyte trace never needs to be resident.
//
// The workload-facing glue (WorkloadImage conversions, the "trace:"
// profile syntax) lives in src/trace/trace_workload.h.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
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
/// Parses and fully validates a serialized trace (checksum included).
TraceImage decode(const std::uint8_t* data, std::size_t size);
TraceImage decode(const std::vector<std::uint8_t>& buffer);

void write_trace_file(const std::string& path, const TraceImage& image,
                      bool compress = true);
/// Streams the file through a TraceReader (so validation behaviour is
/// identical to the streaming path) and collects the full image.
TraceImage read_trace_file(const std::string& path);

/// Chunked decompressing loader. Construction parses and validates the
/// header, regions and init words; next() serves records in order,
/// decompressing one chunk at a time, and verifies the payload checksum
/// when the last record has been read.
///
/// All failures — short file, bad magic, unsupported version, truncated
/// or oversized chunks, checksum mismatch — throw std::runtime_error.
class TraceReader {
 public:
  /// Streams from a file (fails with std::runtime_error if unopenable).
  explicit TraceReader(const std::string& path);
  /// Streams from an in-memory buffer (borrowed; must outlive the
  /// reader).
  TraceReader(const std::uint8_t* data, std::size_t size);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  Addr entry() const { return entry_; }
  const std::optional<Addr>& fault_handler() const { return fault_handler_; }
  const std::vector<memory::Region>& regions() const { return regions_; }
  const std::vector<memory::Poke>& init_words() const { return init_words_; }

  std::uint64_t records_total() const { return records_total_; }
  std::uint64_t records_read() const { return records_read_; }

  /// Produces the next record; false once all records were served (the
  /// checksum is verified at that point).
  bool next(TraceRecord& out);

 private:
  void parse_front();              ///< header + regions + init words
  void load_chunk();               ///< refills chunk_ from the source
  void read_exact(std::uint8_t* out, std::size_t n, const char* what);

  // Source: exactly one of file_ / buffer_ is active.
  std::FILE* file_ = nullptr;
  const std::uint8_t* buffer_ = nullptr;
  std::size_t buffer_size_ = 0;
  std::size_t buffer_pos_ = 0;
  std::string name_;  ///< for error messages

  Addr entry_ = 0;
  std::optional<Addr> fault_handler_;
  std::vector<memory::Region> regions_;
  std::vector<memory::Poke> init_words_;
  std::uint64_t records_total_ = 0;
  std::uint64_t records_read_ = 0;
  std::uint64_t checksum_expected_ = 0;
  std::uint64_t checksum_running_ = kFnvOffset;
  bool checksum_verified_ = false;

  std::vector<std::uint8_t> chunk_;  ///< decoded records of current chunk
  std::size_t chunk_pos_ = 0;        ///< byte cursor into chunk_
};

}  // namespace safespec::trace
