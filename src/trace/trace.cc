#include "trace/trace.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/hash.h"

namespace safespec::trace {

namespace {

// ---- little-endian primitives ----------------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

void serialize_record(std::vector<std::uint8_t>& out, const TraceRecord& r) {
  put_u64(out, r.pc);
  out.push_back(r.op);
  out.push_back(r.alu);
  out.push_back(r.cond);
  out.push_back(r.dst);
  out.push_back(r.src1);
  out.push_back(r.src2);
  out.push_back(r.flags);
  out.push_back(0);  // reserved
  put_u64(out, static_cast<std::uint64_t>(r.imm));
  put_u64(out, r.target);
}

/// The payload checksum: FNV-1a over everything after the header.
std::uint64_t checksum_of(const std::uint8_t* payload, std::size_t size) {
  return fnv1a64(
      std::string_view(reinterpret_cast<const char*>(payload), size));
}

TraceRecord deserialize_record(const std::uint8_t* p) {
  TraceRecord r;
  r.pc = get_u64(p);
  r.op = p[8];
  r.alu = p[9];
  r.cond = p[10];
  r.dst = p[11];
  r.src1 = p[12];
  r.src2 = p[13];
  r.flags = p[14];
  r.imm = static_cast<std::int64_t>(get_u64(p + 16));
  r.target = get_u64(p + 24);
  return r;
}

// ---- chunk codec: XOR-delta against the previous record, then zero-RLE ----

/// In place: raw[i] ^= raw[i - kTraceRecordBytes] (first record deltas
/// against zero). Self-inverse, so the same pass undoes it after the
/// prefix has been restored — see undelta().
void delta(std::vector<std::uint8_t>& raw) {
  for (std::size_t i = raw.size(); i-- > kTraceRecordBytes;) {
    raw[i] ^= raw[i - kTraceRecordBytes];
  }
}

void undelta(std::vector<std::uint8_t>& raw) {
  for (std::size_t i = kTraceRecordBytes; i < raw.size(); ++i) {
    raw[i] ^= raw[i - kTraceRecordBytes];
  }
}

/// Zero-RLE: literal non-zero bytes; a zero run becomes {0x00, len-1},
/// split over runs longer than 256.
std::vector<std::uint8_t> rle_encode(const std::vector<std::uint8_t>& in) {
  std::vector<std::uint8_t> out;
  out.reserve(in.size() / 4);
  std::size_t i = 0;
  while (i < in.size()) {
    if (in[i] != 0) {
      out.push_back(in[i++]);
      continue;
    }
    std::size_t run = 1;
    while (i + run < in.size() && in[i + run] == 0 && run < 256) ++run;
    out.push_back(0);
    out.push_back(static_cast<std::uint8_t>(run - 1));
    i += run;
  }
  return out;
}

void rle_decode(const std::uint8_t* in, std::size_t in_size,
                std::vector<std::uint8_t>& out, std::size_t expected) {
  out.clear();
  out.reserve(expected);
  std::size_t i = 0;
  while (i < in_size) {
    const std::uint8_t b = in[i++];
    if (b != 0) {
      out.push_back(b);
      continue;
    }
    if (i >= in_size) {
      throw std::runtime_error(
          "truncated trace (zero-run length missing in chunk payload)");
    }
    const std::size_t run = std::size_t{in[i++]} + 1;
    out.insert(out.end(), run, 0);
    if (out.size() > expected) break;  // corrupt; reported below
  }
  if (out.size() != expected) {
    throw std::runtime_error("corrupt trace (chunk decompressed to " +
                             std::to_string(out.size()) +
                             " bytes, header promised " +
                             std::to_string(expected) + ")");
  }
}

}  // namespace

// ---- record <-> instruction -------------------------------------------------

isa::Instruction to_instruction(const TraceRecord& rec) {
  if (rec.op > static_cast<std::uint8_t>(isa::OpClass::kHalt) ||
      rec.alu > static_cast<std::uint8_t>(isa::AluOp::kMovImm) ||
      rec.cond > static_cast<std::uint8_t>(isa::CondOp::kGeu) ||
      rec.dst >= kNumArchRegs || rec.src1 >= kNumArchRegs ||
      rec.src2 >= kNumArchRegs) {
    throw std::runtime_error(
        "corrupt trace record at pc 0x" +
        std::to_string(rec.pc) +
        ": opcode/operand field out of range");
  }
  isa::Instruction inst;
  inst.op = static_cast<isa::OpClass>(rec.op);
  inst.alu = static_cast<isa::AluOp>(rec.alu);
  inst.cond = static_cast<isa::CondOp>(rec.cond);
  inst.dst = rec.dst;
  inst.src1 = rec.src1;
  inst.src2 = rec.src2;
  inst.imm = rec.imm;
  inst.target = rec.target;
  inst.use_imm = (rec.flags & kTraceRecUseImm) != 0;
  return inst;
}

TraceRecord to_record(Addr pc, const isa::Instruction& inst) {
  TraceRecord r;
  r.pc = pc;
  r.op = static_cast<std::uint8_t>(inst.op);
  r.alu = static_cast<std::uint8_t>(inst.alu);
  r.cond = static_cast<std::uint8_t>(inst.cond);
  r.dst = inst.dst;
  r.src1 = inst.src1;
  r.src2 = inst.src2;
  if (inst.use_imm) r.flags |= kTraceRecUseImm;
  // Unconditional transfers are statically taken; a conditional branch's
  // direction is data-dependent (resolved at execute on replay).
  if (inst.op == isa::OpClass::kJump || inst.op == isa::OpClass::kCall ||
      inst.op == isa::OpClass::kRet ||
      inst.op == isa::OpClass::kBranchIndirect) {
    r.flags |= kTraceRecStaticTaken;
  }
  r.imm = inst.imm;
  r.target = inst.target;
  return r;
}

// ---- TraceImage -------------------------------------------------------------

isa::Program TraceImage::to_program() const {
  isa::Program program;
  for (const TraceRecord& rec : records) {
    if (rec.pc % isa::kInstrBytes != 0) {
      throw std::runtime_error("corrupt trace record: misaligned pc 0x" +
                               std::to_string(rec.pc));
    }
    program.place(rec.pc, to_instruction(rec), /*overwrite=*/true);
  }
  program.set_entry(entry);
  if (fault_handler.has_value()) program.set_fault_handler(*fault_handler);
  return program;
}

TraceImage TraceImage::from_program(const isa::Program& program) {
  TraceImage image;
  image.entry = program.entry();
  image.fault_handler = program.fault_handler();
  const std::vector<Addr> pcs = program.pcs();
  image.records.reserve(pcs.size());
  for (const Addr pc : pcs) {
    image.records.push_back(to_record(pc, *program.at(pc)));
  }
  return image;
}

// ---- encode -----------------------------------------------------------------

std::vector<std::uint8_t> encode(const TraceImage& image, bool compress) {
  std::vector<std::uint8_t> payload;
  payload.reserve(image.regions.size() * kTraceRegionBytes +
                  image.init_words.size() * kTraceInitWordBytes +
                  image.records.size() * kTraceRecordBytes / 4 + 64);

  for (const memory::Region& region : image.regions) {
    put_u64(payload, region.base);
    put_u64(payload, region.bytes);
    put_u64(payload, region.perm == memory::PagePerm::kKernel
                         ? kTraceRegionKernel
                         : 0);
  }
  for (const memory::Poke& word : image.init_words) {
    put_u64(payload, word.addr);
    put_u64(payload, word.value);
  }

  std::vector<std::uint8_t> raw;
  for (std::size_t first = 0; first < image.records.size();
       first += kTraceChunkRecords) {
    const std::size_t count =
        std::min(kTraceChunkRecords, image.records.size() - first);
    raw.clear();
    raw.reserve(count * kTraceRecordBytes);
    for (std::size_t i = 0; i < count; ++i) {
      serialize_record(raw, image.records[first + i]);
    }
    const std::uint32_t raw_bytes = static_cast<std::uint32_t>(raw.size());
    if (compress) {
      delta(raw);
      const std::vector<std::uint8_t> enc = rle_encode(raw);
      if (enc.size() < raw.size()) {
        put_u32(payload, raw_bytes);
        put_u32(payload, static_cast<std::uint32_t>(enc.size()));
        payload.insert(payload.end(), enc.begin(), enc.end());
        continue;
      }
      undelta(raw);  // store raw: restore the original bytes
    }
    put_u32(payload, raw_bytes);
    put_u32(payload, raw_bytes);  // encoded == raw signals a stored chunk
    payload.insert(payload.end(), raw.begin(), raw.end());
  }

  std::vector<std::uint8_t> out;
  out.reserve(kTraceHeaderBytes + payload.size());
  put_u32(out, kTraceMagic);
  put_u32(out, kTraceVersion);
  put_u32(out, compress ? kTraceFlagCompressed : 0);
  put_u32(out, 0);  // reserved
  put_u64(out, image.entry);
  put_u64(out, image.fault_handler.has_value() ? *image.fault_handler + 1
                                               : 0);
  put_u64(out, image.records.size());
  put_u64(out, image.regions.size());
  put_u64(out, image.init_words.size());
  put_u64(out, checksum_of(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// ---- decode -----------------------------------------------------------------

TraceImage decode(const std::vector<std::uint8_t>& buffer) {
  // The one bounds check: the next `n` bytes, or a truncation error.
  std::size_t pos = 0;
  const auto take = [&](std::uint64_t n, const char* what) {
    if (buffer.size() - pos < n) {
      throw std::runtime_error("truncated trace (" + std::string(what) +
                               ")");
    }
    const std::uint8_t* p = buffer.data() + pos;
    pos += static_cast<std::size_t>(n);
    return p;
  };
  const std::uint8_t* header = take(kTraceHeaderBytes, "header");
  if (get_u32(header) != kTraceMagic) {
    throw std::runtime_error(
        "not a SafeSpec trace (bad magic; expected \"SSTR\")");
  }
  const std::uint32_t version = get_u32(header + 4);
  if (version != kTraceVersion) {
    throw std::runtime_error(
        "unsupported trace version " + std::to_string(version) +
        " (this reader understands version " +
        std::to_string(kTraceVersion) + ")");
  }
  TraceImage image;
  image.entry = get_u64(header + 16);
  const std::uint64_t handler_plus1 = get_u64(header + 24);
  if (handler_plus1 != 0) image.fault_handler = handler_plus1 - 1;
  const std::uint64_t records_total = get_u64(header + 32);
  const std::uint64_t region_count = get_u64(header + 40);
  const std::uint64_t word_count = get_u64(header + 48);
  const std::uint64_t checksum = get_u64(header + 56);
  // Implausible counts are rejected before any allocation so a corrupt
  // header cannot request terabytes.
  if (region_count > (1u << 20) || word_count > (1ull << 32)) {
    throw std::runtime_error(
        "corrupt trace (implausible region/init-word count)");
  }

  const std::uint8_t* p =
      take(region_count * kTraceRegionBytes, "region table");
  image.regions.reserve(static_cast<std::size_t>(region_count));
  for (std::uint64_t i = 0; i < region_count; ++i, p += kTraceRegionBytes) {
    image.regions.push_back({get_u64(p), get_u64(p + 8),
                             (get_u64(p + 16) & kTraceRegionKernel) != 0
                                 ? memory::PagePerm::kKernel
                                 : memory::PagePerm::kUser});
  }
  p = take(word_count * kTraceInitWordBytes, "init-word table");
  image.init_words.reserve(static_cast<std::size_t>(word_count));
  for (std::uint64_t i = 0; i < word_count; ++i, p += kTraceInitWordBytes) {
    image.init_words.push_back({get_u64(p), get_u64(p + 8)});
  }

  // Every chunk spends at least its 8-byte header on at most
  // kTraceChunkRecords records, so a corrupt record count cannot make
  // the reservation outgrow the buffer.
  image.records.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      records_total, (buffer.size() - pos) / 8 * kTraceChunkRecords)));
  std::vector<std::uint8_t> chunk;
  while (image.records.size() < records_total) {
    const std::uint8_t* head = take(8, "chunk header");
    const std::uint32_t raw_bytes = get_u32(head);
    const std::uint32_t enc_bytes = get_u32(head + 4);
    const std::uint64_t remaining = records_total - image.records.size();
    if (raw_bytes == 0 || raw_bytes % kTraceRecordBytes != 0 ||
        raw_bytes / kTraceRecordBytes > kTraceChunkRecords ||
        raw_bytes / kTraceRecordBytes > remaining ||
        enc_bytes > raw_bytes) {
      throw std::runtime_error("corrupt trace (bad chunk header: raw=" +
                               std::to_string(raw_bytes) +
                               " encoded=" + std::to_string(enc_bytes) +
                               ")");
    }
    const std::uint8_t* raw = take(enc_bytes, "chunk payload");
    if (enc_bytes != raw_bytes) {  // equal sizes mark a stored chunk
      rle_decode(raw, enc_bytes, chunk, raw_bytes);
      undelta(chunk);
      raw = chunk.data();
    }
    for (std::size_t off = 0; off < raw_bytes; off += kTraceRecordBytes) {
      image.records.push_back(deserialize_record(raw + off));
    }
  }

  if (checksum_of(buffer.data() + kTraceHeaderBytes,
                  pos - kTraceHeaderBytes) != checksum) {
    throw std::runtime_error(
        "trace checksum mismatch (file corrupt or truncated rewrite)");
  }
  return image;
}

}  // namespace safespec::trace
