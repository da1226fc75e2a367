#include "trace/trace_workload.h"

#include "fuzz/generator.h"
#include "sim/machine.h"

namespace safespec::trace {

TraceImage record_workload(const workloads::WorkloadImage& image) {
  TraceImage out = TraceImage::from_program(image.program);
  if (image.data_bytes != 0) {
    out.regions.push_back({image.data_base, image.data_bytes, false});
  }
  for (const workloads::WorkloadRegion& region : image.regions) {
    out.regions.push_back({region.base, region.bytes, region.kernel});
  }
  out.init_words = image.init_words;
  return out;
}

TraceImage record_fuzz(const fuzz::FuzzProgram& fp) {
  TraceImage out = TraceImage::from_program(fp.program);
  out.regions.reserve(fp.regions.size());
  for (const sim::MemRegion& region : fp.regions) {
    out.regions.push_back({region.base, region.bytes,
                           region.perm == memory::PagePerm::kKernel});
  }
  out.init_words = fp.pokes;
  return out;
}

workloads::WorkloadImage to_workload_image(const TraceImage& image) {
  workloads::WorkloadImage out;
  out.program = image.to_program();
  out.regions.reserve(image.regions.size());
  for (const TraceRegion& region : image.regions) {
    out.regions.push_back({region.base, region.bytes, region.kernel});
  }
  out.init_words = image.init_words;
  return out;
}

workloads::WorkloadImage load_workload(const std::string& path) {
  return to_workload_image(read_trace_file(path));
}

}  // namespace safespec::trace
