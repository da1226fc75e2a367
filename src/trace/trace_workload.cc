#include "trace/trace_workload.h"

namespace safespec::trace {

TraceImage record_workload(const workloads::WorkloadImage& image) {
  TraceImage out = TraceImage::from_program(image.program);
  out.regions = image.regions;
  out.init_words = image.init_words;
  return out;
}

workloads::WorkloadImage to_workload_image(const TraceImage& image) {
  workloads::WorkloadImage out;
  out.program = image.to_program();
  out.regions = image.regions;
  out.init_words = image.init_words;
  return out;
}

}  // namespace safespec::trace
