// Workload-facing glue for the trace codec.
//
// A trace and a workload image hold the same address-space setup (one
// region type, one init-word type), so recording and replaying copy the
// program's records and the two vectors. The trace:@NAME workloads
// round-trip the synthetic image through record_workload, encode,
// decode and to_workload_image. Keeping this out of trace.h keeps the
// codec free of workloads dependencies.
#pragma once

#include "trace/trace.h"
#include "workloads/workload.h"

namespace safespec::trace {

/// Records a program image: its instructions, regions and init words.
TraceImage record_workload(const workloads::WorkloadImage& image);

/// Rebuilds a replayable workload image from a trace.
workloads::WorkloadImage to_workload_image(const TraceImage& image);

}  // namespace safespec::trace
