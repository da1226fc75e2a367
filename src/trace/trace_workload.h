// Workload-facing glue for the trace subsystem.
//
// A trace and a workload image hold the same address-space setup (one
// region type, one init-word type), so recording and replaying copy the
// program's records and the two vectors. Every program producer — the
// synthetic SPEC generator and the differential fuzzer, whose
// fuzz::FuzzProgram is a WorkloadImage — records through
// record_workload. The loader here is what the workload frontend calls
// when WorkloadProfile::trace_file names a trace on disk. Keeping this
// out of trace.h keeps the codec free of workloads dependencies.
#pragma once

#include <string>

#include "trace/trace.h"
#include "workloads/workload.h"

namespace safespec::trace {

/// Records a program image: its instructions, regions and init words.
TraceImage record_workload(const workloads::WorkloadImage& image);

/// Rebuilds a replayable workload image from a trace.
workloads::WorkloadImage to_workload_image(const TraceImage& image);

/// read_trace_file + to_workload_image. The workload generator calls
/// this when a profile's trace_file names a path; errors propagate as
/// std::runtime_error naming the file and the problem.
workloads::WorkloadImage load_workload(const std::string& path);

}  // namespace safespec::trace
