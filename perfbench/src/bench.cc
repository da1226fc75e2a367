#include "bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/hash.h"
#include "fuzz/differential.h"
#include "fuzz/fuzz_spec.h"
#include "fuzz/generator.h"
#include "sim/functional.h"
#include "sim/machine.h"
#include "trace/trace.h"
#include "trace/trace_workload.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using safespec::Cycle;
using safespec::cpu::StopReason;
using safespec::sim::SimResult;
using safespec::sim::Simulator;

// ---- sizes -------------------------------------------------------------------

// A synthetic profile's IPC swings by up to +-20% from one generator seed
// to the next (mcf most), so every cell runs several programs and the
// metrics average over them; fewer, longer programs would make the
// figures depend on which seed a run drew.
constexpr int kDetailedPrograms = 6;
/// Programs the reference pass runs on top of the timed ones; they only
/// narrow sim_ipc's seed-to-seed spread to within a third of its bound.
constexpr int kDetailedIpcPrograms = 6;
constexpr std::uint64_t kDetailedInstrs = 50'000;
constexpr std::uint64_t kDetailedSlice = 25'000;
constexpr int kMulticorePrograms = 12;
/// The same for multicore, whose cells spread more: all four cores of a
/// cell run one program, so a cell averages nothing out.
constexpr int kMulticoreIpcPrograms = 36;
constexpr std::uint64_t kMulticoreInstrs = 25'000;  ///< of core 0
constexpr std::uint64_t kMulticoreSlice = 12'500;
/// Timed passes per second of --seconds, each workload's pass rate on the
/// tuning host. The pass count, not the clock, ends a run, so every
/// build of the code takes each unit's least time over as many repeats.
constexpr double kDetailedPassesPerSecond = 0.5;
constexpr double kMulticorePassesPerSecond = 0.4;
/// A run on a host this many times slower than the tuning host stops
/// early rather than overrun its time limit.
constexpr double kMaxWallFactor = 3.0;
/// Set-up rounds per run: rounds that only generate and build top the
/// count up when the reference and timed passes leave fewer.
constexpr int kSetupRounds = 15;
/// Traced runs time each layer the workload's own units never call on
/// this many probe calls (fuzz seeds for check_seed, programs otherwise).
constexpr int kProbeCalls = 10;
/// Sampled-run probe of traced runs: mcf/WFC and gcc/WFC, one program of
/// 2 * 10^7 instructions each, on a schedule of 10 gaps of instrs/10
/// functional instructions, each followed by a 2k-instruction warm-up and
/// a 10k measured window, so the functional engine covers ~99.4% of the
/// instructions.
constexpr std::uint64_t kSampledInstrs = 20'000'000;
constexpr std::uint64_t kSampledGaps = 10;
constexpr std::uint64_t kSampledWarmup = 2'000;
constexpr std::uint64_t kSampledDetail = 10'000;

// ---- host clock and spans ------------------------------------------------

/// CPU seconds consumed by the calling thread.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// In-memory span recorder. Spans nest by call order; each span's parent
/// is the innermost span open when it started. Nothing is written until
/// the run ends.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }

  int open(const char* name, double now) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now, now});
    stack_.push_back(id);
    return id;
  }

  void close(int id, double now) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now;
    // Spans close in LIFO order; a span opened while tracing was on
    // closes even if tracing was switched off in between.
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  bool has(const char* name) const {
    return std::any_of(spans_.begin(), spans_.end(), [name](const Span& s) {
      return std::strcmp(s.name, name) == 0;
    });
  }

  /// Self time per span name: each span's duration minus the part its
  /// direct children cover.
  std::vector<Report::SelfTime> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Report::SelfTime> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Report::SelfTime& t = by_name[s.name];
      t.name = s.name;
      ++t.calls;
      t.total_ms += (s.end - s.start) * 1e3;
      t.self_ms += (s.end - s.start - child[i]) * 1e3;
    }
    std::vector<Report::SelfTime> out;
    for (auto& [name, t] : by_name) out.push_back(t);
    return out;
  }

  /// Chrome trace-event JSON ("X" events, microseconds of thread CPU
  /// time); args carry the span id and its parent's id.
  std::string json() const {
    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                    "\"parent\": %d}}%s\n",
                    s.name, s.start * 1e6, (s.end - s.start) * 1e6, i,
                    s.parent, i + 1 < spans_.size() ? "," : "");
      os << line;
    }
    os << "]}\n";
    return os.str();
  }

 private:
  struct Span {
    const char* name;
    int parent;
    double start;
    double end;
  };
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call on the thread CPU clock and records it as a span when
/// the tracer is on. The clock is read the same way with tracing off, so
/// the traced/untraced difference is the span bookkeeping alone.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), start_(cpu_seconds()),
        id_(tracer ? tracer->open(name, start_) : -1) {}
  ~Scope() {
    if (!closed_) close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span; returns its CPU seconds.
  double close() {
    const double end = cpu_seconds();
    if (tracer_) tracer_->close(id_, end);
    closed_ = true;
    return end - start_;
  }

 private:
  Tracer* tracer_;
  double start_;
  int id_;
  bool closed_ = false;
};

/// Moves the calling thread round the CPUs the process may use, one per
/// call, and restores the original set when destroyed. On a shared host
/// one vCPU can run the same work up to 2x slower than another for tens
/// of seconds at a time (a busy neighbour on its core). Visiting every
/// allowed CPU in turn gives each unit's repeats a chance at an
/// undisturbed one.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (moved_) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    // A refusal only leaves the thread where it is.
    moved_ |= sched_setaffinity(0, sizeof one, &one) == 0;
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool moved_ = false;
};

// ---- statistics helpers ----------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

void mix_into(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over a program's uncompressed trace encoding.
std::uint64_t digest_of(const safespec::isa::Program& program) {
  const std::vector<std::uint8_t> bytes = safespec::trace::encode(
      safespec::trace::TraceImage::from_program(program), false);
  return safespec::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

std::uint64_t seeded(std::uint64_t bench_seed, std::uint64_t salt) {
  const std::uint64_t s =
      safespec::mix64(bench_seed * 0x9e3779b97f4a7c15ULL + salt);
  return s == 0 ? 1 : s;
}

/// Simulated statistics summed over every cell (and core) of one pass.
struct Counts {
  std::uint64_t cycles = 0;       ///< machine cycles (core 0's clock)
  std::uint64_t core_cycles = 0;  ///< summed over cores
  std::uint64_t committed = 0;    ///< architectural, all cores, incl. ff
  std::uint64_t core_committed = 0;  ///< committed by detailed cores
  std::uint64_t fetched = 0, squashed = 0, shadow_stall_cycles = 0;
  std::uint64_t dib_hits = 0, dib_fills = 0, mispredicts = 0;
  std::uint64_t l1d_acc = 0, l1d_miss = 0, l1i_acc = 0, l1i_miss = 0;
  std::uint64_t l2_acc = 0, l2_miss = 0, l3_acc = 0, l3_miss = 0;
  std::uint64_t dtlb_acc = 0, dtlb_miss = 0, cross_core = 0;
  std::uint64_t sd_hits = 0, sd_committed = 0, sd_squashed = 0;
  std::uint64_t si_committed = 0, si_squashed = 0, full_stalls = 0;
  std::uint64_t sd_p9999 = 0, sharp_alarms = 0;
  std::uint64_t ff = 0, windows = 0, sampled_cells = 0;
  double ci95_sum = 0.0;
  double log_ipc_sum = 0.0;  ///< over cells with a nonzero IPC
  std::uint64_t ipc_cells = 0;

  void add(Simulator& sim, const SimResult& r) {
    // A sampled cell's IPC is its sampled estimate.
    const double ipc =
        r.sampling.enabled
            ? ratio(r.sampling.measured_commits, r.sampling.measured_cycles)
            : ratio(r.committed_all_cores, r.cycles);
    if (ipc > 0.0) {
      log_ipc_sum += std::log(ipc);
      ++ipc_cells;
    }
    cycles += r.cycles;
    committed += r.committed_all_cores;
    cross_core += r.cross_core_evictions;
    sharp_alarms += r.sharp_alarms;
    for (int c = 0; c < sim.num_cores(); ++c) {
      safespec::cpu::Core& core = sim.core(c);
      const safespec::cpu::CoreStats& s = core.stats();
      core_cycles += s.cycles;
      core_committed += s.committed_instrs;
      fetched += s.fetched_instrs;
      squashed += s.squashed_instrs;
      shadow_stall_cycles += s.shadow_stall_cycles;
      dib_hits += s.dib_hits;
      dib_fills += s.dib_fills;
      mispredicts += s.mispredicts;
      l1d_acc += core.hierarchy().l1d().stats().accesses();
      l1d_miss += core.hierarchy().l1d().stats().misses.value();
      l1i_acc += core.hierarchy().l1i().stats().accesses();
      l1i_miss += core.hierarchy().l1i().stats().misses.value();
      dtlb_acc += core.dtlb().stats().accesses();
      dtlb_miss += core.dtlb().stats().misses.value();
      const auto& sd = core.shadow_dcache().stats();
      const auto& si = core.shadow_icache().stats();
      sd_hits += sd.hits.value();
      sd_committed += sd.committed.value();
      sd_squashed += sd.squashed.value();
      si_committed += si.committed.value();
      si_squashed += si.squashed.value();
      full_stalls += sd.full_stalls.value() + si.full_stalls.value() +
                     core.shadow_dtlb().stats().full_stalls.value() +
                     core.shadow_itlb().stats().full_stalls.value();
      sd_p9999 = std::max(sd_p9999, sd.occupancy.percentile(0.9999));
    }
    l2_acc += sim.shared_levels().l2().stats().accesses();
    l2_miss += sim.shared_levels().l2().stats().misses.value();
    l3_acc += sim.shared_levels().l3().stats().accesses();
    l3_miss += sim.shared_levels().l3().stats().misses.value();
    if (r.sampling.enabled) {
      ff += r.sampling.fast_forwarded;
      windows += r.sampling.windows;
      ci95_sum += r.sampling.ipc_ci95;
      ++sampled_cells;
    }
  }

  /// Geometric mean of the cells' IPCs: every program weighs the same,
  /// however many cycles it ran.
  double ipc() const {
    return ipc_cells == 0
               ? 0.0
               : std::exp(log_ipc_sum / static_cast<double>(ipc_cells));
  }
};

// ---- machines ------------------------------------------------------------

safespec::cpu::CoreConfig cell_config(
    const Cell& cell, const safespec::cpu::MutationHooks& mutation) {
  safespec::cpu::CoreConfig config =
      safespec::sim::machine_preset("skylake").core;
  config.policy = cell.policy;
  config.cores = cell.cores;
  config.mutation = mutation;
  return config;
}

Cycle cycle_budget(std::uint64_t instrs) { return instrs * 200 + 1'000'000; }

safespec::sim::SamplingSpec sampling_of(const Cell& cell) {
  safespec::sim::SamplingSpec spec;
  spec.fast_forward_interval =
      std::max<std::uint64_t>(cell.instrs / kSampledGaps, 1);
  spec.warmup_instrs = kSampledWarmup;
  spec.detail_instrs = kSampledDetail;
  return spec;
}

/// A built cell plus the pristine image its functional reference starts
/// from.
struct Built {
  safespec::workloads::WorkloadImage image;
  std::unique_ptr<Simulator> sim;
};

/// Replaces `image` by its round trip through the trace codec; returns
/// the CPU seconds spent.
double codec_round_trip(safespec::workloads::WorkloadImage& image,
                        Tracer* tracer) {
  Scope encode(tracer, "trace.encode");
  const std::vector<std::uint8_t> bytes =
      safespec::trace::encode(safespec::trace::record_workload(image));
  double seconds = encode.close();
  Scope decode(tracer, "trace.decode");
  image = safespec::trace::to_workload_image(safespec::trace::decode(bytes));
  return seconds + decode.close();
}

/// Generates the cell's image (through the trace codec for trace:@
/// cells) and builds the machine; adds the CPU seconds spent to *setup_s.
Built make_cell(const Cell& cell, std::uint64_t seed,
                const safespec::cpu::MutationHooks& mutation, Tracer* tracer,
                double* setup_s) {
  safespec::workloads::WorkloadProfile profile =
      safespec::workloads::profile_by_name(cell.workload);
  const bool codec = profile.trace_file == "@";
  profile.trace_file.clear();
  profile.seed = seeded(seeded(seed, static_cast<std::uint64_t>(cell.program)),
                        profile.seed);
  // Twice the budget plus slack: no core may halt before core 0 reaches
  // its budget (generation cost does not depend on the length).
  const std::uint64_t length = 2 * cell.instrs + 100'000;

  double setup = 0.0;
  Built b;
  {
    Scope s(tracer, "workloads.generate");
    b.image = safespec::workloads::generate(profile, length);
    setup += s.close();
  }
  if (codec) setup += codec_round_trip(b.image, tracer);
  safespec::workloads::WorkloadImage image = b.image;  // untimed copy
  {
    Scope s(tracer, "workloads.build");
    b.sim = safespec::workloads::make_image_sim(std::move(image),
                                                cell_config(cell, mutation));
    setup += s.close();
  }
  if (setup_s != nullptr) *setup_s += setup;
  return b;
}

/// Sliced run. Slice targets are absolute (k * slice from the cell's
/// start), so a slice that overshoots by a few commits is absorbed by the
/// next and the run stops exactly where one Simulator::run would.
/// `on_slice(result, seconds, committed_all_delta)` sees each slice.
template <typename OnSlice>
SimResult sliced(Simulator& sim, const Cell& cell, Tracer* tracer,
                 OnSlice&& on_slice) {
  const std::uint64_t start = sim.core(0).stats().committed_instrs;
  SimResult r;
  std::uint64_t all_before = 0;
  for (int c = 0; c < sim.num_cores(); ++c) {
    all_before += sim.core(c).stats().committed_instrs;
  }
  std::uint64_t target = 0;
  do {
    target = std::min(cell.instrs, target + cell.slice);
    const std::uint64_t done = sim.core(0).stats().committed_instrs - start;
    const std::uint64_t budget = target > done ? target - done : 0;
    Scope s(tracer, "sim.run");
    r = sim.run(cycle_budget(budget), budget);
    const double dt = s.close();
    on_slice(r, dt, r.committed_all_cores - all_before);
    all_before = r.committed_all_cores;
  } while (target < cell.instrs);
  return r;
}

/// A fresh machine over a copy of `image`, whose program, memory and page
/// table a functional reference runs on.
std::unique_ptr<Simulator> reference_machine(
    const safespec::workloads::WorkloadImage& image) {
  safespec::cpu::CoreConfig config =
      safespec::sim::machine_preset("skylake").core;
  config.dib_lines = 0;
  return safespec::workloads::make_image_sim(image, config);
}

/// The architectural reference for one cell: a FunctionalEngine over a
/// fresh copy of the cell's image, run to each core's committed count in
/// turn. Returns "" when every core's registers, fault count and stop
/// state match.
std::string arch_mismatch(const safespec::workloads::WorkloadImage& image,
                          Simulator& sim, const SimResult& r, Tracer* tracer,
                          double* functional_s,
                          std::uint64_t* functional_instrs) {
  if (r.stop != StopReason::kMaxInstrs) {
    return std::string("stopped before its budget: ") +
           safespec::cpu::to_string(r.stop);
  }
  const auto ref = reference_machine(image);
  safespec::sim::FunctionalEngine engine(&ref->program(), &ref->memory(),
                                         &ref->page_table());
  std::vector<int> order(static_cast<std::size_t>(sim.num_cores()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&sim](int a, int b) {
    return sim.core(a).stats().committed_instrs <
           sim.core(b).stats().committed_instrs;
  });
  for (const int c : order) {
    const safespec::cpu::Core& core = sim.core(c);
    const std::string who = "core " + std::to_string(c) + ": ";
    if (core.halted()) return who + "halted before its budget";
    const std::uint64_t target = core.stats().committed_instrs;
    if (target > engine.committed()) {
      const std::uint64_t n = target - engine.committed();
      Scope s(tracer, "functional.run");
      const StopReason stop = engine.run(n);
      *functional_s += s.close();
      *functional_instrs += n;
      if (stop != StopReason::kMaxInstrs) {
        return who + "functional reference stopped early: " +
               safespec::cpu::to_string(stop);
      }
    }
    if (engine.faults() != core.stats().faults) {
      return who + "fault count " + std::to_string(engine.faults()) +
             " vs " + std::to_string(core.stats().faults);
    }
    for (int reg = 0; reg < safespec::kNumArchRegs; ++reg) {
      const auto ri = static_cast<safespec::RegIndex>(reg);
      if (engine.reg(ri) != core.reg(ri)) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "r%d = 0x%llx vs 0x%llx", reg,
                      static_cast<unsigned long long>(engine.reg(ri)),
                      static_cast<unsigned long long>(core.reg(ri)));
        return who + buf;
      }
    }
  }
  return "";
}

/// Committed architectural state at the end of a run.
struct ArchRef {
  std::array<std::uint64_t, safespec::kNumArchRegs> regs{};
  std::uint64_t committed = 0;
  std::uint64_t faults = 0;
};

// ---- the benchmark ---------------------------------------------------------

class Bench {
 public:
  explicit Bench(const Options& options) : opt_(options) {}

  Report run() {
    tracer_.enable(opt_.trace);
    run_cells();
    if (opt_.trace) probe_unreached_layers();
    finish();
    return std::move(report_);
  }

 private:
  Tracer* tracer() { return &tracer_; }

  /// Timed passes of this run: --seconds at the workload's pass rate on
  /// the tuning host; a traced run makes traced and untraced pairs.
  int pass_count() const {
    const double rate = opt_.workload == "multicore" ? kMulticorePassesPerSecond
                                                     : kDetailedPassesPerSecond;
    const int n = std::max(1, static_cast<int>(std::lround(opt_.seconds * rate)));
    return opt_.trace ? std::max(2, n + n % 2) : n;
  }

  bool keep_going(const std::chrono::steady_clock::time_point& start) const {
    if (report_.passes >= pass_count()) return false;
    if (report_.passes < (opt_.trace ? 2 : 1)) return true;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    return elapsed < kMaxWallFactor * opt_.seconds;
  }

  /// Starts timed pass number report_.passes; in a traced run even
  /// passes record spans and odd ones do not (the overhead comparison).
  bool begin_pass() {
    const bool traced = opt_.trace && report_.passes % 2 == 0;
    tracer_.enable(traced);
    // A traced pass and its untraced twin share a CPU, so the overhead
    // comparison does not set one CPU against another.
    if (!opt_.trace || traced) cpus_.next();
    unit_index_ = 0;
    return traced;
  }

  /// Records the next unit of the current pass. Every pass runs the same
  /// units in the same order, and each unit keeps the least CPU time of
  /// its repeats (traced and untraced apart): on a shared host other
  /// tenants slow whole seconds of a run by up to 2x, and the least
  /// repeat is the unit's cost with the least interference.
  void unit(double seconds, std::uint64_t instrs, bool traced, bool ok) {
    std::vector<Best>& best = best_[traced];
    if (best.size() <= unit_index_) best.resize(unit_index_ + 1);
    Best& b = best[unit_index_++];
    b.seconds = std::min(b.seconds, seconds);
    b.instrs = instrs;
    ++report_.attempted;
    if (!ok) ++report_.failed;
  }

  /// Set-up is timed like the units: each timed cell's generation, codec
  /// and build keeps its least repeat, and setup_s is one round at those
  /// times.
  void setup_call(std::size_t index, double seconds) {
    if (setup_best_.size() <= index) setup_best_.resize(index + 1, HUGE_VAL);
    setup_best_[index] = std::min(setup_best_[index], seconds);
  }

  /// Ends a timed pass. Peak memory is read after the first one: the
  /// passes after it repeat the same work.
  void end_pass() {
    if (++report_.passes == 1) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }

  void problem(const std::string& what) {
    if (report_.problems.size() < 50) report_.problems.push_back(what);
  }

  // ---- detailed / multicore ----------------------------------------------

  void run_cells() {
    const std::vector<Cell> cells = workload_cells(opt_.workload, opt_.scale);
    // Timed cells come first; the rest only run in the reference pass.
    const auto timed_cells = static_cast<std::size_t>(std::count_if(
        cells.begin(), cells.end(), [](const Cell& c) { return c.timed; }));

    // Reference pass (untimed): one-shot runs give the totals and digests
    // every sliced pass must reproduce.
    struct Ref {
      std::uint64_t cycles = 0, committed = 0, digest = 0;
    };
    std::vector<Ref> refs(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      Scope cell_span(tracer(), "reference");
      double setup = 0.0;
      Built b = make_cell(cell, opt_.seed, opt_.mutation, tracer(), &setup);
      if (cell.timed) setup_call(i, setup);
      program_digests_.push_back(program_digest(*b.sim));
      SimResult r;
      {
        Scope s(tracer(), "reference.run");
        r = b.sim->run(cycle_budget(cell.instrs), cell.instrs);
      }
      const std::string bad = arch_mismatch(b.image, *b.sim, r, tracer(),
                                            &functional_s_, &functional_instrs_);
      if (!bad.empty()) problem(cell.name() + " (reference): " + bad);
      refs[i].cycles = r.cycles;
      refs[i].committed = r.committed_all_cores;
      refs[i].digest = stats_digest(*b.sim, r);
      report_.digests.emplace_back(cell.name(), refs[i].digest);
      counts_.add(*b.sim, r);
    }
    ++setup_rounds_;

    const auto start = std::chrono::steady_clock::now();
    while (keep_going(start)) {
      const bool traced = begin_pass();
      Scope pass_span(tracer(), "pass");
      for (std::size_t i = 0; i < timed_cells; ++i) {
        const Cell& cell = cells[i];
        Scope cell_span(tracer(), "cell");
        double setup = 0.0;
        Built b = make_cell(cell, opt_.seed, opt_.mutation, tracer(), &setup);
        setup_call(i, setup);
        // Units are judged after the cell ends: a cell-level mismatch
        // fails every slice of the cell.
        std::vector<std::pair<double, std::uint64_t>> slices;
        bool slices_ok = true;
        const SimResult r = sliced(
            *b.sim, cell, tracer(),
            [&](const SimResult& sr, double dt, std::uint64_t instrs) {
              slices.emplace_back(dt, instrs);
              if (sr.stop != StopReason::kMaxInstrs) slices_ok = false;
            });
        std::string bad = arch_mismatch(b.image, *b.sim, r, tracer(),
                                        &functional_s_, &functional_instrs_);
        if (bad.empty() && (r.cycles != refs[i].cycles ||
                            r.committed_all_cores != refs[i].committed)) {
          bad = "sliced totals differ from the one-shot run";
        }
        if (bad.empty() && stats_digest(*b.sim, r) != refs[i].digest) {
          bad = "statistics digest differs from the one-shot run";
        }
        if (bad.empty() && !slices_ok) bad = "a slice stopped early";
        if (!bad.empty()) problem(cell.name() + ": " + bad);
        for (const auto& [dt, instrs] : slices) {
          unit(dt, instrs, traced, bad.empty());
          run_s_ += dt;
        }
        run_core_cycles_ += sum_core_cycles(*b.sim);
      }
      ++setup_rounds_;
      end_pass();
    }
    tracer_.enable(false);
    for (; setup_rounds_ < kSetupRounds; ++setup_rounds_) {
      cpus_.next();
      for (std::size_t i = 0; i < timed_cells; ++i) {
        double setup = 0.0;
        make_cell(cells[i], opt_.seed, opt_.mutation, nullptr, &setup);
        setup_call(i, setup);
      }
    }
  }

  static std::uint64_t sum_core_cycles(Simulator& sim) {
    std::uint64_t n = 0;
    for (int c = 0; c < sim.num_cores(); ++c) n += sim.core(c).stats().cycles;
    return n;
  }

  /// A standalone FunctionalEngine over a fresh copy of `image`, run
  /// `instrs` instructions (timed into functional.mips); returns its
  /// architectural state.
  ArchRef functional_reference(
      const safespec::workloads::WorkloadImage& image, std::uint64_t instrs) {
    const auto ref = reference_machine(image);
    safespec::sim::FunctionalEngine engine(&ref->program(), &ref->memory(),
                                           &ref->page_table());
    Scope s(tracer(), "functional.run");
    engine.run(instrs);
    functional_s_ += s.close();
    functional_instrs_ += engine.committed();
    ArchRef a;
    for (int reg = 0; reg < safespec::kNumArchRegs; ++reg) {
      a.regs[static_cast<std::size_t>(reg)] =
          engine.reg(static_cast<safespec::RegIndex>(reg));
    }
    a.committed = engine.committed();
    a.faults = engine.faults();
    return a;
  }

  /// One sampled run of the probe, checked against a functional
  /// reference run to the committed count it reached: a detailed window
  /// that ends the run may overshoot the budget by a few commits.
  void probe_sampled(const Cell& cell) {
    Built b = make_cell(cell, opt_.seed, opt_.mutation, nullptr, nullptr);
    Simulator& sim = *b.sim;
    SimResult r;
    {
      Scope s(tracer(), "sampled.run");
      r = sim.run_sampled(sampling_of(cell), 1'000'000'000, cell.instrs);
    }
    const ArchRef ref = functional_reference(b.image, r.committed_instrs);
    std::string bad;
    if (r.stop != StopReason::kMaxInstrs) {
      bad = std::string("stopped before its budget: ") +
            safespec::cpu::to_string(r.stop);
    } else if (r.committed_instrs != ref.committed || r.faults != ref.faults) {
      bad = "committed/fault counts differ from the functional reference";
    } else {
      // The run ends in whichever engine executed its last instruction.
      safespec::sim::FunctionalEngine& engine = sim.functional_engine();
      const bool in_engine = engine.committed() == r.committed_instrs;
      for (int reg = 0; reg < safespec::kNumArchRegs && bad.empty(); ++reg) {
        const auto ri = static_cast<safespec::RegIndex>(reg);
        const std::uint64_t got = in_engine ? engine.reg(ri) : sim.core().reg(ri);
        if (got != ref.regs[static_cast<std::size_t>(reg)]) {
          bad = "r" + std::to_string(reg) +
                " differs from the functional reference";
        }
      }
    }
    if (!bad.empty()) problem("probe " + cell.name() + ": " + bad);
    report_.digests.emplace_back("probe/" + cell.name(), stats_digest(sim, r));
    sampled_counts_.add(sim, r);
  }

  /// One check_seed call, timed into the fuzz.* layer metrics; a failing
  /// seed is reported.
  void timed_check_seed(std::uint64_t seed, const safespec::fuzz::FuzzSpec& spec,
                        const safespec::fuzz::DifferentialConfig& config) {
    Scope s(tracer(), "fuzz.check_seed");
    const safespec::fuzz::SeedVerdict v =
        safespec::fuzz::check_seed(seed, spec, config);
    check_seed_ms_.push_back(s.close() * 1e3);
    ++fuzz_seeds_;
    fuzz_cells_ += v.cells;
    fuzz_oracle_instrs_ += v.committed;
    if (!v.ok) {
      problem("seed " + std::to_string(seed) + ": " +
              (v.violations.empty() ? "failed" : v.violations.front()));
    }
  }

  // ---- layer probes (traced runs) --------------------------------------

  /// Makes every per-layer time a measurement on every workload: each
  /// layer the workload's own units never call is timed here on calls
  /// made from the same seed. The program generator and trace codec run
  /// on the workload's first cell, check_seed and the fuzz program
  /// generator on kProbeCalls fuzz seeds, and run_sampled on the sampled
  /// cells.
  void probe_unreached_layers() {
    tracer_.enable(true);
    Scope probe_span(tracer(), "probe");
    const bool codec = !tracer_.has("trace.encode");
    if (codec) {
      const Cell cell = workload_cells(opt_.workload, opt_.scale).front();
      safespec::workloads::WorkloadProfile profile =
          safespec::workloads::profile_by_name(cell.workload);
      profile.trace_file.clear();
      for (int k = 0; k < kProbeCalls; ++k) {
        profile.seed = seeded(opt_.seed, static_cast<std::uint64_t>(k));
        safespec::workloads::WorkloadImage image =
            safespec::workloads::generate(profile, 2 * cell.instrs + 100'000);
        codec_round_trip(image, tracer());
      }
    }
    const safespec::fuzz::FuzzSpec spec;
    safespec::fuzz::DifferentialConfig config;
    config.mutation = opt_.mutation;
    const std::uint64_t fuzz_base = seeded(opt_.seed, 0) & 0xffffffffffffULL;
    for (int k = 0; k < kProbeCalls; ++k) {
      const std::uint64_t seed = fuzz_base + static_cast<std::uint64_t>(k);
      {
        Scope s(tracer(), "fuzz.generate_program");
        safespec::fuzz::generate_program(seed, spec);
      }
      timed_check_seed(seed, spec, config);
    }
    for (const Cell& cell : sampled_probe_cells(opt_.scale)) {
      probe_sampled(cell);
    }
    tracer_.enable(false);
  }

  // ---- metrics ---------------------------------------------------------------

  void add(const char* name, double value, const char* unit) {
    report_.metrics.push_back({name, value, unit});
  }

  void finish() {
    // Per kind (untraced, traced): one pass of units, each at its least
    // repeat.
    double pass_s[2] = {0.0, 0.0};
    double pass_instrs[2] = {0.0, 0.0};
    double mips[2] = {0.0, 0.0};
    for (const int traced : {0, 1}) {
      for (const Best& b : best_[traced]) {
        pass_s[traced] += b.seconds;
        pass_instrs[traced] += static_cast<double>(b.instrs);
      }
      mips[traced] = ratio(pass_instrs[traced], pass_s[traced]) / 1e6;
    }
    std::uint64_t program_digest_all = kFnvOffset;
    for (const std::uint64_t d : program_digests_) mix_into(program_digest_all, d);
    report_.digests.emplace_back("programs", program_digest_all);

    if (!opt_.trace) {
      std::vector<double> unit_ms;
      for (const Best& b : best_[0]) unit_ms.push_back(b.seconds * 1e3);
      add("mips", mips[0], "MIPS");
      add("units_per_s",
          ratio(static_cast<double>(unit_ms.size()), pass_s[0]), "1/s");
      add("slice_ms.p50", quantile(unit_ms, 0.5), "ms");
      add("slice_ms.p90", quantile(unit_ms, 0.9), "ms");
      add("setup_s", std::accumulate(setup_best_.begin(), setup_best_.end(), 0.0),
          "s");
      add("peak_rss_mb", peak_rss_mb_, "MB");
      add("sim_ipc", counts_.ipc(), "instr/cycle");
      add("ok_frac",
          1.0 - ratio(report_.failed, std::max<std::uint64_t>(
                                           report_.attempted, 1)),
          "fraction");
      return;
    }

    report_.self_times = tracer_.self_times();
    report_.spans_json = tracer_.json();
    const auto per_call_ms = [this](std::initializer_list<const char*> names) {
      double ms = 0.0;
      std::uint64_t calls = 0;
      for (const auto& t : report_.self_times) {
        for (const char* n : names) {
          if (t.name == n) {
            ms += t.self_ms;
            calls += t.calls;
          }
        }
      }
      return ratio(ms, static_cast<double>(calls));
    };
    const Counts& c = counts_;
    add("workloads.generate_ms", per_call_ms({"workloads.generate"}), "ms");
    add("workloads.build_ms", per_call_ms({"workloads.build"}), "ms");
    add("trace.encode_ms", per_call_ms({"trace.encode"}), "ms");
    add("trace.decode_ms", per_call_ms({"trace.decode"}), "ms");
    add("sim.run_ms", per_call_ms({"sim.run"}), "ms");
    add("sim.host_ns_per_cycle",
        ratio(run_s_ * 1e9, static_cast<double>(run_core_cycles_)), "ns");
    add("sim.cpi", ratio(c.core_cycles, c.core_committed), "cycle/instr");
    add("sim.cycles", static_cast<double>(c.cycles), "count");
    add("sim.committed", static_cast<double>(c.committed), "count");
    add("cpu.fetched_per_committed", ratio(c.fetched, c.core_committed),
        "ratio");
    add("cpu.squashed_per_kinstr", 1e3 * ratio(c.squashed, c.core_committed),
        "1/kinstr");
    add("cpu.shadow_stall_cycles", static_cast<double>(c.shadow_stall_cycles),
        "count");
    add("cpu.dib_hit_rate", ratio(c.dib_hits, c.dib_hits + c.dib_fills),
        "ratio");
    add("predictor.mpki", 1e3 * ratio(c.mispredicts, c.core_committed),
        "1/kinstr");
    add("memory.l1d.miss_rate", ratio(c.l1d_miss, c.l1d_acc), "ratio");
    add("memory.l1i.miss_rate", ratio(c.l1i_miss, c.l1i_acc), "ratio");
    add("memory.l2.miss_rate", ratio(c.l2_miss, c.l2_acc), "ratio");
    add("memory.l3.miss_rate", ratio(c.l3_miss, c.l3_acc), "ratio");
    add("memory.dtlb.miss_rate", ratio(c.dtlb_miss, c.dtlb_acc), "ratio");
    add("memory.cross_core_evictions", static_cast<double>(c.cross_core),
        "count");
    add("safespec.shadow_dcache.hits", static_cast<double>(c.sd_hits), "count");
    add("safespec.shadow_dcache.commit_rate",
        ratio(c.sd_committed, c.sd_committed + c.sd_squashed), "ratio");
    add("safespec.shadow_dcache.p9999", static_cast<double>(c.sd_p9999),
        "entries");
    add("safespec.shadow_icache.commit_rate",
        ratio(c.si_committed, c.si_committed + c.si_squashed), "ratio");
    add("safespec.full_stalls", static_cast<double>(c.full_stalls), "count");
    add("safespec.sharp_alarms", static_cast<double>(c.sharp_alarms), "count");
    const Counts& sc = sampled_counts_;
    add("sampled.ff_share", ratio(sc.ff, sc.committed), "ratio");
    add("sampled.windows", static_cast<double>(sc.windows), "count");
    add("sampled.ipc_ci95",
        ratio(sc.ci95_sum, static_cast<double>(sc.sampled_cells)),
        "instr/cycle");
    add("functional.mips",
        ratio(static_cast<double>(functional_instrs_), functional_s_) / 1e6,
        "MIPS");
    add("fuzz.check_seed_ms.p50", quantile(check_seed_ms_, 0.5), "ms");
    add("fuzz.check_seed_ms.p90", quantile(check_seed_ms_, 0.9), "ms");
    add("fuzz.generate_ms", per_call_ms({"fuzz.generate_program"}), "ms");
    add("fuzz.cells_per_seed",
        ratio(static_cast<double>(fuzz_cells_), static_cast<double>(fuzz_seeds_)),
        "count");
    add("fuzz.oracle_instrs_per_seed",
        ratio(static_cast<double>(fuzz_oracle_instrs_),
              static_cast<double>(fuzz_seeds_)),
        "count");
    add("tracing.mips_traced", mips[1], "MIPS");
    add("tracing.mips_untraced", mips[0], "MIPS");
    add("tracing.overhead_pct", 100.0 * ratio(mips[0] - mips[1], mips[0]),
        "%");
  }

  const Options& opt_;
  CpuRotation cpus_;
  Tracer tracer_;
  Report report_;
  Counts counts_;  ///< simulated statistics of the reference pass
  Counts sampled_counts_;  ///< simulated statistics of the sampled probe
  struct Best {
    double seconds = HUGE_VAL;  ///< least CPU time over the repeats
    std::uint64_t instrs = 0;   ///< simulated instructions of the unit
  };
  std::vector<Best> best_[2];  ///< [traced] per unit of a pass
  std::size_t unit_index_ = 0;  ///< next unit of the current pass
  std::vector<double> setup_best_;  ///< per set-up call of a round
  int setup_rounds_ = 0;
  double peak_rss_mb_ = 0.0;
  double run_s_ = 0.0;  ///< CPU seconds inside the simulator's run calls
  std::uint64_t run_core_cycles_ = 0;  ///< core cycles those calls simulated
  double functional_s_ = 0.0;
  std::uint64_t functional_instrs_ = 0;
  std::vector<std::uint64_t> program_digests_;
  /// Every check_seed call of the probe.
  std::vector<double> check_seed_ms_;
  std::uint64_t fuzz_seeds_ = 0, fuzz_cells_ = 0, fuzz_oracle_instrs_ = 0;
};

}  // namespace

std::string Cell::name() const {
  std::string n = workload + "/" + policy;
  if (cores > 1) n += "/cores=" + std::to_string(cores);
  return n + "#" + std::to_string(program);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"detailed", "multicore"};
  return names;
}

std::vector<Cell> workload_cells(const std::string& workload, double scale) {
  const auto scaled = [scale](std::uint64_t n) {
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(n) * scale + 0.5));
  };
  std::vector<Cell> cells;
  // Timed programs of every base first, then the reference-only ones.
  const auto add = [&cells](std::initializer_list<Cell> bases, int timed,
                            int programs) {
    for (const bool is_timed : {true, false}) {
      for (const Cell& base : bases) {
        for (int k = is_timed ? 0 : timed; k < (is_timed ? timed : programs);
             ++k) {
          cells.push_back(base);
          cells.back().program = k;
          cells.back().timed = is_timed;
        }
      }
    }
  };
  if (workload == "detailed") {
    const std::uint64_t slice = scaled(kDetailedSlice);
    const std::uint64_t instrs = std::max(slice, scaled(kDetailedInstrs));
    add({{"mcf", "baseline", 1, instrs, slice},
         {"mcf", "WFC", 1, instrs, slice},
         {"lbm", "WFB", 1, instrs, slice},
         {"gcc", "WFC", 1, instrs, slice},
         {"exchange2", "WFC", 1, instrs, slice},
         {"xalancbmk", "WFB-stall", 1, instrs, slice},
         {"trace:@exchange2", "WFC", 1, instrs, slice}},
        kDetailedPrograms, kDetailedPrograms + kDetailedIpcPrograms);
  } else if (workload == "multicore") {
    const std::uint64_t slice = scaled(kMulticoreSlice);
    const std::uint64_t instrs = std::max(slice, scaled(kMulticoreInstrs));
    add({{"mcf", "SHARP", 4, instrs, slice}, {"gcc", "WFC", 4, instrs, slice}},
        kMulticorePrograms, kMulticorePrograms + kMulticoreIpcPrograms);
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (detailed, multicore)");
  }
  return cells;
}

std::vector<Cell> sampled_probe_cells(double scale) {
  const auto instrs = std::max<std::uint64_t>(
      kSampledGaps, static_cast<std::uint64_t>(
                        static_cast<double>(kSampledInstrs) * scale + 0.5));
  return {{"mcf", "WFC", 1, instrs, 0}, {"gcc", "WFC", 1, instrs, 0}};
}

Report run(const Options& options) {
  workload_cells(options.workload, options.scale);  // validates the name
  return Bench(options).run();
}

std::unique_ptr<Simulator> build_cell(
    const Cell& cell, std::uint64_t seed,
    const safespec::cpu::MutationHooks& mutation) {
  return make_cell(cell, seed, mutation, nullptr, nullptr).sim;
}

SimResult run_sliced(Simulator& sim, const Cell& cell,
                     std::vector<StopReason>* slice_stops) {
  return sliced(sim, cell, nullptr,
                [slice_stops](const SimResult& r, double, std::uint64_t) {
                  if (slice_stops != nullptr) slice_stops->push_back(r.stop);
                });
}

std::uint64_t stats_digest(Simulator& sim, const SimResult& r) {
  std::uint64_t h = kFnvOffset;
  const auto hit_miss = [&h](const safespec::HitMiss& s) {
    mix_into(h, s.hits.value());
    mix_into(h, s.misses.value());
  };
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(r.stop), r.cycles, r.committed_instrs,
        r.committed_all_cores, r.cross_core_evictions, r.sharp_alarms,
        r.sharp_detections, r.sampling.windows, r.sampling.fast_forwarded,
        r.sampling.warmup_commits, r.sampling.measured_commits,
        r.sampling.measured_cycles}) {
    mix_into(h, v);
  }
  for (int c = 0; c < sim.num_cores(); ++c) {
    safespec::cpu::Core& core = sim.core(c);
    const safespec::cpu::CoreStats& s = core.stats();
    for (const std::uint64_t v :
         {s.cycles, s.committed_instrs, s.committed_loads, s.committed_stores,
          s.committed_branches, s.fetched_instrs, s.squashed_instrs,
          s.squashes, s.mispredicts, s.faults, s.shadow_stall_cycles,
          s.fetch_accesses, s.fetch_l1i_hits, s.fetch_shadow_hits,
          s.fetch_misses}) {
      mix_into(h, v);
    }
    hit_miss(core.hierarchy().l1i().stats());
    hit_miss(core.hierarchy().l1d().stats());
    hit_miss(core.itlb().stats());
    hit_miss(core.dtlb().stats());
    hit_miss(core.predictor().direction_stats());
    for (const safespec::shadow::ShadowStats* st :
         {&core.shadow_dcache().stats(), &core.shadow_icache().stats(),
          &core.shadow_dtlb().stats(), &core.shadow_itlb().stats()}) {
      for (const std::uint64_t v :
           {st->inserts.value(), st->hits.value(), st->committed.value(),
            st->squashed.value(), st->full_drops.value(),
            st->full_stalls.value(), st->occupancy.count(),
            st->occupancy.max(), st->occupancy.percentile(0.9999)}) {
        mix_into(h, v);
      }
    }
  }
  hit_miss(sim.shared_levels().l2().stats());
  hit_miss(sim.shared_levels().l3().stats());
  return h;
}

std::uint64_t program_digest(const Simulator& sim) {
  return digest_of(sim.program());
}

}  // namespace perfbench
