// Shared command-line layer for every driver, bench and tool.
//
// FlagSet is the one parse loop they all sit on: a tool registers its
// flags with handlers, hands over its verbatim usage printer, and gets
// the shared loop: --help/-h to stdout + exit 0, "--flag=value"
// everywhere, optional "--flag value", unknown-flag error + usage to
// stderr + exit 2, optional positional passthrough.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace safespec::cli {

/// "a,b,c" -> {"a","b","c"}; empty segments are dropped (",a,," -> {"a"}).
std::vector<std::string> split_csv(const std::string& text);

/// Strict numeric flag parsing: a typo'd "--count=abc" must fail loudly,
/// not silently run zero work and exit green. Prints the parse error and
/// exits(2); `flag` names the flag in the message.
std::uint64_t parse_u64_or_exit(const char* value, const char* flag);

/// parse_u64_or_exit for an instruction budget: zero exits(2) too, since
/// a run of no instructions measures nothing.
std::uint64_t parse_budget_or_exit(const char* value, const char* flag);

/// parse_u64_or_exit bounded to a sane int range (exit 2 past `max`).
int parse_int_or_exit(const char* value, const char* flag,
                      std::uint64_t max = 10'000'000);

/// Writes one output file: opens `path` with fopen `mode` ("w" replaces
/// it, "a" appends), hands the stream to `write`, and closes it. False
/// when the file cannot be opened, written or closed, so a full disk
/// never passes for success; the caller reports the failure.
[[nodiscard]] bool write_file(const std::string& path,
                              const std::function<void(std::FILE*)>& write,
                              const char* mode = "w");

/// Declarative flag table + the parse loop shared by every tool.
class FlagSet {
 public:
  /// Usage printer, called with (argv[0], stream) on --help (stdout,
  /// exit 0) and after a bad flag (stderr, before exit 2).
  using Usage = std::function<void(const char* prog, std::FILE* out)>;
  /// Receives the flag's value ("--name=value" payload, or the following
  /// argv word when the flag was registered with `separated`).
  using ValueHandler = std::function<void(const char* value)>;

  explicit FlagSet(Usage usage) : usage_(std::move(usage)) {}

  /// --name=VALUE; with separated=true, "--name VALUE" is accepted too.
  /// A separated flag at the end of argv (no value word) is NOT matched —
  /// it falls through to the unknown-flag error, exactly as the
  /// hand-rolled loops behaved.
  FlagSet& value(const char* name, ValueHandler handler,
                 bool separated = false);
  /// Bare --name (no value).
  FlagSet& boolean(const char* name, std::function<void()> handler);

  // Typed conveniences over value(): all use the strict parsers above.
  FlagSet& u64(const char* name, std::uint64_t* out, bool separated = false);
  FlagSet& bounded_int(const char* name, int* out, bool separated = false);
  FlagSet& string(const char* name, std::string* out, bool separated = false);
  FlagSet& csv_list(const char* name, std::vector<std::string>* out,
                    bool separated = false);
  /// Repeatable: each occurrence appends.
  FlagSet& repeated(const char* name, std::vector<std::string>* out,
                    bool separated = false);
  /// Bare flag that just sets *out = true.
  FlagSet& set_true(const char* name, bool* out);

  /// Arguments that match no flag and do not start with "--" collect as
  /// positionals instead of erroring (the bench convention). Without
  /// this, ANY unmatched argument is an error (the driver convention).
  FlagSet& allow_positional();

  /// The word used in the unmatched-argument error: benches print
  /// "unknown flag: ...", drivers print "unknown argument: ...".
  FlagSet& unknown_label(const char* label);

  /// Runs the loop over argv[1..); returns collected positionals.
  /// --help/-h prints usage to stdout and exits 0; an unmatched argument
  /// prints "unknown <label>: ARG", the usage to stderr, and exits 2.
  std::vector<std::string> parse(int argc, char** argv);

 private:
  struct Flag {
    std::string name;
    bool takes_value = false;
    bool separated = false;
    ValueHandler on_value;
    std::function<void()> on_bare;
  };

  Usage usage_;
  std::vector<Flag> flags_;
  bool allow_positional_ = false;
  std::string unknown_label_ = "argument";
};

// ---- the bench flag family --------------------------------------------------

/// Options every bench accepts: --threads=N, --csv=PATH, --json=PATH,
/// --instrs=N, --config=FILE, --set=key=value (repeatable), --help.
struct BenchOptions {
  int threads = 0;               ///< 0 = hardware concurrency
  std::string csv_path;          ///< empty = no CSV emission
  std::string json_path;         ///< empty = no JSON emission
  std::uint64_t instrs = 0;      ///< default supplied by the caller
  std::string config_path;       ///< --config: MachineSpec JSON file
  std::vector<std::string> overrides;  ///< --set key=value, in order
  std::vector<std::string> positional;
};

/// Parses the shared bench flags; prints usage and exits on --help or an
/// unknown --flag, and exits(2) on a malformed --threads or --instrs or a
/// zero --instrs. Positional arguments pass through untouched.
/// `default_instrs` seeds --instrs and appears in the usage text.
BenchOptions parse_bench_args(int argc, char** argv, const char* extra_usage,
                              std::uint64_t default_instrs);

}  // namespace safespec::cli
