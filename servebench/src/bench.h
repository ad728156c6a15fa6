#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

// Shared declarations of the served-query benchmark driver: raw-sample
// statistics, the per-request span recorder, the output oracle and the
// workload definitions. Everything here sits outside the sqo libraries and
// reaches them only through their public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/value.h"
#include "engine/database.h"
#include "server/server.h"
#include "sqo/pipeline.h"
#include "workload/university.h"

namespace servebench {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<sqo::Value>>;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- Statistics over raw samples (stats.cc) ----

/// Median of `samples` (0 when empty).
double Median(std::vector<double> samples);

/// Nearest-rank quantile `q` of `samples`, or nullopt unless at least ten
/// samples lie above the rank it picks — a tail quantile is only reported
/// when the sample supports it.
std::optional<double> TailQuantile(std::vector<double> samples, double q);

/// Milliseconds a fixed piece of work takes on this CPU right now: a
/// dependent walk over a 512 KiB random cycle with integer mixing. It runs
/// no sqo code, so no change to the system under test can move it.
double ReferenceMs();

/// Peak resident set size of this process, in MB (getrusage).
double PeakRssMb();

// ---- Output: every metric by name and unit, then one JSON line ----

class Report {
 public:
  /// Records a metric; `note` (sample count, definition) goes to the
  /// human-readable line only.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");

  /// Records a figure that is printed for the reader but is not one of
  /// the run's gated metrics (left out of the JSON object).
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");

  /// Records a metric that could not be measured in this run; it is
  /// printed by name and unit but left out of the JSON object.
  void Missing(const std::string& name, const std::string& unit,
               const std::string& why);

  /// Prints one human-readable line per metric, then the JSON result as
  /// the last line of standard output.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    std::optional<double> value;
    std::string unit;
    std::string note;
    bool json = true;
  };
  std::vector<Entry> entries_;
};

// ---- Output oracle (oracle.cc) ----

/// Order-independent digest of a result: rows rendered, sorted, hashed.
uint64_t RowsDigest(const Rows& rows);

/// Expected answers for read-only traffic: every distinct query text is
/// translated (Step 2 only — no Step-3 rewriting) and alternative 0, the
/// unoptimized query, is evaluated on the primary.
class Oracle {
 public:
  sqo::Status Build(const sqo::core::Pipeline& pipeline,
                    const sqo::engine::Database& primary,
                    const std::vector<std::string>& queries);

  /// Replaces one expected digest with a wrong one (self-test of the
  /// benchmark's failure path).
  void Corrupt(const std::string& query);

  /// True when `rows` is the expected answer of `query`.
  bool Check(const std::string& query, const Rows& rows) const;

 private:
  std::map<std::string, uint64_t> expected_;
};

// ---- Span recorder for traced runs (trace.cc) ----

/// Records spans (name, start, end, parent, request id) in per-thread
/// buffers. Untraced runs never construct one; every probe site takes a
/// nullable Tracer*.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into the same thread's buffer; -1 = root
    uint64_t request;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; nests under the thread's open
  /// span. Returns a token for End.
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t token);

  /// Per-name totals over every span whose root is named `root`: self
  /// time (duration minus time covered by child spans), and the root
  /// durations themselves.
  struct Totals {
    std::map<std::string, double> self_ns;
    std::vector<double> root_us;  // one duration per root span
  };
  Totals Summarize(const std::string& root) const;

  /// Writes every span as one JSON object per line.
  sqo::Status WriteJsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int32_t> open;  // stack of open span indexes
    uint32_t thread = 0;
  };
  Buffer* LocalBuffer();

  const Clock::time_point origin_;
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; no-op when `tracer` is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer),
        token_(tracer ? tracer->Begin(name, request) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(token_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int32_t token_;
};

// ---- Workloads (workloads.cc) ----

enum class Loop { kClosed, kOpen };

struct WorkloadSpec {
  std::string name;
  sqo::workload::GeneratorConfig data;
  bool storage = false;  // Database::Open on a fresh directory
  Loop loop = Loop::kClosed;

  size_t sessions = 4;  // closed loop: client sessions
  size_t workers = 4;   // ServerConfig::workers (capped at the core count)

  // Open loop: writer and reader sessions and their fixed send rates.
  size_t writer_sessions = 0;
  size_t reader_sessions = 0;
  double writes_per_s = 0;  // per writer session
  double reads_per_s = 0;   // per reader session

  size_t setups = 3;         // set-ups per run; setup_s is their median
  size_t write_probes = 0;   // idle acked writes after the read phase
};

/// The named workload; `tiny` shrinks data and probe counts for the
/// benchmark's self-test, `trace` selects the traced run's variant.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny,
                                         bool trace);

/// Read traffic of one workload: a fixed cycle of query shapes, each
/// instantiated with constants drawn from a seeded pool. The shape mix is
/// the same for every seed; only the constants move.
class ReadMix {
 public:
  ReadMix(const WorkloadSpec& spec, uint64_t seed);

  /// Every distinct query text the mix can produce (for the oracle and
  /// warm-up).
  const std::vector<std::string>& distinct() const { return distinct_; }

  /// The next query for a client whose generator is `rng`.
  const std::string& Next(std::mt19937_64& rng, uint64_t* cursor) const;

 private:
  struct Shape {
    std::vector<size_t> texts;     // indexes into distinct_
    std::vector<double> weights;   // draw weights over `texts`
  };
  std::vector<Shape> shapes_;
  std::vector<std::string> distinct_;
};

// ---- One set-up of the system under test (main.cc) ----

struct Env {
  // Declaration order is teardown order reversed: the server stops before
  // the primary it serves, which goes before the pipeline it was built on.
  std::unique_ptr<sqo::core::Pipeline> pipeline;
  std::unique_ptr<sqo::engine::Database> primary;
  std::unique_ptr<sqo::server::Server> server;
};

// ---- Outcome accounting ----

/// What one phase attempted and how it went. `failed()` is what the JSON
/// `failed` field and `failed_frac` count: errors (including shed
/// requests), wrong answers and per-session epoch regressions.
struct Tally {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;
  uint64_t regressions = 0;
  uint64_t reads = 0;
  uint64_t degraded = 0;
  uint64_t probes = 0;  // read-your-write probes
  uint64_t stale = 0;   // probes that did not see the session's own write
  std::vector<double> read_us;
  std::vector<double> write_us;

  uint64_t failed() const { return errors + wrong + regressions; }

  /// Adds `other`'s counts; latencies only when `samples` is set.
  void Merge(const Tally& other, bool samples = true);
};

// ---- Served load (load.cc) ----

struct LoadResult {
  Tally tally;
  double seconds = 0;                // start to the last reply
  uint64_t completed_reads = 0;      // reads answered without error
  std::vector<double> gen_late_us;   // open loop: send time - due time
  std::vector<double> queue_depth;   // sampled Server::queue_depth
  uint64_t retained_batches_max = 0; // sampled EpochStore::retained_batches

  /// Appends another phase's samples and counts.
  void Merge(LoadResult other);
};

/// Closed loop: `spec.sessions` clients, each sending its next read when
/// the previous one returns. Latency is submit to reply.
LoadResult RunClosedLoop(Env& env, const WorkloadSpec& spec, const ReadMix& mix,
                         const Oracle& oracle, double seconds, uint64_t seed,
                         bool sample_server);

/// Writer-session state of the open-loop workload: the objects each writer
/// owns and every state its read-your-write probes may legally observe.
/// Persists across the warm-up and measured phases.
class WriteTraffic {
 public:
  WriteTraffic(const WorkloadSpec& spec, const sqo::engine::Database& primary,
               uint64_t seed);
  ~WriteTraffic();
  WriteTraffic(const WriteTraffic&) = delete;
  WriteTraffic& operator=(const WriteTraffic&) = delete;

  struct Op;
  Op Next(size_t writer);

 private:
  struct Writer;
  std::vector<std::unique_ptr<Writer>> writers_;
};

/// Open loop from one generator thread: writer sessions send a mutation
/// followed by a read-your-write probe at a fixed rate, reader sessions
/// send reads at a fixed rate. Latency runs from the due time.
LoadResult RunOpenLoop(Env& env, const WorkloadSpec& spec, const ReadMix& mix,
                       const Oracle& oracle, WriteTraffic* writes,
                       double seconds, uint64_t seed, bool sample_server);

/// `n` acked writes, one at a time on an idle session (Session::Mutate),
/// each rewriting `batch_size` persons' ages with their current values. A
/// large batch makes apply + publish, rather than thread wake-ups,
/// dominate the ack latency.
Tally IdleWrites(Env& env, size_t n, size_t batch_size);

// ---- Direct replay of the read path through each module (replay.cc) ----

/// Work counted while replaying reads with tracing on.
struct LayerCounters {
  // Traced reads.
  uint64_t reads = 0;
  uint64_t alternatives = 0;
  uint64_t cost_calls = 0;
  uint64_t residues_tried = 0;
  uint64_t residue_hits = 0;
  uint64_t index_probes = 0;
  uint64_t fetched = 0;       // by the chosen alternative
  uint64_t results = 0;
  uint64_t traversals = 0;

  // Decomposed reads: objects the chosen alternative and alternative 0
  // fetch for the same reads.
  uint64_t decomposed = 0;
  uint64_t fetched_chosen = 0;
  uint64_t fetched_alt0 = 0;

  void Merge(const LayerCounters& other);
};

struct ReplayResult {
  Tally tally;
  LayerCounters layers;
  // kTraced: per text read twice, traced latency / untraced latency.
  std::vector<double> overhead_ratios;
};

enum class ReplayMode {
  kTraced,     // each read runs twice back to back: once as a `read` span
               // tree with layer counters, once without spans, as the
               // baseline of trace.overhead_frac
  kDecompose,  // untraced read, then a `decompose` span tree that replays
               // Steps 2-4 and planning module by module
};

/// Replays the workload's reads without the server — Pin, ParseOql,
/// OptimizeParsed, Database::Run — on `threads` closed-loop clients for
/// `seconds`.
ReplayResult Replay(Env& env, const ReadMix& mix, const Oracle& oracle,
                    size_t threads, double seconds, uint64_t seed,
                    ReplayMode mode, Tracer* tracer);

/// Median idle Session::Query latency minus median direct-path latency of
/// the same reads, alternating, for up to `seconds`.
double ServerOverheadUs(Env& env, const ReadMix& mix, const Oracle& oracle,
                        double seconds, Tally* tally);

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
