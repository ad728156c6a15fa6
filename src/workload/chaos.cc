#include "workload/chaos.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>

#include <atomic>
#include <cctype>
#include <map>
#include <optional>
#include <set>

#include "common/env.h"
#include "common/failpoint.h"
#include "common/fileio.h"
#include "server/server.h"
#include "storage/manager.h"

namespace sqo::workload {
namespace {

constexpr char kAckFileName[] = "chaos-acks.log";

// Child exit codes beyond fs::kFaultCrashExitCode (86, "injected crash").
constexpr int kChildSetupFailed = 70;   // population/pipeline broke: harness bug
constexpr int kChildCleanFinish = 0;    // ran the whole script

std::string AckPath(const std::string& dir) {
  return dir + "/" + kAckFileName;
}

/// The ack channel must survive SIGKILL, so it bypasses every buffered
/// layer: one raw write() per event, no fsync needed (the harness models
/// process death, not kernel death).
class AckFile {
 public:
  explicit AckFile(const std::string& path)
      : fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644)) {}
  ~AckFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }
  void Record(char event) {
    if (fd_ < 0) return;
    const ssize_t written = ::write(fd_, &event, 1);
    (void)written;  // a lost ack under-counts, which only loosens the test
  }

 private:
  int fd_;
};

struct AckLog {
  bool baseline = false;
  uint64_t acked = 0;
};

AckLog ReadAckLog(const std::string& dir) {
  AckLog log;
  if (sqo::Result<std::string> data = fs::ReadFile(AckPath(dir)); data.ok()) {
    for (char c : *data) {
      if (c == 'B') log.baseline = true;
      if (c == 'A') ++log.acked;
    }
  }
  return log;
}

storage::OpenOptions MakeOpenOptionsFor(const core::Pipeline& pipeline,
                                        bool group_commit, fs::Env* env) {
  storage::OpenOptions open_options;
  open_options.compiled = &pipeline.compiled();
  open_options.env = env;
  open_options.group_commit = group_commit;
  open_options.checkpoint_on_close = false;
  return open_options;
}

storage::OpenOptions MakeOpenOptions(const ChaosOptions& options,
                                     fs::Env* env) {
  return MakeOpenOptionsFor(*options.pipeline, options.group_commit, env);
}

/// Failpoint site for kFailpointError, derived from the seed the same way
/// in the child (to arm it) and in the parent (for diagnostics).
std::string FailpointSite(uint64_t seed) {
  return (seed % 2 == 0) ? "storage.wal_append" : "storage.fsync";
}

/// Arms the crash mechanism for the child. Returns the Env to open storage
/// with (the fault-injecting one, or nullptr for the default).
fs::Env* ArmCrashMechanism(ChaosCrashMode mode, uint64_t crash_point,
                           const std::string& failpoint_site,
                           fs::FaultInjectingEnv* fault_env) {
  switch (mode) {
    case ChaosCrashMode::kFailpointError: {
      failpoint::Action action;
      action.status = sqo::InternalError("chaos: injected storage failure");
      action.trigger_after = crash_point;
      action.max_trips = 1;
      failpoint::Activate(failpoint_site, action);
      return nullptr;
    }
    case ChaosCrashMode::kTornWriteCrash: {
      fs::FaultPlan plan;
      plan.torn_write_at_byte = crash_point;
      plan.crash_on_torn_write = true;  // _Exit(86) inside the write
      fault_env->set_plan(plan);
      return fault_env;
    }
    case ChaosCrashMode::kFsyncCrash: {
      fs::FaultPlan plan;
      plan.fail_sync_at = crash_point;
      plan.crash_on_failed_sync = true;  // _Exit(86) inside the fsync
      fault_env->set_plan(plan);
      return fault_env;
    }
    case ChaosCrashMode::kKillMidTraffic:
      return nullptr;  // the parent does the killing
  }
  return nullptr;
}

/// Everything the child does after fork(). Never returns; communicates
/// exclusively through the ack file, the database directory and its exit
/// status. No exit() — atexit handlers belong to the parent image.
[[noreturn]] void ChildMain(const ChaosOptions& options) {
  engine::Database db(&options.pipeline->schema());
  if (!PopulateUniversity(options.data, *options.pipeline, &db).ok()) {
    ::_exit(kChildSetupFailed);
  }

  fs::FaultInjectingEnv fault_env(fs::Env::Default());
  fs::Env* env = ArmCrashMechanism(options.mode, options.crash_point,
                                   FailpointSite(options.seed), &fault_env);

  // Open may itself die here (baseline checkpoint I/O is injected too); a
  // surviving-but-failed Open is the same crash point, just politer.
  if (!db.Open(options.dir, MakeOpenOptions(options, env)).ok()) {
    ::_exit(fs::kFaultCrashExitCode);
  }
  AckFile acks(AckPath(options.dir));
  if (!acks.ok()) ::_exit(kChildSetupFailed);
  acks.Record('B');  // baseline durable: Open returned

  const auto ops = ChaosOpScript(options.seed, options.ops);
  const size_t checkpoint_at =
      options.checkpoint_mid_stream ? std::max<size_t>(1, options.ops / 3) : 0;
  size_t done = 0;
  for (const auto& op : ops) {
    if (!op(&db).ok()) {
      // The injected failure (or its unhealthy-latch shadow): this is the
      // crash instant — die without closing anything.
      ::_exit(fs::kFaultCrashExitCode);
    }
    acks.Record('A');
    ++done;
    if (checkpoint_at != 0 && done == checkpoint_at) {
      if (!db.Checkpoint().ok()) ::_exit(fs::kFaultCrashExitCode);
    }
    if (options.mode == ChaosCrashMode::kKillMidTraffic) {
      // Pace the stream so the parent's SIGKILL lands mid-traffic.
      ::usleep(300);
    }
  }
  const sqo::Status closed = db.CloseStorage();
  ::_exit(closed.ok() ? kChildCleanFinish : fs::kFaultCrashExitCode);
}

/// Reaps the child, SIGKILLing it once `should_kill` first returns true
/// (pass nullptr for modes where the child dies on its own) or as a hang
/// backstop. Returns the exit code, or -signal for a signal death.
sqo::Result<int> Supervise(pid_t pid,
                           const std::function<bool()>& should_kill) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::seconds(30);
  bool kill_sent = false;
  for (;;) {
    int status = 0;
    const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == pid) {
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      if (WIFSIGNALED(status)) return -WTERMSIG(status);
      return sqo::InternalError("chaos child neither exited nor signaled");
    }
    if (reaped < 0) {
      return sqo::InternalError("waitpid failed for chaos child");
    }
    if (!kill_sent && should_kill != nullptr && should_kill()) {
      ::kill(pid, SIGKILL);
      kill_sent = true;
    }
    if (clock::now() > deadline) {
      // A hung child (e.g. a committer deadlock) is itself a finding.
      ::kill(pid, SIGKILL);
      (void)::waitpid(pid, &status, 0);
      return sqo::InternalError("chaos child hung past the 30s backstop");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

sqo::Result<int> SuperviseChild(pid_t pid, const ChaosOptions& options) {
  std::function<bool()> should_kill;
  if (options.mode == ChaosCrashMode::kKillMidTraffic) {
    should_kill = [&options] {
      return ReadAckLog(options.dir).acked >= options.crash_point;
    };
  }
  return Supervise(pid, should_kill);
}

}  // namespace

std::string ChaosStateSignature(const engine::ObjectStore& store) {
  std::string out;
  store.ForEachObject([&out](sqo::Oid oid, const std::string& relation,
                            engine::ObjectStore::RowView row) {
    out += std::to_string(oid.raw()) + "|" + relation;
    for (const sqo::Value& v : row) out += "|" + v.ToString();
    out += "\n";
  });
  for (const std::string& rel : store.RelationNames()) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (const auto& [src, dst] : store.Pairs(rel)) {
      pairs.emplace_back(src.raw(), dst.raw());
    }
    if (pairs.empty()) continue;  // invisible to queries, skipped by recovery
    std::sort(pairs.begin(), pairs.end());
    out += rel;
    for (const auto& [src, dst] : pairs) {
      out += " (" + std::to_string(src) + "," + std::to_string(dst) + ")";
    }
    out += "\n";
  }
  out += "next_oid=" + std::to_string(store.next_oid());
  return out;
}

std::vector<std::function<sqo::Status(engine::Database*)>> ChaosOpScript(
    uint64_t seed, size_t n) {
  std::vector<std::function<sqo::Status(engine::Database*)>> ops;
  ops.reserve(n);
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    switch (rng() % 6) {
      case 0:
        ops.push_back([i](engine::Database* db) {
          return db->store()
              .CreateObject(
                  "Person",
                  {{"name", Value::String("chaos_p" + std::to_string(i))},
                   {"age", Value::Int(20 + static_cast<int>(i % 50))}})
              .status();
        });
        break;
      case 1:
        ops.push_back([i](engine::Database* db) {
          return db->store()
              .CreateObject(
                  "Student",
                  {{"name", Value::String("chaos_s" + std::to_string(i))},
                   {"age", Value::Int(18 + static_cast<int>(i % 10))},
                   {"student_id", Value::String("CHS" + std::to_string(i))}})
              .status();
        });
        break;
      case 2: {
        const uint64_t pick = rng();
        ops.push_back([i, pick](engine::Database* db) {
          const auto& persons = db->store().Extent("person");
          if (persons.empty()) return sqo::Status::Ok();
          return db->store().UpdateAttribute(
              persons[pick % persons.size()], "age",
              Value::Int(21 + static_cast<int>(i % 60)));
        });
        break;
      }
      case 3: {
        const uint64_t s = rng(), t = rng();
        ops.push_back([s, t](engine::Database* db) {
          const auto& students = db->store().Extent("student");
          const auto& sections = db->store().Extent("section");
          if (students.empty() || sections.empty()) return sqo::Status::Ok();
          return db->store().Relate("takes", students[s % students.size()],
                                    sections[t % sections.size()]);
        });
        break;
      }
      case 4: {
        const uint64_t pick = rng();
        ops.push_back([pick](engine::Database* db) {
          const auto& takes = db->store().Pairs("takes");
          if (takes.empty()) return sqo::Status::Ok();
          const auto [src, dst] = takes[pick % takes.size()];
          return db->store().Unrelate("takes", src, dst);
        });
        break;
      }
      default: {
        const uint64_t pick = rng();
        ops.push_back([pick](engine::Database* db) {
          const auto& persons = db->store().Extent("person");
          if (persons.empty()) return sqo::Status::Ok();
          return db->store().DeleteObject(persons[pick % persons.size()]);
        });
        break;
      }
    }
  }
  return ops;
}

sqo::Result<ChaosOutcome> RunChaosIteration(const ChaosOptions& options) {
  if (options.pipeline == nullptr) {
    return sqo::InvalidArgumentError("ChaosOptions.pipeline is required");
  }
  if (options.dir.empty()) {
    return sqo::InvalidArgumentError("ChaosOptions.dir is required");
  }
  // The child inherits a copy of the parent's memory; the fork must happen
  // while no committer thread is alive in this process (the caller owns
  // that — a Database with attached storage must be closed first).
  const pid_t pid = ::fork();
  if (pid < 0) {
    return sqo::InternalError("fork failed for chaos child");
  }
  if (pid == 0) {
    ChildMain(options);  // never returns
  }

  ChaosOutcome outcome;
  SQO_ASSIGN_OR_RETURN(outcome.child_exit_code, SuperviseChild(pid, options));
  if (outcome.child_exit_code == kChildSetupFailed) {
    return sqo::InternalError("chaos child failed in setup (not an injected "
                              "crash): harness bug");
  }
  outcome.child_crashed = outcome.child_exit_code != kChildCleanFinish;

  const AckLog acks = ReadAckLog(options.dir);
  outcome.baseline_durable = acks.baseline;
  outcome.acked = acks.acked;

  // Reopen in this process with a clean env: whatever the child managed to
  // make durable is all recovery gets.
  engine::Database recovered(&options.pipeline->schema());
  SQO_RETURN_IF_ERROR(SetupUniversityRuntime(&recovered));
  SQO_RETURN_IF_ERROR(
      recovered.Open(options.dir, MakeOpenOptions(options, nullptr)));
  const storage::RecoveryInfo* info = recovered.recovery_info();
  outcome.degraded = info != nullptr && info->degraded;
  std::string degradation_reason =
      info != nullptr ? info->degradation_reason : "";
  const std::string recovered_sig = ChaosStateSignature(recovered.store());
  SQO_RETURN_IF_ERROR(recovered.CloseStorage());

  if (!outcome.baseline_durable) {
    // Death before Open() returned: nothing was ever acknowledged, and the
    // atomically-published baseline either exists in full or not at all.
    engine::Database empty(&options.pipeline->schema());
    SQO_RETURN_IF_ERROR(SetupUniversityRuntime(&empty));
    const std::string empty_sig = ChaosStateSignature(empty.store());
    engine::Database baseline(&options.pipeline->schema());
    SQO_RETURN_IF_ERROR(
        PopulateUniversity(options.data, *options.pipeline, &baseline));
    const std::string baseline_sig = ChaosStateSignature(baseline.store());
    outcome.consistent =
        recovered_sig == empty_sig || recovered_sig == baseline_sig;
    if (!outcome.consistent) {
      outcome.detail = "crash before baseline: recovered state matches "
                       "neither the empty store nor the full baseline";
    }
    return outcome;
  }

  // Oracle: the same deterministic population + exactly the acknowledged
  // prefix of the same script. The +1 candidate is the one in-flight record
  // a post-write crash (failed fsync, SIGKILL between write and ack) may
  // legitimately persist without an acknowledgment.
  const auto ops = ChaosOpScript(options.seed, options.ops);
  engine::Database oracle(&options.pipeline->schema());
  SQO_RETURN_IF_ERROR(
      PopulateUniversity(options.data, *options.pipeline, &oracle));
  for (size_t i = 0; i < outcome.acked && i < ops.size(); ++i) {
    SQO_RETURN_IF_ERROR(ops[i](&oracle));
  }
  const std::string acked_sig = ChaosStateSignature(oracle.store());
  std::string plus_one_sig = acked_sig;
  if (outcome.acked < ops.size()) {
    SQO_RETURN_IF_ERROR(ops[outcome.acked](&oracle));
    plus_one_sig = ChaosStateSignature(oracle.store());
  }

  outcome.consistent =
      recovered_sig == acked_sig || recovered_sig == plus_one_sig;
  if (!outcome.consistent) {
    outcome.detail =
        "recovered state matches neither the acked prefix (" +
        std::to_string(outcome.acked) + " ops) nor acked+1 (mode " +
        std::to_string(static_cast<int>(options.mode)) + ", crash_point " +
        std::to_string(options.crash_point) + ")";
  } else if (outcome.degraded) {
    // Consistency with degradation means fail-open recovery papered over
    // something a clean process kill should never produce.
    outcome.consistent = false;
    outcome.detail =
        "recovery degraded after a clean process kill: " + degradation_reason;
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Concurrent serving chaos
// ---------------------------------------------------------------------------

namespace {

/// True when `s` looks like a client-owned identity: "cc<digits>_...".
bool HasAnyClientPrefix(const std::string& s) {
  if (s.size() < 4 || s[0] != 'c' || s[1] != 'c') return false;
  size_t i = 2;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  return i > 2 && i < s.size() && s[i] == '_';
}

bool RowHasString(engine::ObjectStore::RowView row,
                  const std::function<bool(const std::string&)>& pred) {
  for (const sqo::Value& v : row) {
    if (v.kind() == sqo::ValueKind::kString && pred(v.AsString())) return true;
  }
  return false;
}

/// OID-free identity of an object: class plus every non-OID attribute
/// value (the row's first column is the object's own OID, and OIDs differ
/// between the child's populated store and an oracle replaying on an empty
/// one). The per-client name scheme makes this unique among one client's
/// objects.
std::string RowIdentity(const std::string& relation,
                        engine::ObjectStore::RowView row) {
  std::string id = relation;
  for (const sqo::Value& v : row) {
    if (v.kind() == sqo::ValueKind::kOid) continue;
    id += "|" + v.ToString();
  }
  return id;
}

struct ConcurrentAckLog {
  bool baseline = false;
  std::vector<uint64_t> acked;
  uint64_t total = 0;
};

/// Per-client ack bytes are 1+k (distinct from 'B' for any sane client
/// count); unknown bytes are ignored.
ConcurrentAckLog ReadConcurrentAckLog(const std::string& dir, size_t clients) {
  ConcurrentAckLog log;
  log.acked.assign(clients, 0);
  if (sqo::Result<std::string> data = fs::ReadFile(AckPath(dir)); data.ok()) {
    for (char c : *data) {
      if (c == 'B') {
        log.baseline = true;
        continue;
      }
      const size_t k = static_cast<size_t>(static_cast<unsigned char>(c)) - 1;
      if (k < clients) {
        ++log.acked[k];
        ++log.total;
      }
    }
  }
  return log;
}

std::optional<sqo::Oid> FindByStringValue(const engine::ObjectStore& store,
                                          const std::string& relation,
                                          const std::string& value) {
  std::optional<sqo::Oid> found;
  store.ForEachObject([&](sqo::Oid oid, const std::string& exact,
                          engine::ObjectStore::RowView row) {
    if (found.has_value() || exact != relation) return;
    for (const sqo::Value& v : row) {
      if (v.kind() == sqo::ValueKind::kString && v.AsString() == value) {
        found = oid;
        return;
      }
    }
  });
  return found;
}

/// The failpoint site for concurrent kFailpointError: every third seed
/// faults the server's reply path (op applied + durable, ack lost), the
/// rest fault storage like the single-client harness.
std::string ConcurrentFailpointSite(uint64_t seed) {
  return (seed % 3 == 2) ? "server.reply" : FailpointSite(seed);
}

/// Everything the child does after fork(): populate, open storage, start a
/// Server, run N client threads. Dies by the armed mechanism, the parent's
/// SIGKILL, or _exit(86) as soon as any client's request fails.
[[noreturn]] void ConcurrentChildMain(const ConcurrentChaosOptions& options) {
  engine::Database db(&options.pipeline->schema());
  if (!PopulateUniversity(options.data, *options.pipeline, &db).ok()) {
    ::_exit(kChildSetupFailed);
  }

  fs::FaultInjectingEnv fault_env(fs::Env::Default());
  fs::Env* env =
      ArmCrashMechanism(options.mode, options.crash_point,
                        ConcurrentFailpointSite(options.seed), &fault_env);

  if (!db.Open(options.dir,
               MakeOpenOptionsFor(*options.pipeline, options.group_commit, env))
           .ok()) {
    ::_exit(fs::kFaultCrashExitCode);
  }
  AckFile acks(AckPath(options.dir));
  if (!acks.ok()) ::_exit(kChildSetupFailed);
  acks.Record('B');  // baseline durable: Open returned

  server::ServerConfig config;
  config.workers = options.server_workers;
  config.replicas = 2;
  config.replica_setup = [](engine::Database* replica) {
    return SetupUniversityRuntime(replica);
  };
  server::Server server(options.pipeline, &db, config);
  if (!server.Start().ok()) ::_exit(kChildSetupFailed);

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  clients.reserve(options.clients);
  for (size_t k = 0; k < options.clients; ++k) {
    clients.emplace_back([&options, &server, &acks, &failed, k] {
      std::shared_ptr<server::Session> session =
          server.OpenSession(ChaosClientPrefix(k));
      const auto ops =
          ChaosClientScript(options.seed, k, options.ops_per_client);
      size_t done = 0;
      for (const auto& op : ops) {
        if (failed.load(std::memory_order_acquire)) return;
        if (!session->Mutate(op).ok()) {
          // The injected failure (or its unhealthy-latch shadow). This
          // client's last op is the unacknowledged in-flight candidate.
          failed.store(true, std::memory_order_release);
          return;
        }
        acks.Record(static_cast<char>(1 + k));
        ++done;
        if (options.query_every != 0 && done % options.query_every == 0) {
          // Read mix: pin a snapshot under the write stream. Result and
          // status intentionally ignored — reads don't ack.
          (void)session->Query(
              "select x.name from x in Person where x.age < 30");
        }
        if (options.mode == ChaosCrashMode::kKillMidTraffic) {
          ::usleep(300);  // pace so the parent's SIGKILL lands mid-traffic
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  if (failed.load(std::memory_order_acquire)) {
    ::_exit(fs::kFaultCrashExitCode);  // die like a crash: no Stop, no Close
  }
  server.Stop();
  const sqo::Status closed = db.CloseStorage();
  ::_exit(closed.ok() ? kChildCleanFinish : fs::kFaultCrashExitCode);
}

}  // namespace

std::string ChaosClientPrefix(size_t client) {
  return "cc" + std::to_string(client) + "_";
}

std::string ChaosClientSignature(const engine::ObjectStore& store,
                                 const std::string& prefix) {
  std::map<uint64_t, std::string> identities;
  std::vector<std::string> lines;
  store.ForEachObject([&](sqo::Oid oid, const std::string& relation,
                          engine::ObjectStore::RowView row) {
    if (!RowHasString(row, [&prefix](const std::string& s) {
          return s.rfind(prefix, 0) == 0;
        })) {
      return;
    }
    std::string id = RowIdentity(relation, row);
    lines.push_back(id);
    identities.emplace(oid.raw(), std::move(id));
  });
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  for (const std::string& rel : store.RelationNames()) {
    std::vector<std::string> pair_lines;
    for (const auto& [src, dst] : store.Pairs(rel)) {
      const auto a = identities.find(src.raw());
      if (a == identities.end()) continue;
      const auto b = identities.find(dst.raw());
      if (b == identities.end()) continue;
      pair_lines.push_back(rel + "(" + a->second + " -> " + b->second + ")");
    }
    std::sort(pair_lines.begin(), pair_lines.end());
    for (const std::string& line : pair_lines) out += line + "\n";
  }
  return out;
}

std::string ChaosBaselineSignature(const engine::ObjectStore& store) {
  std::set<uint64_t> client_owned;
  std::vector<std::string> lines;
  store.ForEachObject([&](sqo::Oid oid, const std::string& relation,
                          engine::ObjectStore::RowView row) {
    if (RowHasString(row, HasAnyClientPrefix)) {
      client_owned.insert(oid.raw());
      return;
    }
    lines.push_back(std::to_string(oid.raw()) + "|" +
                    RowIdentity(relation, row));
  });
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  for (const std::string& rel : store.RelationNames()) {
    std::vector<std::string> pair_lines;
    for (const auto& [src, dst] : store.Pairs(rel)) {
      if (client_owned.count(src.raw()) > 0 ||
          client_owned.count(dst.raw()) > 0) {
        continue;
      }
      pair_lines.push_back(rel + "(" + std::to_string(src.raw()) + "," +
                           std::to_string(dst.raw()) + ")");
    }
    if (pair_lines.empty()) continue;
    std::sort(pair_lines.begin(), pair_lines.end());
    for (const std::string& line : pair_lines) out += line + "\n";
  }
  // next_oid intentionally excluded: client creates legitimately advance
  // the allocator without touching baseline objects.
  return out;
}

std::vector<std::function<sqo::Status(engine::Database*)>> ChaosClientScript(
    uint64_t seed, size_t client, size_t n) {
  std::vector<std::function<sqo::Status(engine::Database*)>> ops;
  ops.reserve(n);
  const std::string prefix = ChaosClientPrefix(client);
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + client + 1);
  for (size_t i = 0; i < n; ++i) {
    switch (rng() % 7) {
      case 0:
        ops.push_back([prefix, i](engine::Database* db) {
          return db->store()
              .CreateObject(
                  "Person",
                  {{"name", Value::String(prefix + "p" + std::to_string(i))},
                   {"age", Value::Int(20 + static_cast<int>(i % 50))}})
              .status();
        });
        break;
      case 1:
        ops.push_back([prefix, i](engine::Database* db) {
          return db->store()
              .CreateObject(
                  "Student",
                  {{"name", Value::String(prefix + "s" + std::to_string(i))},
                   {"age", Value::Int(18 + static_cast<int>(i % 10))},
                   {"student_id",
                    Value::String(prefix + "id" + std::to_string(i))}})
              .status();
        });
        break;
      case 2:
        ops.push_back([prefix, i](engine::Database* db) {
          return db->store()
              .CreateObject(
                  "Section",
                  {{"number",
                    Value::String(prefix + "x" + std::to_string(i))}})
              .status();
        });
        break;
      case 3: {
        const size_t j = rng() % (i + 1);
        ops.push_back([prefix, i, j](engine::Database* db) {
          const auto person = FindByStringValue(
              db->store(), "person", prefix + "p" + std::to_string(j));
          if (!person.has_value()) return sqo::Status::Ok();
          return db->store().UpdateAttribute(
              *person, "age", Value::Int(21 + static_cast<int>(i % 60)));
        });
        break;
      }
      case 4: {
        const size_t j1 = rng() % (i + 1), j2 = rng() % (i + 1);
        ops.push_back([prefix, j1, j2](engine::Database* db) {
          const auto student = FindByStringValue(
              db->store(), "student", prefix + "s" + std::to_string(j1));
          const auto section = FindByStringValue(
              db->store(), "section", prefix + "x" + std::to_string(j2));
          if (!student.has_value() || !section.has_value()) {
            return sqo::Status::Ok();
          }
          return db->store().Relate("takes", *student, *section);
        });
        break;
      }
      case 5: {
        const size_t j1 = rng() % (i + 1), j2 = rng() % (i + 1);
        ops.push_back([prefix, j1, j2](engine::Database* db) {
          const auto student = FindByStringValue(
              db->store(), "student", prefix + "s" + std::to_string(j1));
          const auto section = FindByStringValue(
              db->store(), "section", prefix + "x" + std::to_string(j2));
          if (!student.has_value() || !section.has_value()) {
            return sqo::Status::Ok();
          }
          return db->store().Unrelate("takes", *student, *section);
        });
        break;
      }
      default: {
        const size_t j = rng() % (i + 1);
        ops.push_back([prefix, j](engine::Database* db) {
          const auto person = FindByStringValue(
              db->store(), "person", prefix + "p" + std::to_string(j));
          if (!person.has_value()) return sqo::Status::Ok();
          return db->store().DeleteObject(*person);
        });
        break;
      }
    }
  }
  return ops;
}

sqo::Result<ConcurrentChaosOutcome> RunConcurrentChaosIteration(
    const ConcurrentChaosOptions& options) {
  if (options.pipeline == nullptr) {
    return sqo::InvalidArgumentError(
        "ConcurrentChaosOptions.pipeline is required");
  }
  if (options.dir.empty()) {
    return sqo::InvalidArgumentError("ConcurrentChaosOptions.dir is required");
  }
  if (options.clients == 0 || options.clients > 64) {
    return sqo::InvalidArgumentError("clients must be in [1, 64]");
  }
  // As with RunChaosIteration, the fork must happen while this process has
  // no live committer/worker threads (the caller owns that).
  const pid_t pid = ::fork();
  if (pid < 0) {
    return sqo::InternalError("fork failed for chaos child");
  }
  if (pid == 0) {
    ConcurrentChildMain(options);  // never returns
  }

  ConcurrentChaosOutcome outcome;
  std::function<bool()> should_kill;
  if (options.mode == ChaosCrashMode::kKillMidTraffic) {
    should_kill = [&options] {
      return ReadConcurrentAckLog(options.dir, options.clients).total >=
             options.crash_point;
    };
  }
  SQO_ASSIGN_OR_RETURN(outcome.child_exit_code, Supervise(pid, should_kill));
  if (outcome.child_exit_code == kChildSetupFailed) {
    return sqo::InternalError(
        "concurrent chaos child failed in setup (not an injected crash): "
        "harness bug");
  }
  outcome.child_crashed = outcome.child_exit_code != kChildCleanFinish;

  const ConcurrentAckLog acks =
      ReadConcurrentAckLog(options.dir, options.clients);
  outcome.baseline_durable = acks.baseline;
  outcome.acked = acks.acked;
  outcome.total_acked = acks.total;

  engine::Database recovered(&options.pipeline->schema());
  SQO_RETURN_IF_ERROR(SetupUniversityRuntime(&recovered));
  SQO_RETURN_IF_ERROR(recovered.Open(
      options.dir,
      MakeOpenOptionsFor(*options.pipeline, options.group_commit, nullptr)));
  const storage::RecoveryInfo* info = recovered.recovery_info();
  outcome.degraded = info != nullptr && info->degraded;
  const std::string degradation_reason =
      info != nullptr ? info->degradation_reason : "";

  if (!outcome.baseline_durable) {
    // Death before Open() returned: the server never started, so nothing
    // was ever acknowledged — same all-or-nothing baseline check as the
    // single-client harness.
    const std::string recovered_sig = ChaosStateSignature(recovered.store());
    SQO_RETURN_IF_ERROR(recovered.CloseStorage());
    engine::Database empty(&options.pipeline->schema());
    SQO_RETURN_IF_ERROR(SetupUniversityRuntime(&empty));
    engine::Database baseline(&options.pipeline->schema());
    SQO_RETURN_IF_ERROR(
        PopulateUniversity(options.data, *options.pipeline, &baseline));
    outcome.consistent =
        recovered_sig == ChaosStateSignature(empty.store()) ||
        recovered_sig == ChaosStateSignature(baseline.store());
    if (!outcome.consistent) {
      outcome.detail = "crash before baseline: recovered state matches "
                       "neither the empty store nor the full baseline";
    }
    return outcome;
  }

  // Baseline projection first: client traffic must never perturb the
  // population (OID-exact, modulo the advanced allocator).
  outcome.consistent = true;
  {
    engine::Database baseline(&options.pipeline->schema());
    SQO_RETURN_IF_ERROR(
        PopulateUniversity(options.data, *options.pipeline, &baseline));
    if (ChaosBaselineSignature(recovered.store()) !=
        ChaosBaselineSignature(baseline.store())) {
      outcome.consistent = false;
      outcome.detail = "baseline projection diverged from the population";
    }
  }

  // Per-client differential oracle: replay exactly client k's acked prefix
  // (its ops touch only its own objects, so they replay on an empty store)
  // and allow the single unacknowledged in-flight op as +1 slack.
  for (size_t k = 0; outcome.consistent && k < options.clients; ++k) {
    const std::string prefix = ChaosClientPrefix(k);
    const std::string recovered_sig =
        ChaosClientSignature(recovered.store(), prefix);
    const auto ops = ChaosClientScript(options.seed, k, options.ops_per_client);
    engine::Database oracle(&options.pipeline->schema());
    SQO_RETURN_IF_ERROR(SetupUniversityRuntime(&oracle));
    const size_t acked_k =
        std::min<size_t>(outcome.acked[k], ops.size());
    for (size_t i = 0; i < acked_k; ++i) {
      SQO_RETURN_IF_ERROR(ops[i](&oracle));
    }
    if (recovered_sig == ChaosClientSignature(oracle.store(), prefix)) {
      continue;
    }
    if (acked_k < ops.size()) {
      SQO_RETURN_IF_ERROR(ops[acked_k](&oracle));
      if (recovered_sig == ChaosClientSignature(oracle.store(), prefix)) {
        continue;
      }
    }
    outcome.consistent = false;
    outcome.detail = "client " + std::to_string(k) +
                     ": recovered projection matches neither acked prefix (" +
                     std::to_string(acked_k) + " ops) nor acked+1 (mode " +
                     std::to_string(static_cast<int>(options.mode)) +
                     ", crash_point " + std::to_string(options.crash_point) +
                     ")";
  }
  SQO_RETURN_IF_ERROR(recovered.CloseStorage());

  if (outcome.consistent && outcome.degraded) {
    outcome.consistent = false;
    outcome.detail =
        "recovery degraded after a clean process kill: " + degradation_reason;
  }
  return outcome;
}

}  // namespace sqo::workload
