#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <set>
#include <thread>

#include "bench.h"

namespace servebench {

using sqo::server::QueryResponse;
using sqo::server::ReplyRef;
using sqo::server::Session;

void Tally::Merge(const Tally& other, bool samples) {
  attempted += other.attempted;
  errors += other.errors;
  wrong += other.wrong;
  regressions += other.regressions;
  reads += other.reads;
  degraded += other.degraded;
  probes += other.probes;
  stale += other.stale;
  if (samples) {
    read_us.insert(read_us.end(), other.read_us.begin(), other.read_us.end());
    write_us.insert(write_us.end(), other.write_us.begin(), other.write_us.end());
  }
}

void LoadResult::Merge(LoadResult other) {
  tally.Merge(other.tally);
  seconds += other.seconds;
  completed_reads += other.completed_reads;
  gen_late_us.insert(gen_late_us.end(), other.gen_late_us.begin(),
                     other.gen_late_us.end());
  queue_depth.insert(queue_depth.end(), other.queue_depth.begin(),
                     other.queue_depth.end());
  retained_batches_max = std::max(retained_batches_max, other.retained_batches_max);
}

namespace {

/// Samples the server's queue depth and the epoch journal's retained
/// batches every millisecond while alive.
class ServerSampler {
 public:
  ServerSampler(const sqo::server::Server* server, bool enabled) {
    if (!enabled) return;
    thread_ = std::thread([this, server] {
      while (!stop_.load(std::memory_order_relaxed)) {
        depth_.push_back(static_cast<double>(server->queue_depth()));
        retained_max_ = std::max(retained_max_, server->epochs().retained_batches());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~ServerSampler() { Finish(nullptr); }
  ServerSampler(const ServerSampler&) = delete;
  ServerSampler& operator=(const ServerSampler&) = delete;

  void Finish(LoadResult* out) {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    if (out != nullptr) {
      out->queue_depth = std::move(depth_);
      out->retained_batches_max = retained_max_;
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> depth_;
  uint64_t retained_max_ = 0;
  std::thread thread_;  // last: joins before the members it writes go away
};

/// Per-session epoch monotonicity: no response may carry an older epoch
/// than one the session already saw.
void CheckEpoch(const QueryResponse& r, uint64_t* last_epoch, Tally* tally) {
  if (r.epoch < *last_epoch) ++tally->regressions;
  *last_epoch = std::max(*last_epoch, r.epoch);
}

void RecordRead(const std::string& text, const QueryResponse& r,
                const Oracle& oracle, double latency_us, uint64_t* last_epoch,
                Tally* tally) {
  ++tally->attempted;
  ++tally->reads;
  if (!r.status.ok()) {
    ++tally->errors;
    return;
  }
  tally->read_us.push_back(latency_us);
  if (r.degraded) ++tally->degraded;
  CheckEpoch(r, last_epoch, tally);
  if (!oracle.Check(text, r.rows)) ++tally->wrong;
}

std::string PointProbe(const std::string& name) {
  return "select x.age from x in Person where x.name = \"" + name + "\"";
}
std::string TakesProbe(const std::string& student, const std::string& number) {
  return "select y.number from x in Student, y in x.takes where x.name = \"" +
         student + "\" and y.number = \"" + number + "\"";
}

}  // namespace

LoadResult RunClosedLoop(Env& env, const WorkloadSpec& spec, const ReadMix& mix,
                         const Oracle& oracle, double seconds, uint64_t seed,
                         bool sample_server) {
  std::vector<std::shared_ptr<Session>> sessions;
  for (size_t i = 0; i < spec.sessions; ++i) {
    sessions.push_back(env.server->OpenSession("client-" + std::to_string(i)));
  }
  std::vector<Tally> tallies(spec.sessions);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  LoadResult result;
  ServerSampler sampler(env.server.get(), sample_server);
  {
    std::vector<std::jthread> clients;
    for (size_t i = 0; i < spec.sessions; ++i) {
      clients.emplace_back([&, i] {
        std::mt19937_64 rng(seed * 7919 + i);
        uint64_t cursor = i;
        uint64_t last_epoch = 0;
        std::this_thread::sleep_until(start);
        while (Clock::now() < end) {
          const std::string& text = mix.Next(rng, &cursor);
          const Clock::time_point t0 = Clock::now();
          const QueryResponse r = sessions[i]->Query(text);
          const Clock::time_point t1 = Clock::now();
          RecordRead(text, r, oracle, MicrosBetween(t0, t1), &last_epoch,
                     &tallies[i]);
        }
      });
    }
  }
  // Every read started before `end`; throughput is over the time until the
  // last of them returned.
  result.seconds = SecondsBetween(start, Clock::now());
  sampler.Finish(&result);
  for (size_t i = 0; i < spec.sessions; ++i) result.tally.Merge(tallies[i]);
  result.completed_reads = result.tally.read_us.size();
  return result;
}

// ---- Open loop ----

struct WriteTraffic::Op {
  std::function<sqo::Status(sqo::engine::Database*)> mutate;
  std::string probe;
  uint64_t fresh = 0;           // digest of the state the write produced
  std::vector<uint64_t> stale;  // digests of every earlier state
};

struct WriteTraffic::Writer {
  struct Person {
    std::string name;
    std::shared_ptr<sqo::Oid> oid;  // filled by the create op on the server
    int age = 0;
  };
  struct Student {
    sqo::Oid oid;
    std::string name;
    std::set<size_t> sections;  // indexes into `sections`
  };
  struct Section {
    sqo::Oid oid;
    std::string number;
  };

  std::mt19937_64 rng;
  uint64_t step = 0;
  std::vector<Person> persons;
  std::vector<Student> students;
  std::vector<Section> sections;
  std::optional<std::pair<size_t, size_t>> related;  // (student, section)
  std::map<std::string, std::vector<uint64_t>> history;  // probe → states

  Op Emit(std::string probe, const Rows& now) {
    std::vector<uint64_t>& states = history[probe];
    if (states.empty()) states.push_back(RowsDigest({}));  // never written
    Op op;
    op.stale = states;
    states.push_back(RowsDigest(now));
    op.fresh = states.back();
    op.probe = std::move(probe);
    return op;
  }
};

namespace {
// Writers create at most this many persons each, then only update them,
// so the Person extent — and every scan over it — stays the same size.
constexpr size_t kPersonsPerWriter = 32;
constexpr size_t kStudentsPerWriter = 16;
}  // namespace

WriteTraffic::WriteTraffic(const WorkloadSpec& spec,
                           const sqo::engine::Database& primary, uint64_t seed) {
  const sqo::engine::ObjectStore& store = primary.store();
  const auto* person = store.schema().catalog.Find("person");
  const auto* section = store.schema().catalog.Find("section");
  const size_t name_pos = *person->AttributeIndex("name");
  const size_t number_pos = *section->AttributeIndex("number");
  std::vector<Writer::Section> sections;
  for (sqo::Oid oid : store.Extent("section")) {
    sections.push_back({oid, store.AttributeOf("section", oid, number_pos)->AsString()});
  }
  const std::vector<sqo::Oid>& students = store.Extent("student");
  for (size_t w = 0; w < spec.writer_sessions; ++w) {
    auto writer = std::make_unique<Writer>();
    writer->rng.seed(seed * 104729 + w);
    writer->sections = sections;
    for (size_t k = w; k < students.size() &&
                       writer->students.size() < kStudentsPerWriter;
         k += spec.writer_sessions) {
      Writer::Student s;
      s.oid = students[k];
      s.name = store.AttributeOf("person", s.oid, name_pos)->AsString();
      for (sqo::Oid taken : store.Neighbors("takes", s.oid)) {
        for (size_t x = 0; x < sections.size(); ++x) {
          if (sections[x].oid == taken) s.sections.insert(x);
        }
      }
      writer->students.push_back(std::move(s));
    }
    writers_.push_back(std::move(writer));
  }
}

WriteTraffic::~WriteTraffic() = default;

WriteTraffic::Op WriteTraffic::Next(size_t w) {
  Writer& wr = *writers_[w];
  using sqo::Value;
  // Mix: create Person, update age, relate takes, unrelate takes (which
  // marks the access support relation stale).
  uint64_t kind = wr.step++ % 4;
  if (kind == 0 && wr.persons.size() >= kPersonsPerWriter) kind = 1;
  if (kind == 1 && wr.persons.empty()) kind = 0;
  if (kind == 3 && !wr.related) kind = 2;
  if (kind == 2 && wr.related) kind = 3;

  auto age = [&wr] { return std::uniform_int_distribution<int>(60, 85)(wr.rng); };
  if (kind == 0) {
    Writer::Person p{"w" + std::to_string(w) + "_" + std::to_string(wr.persons.size()),
                     std::make_shared<sqo::Oid>(), age()};
    Op op = wr.Emit(PointProbe(p.name), {{Value::Int(p.age)}});
    op.mutate = [name = p.name, a = p.age, slot = p.oid](sqo::engine::Database* db) {
      sqo::Result<sqo::Oid> oid = db->store().CreateObject(
          "Person", {{"name", Value::String(name)}, {"age", Value::Int(a)}});
      if (!oid.ok()) return oid.status();
      *slot = *oid;
      return sqo::Status::Ok();
    };
    wr.persons.push_back(std::move(p));
    return op;
  }
  if (kind == 1) {
    Writer::Person& p = wr.persons[std::uniform_int_distribution<size_t>(
        0, wr.persons.size() - 1)(wr.rng)];
    int next = age();
    while (next == p.age) next = age();
    p.age = next;
    Op op = wr.Emit(PointProbe(p.name), {{Value::Int(p.age)}});
    op.mutate = [slot = p.oid, a = p.age](sqo::engine::Database* db) {
      return db->store().UpdateAttribute(*slot, "age", Value::Int(a));
    };
    return op;
  }
  if (kind == 2) {
    const size_t si =
        std::uniform_int_distribution<size_t>(0, wr.students.size() - 1)(wr.rng);
    Writer::Student& s = wr.students[si];
    size_t xi = std::uniform_int_distribution<size_t>(0, wr.sections.size() - 1)(wr.rng);
    while (s.sections.count(xi) != 0) xi = (xi + 1) % wr.sections.size();
    s.sections.insert(xi);
    wr.related = {si, xi};
    const Writer::Section& x = wr.sections[xi];
    Op op = wr.Emit(TakesProbe(s.name, x.number), {{Value::String(x.number)}});
    op.mutate = [src = s.oid, dst = x.oid](sqo::engine::Database* db) {
      return db->store().Relate("takes", src, dst);
    };
    return op;
  }
  const auto [si, xi] = *wr.related;
  wr.related.reset();
  Writer::Student& s = wr.students[si];
  s.sections.erase(xi);
  const Writer::Section& x = wr.sections[xi];
  Op op = wr.Emit(TakesProbe(s.name, x.number), {});
  op.mutate = [src = s.oid, dst = x.oid](sqo::engine::Database* db) {
    return db->store().Unrelate("takes", src, dst);
  };
  return op;
}

namespace {

/// One in-flight request of an open-loop session.
struct Pending {
  enum class Kind { kRead, kWrite, kProbe };
  Kind kind = Kind::kRead;
  ReplyRef reply;
  Clock::time_point due;
  const std::string* text = nullptr;  // kRead
  uint64_t fresh = 0;                 // kProbe
  std::vector<uint64_t> stale;        // kProbe
};

/// Waits for one session's replies in submission order (the session is
/// FIFO, so the oldest reply completes first) and scores them.
class Collector {
 public:
  explicit Collector(const Oracle* oracle)
      : oracle_(oracle), thread_([this] { Run(); }) {}
  ~Collector() { Close(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }

  /// Drains every pushed reply, then stops the thread.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  const Tally& tally() const { return tally_; }

 private:
  void Run() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      const QueryResponse& r = p.reply->Wait();
      const double latency_us = MicrosBetween(p.due, Clock::now());
      if (p.kind == Pending::Kind::kRead) {
        RecordRead(*p.text, r, *oracle_, latency_us, &last_epoch_, &tally_);
        continue;
      }
      ++tally_.attempted;
      if (!r.status.ok()) {
        ++tally_.errors;
        continue;
      }
      CheckEpoch(r, &last_epoch_, &tally_);
      if (p.kind == Pending::Kind::kWrite) {
        tally_.write_us.push_back(latency_us);
        continue;
      }
      ++tally_.probes;
      const uint64_t seen = RowsDigest(r.rows);
      if (seen == p.fresh) continue;
      if (std::find(p.stale.begin(), p.stale.end(), seen) != p.stale.end()) {
        ++tally_.stale;  // an older state of the session's own object
      } else {
        ++tally_.wrong;
      }
    }
  }

  const Oracle* oracle_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool closed_ = false;
  Tally tally_;
  uint64_t last_epoch_ = 0;
  std::thread thread_;  // last: starts after, joins before, the rest
};

}  // namespace

LoadResult RunOpenLoop(Env& env, const WorkloadSpec& spec, const ReadMix& mix,
                       const Oracle& oracle, WriteTraffic* writes,
                       double seconds, uint64_t seed, bool sample_server) {
  struct Stream {
    size_t session;
    bool writer;
    Clock::duration interval;
    Clock::time_point due;
    std::mt19937_64 rng;
    uint64_t cursor;
  };
  const size_t n = spec.writer_sessions + spec.reader_sessions;
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<std::unique_ptr<Collector>> collectors;
  std::vector<Stream> streams;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (size_t i = 0; i < n; ++i) {
    const bool writer = i < spec.writer_sessions;
    sessions.push_back(env.server->OpenSession((writer ? "writer-" : "reader-") +
                                               std::to_string(i)));
    collectors.push_back(std::make_unique<Collector>(&oracle));
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / (writer ? spec.writes_per_s
                                                    : spec.reads_per_s)));
    // Stagger the streams evenly across one interval.
    streams.push_back({i, writer, interval,
                       start + interval * static_cast<int64_t>(i) /
                                   static_cast<int64_t>(n),
                       std::mt19937_64(seed * 15485863 + i), i});
  }

  LoadResult result;
  ServerSampler sampler(env.server.get(), sample_server);
  for (;;) {
    Stream& s = *std::min_element(
        streams.begin(), streams.end(),
        [](const Stream& a, const Stream& b) { return a.due < b.due; });
    if (s.due >= end) break;
    std::this_thread::sleep_until(s.due);
    result.gen_late_us.push_back(MicrosBetween(s.due, Clock::now()));
    Session& session = *sessions[s.session];
    if (s.writer) {
      WriteTraffic::Op op = writes->Next(s.session);
      Pending write;
      write.kind = Pending::Kind::kWrite;
      write.reply = session.SubmitMutation(op.mutate);
      write.due = s.due;
      // Per-session FIFO runs the probe after the write's ack.
      Pending probe;
      probe.kind = Pending::Kind::kProbe;
      probe.reply = session.SubmitQuery(op.probe);
      probe.due = s.due;
      probe.fresh = op.fresh;
      probe.stale = std::move(op.stale);
      collectors[s.session]->Push(std::move(write));
      collectors[s.session]->Push(std::move(probe));
    } else {
      Pending read;
      read.text = &mix.Next(s.rng, &s.cursor);
      read.reply = session.SubmitQuery(*read.text);
      read.due = s.due;
      collectors[s.session]->Push(std::move(read));
    }
    s.due += s.interval;
  }
  for (std::unique_ptr<Collector>& c : collectors) {
    c->Close();
    result.tally.Merge(c->tally());
  }
  sampler.Finish(&result);
  // Every read sent completes; throughput is over the time until the last
  // reply arrived.
  result.completed_reads = result.tally.read_us.size();
  result.seconds = SecondsBetween(start, Clock::now());
  return result;
}

Tally IdleWrites(Env& env, size_t n, size_t batch_size) {
  Tally tally;
  if (n == 0) return tally;
  // Each write sets the age of `batch_size` persons to the value it
  // already has: a real logged, journaled and published mutation that
  // leaves every answer unchanged, so it can run between read rounds.
  const std::vector<sqo::Oid> persons = env.primary->store().Extent("person");
  const size_t age_pos = *env.primary->store().schema().catalog.Find("person")
                              ->AttributeIndex("age");
  std::shared_ptr<Session> session = env.server->OpenSession("idle-writer");
  std::vector<sqo::Oid> batch(batch_size);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < batch_size; ++k) {
      batch[k] = persons[(i * batch_size + k) % persons.size()];
    }
    const Clock::time_point t0 = Clock::now();
    const sqo::Status status =
        session->Mutate([&batch, age_pos](sqo::engine::Database* db) {
          for (sqo::Oid oid : batch) {
            SQO_ASSIGN_OR_RETURN(sqo::Value age,
                                 db->store().AttributeOf("person", oid, age_pos));
            SQO_RETURN_IF_ERROR(db->store().UpdateAttribute(oid, "age", age));
          }
          return sqo::Status::Ok();
        });
    const Clock::time_point t1 = Clock::now();
    ++tally.attempted;
    if (!status.ok()) {
      ++tally.errors;
    } else {
      tally.write_us.push_back(MicrosBetween(t0, t1));
    }
  }
  return tally;
}

}  // namespace servebench
