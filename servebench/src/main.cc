// servebench: the served-query benchmark of the sqo repository.
//
//   servebench --workload <paper_small|scan_large|read_write_wal>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>] [--tiny] [--failpoint <site>]
//              [--corrupt-digest]
//
// Untraced (--trace 0): sets the system up several times (setup_s is the
// median), drives src/server from client sessions for --seconds, checks
// every answer and prints the end-to-end metrics. Traced (--trace 1): the
// same set-up and load with server-side sampling, then a replay of the
// read (and write) path module by module under spans, and prints the
// per-layer metrics. The last line of standard output is one JSON object;
// the exit code is non-zero when any operation failed or answered wrong.
//
// --tiny, --failpoint and --corrupt-digest exist for the self-test
// (selftest.py): smaller data, an armed fault site, a wrong expected
// answer.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "common/failpoint.h"
#include "storage/manager.h"

namespace servebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/run";
  bool tiny = false;
  std::string failpoint;
  bool corrupt_digest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--corrupt-digest") {
      args->corrupt_digest = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::stoull(v);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(v);
    } else if (flag == "--trace") {
      args->trace = std::string(v) == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = v;
    } else if (flag == "--failpoint") {
      args->failpoint = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

size_t Workers(const WorkloadSpec& spec) {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, spec.workers);
}

struct SetupTimes {
  double total_s = 0;
  double open_s = 0;
  double start_s = 0;
};

/// One set-up, timed: pipeline (Step 1 + semantic compilation), populate,
/// Database::Open (storage workloads), Server::Start.
sqo::Status SetUp(const WorkloadSpec& spec, const std::string& dir,
                  Tracer* tracer, Env* env, SetupTimes* times) {
  SpanScope root(tracer, "setup");
  const Clock::time_point t0 = Clock::now();
  {
    SpanScope span(tracer, "workload.pipeline");
    SQO_ASSIGN_OR_RETURN(sqo::core::Pipeline pipeline,
                         sqo::workload::MakeUniversityPipeline());
    env->pipeline = std::make_unique<sqo::core::Pipeline>(std::move(pipeline));
  }
  env->primary = std::make_unique<sqo::engine::Database>(&env->pipeline->schema());
  {
    SpanScope span(tracer, "workload.populate");
    SQO_RETURN_IF_ERROR(
        sqo::workload::PopulateUniversity(spec.data, *env->pipeline, env->primary.get()));
  }
  if (spec.storage) {
    // The seed's flush policy: group commit on, fsync per batch.
    SpanScope span(tracer, "storage.open");
    const Clock::time_point t = Clock::now();
    SQO_RETURN_IF_ERROR(env->primary->Open(dir));
    times->open_s = SecondsBetween(t, Clock::now());
  }
  sqo::server::ServerConfig config;
  config.workers = Workers(spec);
  config.replica_setup = sqo::workload::SetupUniversityRuntime;
  env->server = std::make_unique<sqo::server::Server>(env->pipeline.get(),
                                                      env->primary.get(), config);
  {
    SpanScope span(tracer, "server.start");
    const Clock::time_point t = Clock::now();
    SQO_RETURN_IF_ERROR(env->server->Start());
    times->start_s = SecondsBetween(t, Clock::now());
  }
  times->total_s = SecondsBetween(t0, Clock::now());
  return sqo::Status::Ok();
}

/// Tears down in dependency order: the server first (it holds the primary
/// and the pipeline), then the primary, then the pipeline.
void TearDown(Env* env) {
  env->server.reset();
  env->primary.reset();
  env->pipeline.reset();
}

void ArmFailpoint(const std::string& site) {
  if (site.empty()) return;
  sqo::failpoint::Action action;
  action.status = sqo::InternalError("servebench: injected at " + site);
  sqo::failpoint::Activate(site, action);
}

/// Percentile `pct` of raw samples; nullopt with fewer than ten samples
/// beyond it.
std::optional<double> Percentile(const std::vector<double>& samples, int pct) {
  if (pct == 50) {
    return samples.size() >= 21 ? std::optional<double>(Median(samples)) : std::nullopt;
  }
  return TailQuantile(samples, pct / 100.0);
}

/// p50, p90, p95 and p99 of one kind of request from the raw samples of
/// each round. The percentiles in `gated` are end-to-end metrics, each the
/// median over rounds of the round's percentile, so one disturbed round
/// cannot move it; the others are info lines over the pooled samples (see
/// README.md for which hold steady). A percentile with fewer than ten
/// samples beyond it is not reported.
void AddLatency(Report* report, const std::string& prefix,
                const std::vector<std::vector<double>>& rounds,
                const std::vector<int>& gated, const std::string& unit) {
  std::vector<double> pooled;
  for (const std::vector<double>& r : rounds) pooled.insert(pooled.end(), r.begin(), r.end());
  const std::string n = "n=" + std::to_string(pooled.size());
  for (int pct : {50, 90, 95, 99}) {
    const std::string name = prefix + "_p" + std::to_string(pct) + "_" + unit;
    if (std::find(gated.begin(), gated.end(), pct) == gated.end()) {
      if (std::optional<double> v = Percentile(pooled, pct)) report->Info(name, *v, unit, n);
      continue;
    }
    std::vector<double> per_round;
    for (const std::vector<double>& r : rounds) {
      if (std::optional<double> v = Percentile(r, pct)) per_round.push_back(*v);
    }
    if (!rounds.empty() && per_round.size() == rounds.size()) {
      report->Add(name, Median(per_round), unit,
                  n + ", median of " + std::to_string(rounds.size()) + " rounds");
    } else if (std::optional<double> v = Percentile(pooled, pct)) {
      report->Add(name, *v, unit, n + ", pooled: rounds too small");
    } else {
      report->Missing(name, unit, n + ", fewer than 10 samples beyond it");
    }
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

constexpr size_t kRounds = 20;

/// Persons per idle write on read-only workloads (see IdleWrites).
constexpr size_t kIdleWriteBatch = 1024;

int Run(const Args& args) {
  std::optional<WorkloadSpec> found = FindWorkload(args.workload, args.tiny, args.trace);
  if (!found) {
    std::cerr << "servebench: unknown workload " << args.workload << "\n";
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const std::string run_dir = args.out_dir + "/" + spec.name + "-" +
                              std::to_string(args.seed) + "-" +
                              std::to_string(::getpid());
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir);
  std::unique_ptr<Tracer> tracer = args.trace ? std::make_unique<Tracer>() : nullptr;

  std::cout << "servebench workload=" << spec.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << " workers=" << Workers(spec) << "\n";

  // Set up `spec.setups` times; the last set-up serves the run.
  Env env;
  std::vector<double> setup_s, open_s, start_s;
  for (size_t k = 0; k < spec.setups; ++k) {
    TearDown(&env);
    SetupTimes times;
    const std::string dir = run_dir + "/db-" + std::to_string(k);
    const sqo::Status status = SetUp(spec, dir, tracer.get(), &env, &times);
    if (!status.ok()) {
      std::cerr << "servebench: set-up failed: " << status.ToString() << "\n";
      return 1;
    }
    setup_s.push_back(times.total_s);
    open_s.push_back(times.open_s);
    start_s.push_back(times.start_s);
  }
  std::cout << "objects=" << env.primary->store().object_count() << "\n";

  const ReadMix mix(spec, args.seed);
  Oracle oracle;
  if (sqo::Status s = oracle.Build(*env.pipeline, *env.primary, mix.distinct());
      !s.ok()) {
    std::cerr << "servebench: oracle failed: " << s.ToString() << "\n";
    return 1;
  }
  if (args.corrupt_digest) oracle.Corrupt(mix.distinct().front());

  Tally total;  // every operation of the run, for correctness
  // Warm-up: every distinct read once through the server (lazy indexes and
  // ASR refreshes happen here, not in the measured window).
  {
    std::shared_ptr<sqo::server::Session> warm = env.server->OpenSession("warm-up");
    for (const std::string& text : mix.distinct()) {
      const sqo::server::QueryResponse r = warm->Query(text);
      ++total.attempted;
      if (!r.status.ok()) ++total.errors;
      else if (!oracle.Check(text, r.rows)) ++total.wrong;
    }
  }
  std::unique_ptr<WriteTraffic> writes;
  if (spec.loop == Loop::kOpen) {
    writes = std::make_unique<WriteTraffic>(spec, *env.primary, args.seed);
    const LoadResult warm = RunOpenLoop(env, spec, mix, oracle, writes.get(),
                                        std::min(1.0, args.seconds / 5), args.seed + 1,
                                        false);
    total.Merge(warm.tally, false);
  }

  ArmFailpoint(args.failpoint);
  const double load_s = args.trace ? args.seconds * 0.4 : args.seconds;
  // Rounds of load, on read-only workloads each followed by a burst of
  // idle writes, so that both samples spread over the whole run. The fixed
  // reference work timed between rounds shows how fast the shared CPU ran.
  LoadResult load;
  Tally idle;
  std::vector<std::vector<double>> read_rounds, write_rounds;  // latency samples
  std::vector<double> qps_rounds, cpu_ref_ms;
  for (size_t r = 0; r < kRounds; ++r) {
    cpu_ref_ms.push_back(ReferenceMs());
    const double round_s = load_s / kRounds;
    const uint64_t round_seed = args.seed * kRounds + r;
    LoadResult part = spec.loop == Loop::kOpen
                          ? RunOpenLoop(env, spec, mix, oracle, writes.get(), round_s,
                                        round_seed, args.trace)
                          : RunClosedLoop(env, spec, mix, oracle, round_s, round_seed,
                                          args.trace);
    read_rounds.push_back(part.tally.read_us);
    qps_rounds.push_back(Ratio(static_cast<double>(part.completed_reads), part.seconds));
    if (spec.loop == Loop::kOpen) write_rounds.push_back(part.tally.write_us);
    load.Merge(std::move(part));
    if (spec.loop == Loop::kClosed && !args.trace) {
      const Tally writes_done = IdleWrites(env, spec.write_probes / kRounds, kIdleWriteBatch);
      write_rounds.push_back(writes_done.write_us);
      idle.Merge(writes_done);
    }
  }
  cpu_ref_ms.push_back(ReferenceMs());
  total.Merge(load.tally);
  total.Merge(idle);
  const sqo::obs::MetricsRegistry server_metrics = env.server->MetricsSnapshot();

  Report report;
  if (!args.trace) {
    const Tally& t = load.tally;
    report.Add("setup_s", Median(setup_s), "s",
               "median of " + std::to_string(setup_s.size()) + " set-ups");
    report.Add("read_qps", Median(qps_rounds), "reads/s",
               std::string(spec.loop == Loop::kOpen ? "the offered load; " : "") +
                   "median of " + std::to_string(qps_rounds.size()) + " rounds, " +
                   std::to_string(load.completed_reads) + " reads in " +
                   std::to_string(load.seconds) + " s");
    AddLatency(&report, "read", read_rounds, {50, 90}, "us");
    AddLatency(&report, "write_ack", write_rounds, {50}, "us");
    report.Add("rss_mb", PeakRssMb(), "MB", "peak, getrusage");
    report.Info("cpu_ref_ms", Median(cpu_ref_ms), "ms",
                "fixed reference work, median of " + std::to_string(cpu_ref_ms.size()) +
                    " timings between rounds");
    report.Info("stale_read_frac", Ratio(static_cast<double>(t.stale), static_cast<double>(t.probes)),
                "ratio", std::to_string(t.stale) + " of " + std::to_string(t.probes) + " probes");
    report.Info("failed_frac",
                Ratio(static_cast<double>(total.failed()), static_cast<double>(total.attempted)),
                "ratio",
                std::to_string(total.errors) + " errors, " + std::to_string(total.wrong) +
                    " wrong, " + std::to_string(total.regressions) + " epoch regressions of " +
                    std::to_string(total.attempted));
    report.Info("degraded_frac", Ratio(static_cast<double>(t.degraded), static_cast<double>(t.reads)),
                "ratio", std::to_string(t.degraded) + " of " + std::to_string(t.reads) + " reads");
    if (!load.gen_late_us.empty()) {
      report.Info("gen_late_p50_us", Median(load.gen_late_us), "us",
                  "open-loop send time minus due time");
    }
  } else {
    // Idle server: the serving layer's own cost per read and per write.
    const double overhead_us =
        ServerOverheadUs(env, mix, oracle, args.seconds * 0.1, &total);
    // The read path without the server: traced (alternating with
    // untraced), then decomposed module by module.
    const size_t threads = spec.loop == Loop::kClosed ? spec.sessions : 1;
    const double replay_s = args.seconds * 0.25;
    const ReplayResult traced = Replay(env, mix, oracle, threads, replay_s, args.seed,
                                       ReplayMode::kTraced, tracer.get());
    const ReplayResult decomposed = Replay(env, mix, oracle, threads, replay_s,
                                           args.seed, ReplayMode::kDecompose,
                                           tracer.get());
    total.Merge(traced.tally, false);
    total.Merge(decomposed.tally, false);

    // The write path, one update at a time: an idle Session::Mutate, then
    // the store's mutator called directly on the storage-attached primary
    // (listener -> AppendBatch -> fsync ack), alternating so that both see
    // the same disk; after Server::Stop, the same call in memory. The
    // direct calls change ages, so no read is checked after this point.
    std::vector<double> mutate_us, apply_us, apply_mem_us;
    sqo::storage::StorageManager* storage = env.primary->storage();
    double ops_per_fsync = 0, wal_bytes_per_op = 0;
    if (storage != nullptr) {
      sqo::engine::ObjectStore& store = env.primary->store();
      const std::vector<sqo::Oid> persons = store.Extent("person");
      auto apply = [&](size_t i, const char* span_name, std::vector<double>* out) {
        SpanScope span(tracer.get(), span_name);
        const Clock::time_point t0 = Clock::now();
        const sqo::Status s = store.UpdateAttribute(
            persons[i % persons.size()], "age", sqo::Value::Int(31 + static_cast<int>(i % 40)));
        out->push_back(MicrosBetween(t0, Clock::now()));
        ++total.attempted;
        if (!s.ok()) ++total.errors;
      };
      for (size_t i = 0; i < 200; ++i) {
        const Tally mutate = IdleWrites(env, 1, 1);
        total.Merge(mutate);
        mutate_us.insert(mutate_us.end(), mutate.write_us.begin(), mutate.write_us.end());
        apply(i, "storage.apply", &apply_us);
      }
      const auto gc = storage->group_commit_stats();
      ops_per_fsync = Ratio(static_cast<double>(gc.ops), static_cast<double>(gc.batches));
      wal_bytes_per_op = Ratio(static_cast<double>(storage->wal_stats().bytes),
                               static_cast<double>(gc.ops));
      env.server->Stop();
      store.SetMutationListener(nullptr);
      for (size_t i = 0; i < 200; ++i) apply(i, "storage.apply_mem", &apply_mem_us);
    }

    const Tracer::Totals reads = tracer->Summarize("read");
    const Tracer::Totals parts = tracer->Summarize("decompose");
    const LayerCounters& L = traced.layers;
    const LayerCounters& D = decomposed.layers;
    const double n = static_cast<double>(std::max<uint64_t>(L.reads, 1));
    const double nd = static_cast<double>(std::max<uint64_t>(D.decomposed, 1));
    auto self_us = [&](const Tracer::Totals& t, const char* name) {
      auto it = t.self_ns.find(name);
      const double per = &t == &reads ? n : nd;
      return it == t.self_ns.end() ? 0.0 : it->second / 1e3 / per;
    };
    double covered_ns = 0, root_ns = 0;
    for (const auto& [name, ns] : reads.self_ns) {
      if (name != "read") covered_ns += ns;
    }
    for (double us : reads.root_us) root_ns += us * 1e3;
    const double eval_us = self_us(reads, "engine.eval");
    const std::string per_read = "mean self time per read, " +
                                 std::to_string(L.reads) + " traced reads";
    const std::string per_part = "mean self time per read, " +
                                 std::to_string(D.decomposed) + " decomposed reads";

    report.Add("oql.parse_us", self_us(reads, "oql.parse"), "us", per_read);
    report.Add("translate.query_us", self_us(parts, "translate.query"), "us", per_part);
    report.Add("translate.map_changes_us", self_us(parts, "translate.map_changes"), "us",
               per_part);
    report.Add("analysis.lint_us", self_us(parts, "analysis.lint"), "us", per_part);
    report.Add("sqo.step3_us", self_us(parts, "sqo.step3"), "us", per_part);
    report.Add("sqo.optimize_us", self_us(reads, "sqo.optimize"), "us",
               "OptimizeParsed minus costing, " + per_read);
    report.Add("sqo.cost_us", self_us(reads, "sqo.cost"), "us", per_read);
    report.Add("sqo.cost_calls", static_cast<double>(L.cost_calls) / n, "count", "per read");
    report.Add("sqo.alternatives", static_cast<double>(L.alternatives) / n, "count", "per read");
    report.Add("sqo.residue_hit_ratio",
               Ratio(static_cast<double>(L.residue_hits), static_cast<double>(L.residues_tried)),
               "ratio", std::to_string(L.residues_tried) + " residues tried");
    report.Add("sqo.fetched_saved_frac",
               D.fetched_alt0 > 0 ? 1.0 - static_cast<double>(D.fetched_chosen) /
                                              static_cast<double>(D.fetched_alt0)
                                  : 0.0,
               "ratio", "1 - fetched(chosen) / fetched(alternative 0)");
    report.Add("engine.plan_us", self_us(parts, "engine.plan"), "us", per_part);
    report.Add("engine.eval_us", eval_us, "us", per_read);
    report.Add("engine.ns_per_fetched",
               Ratio(eval_us * n * 1e3, static_cast<double>(L.fetched)), "ns",
               std::to_string(L.fetched) + " objects fetched");
    report.Add("engine.fetched_per_result",
               Ratio(static_cast<double>(L.fetched), static_cast<double>(L.results)),
               "count", std::to_string(L.results) + " results");
    report.Add("engine.traversals_per_read", static_cast<double>(L.traversals) / n, "count");
    report.Add("engine.index_probes_per_read", static_cast<double>(L.index_probes) / n, "count");
    report.Add("server.overhead_us", overhead_us, "us",
               "idle Session::Query minus direct path, medians");
    report.Add("server.start_s", Median(start_s), "s",
               "median of " + std::to_string(start_s.size()) + " set-ups");
    const double skips = static_cast<double>(server_metrics.CounterValue("server.epoch_skips"));
    const double publishes =
        static_cast<double>(server_metrics.CounterValue("server.epoch_publishes"));
    report.Add("server.publish_skip_frac", Ratio(skips, skips + publishes), "ratio",
               std::to_string(static_cast<uint64_t>(skips)) + " skips, " +
                   std::to_string(static_cast<uint64_t>(publishes)) + " publishes");
    report.Add("server.retained_batches_max",
               static_cast<double>(load.retained_batches_max), "count", "sampled each ms");
    report.Add("server.queue_depth_p99",
               TailQuantile(load.queue_depth, 0.99).value_or(0.0), "count",
               std::to_string(load.queue_depth.size()) + " samples, one per ms");
    report.Add("server.shed", static_cast<double>(server_metrics.CounterValue("server.shed")),
               "count");
    report.Add("server.degraded_overload",
               static_cast<double>(server_metrics.CounterValue("server.degraded_overload")),
               "count");
    const double apply_p50 = Median(apply_us);
    report.Add("server.publish_us", mutate_us.empty() ? 0.0 : Median(mutate_us) - apply_p50,
               "us", "idle Session::Mutate minus storage.apply_us, medians");
    report.Add("storage.open_s", Median(open_s), "s");
    report.Add("storage.apply_us", apply_p50, "us", "median, listener -> AppendBatch -> fsync");
    report.Add("storage.apply_mem_us", Median(apply_mem_us), "us", "median, no storage");
    report.Add("storage.ops_per_fsync", ops_per_fsync, "count", "group commit ops / batches");
    report.Add("storage.wal_bytes_per_op", wal_bytes_per_op, "bytes");
    report.Add("bench.gen_late_p99_us",
               TailQuantile(load.gen_late_us, 0.99).value_or(0.0), "us",
               std::to_string(load.gen_late_us.size()) + " sends");
    report.Add("trace.coverage", Ratio(covered_ns, root_ns), "ratio",
               "layer self time / traced read latency");
    report.Add("trace.overhead_frac", Median(traced.overhead_ratios) - 1.0, "ratio",
               "median over " + std::to_string(traced.overhead_ratios.size()) +
                   " texts each read traced and untraced: traced / untraced - 1");
    report.Info("share.sqo", Ratio((self_us(reads, "sqo.optimize") + self_us(reads, "sqo.cost")) * n * 1e3, root_ns),
                "ratio", "sqo.* self time / traced read latency");
    report.Info("share.engine_eval", Ratio(eval_us * n * 1e3, root_ns), "ratio",
                "engine.eval self time / traced read latency");
    const std::string trace_path = args.out_dir + "/" + spec.name + "-seed" +
                                   std::to_string(args.seed) + ".trace.jsonl";
    if (sqo::Status s = tracer->WriteJsonl(trace_path); !s.ok()) {
      std::cerr << "servebench: " << s.ToString() << "\n";
    } else {
      std::cout << "spans written to " << trace_path << "\n";
    }
  }

  sqo::failpoint::DeactivateAll();
  TearDown(&env);
  std::filesystem::remove_all(run_dir);
  const bool correct = total.failed() == 0;
  report.Print(correct, total.attempted, total.failed());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: servebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--tiny] [--failpoint <site>] "
                 "[--corrupt-digest]\n";
    return 2;
  }
  return servebench::Run(args);
}
