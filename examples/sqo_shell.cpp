// Interactive SQO shell over the university schema: type OQL queries and
// see Steps 2–4 plus the evaluated answers of the chosen rewriting.
//
//   $ build/examples/sqo_shell
//   oql> select x.name from x in Person where x.age < 30
//   ...
//   oql> \residues faculty      -- dump residues attached to a relation
//   oql> \ics                   -- list all compiled integrity constraints
//   oql> \plan select ...       -- show the evaluator's plan for a query
//   oql> \timing                -- toggle per-query span tree + metrics
//   oql> \explain select ...    -- derivations + per-alternative counters
//   oql> \profile select ...    -- EXPLAIN ANALYZE: execute the chosen
//                                  rewriting with operator-level profiling
//                                  (rows in/out, timings, IC attribution)
//   oql> \profile json select.. -- same, machine-readable JSON
//   oql> \slow 5                -- journal queries >= 5ms as slow (capture
//                                  their full profile; 0 disables)
//   oql> \journal [n]           -- last n journaled query events
//   oql> \journal flush f.jsonl -- append unflushed events to a JSONL file
//   oql> \metrics [json|prom]   -- session metrics (+ Prometheus format)
//   oql> \export <dir>          -- write metrics.json/.prom into dir once
//   oql> \export start <dir> [ms] / \export stop -- periodic exporter
//   oql> \check                 -- static-analysis report for the IC set
//   oql> \check select ...      -- lint a query without running it
//   oql> \verify                -- prove every alternative of the five seed
//                                  queries equivalent to its original
//                                  (SQO-A015/A016/A017)
//   oql> \verify select ...     -- same, for one query
//   oql> \deadline 50           -- bound Step 3 to 50ms (0 clears); expiry
//                                  degrades to the original query
//   oql> \serve [clients]       -- in-process serving demo: start a server
//                                  over this database, run N concurrent
//                                  client sessions beside a writer, and
//                                  report snapshot epochs, latency and the
//                                  admission-control counters
//   oql> \save db_dir           -- attach crash-safe storage: current state
//                                  becomes the persisted baseline, every
//                                  later mutation is WAL-logged
//   oql> \open db_dir           -- recover a persisted database (replaces
//                                  the in-memory one)
//   oql> \checkpoint            -- snapshot now + truncate the WAL
//   oql> \quit

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "analysis/verifier.h"
#include "common/context.h"
#include "common/fileio.h"
#include "common/fingerprint.h"
#include "engine/cost_model.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oql/parser.h"
#include "server/server.h"
#include "sqo/profile_attribution.h"
#include "storage/manager.h"
#include "workload/university.h"

namespace {

/// Session-wide observability: every query merges its counters here, the
/// journal rings completion events, and the QPS meter tracks the latency
/// distribution. The mutex exists for the periodic exporter, which
/// snapshots `metrics` from its background thread.
struct SessionObs {
  std::mutex mu;
  sqo::obs::MetricsRegistry metrics;
  sqo::obs::QueryJournal journal;
  sqo::obs::QpsMeter qps;

  void Merge(const sqo::obs::MetricsRegistry& local) {
    std::lock_guard<std::mutex> lock(mu);
    metrics.MergeFrom(local);
  }
  sqo::obs::MetricsRegistry SnapshotMetrics() {
    std::lock_guard<std::mutex> lock(mu);
    return metrics;
  }
};

std::string QueryFingerprint(const std::string& text) {
  sqo::FingerprintBuilder builder;
  for (char c : text) builder.Append(static_cast<unsigned char>(c));
  return builder.fingerprint().ToString();
}

bool IsGovernanceStatus(const sqo::Status& status) {
  return status.code() == sqo::StatusCode::kResourceExhausted ||
         status.code() == sqo::StatusCode::kCancelled;
}

void PrintObservability(const sqo::obs::Tracer& tracer,
                        const sqo::obs::MetricsRegistry& metrics) {
  std::printf("-- spans --\n%s", tracer.ToText().c_str());
  const std::string text = metrics.ToText();
  if (!text.empty()) std::printf("-- metrics --\n%s", text.c_str());
}

/// Runs `fn` under a fresh ExecutionContext bounded by `deadline_ms`
/// (0 = ungoverned). The scope covers optimization only: a degraded
/// result must still be evaluable, and a latched (expired) context would
/// fail the evaluator too.
template <typename Fn>
auto WithDeadline(uint64_t deadline_ms, Fn&& fn) {
  sqo::ExecutionContext context;
  std::optional<sqo::ScopedContext> governance;
  if (deadline_ms > 0) {
    context.SetDeadlineAfter(std::chrono::milliseconds(deadline_ms));
    governance.emplace(&context);
  }
  return fn();
}

void RunQuery(const sqo::core::Pipeline& pipeline, const sqo::engine::Database& db,
              const sqo::engine::EngineCostModel& cost_model,
              const std::string& oql, bool plan_only, uint64_t deadline_ms,
              SessionObs* session) {
  const auto query_start = std::chrono::steady_clock::now();
  // Per-query local registry: merged into the session registry (and any
  // outer \timing registry) on every exit path.
  sqo::obs::MetricsRegistry* outer = sqo::obs::CurrentMetrics();
  sqo::obs::MetricsRegistry local;
  struct Merger {
    sqo::obs::MetricsRegistry* outer;
    SessionObs* session;
    sqo::obs::MetricsRegistry* local;
    ~Merger() {
      if (session != nullptr) session->Merge(*local);
      if (outer != nullptr) outer->MergeFrom(*local);
    }
  } merger{outer, session, &local};
  sqo::obs::ScopedMetrics install_local(&local);

  auto record = [&](std::string status, bool degraded, bool cancelled,
                    bool contradiction, int chosen, size_t n_alternatives,
                    const sqo::obs::EvalStats* stats,
                    const sqo::obs::QueryProfile* profile) {
    if (session == nullptr) return;
    const int64_t duration_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - query_start)
            .count();
    sqo::obs::QueryEvent event;
    event.fingerprint = QueryFingerprint(oql);
    event.query = oql;
    event.duration_ns = duration_ns;
    event.status = std::move(status);
    event.degraded = degraded;
    event.cancelled = cancelled;
    event.contradiction = contradiction;
    event.chosen_alternative = chosen;
    event.n_alternatives = n_alternatives;
    if (stats != nullptr) event.stats = *stats;
    if (profile != nullptr) event.profile_json = profile->ToJson();
    session->journal.Record(std::move(event));
    session->qps.Record(duration_ns);
    local.Record("shell.query", duration_ns);
  };

  // Disjunctive conditions go through the union pipeline with per-disjunct
  // contradiction elimination.
  auto parsed = sqo::oql::ParseOqlDisjunctive(oql);
  if (parsed.ok() && parsed->size() > 1) {
    auto dres = WithDeadline(deadline_ms, [&] {
      return pipeline.OptimizeDisjunctiveText(oql, &cost_model);
    });
    if (!dres.ok()) {
      std::printf("error: %s\n", dres.status().ToString().c_str());
      record("error: " + dres.status().ToString(), false,
             IsGovernanceStatus(dres.status()), false, 0, 0, nullptr, nullptr);
      return;
    }
    std::printf("%zu disjuncts, %zu live after elimination\n",
                dres->disjuncts.size(), dres->live.size());
    size_t total = 0;
    for (size_t i = 0; i < dres->disjuncts.size(); ++i) {
      const auto& d = dres->disjuncts[i];
      if (d.degraded) {
        std::printf("  [%zu] DEGRADED: %s\n", i, d.degradation_reason.c_str());
      }
      if (d.contradiction) {
        std::printf("  [%zu] ELIMINATED: %s\n", i,
                    d.contradiction_reason.c_str());
        continue;
      }
      if (d.alternatives.empty()) {
        std::printf("  [%zu] (no alternatives)\n", i);
        continue;
      }
      const auto& best = d.alternatives[d.best_index];
      auto rows = db.Run(best.datalog);
      std::printf("  [%zu] %s -> %zu rows\n", i,
                  best.datalog.ToString().c_str(),
                  rows.ok() ? rows->size() : 0);
      if (rows.ok()) total += rows->size();
    }
    std::printf("[union <= %zu rows before dedup]\n", total);
    record("ok", dres->degraded, false, dres->all_eliminated(), 0,
           dres->disjuncts.size(), nullptr, nullptr);
    return;
  }
  auto result = WithDeadline(deadline_ms, [&] {
    return pipeline.OptimizeText(oql, &cost_model);
  });
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    record("error: " + result.status().ToString(), false,
           IsGovernanceStatus(result.status()), false, 0, 0, nullptr, nullptr);
    return;
  }
  std::printf("datalog: %s\n", result->original_datalog.ToString().c_str());
  if (result->degraded) {
    std::printf("DEGRADED — falling back to the original query:\n  %s\n",
                result->degradation_reason.c_str());
  }
  if (result->contradiction) {
    std::printf("CONTRADICTION — the query is provably empty:\n  %s\n",
                result->contradiction_reason.c_str());
    record("ok", result->degraded, false, /*contradiction=*/true, 0, 0,
           nullptr, nullptr);
    return;
  }
  if (result->alternatives.empty()) {
    std::printf("error: optimizer produced no alternatives\n");
    return;
  }
  const sqo::core::Alternative& best = result->alternatives[result->best_index];
  std::printf("%zu equivalent queries; chosen (est. cost %.1f):\n  %s\n",
              result->alternatives.size(), best.cost,
              best.datalog.ToString().c_str());
  for (const std::string& step : best.derivation) {
    std::printf("    . %s\n", step.c_str());
  }
  if (best.oql_ok && !best.derivation.empty()) {
    std::printf("optimized OQL:\n%s\n", best.oql.ToString().c_str());
  }
  if (plan_only) {
    std::printf("%s", sqo::engine::PlanQuery(best.datalog, db.store())
                          .ToString(best.datalog, db.schema().catalog)
                          .c_str());
    return;
  }
  // Evaluate with profiling on: the journal keeps the operator tree for
  // slow queries, and the cost is two clock reads per join step.
  auto run = db.ProfileQuery(best.datalog);
  if (!run.ok()) {
    std::printf("evaluation error: %s\n", run.status().ToString().c_str());
    record("error: " + run.status().ToString(), result->degraded,
           IsGovernanceStatus(run.status()), false, result->best_index,
           result->alternatives.size(), nullptr, nullptr);
    return;
  }
  sqo::core::AnnotateProfile(*result,
                             static_cast<size_t>(result->best_index),
                             &run->profile);
  const std::vector<std::vector<sqo::Value>>& rows = run->rows;
  const size_t shown = std::min<size_t>(rows.size(), 10);
  for (size_t i = 0; i < shown; ++i) {
    std::string line;
    for (const sqo::Value& v : rows[i]) line += v.ToString() + "  ";
    std::printf("  %s\n", line.c_str());
  }
  if (rows.size() > shown) {
    std::printf("  ... (%zu rows total)\n", rows.size());
  }
  std::printf("[%zu rows; %s]\n", rows.size(), run->stats.ToString().c_str());
  record("ok", result->degraded, false, false, result->best_index,
         result->alternatives.size(), &run->stats, &run->profile);
}

/// \explain: Steps 2–4 with full derivations, per-alternative evaluator
/// counters, and the span tree with per-phase durations — no result rows.
void ExplainQuery(const sqo::core::Pipeline& pipeline,
                  sqo::engine::Database& db,
                  const sqo::engine::EngineCostModel& cost_model,
                  const std::string& oql, uint64_t deadline_ms) {
  sqo::obs::Tracer tracer;
  sqo::obs::MetricsRegistry metrics;
  sqo::obs::ScopedTracer install_tracer(&tracer);
  sqo::obs::ScopedMetrics install_metrics(&metrics);

  auto result = WithDeadline(deadline_ms, [&] {
    return pipeline.OptimizeText(oql, &cost_model);
  });
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("datalog: %s\n", result->original_datalog.ToString().c_str());
  if (result->degraded) {
    std::printf("DEGRADED — falling back to the original query:\n  %s\n",
                result->degradation_reason.c_str());
  }
  if (result->contradiction) {
    std::printf("CONTRADICTION — the query is provably empty:\n  %s\n",
                result->contradiction_reason.c_str());
    PrintObservability(tracer, metrics);
    return;
  }
  if (auto s = db.ProfileAlternatives(&*result); !s.ok()) {
    std::printf("note: some alternatives failed to evaluate: %s\n",
                s.ToString().c_str());
  }
  for (size_t i = 0; i < result->alternatives.size(); ++i) {
    const sqo::core::Alternative& alt = result->alternatives[i];
    std::printf("[%zu]%s est. cost %.1f\n  %s\n",
                i, static_cast<int>(i) == result->best_index ? " *chosen*" : "",
                alt.cost, alt.datalog.ToString().c_str());
    for (const std::string& step : alt.derivation) {
      std::printf("    . %s\n", step.c_str());
    }
    if (alt.evaluated) {
      std::printf("    eval: %s\n", alt.eval_stats.ToString().c_str());
    } else {
      std::printf("    eval: (failed)\n");
    }
  }
  PrintObservability(tracer, metrics);
}

/// \profile [json] <oql>: EXPLAIN ANALYZE. Optimizes the query, executes
/// the chosen rewriting with operator-level profiling, annotates every
/// operator with the residue/IC that introduced its literal, and prints
/// the tree (or its JSON form). Extent scans over keyed classes are
/// linted (SQO-A014).
void ProfileCommand(const sqo::core::Pipeline& pipeline,
                    const sqo::engine::Database& db,
                    const sqo::engine::EngineCostModel& cost_model,
                    std::string arg, uint64_t deadline_ms) {
  bool as_json = false;
  if (arg.rfind("json ", 0) == 0) {
    as_json = true;
    arg = arg.substr(5);
  }
  auto result = WithDeadline(deadline_ms, [&] {
    return pipeline.OptimizeText(arg, &cost_model);
  });
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (result->contradiction) {
    std::printf("CONTRADICTION — the query is provably empty:\n  %s\n",
                result->contradiction_reason.c_str());
    return;
  }
  if (result->alternatives.empty()) {
    std::printf("error: optimizer produced no alternatives\n");
    return;
  }
  const sqo::core::Alternative& best = result->alternatives[result->best_index];
  auto run = db.ProfileQuery(best.datalog);
  if (!run.ok()) {
    std::printf("evaluation error: %s\n", run.status().ToString().c_str());
    return;
  }
  sqo::core::AnnotateProfile(*result,
                             static_cast<size_t>(result->best_index),
                             &run->profile);
  if (as_json) {
    std::printf("%s\n", run->profile.ToJson().c_str());
    return;
  }
  std::printf("chosen alternative [%d] of %zu:\n  %s\n", result->best_index,
              result->alternatives.size(), best.datalog.ToString().c_str());
  std::fputs(run->profile.ToText().c_str(), stdout);
  sqo::analysis::AnalysisReport lint =
      sqo::analysis::AnalyzeProfile(pipeline.schema(), run->profile);
  if (!lint.diagnostics.empty()) std::fputs(lint.ToString().c_str(), stdout);
}

/// \journal [n]: one line per retained event, newest last.
void PrintJournal(SessionObs* session, size_t limit) {
  const std::vector<sqo::obs::QueryEvent> events = session->journal.Snapshot();
  const size_t start = events.size() > limit ? events.size() - limit : 0;
  for (size_t i = start; i < events.size(); ++i) {
    const sqo::obs::QueryEvent& e = events[i];
    std::string flags;
    if (e.slow) flags += " SLOW";
    if (e.degraded) flags += " degraded";
    if (e.cancelled) flags += " cancelled";
    if (e.contradiction) flags += " contradiction";
    std::printf("#%llu %.3fms %s%s alt %d/%llu fp=%.12s  %s\n",
                static_cast<unsigned long long>(e.sequence),
                static_cast<double>(e.duration_ns) / 1e6, e.status.c_str(),
                flags.c_str(), e.chosen_alternative,
                static_cast<unsigned long long>(e.n_alternatives),
                e.fingerprint.c_str(), e.query.c_str());
  }
  const sqo::obs::QueryJournal::Counters c = session->journal.counters();
  std::printf("[%llu recorded, %llu slow, %llu overwritten, %llu flushed, "
              "%llu flush failures]\n",
              static_cast<unsigned long long>(c.recorded),
              static_cast<unsigned long long>(c.slow),
              static_cast<unsigned long long>(c.overwritten),
              static_cast<unsigned long long>(c.flushed),
              static_cast<unsigned long long>(c.flush_failures));
}

/// \check: print the pipeline's stored IC/residue analysis report, or lint
/// a single query (translated but never optimized or evaluated).
void CheckCommand(const sqo::core::Pipeline& pipeline, const std::string& arg) {
  if (arg.empty()) {
    std::fputs(
        sqo::analysis::RenderReport(pipeline.ic_report(), /*json=*/false)
            .c_str(),
        stdout);
    return;
  }
  auto parsed = sqo::oql::ParseOql(arg);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    return;
  }
  auto translated = sqo::translate::TranslateQuery(pipeline.schema(), *parsed);
  if (!translated.ok()) {
    std::printf("translation error: %s\n",
                translated.status().ToString().c_str());
    return;
  }
  std::printf("datalog: %s\n", translated->query.ToString().c_str());
  sqo::analysis::AnalysisReport report = sqo::analysis::AnalyzeQuery(
      pipeline.schema(), translated->query, pipeline.options().analyzer);
  std::fputs(sqo::analysis::RenderReport(report, /*json=*/false).c_str(),
             stdout);
}

/// \verify [oql]: replay every alternative's derivation and prove each step
/// from "original ∧ IC catalog" (SQO-A015/A016/A017). With no argument,
/// certifies the five seed queries — the same corpus `sqo_verify` checks.
void VerifyCommand(const sqo::core::Pipeline& pipeline, const std::string& arg,
                   uint64_t deadline_ms) {
  std::vector<std::string> queries;
  if (arg.empty()) {
    queries = {sqo::workload::QueryExample2(),
               sqo::workload::QueryScopeReduction(),
               sqo::workload::QueryJoinElimination(),
               sqo::workload::QueryAsrDirect(),
               sqo::workload::QueryAsrIndirect()};
  } else {
    queries.push_back(arg);
  }
  sqo::analysis::AnalysisReport report;
  size_t alternatives = 0;
  bool all_sound = true;
  for (const std::string& oql : queries) {
    auto result = WithDeadline(deadline_ms,
                               [&] { return pipeline.OptimizeText(oql); });
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    auto verification = pipeline.Verify(*result);
    if (!verification.ok()) {
      std::printf("verification error: %s\n",
                  verification.status().ToString().c_str());
      return;
    }
    alternatives += verification->verdicts.size();
    all_sound = all_sound && verification->all_sound();
    report.Append(std::move(verification->report));
  }
  std::fputs(sqo::analysis::RenderReport(report, /*json=*/false).c_str(),
             stdout);
  std::printf("%zu alternatives over %zu queries: %s\n", alternatives,
              queries.size(),
              all_sound ? "all sound" : "UNSOUND REWRITES FOUND");
}

void PrintRecovery(const sqo::storage::RecoveryInfo& info) {
  if (info.created) {
    std::printf("initialized storage (baseline checkpoint written)\n");
  } else {
    std::printf("recovered %s: snapshot LSN %llu, %llu WAL records replayed",
                info.snapshot_path.c_str(),
                static_cast<unsigned long long>(info.snapshot_lsn),
                static_cast<unsigned long long>(info.replayed_records));
    if (info.truncated_bytes > 0) {
      std::printf(", %llu bytes truncated off the log tail",
                  static_cast<unsigned long long>(info.truncated_bytes));
    }
    std::printf("\n");
  }
  if (info.degraded) {
    std::printf("DEGRADED: %s\n", info.degradation_reason.c_str());
  }
  if (info.catalog_loaded) {
    std::printf("stored catalog: %llu ICs, %llu residues (schema %s)\n",
                static_cast<unsigned long long>(info.catalog.ic_count),
                static_cast<unsigned long long>(info.catalog.total_residues),
                info.catalog.schema_hash.ToString().c_str());
  }
  if (!info.lint.diagnostics.empty()) {
    std::fputs(info.lint.ToString().c_str(), stdout);
  }
}

void StatusCommand(const sqo::engine::Database& db) {
  const sqo::storage::StorageManager* storage = db.storage();
  if (storage == nullptr) {
    std::printf("storage: not attached (\\save <dir> or \\open <dir>)\n");
    return;
  }
  std::printf("storage: attached at %s — %s\n", storage->dir().c_str(),
              storage->healthy()
                  ? "healthy"
                  : "UNHEALTHY (appends refused; \\checkpoint to re-base)");
  std::printf("last recovery:\n  ");
  PrintRecovery(storage->recovery_info());
  const auto wal = storage->wal_stats();
  std::printf("wal: %llu segment(s), %llu bytes, appending to seq %llu, "
              "%llu rotation(s) this session, last LSN %llu\n",
              static_cast<unsigned long long>(wal.segments),
              static_cast<unsigned long long>(wal.bytes),
              static_cast<unsigned long long>(wal.current_seq),
              static_cast<unsigned long long>(wal.rotations),
              static_cast<unsigned long long>(storage->last_lsn()));
  const auto gc = storage->group_commit_stats();
  if (gc.batches == 0) {
    std::printf("group commit: no batches committed yet\n");
    return;
  }
  std::printf("group commit: %llu op(s) in %llu batch(es) (%.2f ops/fsync, "
              "max batch %llu, %llu failed batch(es))\n",
              static_cast<unsigned long long>(gc.ops),
              static_cast<unsigned long long>(gc.batches),
              static_cast<double>(gc.ops) / static_cast<double>(gc.batches),
              static_cast<unsigned long long>(gc.max_batch_ops),
              static_cast<unsigned long long>(gc.failed_batches));
}

/// \serve [clients]: in-process serving demo. Starts a Server over the
/// shell's database, runs `clients` concurrent sessions each issuing a
/// burst of snapshot reads while one writer session publishes mutations,
/// then prints what the serving layer saw: epochs, latency quantiles and
/// the admission-control counters. The writer's objects stay in the
/// database afterwards (they went through the primary like any mutation).
void ServeCommand(const sqo::core::Pipeline& pipeline,
                  sqo::engine::Database* db, const std::string& arg) {
  char* end = nullptr;
  const unsigned long long parsed =
      arg.empty() ? 4 : std::strtoull(arg.c_str(), &end, 10);
  if ((!arg.empty() && (end == nullptr || *end != '\0')) || parsed == 0 ||
      parsed > 64) {
    std::printf("usage: \\serve [clients]   (1-64, default 4)\n");
    return;
  }
  const size_t n_clients = static_cast<size_t>(parsed);
  constexpr size_t kReadsPerClient = 25;
  constexpr size_t kWrites = 10;

  sqo::server::ServerConfig config;
  config.workers = 4;
  config.replicas = 2;
  config.replica_setup = sqo::workload::SetupUniversityRuntime;
  sqo::server::Server server(&pipeline, db, std::move(config));
  if (auto s = server.Start(); !s.ok()) {
    std::printf("serve error: %s\n", s.ToString().c_str());
    return;
  }
  if (!server.lint().diagnostics.empty()) {
    std::fputs(server.lint().ToString().c_str(), stdout);
  }
  std::printf("server started: %zu client sessions x %zu reads + 1 writer "
              "session x %zu mutations\n",
              n_clients, kReadsPerClient, kWrites);

  const std::string read_query =
      "select x.name from x in Person where x.age < 30";
  std::atomic<size_t> read_failures{0};
  std::atomic<size_t> degraded_reads{0};
  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  for (size_t c = 0; c < n_clients; ++c) {
    auto session = server.OpenSession("shell-" + std::to_string(c));
    clients.emplace_back([session, &read_query, &read_failures,
                          &degraded_reads] {
      for (size_t i = 0; i < kReadsPerClient; ++i) {
        const sqo::server::QueryResponse response = session->Query(read_query);
        if (!response.status.ok()) {
          read_failures.fetch_add(1, std::memory_order_relaxed);
        } else if (response.degraded) {
          degraded_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  auto writer = server.OpenSession("shell-writer");
  size_t write_failures = 0;
  uint64_t last_epoch = 0;
  for (size_t i = 0; i < kWrites; ++i) {
    const sqo::server::QueryResponse response =
        writer->SubmitMutation([i](sqo::engine::Database* primary) {
          return primary->store()
              .CreateObject(
                  "Person",
                  {{"name", sqo::Value::String("served_" + std::to_string(i))},
                   {"age", sqo::Value::Int(21 + static_cast<int>(i))}})
              .status();
        })->Wait();
    if (!response.status.ok()) {
      ++write_failures;
    } else {
      last_epoch = response.epoch;
    }
  }
  for (std::thread& t : clients) t.join();

  const sqo::obs::QpsMeter::Snapshot seen = server.Latency();
  std::printf("served %llu queries: p50 %.3fms p99 %.3fms (%.1f qps)\n",
              static_cast<unsigned long long>(seen.count),
              static_cast<double>(seen.p50_ns) / 1e6,
              static_cast<double>(seen.p99_ns) / 1e6, seen.qps);
  std::printf("writes: %zu published (last epoch %llu), %zu failed; "
              "degraded reads: %zu; read failures: %zu\n",
              kWrites - write_failures,
              static_cast<unsigned long long>(last_epoch), write_failures,
              degraded_reads.load(), read_failures.load());
  const std::string counters = server.MetricsSnapshot().ToText();
  if (!counters.empty()) std::fputs(counters.c_str(), stdout);
  server.Stop();
  std::printf("server stopped (database now has %zu objects)\n",
              db->store().object_count());
}

}  // namespace

int main() {
  auto pipeline_or = sqo::workload::MakeUniversityPipeline();
  if (!pipeline_or.ok()) {
    std::fprintf(stderr, "%s\n", pipeline_or.status().ToString().c_str());
    return 1;
  }
  const sqo::core::Pipeline& pipeline = *pipeline_or;
  auto db = std::make_unique<sqo::engine::Database>(&pipeline.schema());
  sqo::workload::GeneratorConfig config;
  if (auto s = sqo::workload::PopulateUniversity(config, pipeline, db.get());
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto cost_model =
      std::make_unique<sqo::engine::EngineCostModel>(&db->store());

  std::printf(
      "sqo shell — university schema loaded (%zu objects, %zu residues)\n"
      "commands: \\ics  \\residues <relation>  \\plan <oql>  \\explain <oql>  "
      "\\profile [json] <oql>  \\check [oql]  \\verify [oql]  "
      "\\deadline <ms>  \\timing  "
      "\\slow <ms>  \\journal [n | flush <path>]  \\metrics [json|prom]  "
      "\\export [start|stop] <dir>  \\serve [clients]  \\save <dir>  "
      "\\open <dir>  \\checkpoint  \\status  \\quit\n",
      db->store().object_count(), pipeline.compiled().total_residues());

  SessionObs session;
  std::unique_ptr<sqo::obs::PeriodicExporter> exporter;
  bool timing = false;
  uint64_t deadline_ms = 0;
  std::string line;
  while (true) {
    std::printf("oql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "\\quit" || line == "\\q") break;
    if (line == "\\timing") {
      timing = !timing;
      std::printf("timing %s\n", timing ? "on" : "off");
      continue;
    }
    if (line == "\\ics") {
      for (const sqo::datalog::Clause& ic : pipeline.compiled().all_ics) {
        std::printf("[%s] %s\n", ic.label.c_str(), ic.ToString().c_str());
      }
      continue;
    }
    if (line.rfind("\\residues ", 0) == 0) {
      const std::string relation = line.substr(10);
      const auto* residues = pipeline.compiled().ResiduesFor(relation);
      if (residues == nullptr) {
        std::printf("no residues attached to '%s'\n", relation.c_str());
        continue;
      }
      for (const sqo::core::Residue& r : *residues) {
        std::printf("%s   [%s]\n", r.ToString().c_str(), r.source.c_str());
      }
      continue;
    }
    if (line.rfind("\\deadline", 0) == 0) {
      const std::string arg = line.size() > 9 ? line.substr(10) : "";
      char* end = nullptr;
      const unsigned long long ms =
          arg.empty() ? 0 : std::strtoull(arg.c_str(), &end, 10);
      if (!arg.empty() && (end == nullptr || *end != '\0')) {
        std::printf("usage: \\deadline <ms>   (0 clears the deadline)\n");
        continue;
      }
      deadline_ms = static_cast<uint64_t>(ms);
      if (deadline_ms == 0) {
        std::printf("deadline cleared\n");
      } else {
        std::printf("optimization deadline set to %llu ms per query\n", ms);
      }
      continue;
    }
    if (line == "\\check") {
      CheckCommand(pipeline, "");
      continue;
    }
    if (line.rfind("\\check ", 0) == 0) {
      CheckCommand(pipeline, line.substr(7));
      continue;
    }
    if (line == "\\verify") {
      VerifyCommand(pipeline, "", deadline_ms);
      continue;
    }
    if (line.rfind("\\verify ", 0) == 0) {
      VerifyCommand(pipeline, line.substr(8), deadline_ms);
      continue;
    }
    if (line.rfind("\\save ", 0) == 0) {
      const std::string dir = line.substr(6);
      if (db->storage_attached()) {
        std::printf("storage already attached; \\checkpoint to flush\n");
        continue;
      }
      sqo::storage::OpenOptions options;
      options.compiled = &pipeline.compiled();
      if (auto s = db->Open(dir, options); !s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      PrintRecovery(*db->recovery_info());
      std::printf("storage attached at %s\n", dir.c_str());
      continue;
    }
    if (line.rfind("\\open ", 0) == 0) {
      const std::string dir = line.substr(6);
      auto fresh = std::make_unique<sqo::engine::Database>(&pipeline.schema());
      // Methods and index definitions are code, not data: re-register them
      // before recovery so replayed objects index correctly.
      if (auto s = sqo::workload::SetupUniversityRuntime(fresh.get());
          !s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      sqo::storage::OpenOptions options;
      options.compiled = &pipeline.compiled();
      if (auto s = fresh->Open(dir, options); !s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      PrintRecovery(*fresh->recovery_info());
      if (db->storage_attached()) {
        if (auto s = db->CloseStorage(); !s.ok()) {
          std::printf("note: closing previous storage: %s\n",
                      s.ToString().c_str());
        }
      }
      db = std::move(fresh);
      cost_model =
          std::make_unique<sqo::engine::EngineCostModel>(&db->store());
      std::printf("database switched to %s (%zu objects)\n", dir.c_str(),
                  db->store().object_count());
      continue;
    }
    if (line == "\\status") {
      StatusCommand(*db);
      continue;
    }
    if (line == "\\serve" || line.rfind("\\serve ", 0) == 0) {
      ServeCommand(pipeline, db.get(), line.size() > 6 ? line.substr(7) : "");
      continue;
    }
    if (line == "\\checkpoint") {
      if (auto s = db->Checkpoint(); !s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
      } else {
        std::printf("checkpoint written\n");
      }
      continue;
    }
    if (line.rfind("\\plan ", 0) == 0) {
      RunQuery(pipeline, *db, *cost_model, line.substr(6), /*plan_only=*/true,
               deadline_ms, &session);
      continue;
    }
    if (line.rfind("\\explain ", 0) == 0) {
      ExplainQuery(pipeline, *db, *cost_model, line.substr(9), deadline_ms);
      continue;
    }
    if (line.rfind("\\profile ", 0) == 0) {
      ProfileCommand(pipeline, *db, *cost_model, line.substr(9), deadline_ms);
      continue;
    }
    if (line.rfind("\\slow", 0) == 0) {
      const std::string arg = line.size() > 5 ? line.substr(6) : "";
      char* end = nullptr;
      const unsigned long long ms =
          arg.empty() ? 0 : std::strtoull(arg.c_str(), &end, 10);
      if (!arg.empty() && (end == nullptr || *end != '\0')) {
        std::printf("usage: \\slow <ms>   (0 disables slow-query capture)\n");
        continue;
      }
      session.journal.set_slow_threshold_ns(static_cast<int64_t>(ms) *
                                            1000000);
      if (ms == 0) {
        std::printf("slow-query capture disabled\n");
      } else {
        std::printf("journaling queries >= %llu ms with full profiles\n", ms);
      }
      continue;
    }
    if (line.rfind("\\journal flush ", 0) == 0) {
      const std::string path = line.substr(15);
      if (auto s = session.journal.Flush(path); !s.ok()) {
        std::printf("flush error (events retained): %s\n",
                    s.ToString().c_str());
      } else {
        std::printf("flushed to %s (%llu events written so far)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(
                        session.journal.counters().flushed));
      }
      continue;
    }
    if (line.rfind("\\journal", 0) == 0) {
      const std::string arg = line.size() > 8 ? line.substr(9) : "";
      char* end = nullptr;
      const unsigned long long n =
          arg.empty() ? 10 : std::strtoull(arg.c_str(), &end, 10);
      if (!arg.empty() && (end == nullptr || *end != '\0')) {
        std::printf("usage: \\journal [n]  or  \\journal flush <path>\n");
        continue;
      }
      PrintJournal(&session, static_cast<size_t>(n));
      continue;
    }
    if (line.rfind("\\metrics", 0) == 0) {
      const std::string arg = line.size() > 8 ? line.substr(9) : "";
      const sqo::obs::MetricsRegistry snapshot = session.SnapshotMetrics();
      if (arg == "json") {
        std::printf("%s\n", snapshot.ToJson().c_str());
      } else if (arg == "prom") {
        std::fputs(sqo::obs::ToPrometheusText(snapshot).c_str(), stdout);
      } else {
        std::fputs(snapshot.ToText().c_str(), stdout);
        const sqo::obs::QpsMeter::Snapshot qps = session.qps.Summarize();
        std::printf("qps: %.1f over %llu queries (p50 %.3fms p90 %.3fms "
                    "p99 %.3fms max %.3fms)\n",
                    qps.qps, static_cast<unsigned long long>(qps.count),
                    static_cast<double>(qps.p50_ns) / 1e6,
                    static_cast<double>(qps.p90_ns) / 1e6,
                    static_cast<double>(qps.p99_ns) / 1e6,
                    static_cast<double>(qps.max_ns) / 1e6);
      }
      continue;
    }
    if (line == "\\export stop") {
      if (exporter == nullptr || !exporter->running()) {
        std::printf("no periodic exporter running\n");
      } else {
        exporter->Stop();
        std::printf("exporter stopped (%llu exports, %llu failures)\n",
                    static_cast<unsigned long long>(exporter->exports()),
                    static_cast<unsigned long long>(exporter->failures()));
      }
      continue;
    }
    if (line.rfind("\\export start ", 0) == 0) {
      std::string rest = line.substr(14);
      uint64_t period_ms = 1000;
      if (const size_t space = rest.find(' '); space != std::string::npos) {
        period_ms = std::strtoull(rest.substr(space + 1).c_str(), nullptr, 10);
        if (period_ms == 0) period_ms = 1000;
        rest = rest.substr(0, space);
      }
      if (auto s = sqo::fs::EnsureDir(rest); !s.ok()) {
        std::printf("export error: %s\n", s.ToString().c_str());
        continue;
      }
      sqo::obs::ExporterOptions options;
      options.json_path = rest + "/metrics.json";
      options.prometheus_path = rest + "/metrics.prom";
      options.period = std::chrono::milliseconds(period_ms);
      exporter = std::make_unique<sqo::obs::PeriodicExporter>(
          options, [&session] { return session.SnapshotMetrics(); });
      exporter->Start();
      std::printf("exporting to %s/metrics.{json,prom} every %llu ms\n",
                  rest.c_str(), static_cast<unsigned long long>(period_ms));
      continue;
    }
    if (line.rfind("\\export ", 0) == 0) {
      const std::string dir = line.substr(8);
      if (auto s = sqo::fs::EnsureDir(dir); !s.ok()) {
        std::printf("export error: %s\n", s.ToString().c_str());
        continue;
      }
      sqo::obs::ExporterOptions options;
      options.json_path = dir + "/metrics.json";
      options.prometheus_path = dir + "/metrics.prom";
      sqo::obs::PeriodicExporter once(
          options, [&session] { return session.SnapshotMetrics(); });
      if (auto s = once.ExportOnce(); !s.ok()) {
        std::printf("export error: %s\n", s.ToString().c_str());
      } else {
        std::printf("wrote %s/metrics.json and %s/metrics.prom\n",
                    dir.c_str(), dir.c_str());
      }
      continue;
    }
    if (timing) {
      sqo::obs::Tracer tracer;
      sqo::obs::MetricsRegistry metrics;
      sqo::obs::ScopedTracer install_tracer(&tracer);
      sqo::obs::ScopedMetrics install_metrics(&metrics);
      RunQuery(pipeline, *db, *cost_model, line, /*plan_only=*/false,
               deadline_ms, &session);
      PrintObservability(tracer, metrics);
    } else {
      RunQuery(pipeline, *db, *cost_model, line, /*plan_only=*/false,
               deadline_ms, &session);
    }
  }
  return 0;
}
