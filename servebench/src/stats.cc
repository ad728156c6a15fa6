#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench.h"

namespace servebench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

std::optional<double> TailQuantile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q·n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

namespace {
volatile uint64_t reference_sink = 0;  // keeps the reference walk live
}  // namespace

double ReferenceMs() {
  // Sattolo's algorithm: a random permutation that is one cycle, so the
  // walk visits all 512 KiB before it repeats.
  static const std::vector<uint32_t> next = [] {
    constexpr uint32_t kN = 1u << 17;
    std::vector<uint32_t> perm(kN);
    for (uint32_t i = 0; i < kN; ++i) perm[i] = i;
    std::mt19937 rng(1);
    for (uint32_t i = kN - 1; i > 0; --i) std::swap(perm[i], perm[rng() % i]);
    return perm;
  }();
  const Clock::time_point t0 = Clock::now();
  uint32_t at = 0;
  uint64_t h = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    at = next[at];
    h = (h ^ at) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  reference_sink = h;
  return MicrosBetween(t0, Clock::now()) / 1e3;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  entries_.push_back({name, value, unit, note});
}

void Report::Info(const std::string& name, double value, const std::string& unit,
                  const std::string& note) {
  entries_.push_back({name, value, unit, note, false});
}

void Report::Missing(const std::string& name, const std::string& unit,
                     const std::string& why) {
  entries_.push_back({name, std::nullopt, unit, why});
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const Entry& e : entries_) {
    std::cout << (e.json ? "metric " : "info   ") << e.name << " = "
              << (e.value ? Number(*e.value) : std::string("n/a")) << " "
              << e.unit;
    if (!e.note.empty()) std::cout << "  (" << e.note << ")";
    std::cout << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.value || !e.json) continue;
    json << (first ? "" : ", ") << "\"" << e.name << "\": {\"value\": "
         << Number(*e.value) << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace servebench
