#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "src/common/cpu_features.hpp"
#include "src/runtime/task_pool.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

// ---- Tracer -----------------------------------------------------------------

int Tracer::open(const char* name, int parent) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, t, -1, parent, -1});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

int Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, std::int64_t req) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, req});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

// ---- Json -------------------------------------------------------------------

void Json::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.back()) out_ << ',';
  first_.back() = false;
}

Json& Json::begin_object() {
  comma();
  out_ << '{';
  first_.push_back(true);
  return *this;
}

Json& Json::end_object() {
  first_.pop_back();
  out_ << '}';
  return *this;
}

Json& Json::begin_array() {
  comma();
  out_ << '[';
  first_.push_back(true);
  return *this;
}

Json& Json::end_array() {
  first_.pop_back();
  out_ << ']';
  return *this;
}

Json& Json::key(std::string_view k) {
  comma();
  write_string(k);
  out_ << ':';
  after_key_ = true;
  return *this;
}

Json& Json::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ << "null";
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
  }
  return *this;
}

Json& Json::value(std::int64_t v) {
  comma();
  out_ << v;
  return *this;
}

Json& Json::value(bool v) {
  comma();
  out_ << (v ? "true" : "false");
  return *this;
}

Json& Json::value(std::string_view v) {
  comma();
  write_string(v);
  return *this;
}

void Json::write_string(std::string_view v) {
  out_ << '"';
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out_ << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ << buf;
    } else {
      out_ << c;
    }
  }
  out_ << '"';
}

Json& Json::raw(std::string_view json) {
  comma();
  out_ << json;
  return *this;
}

// ---- host probes ------------------------------------------------------------

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

void write_context(Json& j) {
  j.key("context").begin_object();
  j.field("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  j.field("pool_threads",
          static_cast<std::int64_t>(sptx::runtime::TaskPool::instance().threads()));
  j.field("cpu_model", cpu_model());
  j.field("simd", sptx::simd_enabled());
  j.field("avx2", sptx::cpu_features().avx2);
#ifdef NDEBUG
  j.field("build_type", "release");
#else
  j.field("build_type", "debug");
#endif
  j.end_object();
}

double stream_triad_gbps(int threads) {
  threads = std::max(threads, 1);
  double best = 0.0;
  // Per-array sizes up to 3 x 128 MB, past the 300 MB last-level cache of
  // the host the benchmark was written on; the result is the best rate at
  // the largest size.
  for (const std::size_t mb : {8u, 32u, 128u}) {
    best = 0.0;
    const std::size_t n = mb * (1u << 20) / sizeof(double);
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double s = 3.0;
    auto triad = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) a[i] = b[i] + s * c[i];
    };
    auto run = [&] {
      std::vector<std::thread> pool;
      const std::size_t chunk = (n + threads - 1) / threads;
      for (int t = 0; t < threads; ++t) {
        const std::size_t begin = std::min(n, chunk * t);
        const std::size_t end = std::min(n, begin + chunk);
        pool.emplace_back(triad, begin, end);
      }
      for (auto& th : pool) th.join();
    };
    run();  // first touch
    for (int rep = 0; rep < 5; ++rep) {
      const std::int64_t t0 = now_ns();
      run();
      const double sec = ns_to_s(now_ns() - t0);
      const double bytes = 3.0 * static_cast<double>(n * sizeof(double));
      best = std::max(best, bytes / sec * 1e-9);
    }
    if (a[n / 2] != 1.0 + s * 2.0) return 0.0;  // keeps the loop observable
  }
  return best;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

}  // namespace perfbench
