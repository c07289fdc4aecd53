// Shared pieces of the benchmark driver: a monotonic clock, the in-memory
// span recorder, a small JSON writer for the raw result document, and the
// host probes (peak RSS, run context, STREAM-style triad).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// One recorded span. `parent` is the index of the enclosing span in the
/// recorder (-1 for a root); `req` groups the spans of one serving request
/// (-1 outside serving).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t req = -1;
};

/// Spans kept in memory for the whole run and written out at the end.
/// A disabled tracer records nothing; every call is then a branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Open a span now; returns its id (or -1 when disabled).
  int open(const char* name, int parent = -1);
  void close(int id);
  /// Record a span whose end points were measured elsewhere.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, std::int64_t req = -1);

  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent = -1)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Streaming JSON writer with automatic comma placement.
class Json {
 public:
  Json& begin_object();
  Json& end_object();
  Json& begin_array();
  Json& end_array();
  Json& key(std::string_view k);
  Json& value(double v);
  Json& value(std::int64_t v);
  Json& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Json& value(bool v);
  Json& value(std::string_view v);
  Json& value(const char* v) { return value(std::string_view(v)); }
  /// Insert an already-serialised JSON value verbatim.
  Json& raw(std::string_view json);

  template <class T>
  Json& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }
  template <class T>
  Json& array(std::string_view k, const std::vector<T>& values) {
    key(k);
    begin_array();
    for (const T& v : values) value(v);
    return end_array();
  }

  std::string str() const { return out_.str(); }

 private:
  void comma();
  void write_string(std::string_view v);
  std::ostringstream out_;
  std::vector<bool> first_{true};
  bool after_key_ = false;
};

/// Peak resident set of this process plus that of its largest reaped child
/// (multi-process DDP workers), in MB.
double peak_rss_mb();

/// Run context: nproc, CPU model, SIMD, build type.
void write_context(Json& j);

/// STREAM triad bandwidth (GB/s), best of 5 at the largest array size of
/// a sweep, with one thread per core. Counts three arrays of traffic per
/// element.
double stream_triad_gbps(int threads);

/// Deterministic 64-bit mixer for deriving sub-seeds from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Bitwise equality of two float sequences.
bool bit_equal(const std::vector<float>& a, const std::vector<float>& b);

}  // namespace perfbench
