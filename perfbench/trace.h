#ifndef S3VCD_PERFBENCH_TRACE_H_
#define S3VCD_PERFBENCH_TRACE_H_

// In-memory span recorder of the end-to-end benchmark. Spans are recorded
// from the benchmark's own code around calls into the program's public
// functions (the program itself is not instrumented by this file), kept in
// memory, and written out as a Chrome trace when the run ends.
//
// The recorder is single-threaded: every span of a run is opened on the
// benchmark's driving thread, so parents nest strictly and a span's self
// time is its duration minus the sum of its children's durations.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace s3vcd::perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< string literal, "<layer>.<operation>"
    int64_t start_ns = 0;   ///< since the tracer was created
    int64_t end_ns = 0;
    int parent = -1;        ///< index into spans(), -1 for a root
    uint64_t request = 0;   ///< key-frame / batch / clip ordinal
  };

  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and makes it the parent of spans opened before End.
  /// Returns -1 (and records nothing) when tracing is off.
  int Begin(const char* name, uint64_t request) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, NowNs(), 0, stack_.empty() ? -1 : stack_.back(),
                      request});
    stack_.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    spans_[id].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds summed per span name: duration minus the part of the
  /// interval its child spans cover.
  std::map<std::string, double> SelfSecondsByName() const;

  /// Writes every span as a Chrome trace ("X" events, one pid, tid 1).
  bool WriteChromeTrace(const std::string& path) const;

  /// Measured cost of one Begin/End pair on this host, in seconds.
  static double CalibrateSpanCostSeconds();

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace s3vcd::perfbench

#endif  // S3VCD_PERFBENCH_TRACE_H_
