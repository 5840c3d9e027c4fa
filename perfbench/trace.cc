#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace s3vcd::perfbench {

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t ns = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    self[spans_[i].name] +=
        static_cast<double>(std::max<int64_t>(ns, 0)) * 1e-9;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.start_ns * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double Tracer::CalibrateSpanCostSeconds() {
  constexpr int kPairs = 200000;
  Tracer probe(true);
  probe.spans_.reserve(kPairs + 1);
  const auto start = std::chrono::steady_clock::now();
  const int root = probe.Begin("calibrate.root", 0);
  for (int i = 0; i < kPairs; ++i) {
    probe.End(probe.Begin("calibrate.child", static_cast<uint64_t>(i)));
  }
  probe.End(root);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return seconds / kPairs;
}

}  // namespace s3vcd::perfbench
