// End-to-end benchmark driver of the s3vcd copy detector.
//
// Three workloads, each built from --seed and driven only through the
// program's public functions:
//   monitor  one long synthetic TV stream pushed key-frame by key-frame
//            through a StreamMonitor over a 400k-record s3 index;
//   serve    an open-loop Poisson generator sending key-frame batches of
//            statistical queries to a QueryService over 4 dynamic shards;
//   ingest   archive growth: extract reference clips and insert them plus
//            resampled distractors into a segment store, with statistical
//            queries interleaved at a fixed ratio.
// Each workload is a phase made of steps (a stream unit, a slice of the
// reference rate or one ladder rung, an ingest episode). A run measures its
// own workload at full size and the other two at a smaller fixed size, so
// that every run reports every metric; the steps of the three phases are
// interleaved so that each metric samples the whole run. A traced run
// records spans and reports the per-layer metrics instead of the
// end-to-end ones. End-to-end timings are reported at the speed of a
// reference host, by a calibration kernel timed between steps (HostSpeed).
// perfbench/README.md defines every metric.
//
// The last stdout line is "RESULT {json}"; perfbench/run.py turns it into
// the benchmark's result line.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cbcd/detector.h"
#include "core/database.h"
#include "core/distortion_model.h"
#include "core/index.h"
#include "core/searcher.h"
#include "core/synthetic_db.h"
#include "fingerprint/extractor.h"
#include "media/synthetic.h"
#include "media/transforms.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "service/sharded_searcher.h"
#include "store/segment_searcher.h"
#include "trace.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/rng.h"

namespace s3vcd::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Arguments and sizes.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  // serve: absolute rates and limits, set only by the BENCHMARK.json
  // command; every one is required.
  double slo_ms = 0;
  double deadline_ms = 0;
  double ref_qps = 0;
  double ladder_base = 0;
  double ladder_step = 0;
  int ladder_rungs = 0;
  std::string work_dir = ".";
  std::string commit = "unknown";
};

struct Config {
  int ref_videos = 10;
  int clip_frames = 250;
  uint64_t db_records = 400000;
  int setup_reps = 3;
  int monitor_units = 4;       // fig10-style stream units
  int serve_ref_slices = 4;    // 0.5 s slices of the reference rate
  double serve_rung_s = 1.0;   // per probed ladder rung
  int ingest_episodes = 4;     // identical ingest episodes
  int ingest_clips = 12;
  int ingest_distractors_per_clip = 3000;
  size_t ingest_spill_threshold = 4096;
  int ingest_compact_every = 4;
  int ingest_query_every = 32;
  int ingest_depth = 13;
};

// The run's own workload gets the full size (scaled by --seconds), the
// others a fixed smaller size. The constants put one run near --seconds
// of measurement per full-size workload on a 4-CPU x86 host.
Config MakeConfig(const Args& args) {
  Config c;
  const double s = args.seconds;
  if (args.workload == "monitor") {
    c.monitor_units = std::max(1, static_cast<int>(std::lround(s * 0.5)));
  }
  if (args.workload == "serve") {
    c.serve_ref_slices = std::max(1, static_cast<int>(std::lround(s * 0.8)));
    c.serve_rung_s = 0.12 * s;
  }
  if (args.workload == "ingest") {
    c.ingest_episodes = std::max(1, static_cast<int>(std::lround(s)));
  }
  if (args.trace) c.setup_reps = 1;  // traced runs do not report setup_s
  if (args.smoke) {
    c.ref_videos = 5;
    c.db_records = 40000;
    c.setup_reps = 1;
    c.monitor_units = 1;
    c.serve_ref_slices = 2;
    c.serve_rung_s = 0.15;
    c.ingest_episodes = 1;
    c.ingest_clips = 4;
    c.ingest_distractors_per_clip = 1500;
    c.ingest_spill_threshold = 1024;
    c.ingest_compact_every = 2;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

struct Metric {
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // output-check mismatches

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }

  // A layer metric keeps the first value reported: phases finish with the
  // run's own workload first, so a layer the workload exercises is
  // measured on it, and the others on the phase that exercises them.
  void Layer(const std::string& name, double value, const char* unit) {
    layer.emplace(name, Metric{value, unit});
  }
};

double CounterDelta(const obs::MetricsSnapshot& before,
                    const obs::MetricsSnapshot& after, const char* name) {
  return static_cast<double>(after.CounterOr0(name) - before.CounterOr0(name));
}

// A match as compared by the output checks: every field, in a canonical
// order (backends may return matches in any order).
using MatchKey = std::tuple<uint32_t, uint32_t, float, float, float>;

std::vector<MatchKey> Canonical(const std::vector<core::Match>& matches) {
  std::vector<MatchKey> keys;
  keys.reserve(matches.size());
  for (const core::Match& m : matches) {
    keys.emplace_back(m.id, m.time_code, m.x, m.y, m.distance);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ---------------------------------------------------------------------------
// Host speed. On a shared virtual machine other tenants slow the CPU by up
// to a third for minutes at a time, in bursts of milliseconds; every timing
// of one run moves with it. A fixed calibration kernel, independent of the
// program, is timed between the steps of a run. Its mean time over the
// reference time is the run's slowdown, and the end-to-end timings are
// reported divided by it (rates multiplied): the program's speed on the
// reference host. The raw values are printed beside them.

class HostSpeed {
 public:
  // The kernel's time on the reference host (see perfbench/README.md).
  static constexpr double kReferenceSeconds = 0.005;

  HostSpeed() : rows_(kRows * kDims), next_(kTable) {
    Rng rng(0x5bee);
    for (float& v : rows_) v = static_cast<float>(rng.Uniform(0, 255));
    // One cycle through the whole table, so the walk never settles in a
    // short loop that fits in the L1 cache.
    std::vector<uint32_t> order(kTable);
    std::iota(order.begin(), order.end(), 0u);
    for (size_t i = kTable - 1; i > 0; --i) {
      std::swap(order[i], order[rng.UniformInt(0, static_cast<int64_t>(i))]);
    }
    for (size_t i = 0; i < kTable; ++i) {
      next_[order[i]] = order[(i + 1) % kTable];
    }
  }

  // Times the kernel `n` times.
  void Sample(int n = 2) {
    for (int i = 0; i < n; ++i) {
      const auto start = Clock::now();
      sink_ += Kernel();
      seconds_.push_back(SecondsSince(start));
    }
  }

  double mean_seconds() const {
    return std::accumulate(seconds_.begin(), seconds_.end(), 0.0) /
           static_cast<double>(seconds_.size());
  }
  double slowdown() const { return mean_seconds() / kReferenceSeconds; }
  size_t samples() const { return seconds_.size(); }

 private:
  static constexpr size_t kDims = 20;
  static constexpr size_t kRows = 1 << 17;   // 10 MB streamed, like a scan
  static constexpr size_t kTable = 1 << 16;  // 256 KB walked, like a vote
  static constexpr int kSteps = 1 << 19;

  // A scan-like pass (squared distances of every row to a fixed point)
  // and a vote-like chain of dependent loads.
  double Kernel() const {
    double best = 1e30;
    for (size_t r = 0; r < kRows; ++r) {
      const float* row = &rows_[r * kDims];
      float d = 0;
      for (size_t k = 0; k < kDims; ++k) {
        const float t = row[k] - 128.0f;
        d += t * t;
      }
      best = std::min(best, static_cast<double>(d));
    }
    uint32_t at = 0;
    for (int i = 0; i < kSteps; ++i) at = next_[at];
    return best + at;
  }

  std::vector<float> rows_;
  std::vector<uint32_t> next_;
  std::vector<double> seconds_;
  volatile double sink_ = 0;  // keeps the kernel's result live
};

// ---------------------------------------------------------------------------
// core layer: a forwarding Searcher decorator that times every statistical
// query from outside and tallies its QueryStats.

struct CoreTally {
  uint64_t queries = 0;
  uint64_t selection_ns = 0;
  uint64_t refine_ns = 0;
  uint64_t nodes_visited = 0;
  uint64_t records_scanned = 0;
  uint64_t matches = 0;
  std::vector<double> query_us;

  void Add(const core::QueryResult& r, double us) {
    ++queries;
    selection_ns += r.stats.selection_ns;
    refine_ns += r.stats.refine_ns;
    nodes_visited += r.stats.nodes_visited;
    records_scanned += r.stats.records_scanned;
    matches += r.matches.size();
    query_us.push_back(us);
  }

  void Report(Outcome* out) const {
    out->Layer("core.query_us_p50", Percentile(query_us, 0.5), "us");
    out->Layer("core.query_us_p99", Percentile(query_us, 0.99), "us");
    out->Layer("core.selection_s", selection_ns * 1e-9, "s");
    out->Layer("core.refine_s", refine_ns * 1e-9, "s");
    out->Layer("core.nodes_visited",
               static_cast<double>(nodes_visited), "count");
    out->Layer("core.records_scanned",
               static_cast<double>(records_scanned), "count");
    out->Layer("core.matches", static_cast<double>(matches), "count");
    out->Layer("core.match_per_scanned",
               records_scanned == 0
                   ? 0.0
                   : static_cast<double>(matches) / records_scanned,
               "ratio");
  }
};

class TracedSearcher final : public core::Searcher {
 public:
  TracedSearcher(const core::Searcher* inner, Tracer* tracer, CoreTally* tally)
      : inner_(inner), tracer_(tracer), tally_(tally) {}

  const char* backend_name() const override { return inner_->backend_name(); }
  core::QueryResult StatQuery(
      const fp::Fingerprint& query, const core::DistortionModel& model,
      const core::QueryOptions& options) const override {
    ScopedSpan span(tracer_, "core.stat_query", tally_->queries);
    const auto start = Clock::now();
    core::QueryResult result = inner_->StatQuery(query, model, options);
    tally_->Add(result, SecondsSince(start) * 1e6);
    return result;
  }
  core::QueryResult RangeQuery(const fp::Fingerprint& query, double epsilon,
                               int depth) const override {
    return inner_->RangeQuery(query, epsilon, depth);
  }
  core::SearcherStats Stats() const override { return inner_->Stats(); }
  uint64_t ApproxBytes() const override { return inner_->ApproxBytes(); }

 private:
  const core::Searcher* inner_;
  Tracer* tracer_;
  CoreTally* tally_;
};

// ---------------------------------------------------------------------------
// Set-up, from the seed: the inputs (media generation and reference-side
// extraction), then the program's structures over them.

media::SyntheticVideoConfig ClipConfig(uint64_t seed, int frames) {
  media::SyntheticVideoConfig config;
  config.width = 96;
  config.height = 80;
  config.num_frames = frames;
  config.seed = seed;
  return config;
}

struct EmbeddedCopy {
  uint32_t id = 0;
  int start = 0;  // first frame within its unit
};

struct StreamUnit {
  media::VideoSequence video;
  std::vector<EmbeddedCopy> copies;
};

// One fig10-style pattern: filler and five copies of reference clips, under
// exact, contrast, gamma+noise, shift and resize transformations.
StreamUnit MakeStreamUnit(const std::vector<media::VideoSequence>& refs,
                          int unit, uint64_t seed) {
  StreamUnit out;
  out.video.fps = 25.0;
  Rng rng(seed * 7919 + static_cast<uint64_t>(unit));
  auto append = [&](const media::VideoSequence& clip) {
    out.video.frames.insert(out.video.frames.end(), clip.frames.begin(),
                            clip.frames.end());
  };
  const int filler_frames[6] = {150, 120, 130, 120, 120, 150};
  auto filler = [&](int k) {
    append(media::GenerateSyntheticVideo(ClipConfig(
        seed * 1000003 + 500000 + unit * 16 + k, filler_frames[k])));
  };
  std::vector<media::TransformChain> chains;
  chains.push_back(media::TransformChain::Identity());
  chains.push_back(media::TransformChain::Contrast(1.5));
  chains.push_back(media::TransformChain::Gamma(1.3));
  chains.back().Then(media::TransformType::kNoise, 8.0);
  chains.push_back(media::TransformChain::VerticalShift(10));
  // A resize inside a fixed-size broadcast frame: shrunk content centered
  // over a dark background (a stream cannot change its frame size).
  chains.push_back(media::TransformChain::PictureInPicture(0.9));
  for (int j = 0; j < 5; ++j) {
    filler(j);
    const uint32_t id = static_cast<uint32_t>((unit * 5 + j) % refs.size());
    out.copies.push_back({id, out.video.num_frames()});
    append(chains[j].Apply(refs[id], &rng));
  }
  filler(5);
  return out;
}

// Groups extracted fingerprints into key-frames (consecutive equal time
// codes), shifting time codes by `offset`.
std::vector<std::vector<fp::LocalFingerprint>> KeyFrames(
    std::vector<fp::LocalFingerprint> fps, uint32_t offset) {
  std::vector<std::vector<fp::LocalFingerprint>> keyframes;
  for (fp::LocalFingerprint& lf : fps) {
    lf.time_code += offset;
    if (keyframes.empty() ||
        keyframes.back().front().time_code != lf.time_code) {
      keyframes.emplace_back();
    }
    keyframes.back().push_back(lf);
  }
  return keyframes;
}

struct Inputs {
  fp::FingerprintExtractor extractor;
  core::GaussianDistortionModel model{15.0};
  std::vector<media::VideoSequence> refs;
  std::vector<std::vector<fp::LocalFingerprint>> ref_fps;
  std::vector<fp::Fingerprint> pool;  // real reference descriptors
  std::vector<StreamUnit> units;
  std::vector<std::vector<fp::Fingerprint>> serve_batches;
  std::vector<media::VideoSequence> ingest_clips;
  // Pre-drawn distractor records of one ingest episode, per clip.
  std::vector<std::vector<core::FingerprintRecord>> ingest_distractors;
};

constexpr int kServeUnits = 2;  // stream units whose key-frames serve sends

std::unique_ptr<Inputs> MakeInputs(const Config& cfg, uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  const uint64_t base = seed * 1000003;
  for (int v = 0; v < cfg.ref_videos; ++v) {
    in->refs.push_back(media::GenerateSyntheticVideo(
        ClipConfig(base + 1 + v, cfg.clip_frames)));
    in->ref_fps.push_back(in->extractor.Extract(in->refs.back()));
    for (const auto& lf : in->ref_fps.back()) in->pool.push_back(lf.descriptor);
  }
  for (int u = 0; u < std::max(cfg.monitor_units, kServeUnits); ++u) {
    in->units.push_back(MakeStreamUnit(in->refs, u, seed));
  }
  for (int u = 0; u < kServeUnits; ++u) {
    for (auto& kf : KeyFrames(in->extractor.Extract(in->units[u].video), 0)) {
      std::vector<fp::Fingerprint> batch;
      for (const auto& lf : kf) batch.push_back(lf.descriptor);
      in->serve_batches.push_back(std::move(batch));
    }
  }
  Rng rng(base ^ 0x16e57ULL);
  for (int c = 0; c < cfg.ingest_clips; ++c) {
    in->ingest_clips.push_back(media::GenerateSyntheticVideo(
        ClipConfig(base + 900000 + c, cfg.clip_frames)));
    std::vector<core::FingerprintRecord> distractors;
    for (int k = 0; k < cfg.ingest_distractors_per_clip; ++k) {
      core::FingerprintRecord r;
      r.descriptor = core::DistortFingerprint(
          in->pool[rng.UniformInt(
              0, static_cast<int64_t>(in->pool.size()) - 1)],
          6.0, &rng);
      r.id = (1u << 20) + static_cast<uint32_t>(c * 8 + k / 500);
      r.time_code = static_cast<uint32_t>(rng.UniformInt(0, 99999));
      r.x = static_cast<float>(rng.Uniform(0, 96));
      r.y = static_cast<float>(rng.Uniform(0, 80));
      distractors.push_back(r);
    }
    in->ingest_distractors.push_back(std::move(distractors));
  }
  return in;
}

struct Structures {
  std::unique_ptr<core::S3Index> index;  // monitor; serve's parity reference
  core::QueryOptions query;              // alpha 0.8 at the index's depth
  std::unique_ptr<service::ShardedSearcher> sharded;
};

std::unique_ptr<Structures> BuildStructures(const Inputs& in,
                                            const Config& cfg, uint64_t seed) {
  auto st = std::make_unique<Structures>();
  core::DatabaseBuilder builder;
  for (size_t v = 0; v < in.ref_fps.size(); ++v) {
    builder.AddVideo(static_cast<uint32_t>(v), in.ref_fps[v]);
  }
  Rng rng(seed * 1000003 ^ 0x5eedULL);
  core::AppendDistractors(&builder, in.pool, cfg.db_records - builder.size(),
                          core::DistractorOptions{}, &rng);
  st->index = std::make_unique<core::S3Index>(builder.Build());
  const core::FingerprintDatabase& db = st->index->database();
  st->query.filter.alpha = 0.80;
  st->query.filter.depth =
      std::max(12, Log2Exact(NextPowerOfTwo(db.size())) - 3);
  core::DatabaseBuilder copy(db.order());
  for (size_t i = 0; i < db.size(); ++i) {
    const core::FingerprintRecord r = db.record(i);
    copy.Add(r.descriptor, r.id, r.time_code, r.x, r.y);
  }
  // Default options: 4 shards of the default backend.
  auto sharded = service::ShardedSearcher::Build(
      copy.Build(), service::ShardedSearcherOptions{});
  S3VCD_CHECK(sharded.ok());
  st->sharded =
      std::make_unique<service::ShardedSearcher>(std::move(sharded.value()));
  return st;
}

// ---------------------------------------------------------------------------
// A workload is a phase of `steps()` steps; Finish() scores and reports it.

class Phase {
 public:
  virtual ~Phase() = default;
  virtual int steps() const = 0;
  virtual void Step(int i) = 0;
  virtual void Finish(Outcome* out) = 0;
};

// ---------------------------------------------------------------------------
// monitor: one StreamMonitor fed the stream units in order.

class MonitorPhase final : public Phase {
 public:
  MonitorPhase(const Inputs& in, const Structures& st, const Config& cfg,
               Tracer* tracer)
      : in_(in),
        units_(cfg.monitor_units),
        tracer_(tracer),
        before_(obs::MetricsRegistry::Global().Snapshot()),
        traced_(st.index.get(), tracer, &core_),
        detector_(tracer->enabled()
                      ? static_cast<const core::Searcher*>(&traced_)
                      : st.index.get(),
                  &in.model, DetectorOptionsFor(st)),
        monitor_(&detector_, {/*window_keyframes=*/16, /*window_overlap=*/6}) {}

  int steps() const override { return units_; }

  void Step(int u) override {
    const StreamUnit& unit = in_.units[u];
    for (const EmbeddedCopy& c : unit.copies) {
      copies_.push_back({c.id, c.start + static_cast<int>(offset_)});
    }
    const auto unit_start = Clock::now();
    {
      ScopedSpan unit_span(tracer_, "monitor.unit", u);
      std::vector<fp::LocalFingerprint> fps;
      {
        ScopedSpan span(tracer_, "fingerprint.extract", u);
        const auto start = Clock::now();
        fps = in_.extractor.Extract(unit.video);
        extract_s_ += SecondsSince(start);
      }
      frames_ += unit.video.num_frames();
      points_ += fps.size();
      for (const auto& kf : KeyFrames(std::move(fps), offset_)) {
        Push(kf);
      }
      if (u + 1 == units_) {
        ScopedSpan span(tracer_, "cbcd.push", offset_);
        for (const auto& d : monitor_.Flush()) reports_.push_back(d);
      }
    }
    offset_ += static_cast<uint32_t>(unit.video.num_frames());
    const double unit_s = SecondsSince(unit_start);
    wall_s_ += unit_s;
    video_s_ += unit.video.duration_seconds();
  }

  void Finish(Outcome* out) override {
    // Score every report against the embedded copies: a report matches a
    // copy when it names the copy's reference and places it within half a
    // second, under one key-frame interval (the offset is estimated from
    // key-frame time codes, so localization errors of a few frames occur).
    constexpr double kOffsetToleranceFrames = 12;
    std::vector<bool> found(copies_.size(), false);
    int false_reports = 0;
    std::string unmatched;
    for (const cbcd::Detection& r : reports_) {
      bool matched = false;
      for (size_t c = 0; c < copies_.size(); ++c) {
        if (copies_[c].id == r.id &&
            std::abs(r.offset - copies_[c].start) <= kOffsetToleranceFrames) {
          found[c] = true;
          matched = true;
        }
      }
      if (!matched) {
        ++false_reports;
        unmatched += " id " + std::to_string(r.id) + " offset " +
                     std::to_string(std::lround(r.offset)) + " nsim " +
                     std::to_string(r.nsim) + ";";
      }
    }
    const double recall =
        static_cast<double>(std::count(found.begin(), found.end(), true)) /
        static_cast<double>(copies_.size());
    out->attempted += keyframes_;
    std::printf("monitor: %d unit(s), %llu key-frames, %zu windows, "
                "%zu reports, copy_recall %.3f of %zu copies, "
                "false_reports %d%s\n",
                units_, static_cast<unsigned long long>(keyframes_),
                window_ms_.size(), reports_.size(), recall, copies_.size(),
                false_reports, unmatched.c_str());
    // The paper's operating point: below one false alarm per hour of
    // monitored video, i.e. none on streams shorter than an hour.
    const double hours = offset_ / 25.0 / 3600.0;
    out->Check(false_reports < std::max(1.0, hours),
               "monitor: " + std::to_string(false_reports) +
                   " report(s) match no embedded copy");
    out->Check(recall >= 0.8, "monitor: copy_recall below 0.8");
    out->e2e["stream_xrt"] = {video_s_ / wall_s_, "x"};
    out->e2e["window_ms_p50"] = {Percentile(window_ms_, 0.5), "ms"};
    out->e2e["window_ms_p90"] = {Percentile(window_ms_, 0.9), "ms"};
    out->e2e["copy_recall"] = {recall, "ratio"};
    if (!tracer_->enabled()) return;

    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::Global().Snapshot();
    const auto self = tracer_->SelfSecondsByName();
    auto self_of = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    out->Layer("cbcd.vote_s", self_of("cbcd.push"), "s");
    out->Layer("cbcd.windows",
               CounterDelta(before_, after, "cbcd.windows_evaluated"), "count");
    out->Layer("cbcd.entries_per_window",
               window_ms_.empty() ? 0.0
                                  : entries_in_windows_ / window_ms_.size(),
               "count");
    out->Layer("cbcd.tukey_cost_evals",
               CounterDelta(before_, after, "cbcd.tukey_cost_evals"), "count");
    out->Layer("cbcd.hough_passes",
               CounterDelta(before_, after, "cbcd.hough_passes"), "count");
    out->Layer("fingerprint.extract_s", extract_s_, "s");
    out->Layer("fingerprint.frames", static_cast<double>(frames_), "count");
    out->Layer("fingerprint.keyframes",
               static_cast<double>(keyframes_), "count");
    out->Layer("fingerprint.points", static_cast<double>(points_), "count");
    core_.Report(out);
    out->Layer("monitor.residual_frac",
               self_of("monitor.unit") / wall_s_, "ratio");
    // The span names are shared with the ingest phase; extraction and
    // query time come from this phase's own tallies.
    std::printf("monitor stages: extract %.3fs query %.3fs vote %.3fs "
                "residual %.4fs of %.3fs wall\n",
                extract_s_,
                std::accumulate(core_.query_us.begin(), core_.query_us.end(),
                                0.0) * 1e-6,
                self_of("cbcd.push"), self_of("monitor.unit"), wall_s_);
  }

 private:
  static cbcd::DetectorOptions DetectorOptionsFor(const Structures& st) {
    cbcd::DetectorOptions options;
    options.query = st.query;
    options.vote.use_spatial_coherence = true;  // short references
    options.nsim_threshold = 8;
    return options;
  }

  // Pushes one key-frame. Per StreamMonitor's documented windowing, every
  // 16th key-frame (then every 10th: 6 overlap) closes a window, and the
  // push that closes it returns that window's detections: its duration is
  // the window's report latency.
  void Push(const std::vector<fp::LocalFingerprint>& kf) {
    ++keyframes_;
    window_entries_.push_back(kf.size());
    const bool closes = ++keyframes_in_window_ == 16;
    const auto start = Clock::now();
    std::vector<cbcd::Detection> detections;
    {
      ScopedSpan span(tracer_, "cbcd.push", kf.front().time_code);
      detections = monitor_.PushKeyFrame(kf);
    }
    if (closes) {
      window_ms_.push_back(SecondsSince(start) * 1e3);
      entries_in_windows_ += std::accumulate(window_entries_.begin(),
                                             window_entries_.end(), 0.0);
      window_entries_.erase(window_entries_.begin(),
                            window_entries_.begin() + 10);
      keyframes_in_window_ = 6;
    }
    reports_.insert(reports_.end(), detections.begin(), detections.end());
  }

  const Inputs& in_;
  const int units_;
  Tracer* tracer_;
  const obs::MetricsSnapshot before_;
  CoreTally core_;
  TracedSearcher traced_;
  const cbcd::CopyDetector detector_;
  cbcd::StreamMonitor monitor_;

  std::vector<cbcd::Detection> reports_;
  std::vector<EmbeddedCopy> copies_;  // absolute start frames
  std::vector<double> window_ms_;
  std::deque<size_t> window_entries_;  // fingerprints per buffered key-frame
  double entries_in_windows_ = 0;
  int keyframes_in_window_ = 0;
  uint64_t frames_ = 0, keyframes_ = 0, points_ = 0;
  double extract_s_ = 0, wall_s_ = 0, video_s_ = 0;
  uint32_t offset_ = 0;
};

// ---------------------------------------------------------------------------
// serve: an open-loop generator in front of one QueryService.

// Picks the key-frame of each batch: half the batches repeat one of the 64
// most recently sent key-frames (the same content airing on two channels),
// the rest walk through the stream's key-frames in order.
class BatchPicker {
 public:
  BatchPicker(size_t num_batches, uint64_t seed)
      : num_batches_(num_batches), rng_(seed), next_(seed % num_batches) {}

  size_t Next() {
    if (!recent_.empty() && rng_.Bernoulli(0.5)) {
      return recent_[rng_.UniformInt(
          0, static_cast<int64_t>(recent_.size()) - 1)];
    }
    const size_t pick = next_;
    next_ = (next_ + 1) % num_batches_;
    recent_.push_back(pick);
    if (recent_.size() > 64) recent_.pop_front();
    return pick;
  }

  private:
  size_t num_batches_;
  Rng rng_;
  size_t next_;
  std::deque<size_t> recent_;
};

struct RateResult {
  size_t due = 0;
  uint64_t rejected = 0;
  uint64_t expired = 0;
  uint64_t other_failed = 0;
  size_t backlog_end = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::vector<double> e2e_ms;  // failed batches count as the deadline
  std::vector<double> late_ms;
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> execute_ms;
  CoreTally core;

  uint64_t failed() const { return rejected + expired + other_failed; }
};

struct ParitySample {
  size_t batch = 0;
  std::vector<core::QueryResult> results;
};

class ServePhase final : public Phase {
 public:
  // The reference rate runs in slices of this length spread over the run.
  // Every slice, like every ladder rung, replays one fixed schedule on a
  // fresh service (cold selection cache), so repetitions differ only in
  // when they ran; the batch latencies pool the slices' batches.
  static constexpr double kRefSliceSeconds = 0.5;

  ServePhase(const Inputs& in, const Structures& st, const Config& cfg,
             const Args& args, Tracer* tracer)
      : in_(in),
        st_(st),
        cfg_(cfg),
        args_(args),
        tracer_(tracer),
        hi_(args.ladder_rungs) {
    for (int span = args.ladder_rungs + 1; span > 1; span = (span + 1) / 2) {
      ++max_probes_;
    }
  }

  // A probe that fails is run once more: at most two runs per probe.
  int steps() const override {
    return cfg_.serve_ref_slices + 2 * max_probes_;
  }

  // Reference slices and ladder probes alternate.
  void Step(int i) override {
    const bool ref_turn = i % 2 == 0 ? ref_slices_ < cfg_.serve_ref_slices
                                     : hi_ - lo_ <= 1;
    if (ref_turn && ref_slices_ < cfg_.serve_ref_slices) {
      ++ref_slices_;
      Drive(args_.ref_qps, kRefSliceSeconds, args_.seed * 31 + 7, &ref_,
            ref_slices_ == 1 ? &parity_ : nullptr);
      return;
    }
    if (hi_ - lo_ <= 1) return;  // the ladder search has converged
    // Highest rung of the fixed ladder meeting the limit: binary search.
    // Every probed rung replays the same batch sequence on the same
    // unit-rate Poisson pattern scaled to its rate, for the same time, so
    // rungs differ only in rate. A rung that fails narrowly (at most 10% of
    // its batches failed) is run once more, later, and passes if that run
    // passes: one stall of a shared host does not decide the rung, while an
    // overloaded rung fails both runs.
    const int mid = (lo_ + hi_) / 2;
    const double rate = RungRate(mid);
    RateResult rung;
    Drive(rate, cfg_.serve_rung_s, args_.seed * 31 + 1000, &rung, nullptr);
    ladder_batches_ += rung.due;
    ladder_rejected_ += rung.rejected;
    ladder_expired_ += rung.expired;
    const double p99 = Percentile(rung.e2e_ms, 0.99);
    const bool pass =
        rung.failed() * 100 <= rung.due && p99 <= args_.slo_ms &&
        static_cast<double>(rung.backlog_end) <=
            std::max(4.0, rate * args_.slo_ms * 1e-3);
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %.0f:%s(p99 %.1f, %llu failed)", rate,
                  pass ? "ok" : "no", p99,
                  static_cast<unsigned long long>(rung.failed()));
    walk_ += buf;
    if (!pass && rung.failed() * 10 <= rung.due && retry_ != mid) {
      retry_ = mid;  // run this rung once more before deciding
      return;
    }
    (pass ? lo_ : hi_) = mid;
  }

  void Finish(Outcome* out) override {
    const double qps_at_slo = lo_ < 0 ? 0.0 : RungRate(lo_);

    // Output check: exact parity of sampled batches with a direct
    // unsharded statistical query on the same records.
    size_t compared = 0;
    for (const ParitySample& s : parity_) {
      const auto& queries = in_.serve_batches[s.batch];
      for (size_t q = 0; q < queries.size(); ++q) {
        const core::QueryResult direct =
            st_.index->StatQuery(queries[q], in_.model, st_.query);
        ++compared;
        out->Check(
            Canonical(direct.matches) == Canonical(s.results[q].matches),
            "serve: batch " + std::to_string(s.batch) + " query " +
                std::to_string(q) + " differs from unsharded StatQuery");
      }
    }
    out->Check(compared > 0, "serve: no batch sampled for the parity check");
    out->Check(lo_ >= 0, "serve: the lowest ladder rung misses the limit");
    // At the top rung qps_at_slo is the ladder's ceiling, not the service's
    // knee: the ladder in BENCHMARK.json must then be extended.
    out->Check(lo_ < args_.ladder_rungs - 1,
               "serve: the top ladder rung meets the limit, so qps_at_slo "
               "is capped by the ladder");
    out->attempted += ref_.due + ladder_batches_;
    out->failed += ref_.failed();
    // Batch latency at the reference rate is printed, not part of the
    // result: on a shared host its run-to-run spread exceeds any bound the
    // result may carry (perfbench/README.md).
    std::printf("serve: reference %.0f/s x %zu batches (%llu failed), "
                "batch_ms_p50 %.3f ms, batch_ms_p99 %.3f ms; ladder%s -> "
                "qps_at_slo %.1f; parity checked %zu queries\n",
                args_.ref_qps, ref_.due,
                static_cast<unsigned long long>(ref_.failed()),
                Percentile(ref_.e2e_ms, 0.5), Percentile(ref_.e2e_ms, 0.99),
                walk_.c_str(), qps_at_slo, compared);
    out->e2e["qps_at_slo"] = {qps_at_slo, "1/s"};
    if (!tracer_->enabled()) return;

    out->Layer("service.submit_us_p99", Percentile(ref_.submit_us, 0.99), "us");
    out->Layer("service.queue_ms_p50", Percentile(ref_.queue_ms, 0.5), "ms");
    out->Layer("service.queue_ms_p99", Percentile(ref_.queue_ms, 0.99), "ms");
    out->Layer("service.execute_ms_p50",
               Percentile(ref_.execute_ms, 0.5), "ms");
    out->Layer("service.execute_ms_p99",
               Percentile(ref_.execute_ms, 0.99), "ms");
    const uint64_t lookups = ref_.cache_hits + ref_.cache_misses;
    out->Layer("service.cache_hit_ratio",
               lookups == 0 ? 0.0
                            : static_cast<double>(ref_.cache_hits) / lookups,
               "ratio");
    out->Layer("service.rejected",
               static_cast<double>(ref_.rejected + ladder_rejected_), "count");
    out->Layer("service.expired",
               static_cast<double>(ref_.expired + ladder_expired_), "count");
    out->Layer("service.gen_late_ms_p99", Percentile(ref_.late_ms, 0.99), "ms");
    ref_.core.Report(out);
  }

 private:
  static service::QueryServiceOptions ServiceOptions(const Structures& st) {
    service::QueryServiceOptions options;  // defaults: 2 workers, cache on
    options.query = st.query;
    return options;
  }

  double RungRate(int rung) const {
    return args_.ladder_base * std::pow(args_.ladder_step, rung);
  }

  // Open loop: batches are due on a Poisson schedule at `rate` per second
  // and each batch's latency runs from its due time, so a stall also
  // charges the batches it delays. The generator spins (yielding) up to
  // each due time: a sleeping thread on a virtual machine can wake
  // milliseconds late, and that lateness would count in every batch.
  // Appends to *out.
  void Drive(double rate, double seconds, uint64_t schedule_seed,
             RateResult* out, std::vector<ParitySample>* parity) {
    service::QueryService service(st_.sharded.get(), &in_.model,
                                  ServiceOptions(st_));
    BatchPicker picker(in_.serve_batches.size(), schedule_seed);
    Rng arrivals(schedule_seed + 1);
    const size_t due_count =
        std::max<size_t>(1, static_cast<size_t>(std::lround(rate * seconds)));
    struct Pending {
      service::BatchTicket ticket;
      double late_ms;
      size_t batch;
      bool sample;
    };
    std::deque<Pending> pending;
    auto finish = [&](Pending& p) {
      const service::BatchResult& r = p.ticket->Wait();
      if (r.status.ok()) {
        out->e2e_ms.push_back(p.late_ms + r.queue_wait_ms + r.execute_ms);
        out->queue_ms.push_back(r.queue_wait_ms);
        out->execute_ms.push_back(r.execute_ms);
        for (const auto& q : r.results) {
          out->core.Add(q, (q.stats.selection_ns + q.stats.refine_ns) * 1e-3);
        }
        if (p.sample) parity->push_back({p.batch, r.results});
      } else {
        if (r.status.code() == StatusCode::kDeadlineExceeded) {
          ++out->expired;
        } else {
          ++out->other_failed;
        }
        out->e2e_ms.push_back(args_.deadline_ms);
      }
    };
    auto drain = [&] {
      while (!pending.empty() && pending.front().ticket->done()) {
        finish(pending.front());
        pending.pop_front();
      }
    };
    service::BatchOptions options;
    options.deadline_ms = args_.deadline_ms;
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    double due_s = 0;
    for (size_t k = 0; k < due_count; ++k, ++batches_sent_) {
      due_s += -std::log(1.0 - arrivals.Uniform(0, 1)) / rate;
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due_s));
      const size_t batch = picker.Next();
      for (;;) {
        drain();
        const auto now = Clock::now();
        if (now >= due) break;
        std::this_thread::yield();
      }
      const auto submit = Clock::now();
      const double late_ms =
          std::chrono::duration<double, std::milli>(submit - due).count();
      out->late_ms.push_back(late_ms);
      std::vector<fp::Fingerprint> queries = in_.serve_batches[batch];
      Result<service::BatchTicket> ticket = [&] {
        ScopedSpan span(tracer_, "service.submit", batches_sent_);
        return service.Submit(std::move(queries), options);
      }();
      out->submit_us.push_back(SecondsSince(submit) * 1e6);
      if (!ticket.ok()) {
        if (ticket.status().code() == StatusCode::kUnavailable) {
          ++out->rejected;
        } else {
          ++out->other_failed;
        }
        out->e2e_ms.push_back(args_.deadline_ms);
        continue;
      }
      const bool sample =
          parity != nullptr && batches_sent_ % 37 == 5 && parity->size() < 12;
      pending.push_back({std::move(ticket.value()), late_ms, batch, sample});
    }
    for (const Pending& p : pending) {
      out->backlog_end += p.ticket->done() ? 0 : 1;
    }
    for (Pending& p : pending) finish(p);
    out->due += due_count;
    out->cache_hits += service.cache()->hits();
    out->cache_misses += service.cache()->misses();
  }

  const Inputs& in_;
  const Structures& st_;
  const Config& cfg_;
  const Args& args_;
  Tracer* tracer_;
  RateResult ref_;  // all reference slices
  std::vector<ParitySample> parity_;
  int ref_slices_ = 0;
  int max_probes_ = 0;
  int lo_ = -1;     // highest rung known to pass
  int hi_;          // lowest rung known to fail
  int retry_ = -1;  // rung whose first run failed
  std::string walk_;
  uint64_t batches_sent_ = 0;
  uint64_t ladder_batches_ = 0, ladder_rejected_ = 0, ladder_expired_ = 0;
};

// ---------------------------------------------------------------------------
// ingest: identical episodes of archive growth, each into a fresh store.

class IngestPhase final : public Phase {
 public:
  IngestPhase(const Inputs& in, const Config& cfg, const Args& args,
              Tracer* tracer)
      : in_(in),
        cfg_(cfg),
        args_(args),
        tracer_(tracer),
        before_(obs::MetricsRegistry::Global().Snapshot()) {
    store::EnsureSegmentBackendRegistered();
    query_.filter.alpha = 0.80;
    query_.filter.depth = cfg.ingest_depth;
  }

  int steps() const override { return cfg_.ingest_episodes; }

  void Step(int e) override {
    const std::string dir = args_.work_dir + "/ingest-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(e);
    std::filesystem::remove_all(dir);
    store::SegmentSearcherOptions options;
    options.store_dir = dir;
    options.spill_threshold = cfg_.ingest_spill_threshold;
    auto opened =
        store::SegmentSearcher::Open(core::FingerprintDatabase(), options);
    S3VCD_CHECK(opened.ok());
    std::unique_ptr<store::SegmentSearcher> searcher =
        std::move(opened.value());
    const TracedSearcher traced(searcher.get(), tracer_, &core_);
    Rng rng(args_.seed * 131 + 3);  // identical work in every episode
    std::vector<core::FingerprintRecord> inserted;
    std::vector<fp::Fingerprint> clip_points;  // real points inserted so far
    uint64_t inserts = 0;
    const auto episode_start = Clock::now();
    {
      ScopedSpan episode_span(tracer_, "ingest.episode", e);
      auto insert = [&](const core::FingerprintRecord& r, uint64_t clip) {
        const size_t pending = searcher->pending_inserts();
        const auto start = Clock::now();
        bool ok;
        {
          ScopedSpan span(tracer_, "store.insert", clip);
          ok = searcher->TryInsert(r.descriptor, r.id, r.time_code, r.x, r.y);
        }
        const double s = SecondsSince(start);
        insert_s_ += s;
        if (searcher->pending_inserts() <= pending) stall_s_ += s;  // spilled
        ++attempted_;
        failed_ += ok ? 0 : 1;
        if (e == 0) inserted.push_back(r);
        if (++inserts % cfg_.ingest_query_every == 0 && !clip_points.empty()) {
          const fp::Fingerprint q = core::DistortFingerprint(
              clip_points[rng.UniformInt(
                  0, static_cast<int64_t>(clip_points.size()) - 1)],
              8.0, &rng);
          segments_sum_ += searcher->segment_store().num_segments();
          ++attempted_;
          const auto qstart = Clock::now();
          const core::QueryResult result =
              static_cast<const core::Searcher&>(traced).StatQuery(
                  q, in_.model, query_);
          query_ms_.push_back(SecondsSince(qstart) * 1e3);
          query_matches_ += result.matches.size();
        }
      };
      for (size_t c = 0; c < in_.ingest_clips.size(); ++c) {
        std::vector<fp::LocalFingerprint> fps;
        {
          ScopedSpan span(tracer_, "fingerprint.extract", c);
          const auto start = Clock::now();
          fps = in_.extractor.Extract(in_.ingest_clips[c]);
          extract_s_ += SecondsSince(start);
        }
        frames_ += in_.ingest_clips[c].num_frames();
        points_ += fps.size();
        for (size_t i = 0; i < fps.size(); ++i) {
          if (i == 0 || fps[i].time_code != fps[i - 1].time_code) ++keyframes_;
        }
        for (const auto& lf : fps) {
          insert({lf.descriptor, static_cast<uint32_t>(c), lf.time_code, lf.x,
                  lf.y},
                 c);
          clip_points.push_back(lf.descriptor);
        }
        for (const auto& r : in_.ingest_distractors[c]) insert(r, c);
        if ((c + 1) % cfg_.ingest_compact_every == 0 ||
            c + 1 == in_.ingest_clips.size()) {
          ScopedSpan span(tracer_, "store.compact", c);
          const auto start = Clock::now();
          searcher->Compact();
          stall_s_ += SecondsSince(start);
        }
      }
    }
    rec_per_s_.push_back(inserts / SecondsSince(episode_start));
    records_ += inserts;
    const auto& store = searcher->segment_store();
    disk_per_rec_.push_back(static_cast<double>(store.DiskBytes()) /
                            static_cast<double>(store.total_records()));
    if (store.total_records() != inserts) {
      errors_.push_back("ingest: the store holds " +
                        std::to_string(store.total_records()) +
                        " records, " + std::to_string(inserts) + " inserted");
    }
    if (e == 0) CheckAgainstDynamic(*searcher, inserted, clip_points);
    searcher.reset();
    std::filesystem::remove_all(dir);
  }

  void Finish(Outcome* out) override {
    for (const std::string& error : errors_) out->Check(false, error);
    out->attempted += attempted_;
    out->failed += failed_;
    std::printf("ingest: %d episode(s) x %llu records, %zu queries, %llu "
                "matches\n",
                cfg_.ingest_episodes,
                static_cast<unsigned long long>(records_ /
                                                cfg_.ingest_episodes),
                query_ms_.size(),
                static_cast<unsigned long long>(query_matches_));
    out->e2e["ingest_rec_per_s"] = {Median(rec_per_s_), "1/s"};
    out->e2e["query_ms_p50"] = {Percentile(query_ms_, 0.5), "ms"};
    out->e2e["query_ms_p99"] = {Percentile(query_ms_, 0.99), "ms"};
    out->e2e["disk_bytes_per_rec"] = {Median(disk_per_rec_), "B"};
    if (!tracer_->enabled()) return;

    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::Global().Snapshot();
    // User bytes of a record: descriptor, id, time code and position.
    const double user_bytes =
        static_cast<double>(records_) *
        (fp::kDims + 2 * sizeof(uint32_t) + 2 * sizeof(float));
    out->Layer("store.insert_s", insert_s_, "s");
    out->Layer("store.stall_s", stall_s_, "s");
    out->Layer("store.spills",
               CounterDelta(before_, after, "index.segment_spills"), "count");
    out->Layer("store.compactions",
               CounterDelta(before_, after, "store.compactions"), "count");
    out->Layer("store.segments_mean",
               query_ms_.empty() ? 0.0 : segments_sum_ / query_ms_.size(),
               "count");
    out->Layer("store.bytes_written_per_user_byte",
               CounterDelta(before_, after, "store.bytes_written") / user_bytes,
               "ratio");
    out->Layer("fingerprint.extract_s", extract_s_, "s");
    out->Layer("fingerprint.frames", static_cast<double>(frames_), "count");
    out->Layer("fingerprint.keyframes",
               static_cast<double>(keyframes_), "count");
    out->Layer("fingerprint.points", static_cast<double>(points_), "count");
    core_.Report(out);
  }

 private:
  // Output check: sampled final answers equal a dynamic backend's over the
  // same records.
  void CheckAgainstDynamic(const store::SegmentSearcher& searcher,
                           const std::vector<core::FingerprintRecord>& records,
                           const std::vector<fp::Fingerprint>& points) {
    core::DatabaseBuilder builder;
    for (const auto& r : records) {
      builder.Add(r.descriptor, r.id, r.time_code, r.x, r.y);
    }
    auto dynamic =
        core::SearcherRegistry::Global().Create("dynamic", builder.Build());
    S3VCD_CHECK(dynamic.ok());
    Rng rng(args_.seed * 17 + 1);
    for (int s = 0; s < 24; ++s) {
      const fp::Fingerprint q = core::DistortFingerprint(
          points[rng.UniformInt(0, static_cast<int64_t>(points.size()) - 1)],
          8.0, &rng);
      const auto a = searcher.StatQuery(q, in_.model, query_);
      const auto b = (*dynamic)->StatQuery(q, in_.model, query_);
      if (Canonical(a.matches) != Canonical(b.matches)) {
        errors_.push_back("ingest: a segment store answer differs from the "
                          "dynamic backend's");
      }
    }
  }

  const Inputs& in_;
  const Config& cfg_;
  const Args& args_;
  Tracer* tracer_;
  const obs::MetricsSnapshot before_;
  core::QueryOptions query_;
  CoreTally core_;
  std::vector<double> rec_per_s_, query_ms_, disk_per_rec_;
  std::vector<std::string> errors_;
  double insert_s_ = 0, stall_s_ = 0, extract_s_ = 0, segments_sum_ = 0;
  uint64_t records_ = 0, frames_ = 0, keyframes_ = 0, points_ = 0;
  uint64_t query_matches_ = 0, attempted_ = 0, failed_ = 0;
};

// ---------------------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g",
                  std::isfinite(m.value) ? m.value : -1.0);
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") args->workload = v;
    else if (flag == "--seed") args->seed = std::stoull(v);
    else if (flag == "--seconds") args->seconds = std::stod(v);
    else if (flag == "--trace") args->trace = v == "1";
    else if (flag == "--slo-ms") args->slo_ms = std::stod(v);
    else if (flag == "--deadline-ms") args->deadline_ms = std::stod(v);
    else if (flag == "--ref-qps") args->ref_qps = std::stod(v);
    else if (flag == "--ladder-base") args->ladder_base = std::stod(v);
    else if (flag == "--ladder-step") args->ladder_step = std::stod(v);
    else if (flag == "--ladder-rungs") args->ladder_rungs = std::stoi(v);
    else if (flag == "--work-dir") args->work_dir = v;
    else if (flag == "--commit") args->commit = v;
    else return false;
  }
  return (args->workload == "monitor" || args->workload == "serve" ||
          args->workload == "ingest") &&
         args->seconds > 0 && args->slo_ms > 0 && args->deadline_ms > 0 &&
         args->ref_qps > 0 && args->ladder_base > 0 &&
         args->ladder_step > 1 && args->ladder_rungs > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: s3bench --workload monitor|serve|ingest --seed N "
                 "--seconds S --trace 0|1 --slo-ms X --deadline-ms X "
                 "--ref-qps X --ladder-base X --ladder-step X "
                 "--ladder-rungs N [--smoke] [--work-dir D] [--commit C]\n");
    return 2;
  }
  const Config cfg = MakeConfig(args);
  std::filesystem::create_directories(args.work_dir);

  // setup_s: generating the inputs once, plus the median of setup_reps
  // builds of the program's structures over them.
  HostSpeed setup_speed;
  setup_speed.Sample();
  auto start = Clock::now();
  const std::unique_ptr<Inputs> inputs = MakeInputs(cfg, args.seed);
  const double inputs_s = SecondsSince(start);
  setup_speed.Sample();
  std::vector<double> build_s;
  std::unique_ptr<Structures> structures;
  for (int r = 0; r < cfg.setup_reps; ++r) {
    structures.reset();
    start = Clock::now();
    structures = BuildStructures(*inputs, cfg, args.seed);
    build_s.push_back(SecondsSince(start));
    setup_speed.Sample();
  }
  std::string builds;
  for (const double s : build_s) builds += " " + std::to_string(s);
  std::printf("# stamp {\"nproc\": %u, \"cpu\": %s, \"kernel\": %s, "
              "\"codec\": %s, \"build_type\": %s, \"compiler\": %s, "
              "\"commit\": %s, \"seed\": %llu, \"workload\": %s, "
              "\"trace\": %d, \"seconds\": %g}\n",
              std::thread::hardware_concurrency(),
              JsonString(CpuModel()).c_str(),
              JsonString(core::ActiveScanKernelName()).c_str(),
              JsonString(structures->index->Stats().codec).c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              JsonString("gcc " __VERSION__).c_str(),
              JsonString(args.commit).c_str(),
              static_cast<unsigned long long>(args.seed),
              JsonString(args.workload).c_str(), args.trace ? 1 : 0,
              args.seconds);
  std::printf("setup: inputs %.3fs, builds%s s\n", inputs_s, builds.c_str());

  Tracer tracer(args.trace);
  // The run's own workload first: it finishes first, so the layer
  // metrics it exercises are measured on it (Outcome::Layer).
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(
      std::make_unique<MonitorPhase>(*inputs, *structures, cfg, &tracer));
  phases.push_back(std::make_unique<ServePhase>(*inputs, *structures, cfg,
                                                args, &tracer));
  phases.push_back(std::make_unique<IngestPhase>(*inputs, cfg, args, &tracer));
  const int own = args.workload == "monitor" ? 0
                  : args.workload == "serve" ? 1
                                             : 2;
  std::rotate(phases.begin(), phases.begin() + own, phases.end());
  // Interleave: always advance the phase that is least far along, so the
  // steps of every phase spread over the whole measurement.
  std::vector<int> done(phases.size(), 0);
  HostSpeed speed;
  speed.Sample();
  const auto measure_start = Clock::now();
  for (;;) {
    int next = -1;
    double least = 1.0;
    for (size_t p = 0; p < phases.size(); ++p) {
      const double progress =
          static_cast<double>(done[p]) / phases[p]->steps();
      if (progress < least) {
        least = progress;
        next = static_cast<int>(p);
      }
    }
    if (next < 0) break;
    phases[next]->Step(done[next]++);
    speed.Sample();
  }
  const double measured_s = SecondsSince(measure_start);
  Outcome out;
  for (auto& phase : phases) phase->Finish(&out);

  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  out.e2e["setup_s"] = {inputs_s + Median(build_s), "s"};
  out.e2e["peak_rss_mb"] = {usage.ru_maxrss / 1024.0, "MB"};
  // Timings on the reference host: times divided by the slowdown, rates
  // multiplied; setup_s by the slowdown measured during set-up.
  std::string raw;
  for (auto& [name, m] : out.e2e) {
    const double slowdown =
        name == "setup_s" ? setup_speed.slowdown() : speed.slowdown();
    const bool time = m.unit == "s" || m.unit == "ms";
    const bool rate = m.unit == "x" || m.unit == "1/s";
    if (!time && !rate) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s %.6g", name.c_str(), m.value);
    raw += buf;
    m.value = time ? m.value / slowdown : m.value * slowdown;
  }
  std::printf("host: slowdown %.4f in set-up, %.4f measuring (kernel mean "
              "%.3f ms over %zu samples, reference %.3f ms); raw%s\n",
              setup_speed.slowdown(), speed.slowdown(),
              speed.mean_seconds() * 1e3, speed.samples(),
              HostSpeed::kReferenceSeconds * 1e3, raw.c_str());
  out.Layer("host.slowdown", speed.slowdown(), "ratio");
  if (args.trace) {
    const double span_cost = Tracer::CalibrateSpanCostSeconds();
    out.Layer("trace.overhead_frac",
              span_cost * static_cast<double>(tracer.spans().size()) /
                  measured_s,
              "ratio");
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".json";
    out.Check(tracer.WriteChromeTrace(path), "cannot write trace " + path);
    std::printf("trace: %zu spans -> %s\n", tracer.spans().size(),
                path.c_str());
  }
  std::printf("measured %.1fs\n", measured_s);
  for (const std::string& e : out.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"e2e\": %s, \"layer\": %s}\n",
              out.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              MetricsJson(out.e2e).c_str(), MetricsJson(out.layer).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace s3vcd::perfbench

int main(int argc, char** argv) { return s3vcd::perfbench::Main(argc, argv); }
