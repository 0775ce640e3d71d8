// Attack-pipeline benchmark driver (see BENCHMARK.json for the contract).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//   perfbench --check --out DIR
//
// One process runs one workload: it sets the workload up kSetupReps times
// (each set-up ends with one untimed warm-up op), then runs ops until
// --seconds of wall time have passed. Every op gets fresh inputs derived
// from (--seed, op index), is timed from outside through the public API of
// the layer under test, and then has its output checked (untimed).
//
// Workloads:
//   synth_alexnet       cold AlexNet acquisition: Accelerator::Run into a
//                       pooled trace, one reference-noise pass, one sct-v1
//                       write.
//   structure_alexnet   K=5 sct-v1 reads + RunRobustStructureAttack.
//   weights_bus_oracle  WeightAttack::RecoverFilter of one filter through a
//                       fresh AcceleratorOracle.
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every public call (kept in memory, written to DIR/spans-*.json at exit)
// and prints the per-layer metrics. --check runs one op of each workload
// with every output check, plus the known-defect repros, and exits non-zero
// if a check that is not a recorded defect fails.
//
// run.py pins SC_THREADS and SC_DATAFLOW; every accelerator here uses the
// default AcceleratorConfig, which takes its dataflow from SC_DATAFLOW.
//
// End-to-end times are in reference seconds (see HostReference); per-layer
// times are raw. The last line of stdout is one JSON object: correct,
// attempted, failed, metrics. The line before it ("detail: {...}")
// describes the op-time distribution for perfbench/steady.py.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "attack/structure/region_analysis.h"
#include "attack/structure/report.h"
#include "attack/structure/robust.h"
#include "attack/weights/attack.h"
#include "attack/weights/oracle.h"
#include "attack/weights/score.h"
#include "models/zoo.h"
#include "nn/network.h"
#include "sim/noise.h"
#include "store/reader.h"
#include "store/writer.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace {

using namespace sc;
namespace fs = std::filesystem;

constexpr int kSetupReps = 3;
// Runs of each measured op. Three keep >= 36 distinct ops in a 25 s run of
// the 0.15-0.2 s ops, so the tail (>= 10 ops beyond it) stays above p70.
constexpr int kPasses = 3;
constexpr int kAcquisitionsPerOp = 5;     // K of structure_alexnet
constexpr int kAcquisitionPool = 40;      // sct-v1 files written in set-up
constexpr int kStageFilters = 8;          // weights_bus_oracle victim
constexpr int kStageFilter = 5;
constexpr int kStageDepth = 3;
constexpr int kStageWidth = 32;

// Stream tags for MixSeed so the workloads' inputs never share a stream.
enum Stream : std::uint64_t {
  kVictimStream = 1,
  kNoiseStream = 2,
  kCleanInputStream = 3,
  kOpStream = 1000,
};
// Op index of set-up r's warm-up op: far from the measured ops' indices.
constexpr int kWarmupOp = 1 << 20;

// --- clocks ---------------------------------------------------------------

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// CPU time of the whole process (every pool lane).
double CpuNow() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile of a sorted copy, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// --- host-speed reference ---------------------------------------------------

// The host is shared and its speed moves by 10-40% over minutes (clock
// frequency, co-tenants' cache and memory traffic), in the same direction
// for every workload. Each run therefore also times this fixed
// single-thread integer work, written here and independent of src/: a
// stream over and a pointer chase through one 32 MiB cyclic permutation, a
// sort of 64 Ki u32 and a varint decode of 1.5 MB, each about 5 ms on the
// host of README.md's "Measured steadiness". Every end-to-end time is
// reported in reference seconds: raw seconds x kRefNominalS / (median of
// the reference passes run next to it). Every op run follows one pass and
// is scaled by the median of the 2 * kRefHalfWindow + 1 passes around it;
// set-up is scaled by the passes run during set-up.
constexpr double kRefNominalS = 0.02;
constexpr std::size_t kRefHalfWindow = 2;

class HostReference {
 public:
  HostReference() {
    Rng rng(0x5eedULL);
    // Sattolo's shuffle: one cycle through all kChase slots.
    ring_.resize(kChase);
    for (std::size_t i = 0; i < kChase; ++i) ring_[i] = i;
    for (std::size_t i = kChase - 1; i > 0; --i)
      std::swap(ring_[i], ring_[rng.engine()() % i]);
    keys_.resize(kSort);
    for (std::uint32_t& k : keys_)
      k = static_cast<std::uint32_t>(rng.engine()());
    for (int i = 0; i < kVarints; ++i) {
      std::uint64_t v = rng.engine()() >> (rng.engine()() % 60);
      do {
        const auto b = static_cast<std::uint8_t>(v & 0x7f);
        v >>= 7;
        varints_.push_back(static_cast<std::uint8_t>(b | (v != 0 ? 0x80 : 0)));
      } while (v != 0);
    }
  }

  // Times one pass (thread CPU seconds), keeps it and returns its index.
  std::size_t Sample() {
    const double c0 = ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
    std::uint64_t acc = 0;
    for (std::uint64_t x : ring_) acc += x;
    std::uint64_t j = acc % kChase;
    for (int i = 0; i < kChaseSteps; ++i) j = ring_[j];
    acc += j;
    std::vector<std::uint32_t> keys = keys_;
    std::sort(keys.begin(), keys.end());
    acc += keys[kSort / 2];
    std::uint64_t v = 0;
    int shift = 0;
    for (std::uint8_t b : varints_) {
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) != 0) {
        shift += 7;
      } else {
        acc += v;
        v = 0;
        shift = 0;
      }
    }
    sink_ = acc;
    samples_.push_back(ClockSeconds(CLOCK_THREAD_CPUTIME_ID) - c0);
    return samples_.size() - 1;
  }
  // Factor from raw to reference seconds over passes [lo, hi).
  double Scale(std::size_t lo, std::size_t hi) const {
    hi = std::min(hi, samples_.size());
    return kRefNominalS /
           Median(std::vector<double>(samples_.begin() + lo,
                                      samples_.begin() + hi));
  }
  // ... over the passes around pass i.
  double ScaleAround(std::size_t i) const {
    return Scale(i - std::min(i, kRefHalfWindow), i + kRefHalfWindow + 1);
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr std::size_t kChase = std::size_t{1} << 22;  // 32 MiB
  static constexpr int kChaseSteps = 30000;
  static constexpr std::size_t kSort = std::size_t{1} << 16;
  static constexpr int kVarints = 300000;

  std::vector<std::uint64_t> ring_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint8_t> varints_;
  std::vector<double> samples_;
  volatile std::uint64_t sink_ = 0;
};

// The highest percentile with at least ten samples beyond it: the sample
// that has exactly ten larger ones (the maximum when there are fewer).
double Tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

// --- spans ------------------------------------------------------------------

struct Span {
  const char* name;  // a string literal
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int op = -1;
};

// In-memory span log. Null tracer = tracing off: ScopedSpan is a no-op.
class Tracer {
 public:
  int Begin(const char* name, int parent, int op) {
    const double now = WallNow();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now, 0.0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    const double now = WallNow();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int parent, int op)
      : t_(t), id_(t != nullptr ? t->Begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

// Self time of span i: its duration minus the union of its children.
std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo, hi] : k) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

// Per-op sums of each span name's duration (and self time).
struct SpanTotals {
  std::map<std::string, std::map<int, double>> dur;
  std::map<std::string, std::map<int, double>> self;
  std::map<std::string, std::vector<double>> each;  // every span's duration

  explicit SpanTotals(const std::vector<Span>& spans) {
    const std::vector<double> st = SelfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      dur[s.name][s.op] += s.end - s.start;
      self[s.name][s.op] += st[i];
      each[s.name].push_back(s.end - s.start);
    }
  }
  // Median over ops of the per-op total; 0 when the span never ran.
  double PerOp(const std::string& name, bool self_time = false) const {
    const auto& m = self_time ? self : dur;
    const auto it = m.find(name);
    if (it == m.end()) return 0.0;
    std::vector<double> v;
    for (const auto& [op, d] : it->second) v.push_back(d);
    return Median(v);
  }
  double EachMedian(const std::string& name) const {
    const auto it = each.find(name);
    return it == each.end() ? 0.0 : Median(it->second);
  }
};

void WriteSpans(const std::string& path, const std::string& workload,
                std::uint64_t seed, const std::vector<Span>& spans) {
  const std::vector<double> st = SelfTimes(spans);
  std::ofstream os(path);
  os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
     << ", \"fields\": [\"name\", \"start_s\", \"end_s\", \"self_s\", "
        "\"parent\", \"op\"], \"spans\": [\n";
  char buf[256];
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf, "[\"%s\", %.9f, %.9f, %.9f, %d, %d]%s\n",
                  s.name, s.start - t0, s.end - t0, st[i], s.parent,
                  s.op, i + 1 < spans.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
}

// --- shared helpers -------------------------------------------------------

nn::Tensor GaussianInput(const nn::Shape& shape, std::uint64_t seed) {
  nn::Tensor t(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = rng.GaussianF(1.0f);
  return t;
}

attack::RobustStructureConfig AlexNetAttackConfig(
    const accel::Accelerator& accel) {
  attack::RobustStructureConfig rcfg;
  attack::StructureAttackConfig& cfg = rcfg.attack;
  cfg.analysis.known_input_elems = 3LL * 227 * 227;
  cfg.search.known_input_width = 227;
  cfg.search.known_input_depth = 3;
  cfg.search.known_output_classes = 1000;
  cfg.search.macs_per_cycle = accel.config().macs_per_cycle;
  cfg.search.bytes_per_cycle = accel.config().bytes_per_cycle;
  cfg.search.schedule = accel.schedule_model();
  return rcfg;
}

const std::vector<attack::LayerFingerprint>& AlexNetTruth() {
  static const std::vector<attack::LayerFingerprint> truth = {
      {11, 96}, {5, 256}, {3, 384}, {3, 384},
      {3, 256}, {6, 4096}, {1, 4096}, {1, 1000}};
  return truth;
}

int ConvFcSegments(const trace::Trace& tr) {
  attack::AnalysisConfig cfg;
  cfg.known_input_elems = 3LL * 227 * 227;
  const attack::TraceAnalysis a = attack::AnalyzeTrace(tr, cfg);
  int n = 0;
  for (const auto& o : a.observations)
    if (o.role == attack::SegmentRole::kConvOrFc) ++n;
  return a.segments.size() == 8 ? n : -1;
}

bool BitIdentical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// --- op results -------------------------------------------------------------

struct OpSample {
  double wall = 0.0;
  double cpu = 0.0;
  double work = 0.0;   // workload-specific work units
  long long checked = 0;  // output items checked
  long long right = 0;    // ... of which right
  bool traced = false;
  std::size_t ref = 0;    // HostReference pass run just before the op
};

struct RunContext {
  std::uint64_t seed = 1;
  std::string out_dir;
  Tracer* tracer = nullptr;  // non-null only for traced ops
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(const RunContext& ctx) = 0;
  virtual void Teardown() = 0;
  // Runs op `i`. The returned sample carries the timed region and the
  // results of the (untimed) output checks; errors from the program under
  // test propagate as exceptions.
  virtual OpSample Op(const RunContext& ctx, int i) = 0;
  // Per-layer metrics from the spans this workload's traced ops recorded.
  virtual void LayerMetrics(const SpanTotals& t,
                            std::map<std::string, double>* m) const = 0;
  // True when wrong outputs of this workload are a recorded known defect
  // (README.md, "Known defects"): they are measured by ok_frac instead of
  // failing the run's `correct` flag.
  virtual bool WrongOutputIsKnownDefect() const { return false; }
};

// Times f() from outside: wall and whole-process CPU.
template <typename F>
void Timed(OpSample* s, F&& f) {
  const double w0 = WallNow();
  const double c0 = CpuNow();
  f();
  s->cpu = CpuNow() - c0;
  s->wall = WallNow() - w0;
}

// --- synth_alexnet ----------------------------------------------------------

// Span names of AlexNet's weighted layers, in network order.
constexpr std::array<const char*, 5> kConvSpans = {
    "nn.conv1", "nn.conv2", "nn.conv3", "nn.conv4", "nn.conv5"};
constexpr std::array<const char*, 3> kFcSpans = {"nn.fc6", "nn.fc7",
                                                 "nn.fc8"};

class SynthAlexNet : public Workload {
 public:
  void Setup(const RunContext& ctx) override {
    net_ = std::make_unique<nn::Network>(
        models::MakeAlexNet(MixSeed(ctx.seed, kVictimStream)));
    accel_ = std::make_unique<accel::Accelerator>(accel::AcceleratorConfig{});
    map_ = std::make_unique<accel::AddressMap>(accel_->BuildMap(*net_));
    noise_ = std::make_unique<sim::TraceNoiseModel>(
        sim::ReferenceTraceNoise(MixSeed(ctx.seed, kNoiseStream)));
    path_ = (fs::path(ctx.out_dir) / "synth_acquisition.sct").string();
  }
  void Teardown() override {
    fs::remove(path_);
    net_.reset();
    accel_.reset();
    map_.reset();
    noise_.reset();
    tr_ = trace::Trace();
    noisy_ = trace::Trace();
  }

  OpSample Op(const RunContext& ctx, int i) override {
    const auto k = static_cast<std::uint64_t>(i);
    const nn::Tensor input =
        GaussianInput(net_->input_shape(), MixSeed(ctx.seed, kOpStream + k));
    Tracer* tr = ctx.tracer;
    OpSample s;
    accel::RunResult run;
    Timed(&s, [&] {
      ScopedSpan op(tr, "op", -1, i);
      {
        ScopedSpan sp(tr, "accel.run", op.id(), i);
        tr_.Clear();
        run = accel_->Run(*net_, input, &tr_, map_.get());
      }
      {
        ScopedSpan sp(tr, "sim.noise", op.id(), i);
        noise_->ApplyNthTo(tr_, k, &noisy_);
      }
      {
        ScopedSpan sp(tr, "store.write", op.id(), i);
        store::WriteTraceFile(path_, noisy_);
      }
    });
    s.work = static_cast<double>(tr_.size());
    if (tr != nullptr) ProbeLayers(tr, i, input, run);

    // Output checks (untimed).
    const trace::Trace back = store::ReadTraceFile(path_);
    bool ok = back.size() == noisy_.size() && ConvFcSegments(tr_) == 8;
    if (i == 0) ok = ok && BitIdentical(run.output, net_->ForwardFinal(input));
    if (!ok) std::cerr << "synth_alexnet op " << i << ": output check failed\n";
    s.checked = 1;
    s.right = ok ? 1 : 0;
    return s;
  }

  void LayerMetrics(const SpanTotals& t,
                    std::map<std::string, double>* m) const override {
    auto& out = *m;
    out["nn.forward_s"] = t.PerOp("nn.forward");
    double conv_s = 0.0;
    for (const char* n : kConvSpans) {
      out[std::string(n) + "_s"] = t.PerOp(n);
      conv_s += t.PerOp(n);
    }
    for (const char* n : kFcSpans) out[std::string(n) + "_s"] = t.PerOp(n);
    out["nn.conv_gmacs"] =
        conv_s > 0.0 ? static_cast<double>(conv_macs_) / conv_s * 1e-9 : 0.0;
    out["accel.run_s"] = t.PerOp("accel.run");
    out["accel.emit_s"] = out["accel.run_s"] - out["nn.forward_s"];
    out["accel.events"] = static_cast<double>(events_);
    out["accel.ns_per_event"] =
        events_ > 0 ? out["accel.run_s"] / static_cast<double>(events_) * 1e9
                    : 0.0;
    out["sim.noise_s"] = t.PerOp("sim.noise");
    out["store.write_s"] = t.PerOp("store.write");
  }

 private:
  // Traced ops only, outside the op span: the functional forward pass and
  // each weighted node's Layer::Forward on this op's activations.
  void ProbeLayers(Tracer* tr, int i, const nn::Tensor& input,
                   const accel::RunResult& run) {
    std::vector<nn::Tensor> acts;
    {
      ScopedSpan sp(tr, "nn.forward", -1, i);
      acts = net_->Forward(input);
    }
    std::size_t conv = 0;
    std::size_t fc = 0;
    for (int node = 0; node < net_->num_nodes(); ++node) {
      const nn::Layer& layer = net_->layer(node);
      const bool is_conv = layer.kind() == nn::LayerKind::kConv;
      if (!is_conv && layer.kind() != nn::LayerKind::kFullyConnected)
        continue;
      std::vector<const nn::Tensor*> in;
      for (int src : net_->inputs_of(node))
        in.push_back(src == nn::kInputNode
                         ? &input
                         : &acts[static_cast<std::size_t>(src)]);
      const char* name = is_conv ? kConvSpans.at(conv++) : kFcSpans.at(fc++);
      nn::Tensor out;
      {
        ScopedSpan sp(tr, name, -1, i);
        out = layer.Forward(in);
      }
      SC_CHECK(BitIdentical(out, acts[static_cast<std::size_t>(node)]));
    }
    conv_macs_ = 0;
    for (const accel::StageStats& st : run.stages)
      if (st.kind == accel::StageKind::kConv) conv_macs_ += st.macs;
    events_ = tr_.size();
  }

  std::unique_ptr<nn::Network> net_;
  std::unique_ptr<accel::Accelerator> accel_;
  std::unique_ptr<accel::AddressMap> map_;
  std::unique_ptr<sim::TraceNoiseModel> noise_;
  trace::Trace tr_;
  trace::Trace noisy_;
  std::string path_;
  long long conv_macs_ = 0;
  std::size_t events_ = 0;
};

// --- structure_alexnet ------------------------------------------------------

class StructureAlexNet : public Workload {
 public:
  explicit StructureAlexNet(int pool = kAcquisitionPool) : pool_(pool) {}

  void Setup(const RunContext& ctx) override {
    const nn::Network net =
        models::MakeAlexNet(MixSeed(ctx.seed, kVictimStream));
    const accel::Accelerator accel(accel::AcceleratorConfig{});
    trace::Trace clean;
    accel.Run(net, GaussianInput(net.input_shape(),
                                 MixSeed(ctx.seed, kCleanInputStream)),
              &clean);
    cfg_ = AlexNetAttackConfig(accel);
    noiseless_ = attack::RunStructureAttack(clean, cfg_.attack)
                     .num_structures();
    const sim::TraceNoiseModel noise(
        sim::ReferenceTraceNoise(MixSeed(ctx.seed, kNoiseStream)));
    dir_ = fs::path(ctx.out_dir) / "acquisitions";
    fs::create_directories(dir_);
    trace::Trace noisy;
    paths_.clear();
    for (int k = 0; k < pool_; ++k) {
      noise.ApplyNthTo(clean, static_cast<std::uint64_t>(k), &noisy);
      paths_.push_back((dir_ / ("acq_" + std::to_string(k) + ".sct")).string());
      store::WriteTraceFile(paths_.back(), noisy);
    }
  }
  void Teardown() override { fs::remove_all(dir_); }

  OpSample Op(const RunContext& ctx, int i) override {
    // This op's own K acquisitions: a seeded draw without replacement.
    Rng rng(MixSeed(ctx.seed, kOpStream + static_cast<std::uint64_t>(i)));
    std::vector<int> idx(static_cast<std::size_t>(pool_));
    for (int k = 0; k < pool_; ++k) idx[static_cast<std::size_t>(k)] = k;
    std::shuffle(idx.begin(), idx.end(), rng.engine());
    idx.resize(kAcquisitionsPerOp);

    Tracer* tr = ctx.tracer;
    OpSample s;
    attack::RobustStructureResult res;
    std::vector<trace::Trace> traces(idx.size());
    Timed(&s, [&] {
      ScopedSpan op(tr, "op", -1, i);
      for (std::size_t a = 0; a < idx.size(); ++a) {
        ScopedSpan sp(tr, "store.read", op.id(), i);
        traces[a] =
            store::ReadTraceFile(paths_[static_cast<std::size_t>(idx[a])]);
      }
      if (tr == nullptr) {
        res = attack::RunRobustStructureAttack(traces, cfg_);
        return;
      }
      // Traced: the two public halves of RunRobustStructureAttack, with the
      // same per-acquisition fan-out.
      std::vector<attack::AcquisitionAnalysis> analyses(traces.size());
      support::ParallelFor(
          0, static_cast<std::int64_t>(traces.size()), 1,
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t a = lo; a < hi; ++a) {
              ScopedSpan sp(tr, "attack.structure.analyze", op.id(), i);
              const auto ai = static_cast<std::size_t>(a);
              analyses[ai] = attack::AnalyzeAcquisition(traces[ai], cfg_);
            }
          });
      ScopedSpan sp(tr, "attack.structure.consensus", op.id(), i);
      res = attack::ConsensusSearch(analyses, cfg_);
    });
    for (const trace::Trace& t : traces)
      s.work += static_cast<double>(t.size());
    if (tr != nullptr) {
      candidates_.push_back(static_cast<double>(res.num_structures()));
      slack_.push_back(static_cast<double>(res.slack_used));
      for (std::size_t a = 0; a < idx.size(); ++a) {
        bytes_per_event_.push_back(
            static_cast<double>(
                fs::file_size(paths_[static_cast<std::size_t>(idx[a])])) /
            static_cast<double>(traces[a].size()));
      }
    }

    const attack::TruthRanking rank =
        attack::RankTruth(res.search, AlexNetTruth());
    const bool ok = rank.rank >= 1 && res.num_structures() == noiseless_;
    if (!ok)
      std::cerr << "structure_alexnet op " << i << ": truth rank " << rank.rank
                << ", " << res.num_structures() << " candidates vs "
                << noiseless_ << " noiseless\n";
    s.checked = 1;
    s.right = ok ? 1 : 0;
    return s;
  }

  void LayerMetrics(const SpanTotals& t,
                    std::map<std::string, double>* m) const override {
    auto& out = *m;
    out["store.read_s"] = t.EachMedian("store.read");
    out["store.bytes_per_event"] = Median(bytes_per_event_);
    out["attack.structure.analyze_s"] =
        t.EachMedian("attack.structure.analyze");
    out["attack.structure.consensus_s"] =
        t.PerOp("attack.structure.consensus");
    out["attack.structure.candidates"] = Median(candidates_);
    out["attack.structure.slack_used"] = Median(slack_);
  }


 private:
  int pool_;
  attack::RobustStructureConfig cfg_;
  std::size_t noiseless_ = 0;
  fs::path dir_;
  std::vector<std::string> paths_;
  std::vector<double> candidates_;
  std::vector<double> slack_;
  std::vector<double> bytes_per_event_;
};

// --- weights_bus_oracle -----------------------------------------------------

// Forwards to the bus oracle and records one span per query.
class TimedOracle : public attack::ZeroCountOracle {
 public:
  TimedOracle(attack::ZeroCountOracle& inner, Tracer* tr, int parent, int op)
      : inner_(inner), tr_(tr), parent_(parent), op_(op) {}
  std::size_t ChannelNonZeros(const std::vector<attack::SparsePixel>& pixels,
                              int channel) override {
    ++queries_;
    ScopedSpan sp(tr_, "accel.oracle_query", parent_, op_);
    return inner_.ChannelNonZeros(pixels, channel);
  }
  std::size_t TotalNonZeros(
      const std::vector<attack::SparsePixel>& pixels) override {
    ++queries_;
    ScopedSpan sp(tr_, "accel.oracle_query", parent_, op_);
    return inner_.TotalNonZeros(pixels);
  }
  int num_channels() const override { return inner_.num_channels(); }
  std::size_t channel_elems() const override { return inner_.channel_elems(); }
  bool SetActivationThreshold(float threshold) override {
    return inner_.SetActivationThreshold(threshold);
  }

 private:
  attack::ZeroCountOracle& inner_;
  Tracer* tr_;
  int parent_;
  int op_;
};

struct StageVictim {
  nn::Tensor weights{nn::Shape{kStageFilters, kStageDepth, kStageFilter,
                               kStageFilter}};
  nn::Tensor bias{nn::Shape{kStageFilters}};
  std::unique_ptr<nn::Network> net;
};

// The ROADMAP item-1 victim: 3x32x32 input, 8 5x5 filters, weights
// GaussianF(0.5), biases -UniformF(0.1, 0.4).
StageVictim MakeStageVictim(std::uint64_t seed) {
  StageVictim v;
  Rng rng(seed);
  for (std::size_t i = 0; i < v.weights.numel(); ++i)
    v.weights[i] = rng.GaussianF(0.5f);
  for (int k = 0; k < kStageFilters; ++k)
    v.bias.at(k) = -rng.UniformF(0.1f, 0.4f);
  models::ConvStageVictimSpec spec;
  spec.in_depth = kStageDepth;
  spec.in_width = kStageWidth;
  spec.out_depth = kStageFilters;
  spec.filter = kStageFilter;
  v.net = std::make_unique<nn::Network>(
      models::MakeConvStageVictim(spec, v.weights, v.bias));
  return v;
}

attack::SparseConvOracle::StageSpec StageGeometry() {
  attack::SparseConvOracle::StageSpec g;  // public facts only
  g.in_depth = kStageDepth;
  g.in_width = kStageWidth;
  g.filter = kStageFilter;
  g.stride = 1;
  return g;
}

attack::WeightScore ScoreFilter(const attack::RecoveredFilter& rec,
                                const StageVictim& v, int k) {
  nn::Tensor w(nn::Shape{1, kStageDepth, kStageFilter, kStageFilter});
  nn::Tensor b(nn::Shape{1});
  for (int c = 0; c < kStageDepth; ++c)
    for (int y = 0; y < kStageFilter; ++y)
      for (int x = 0; x < kStageFilter; ++x)
        w.at(0, c, y, x) = v.weights.at(k, c, y, x);
  b.at(0) = v.bias.at(k);
  return attack::ScoreRecoveredFilters({rec}, w, b);
}

class WeightsBusOracle : public Workload {
 public:
  void Setup(const RunContext& ctx) override {
    // Nothing is shared between ops but the public geometry; set-up is the
    // thread pool plus the first (warm-up) op.
    (void)ctx;
    geometry_ = StageGeometry();
    (void)support::ThreadPool::GlobalThreads();
  }
  void Teardown() override {}

  OpSample Op(const RunContext& ctx, int i) override {
    // A fresh victim and a fresh oracle per op: no op sees another op's
    // synthesis-cache entries.
    const auto k_op = static_cast<std::uint64_t>(i);
    const StageVictim v = MakeStageVictim(MixSeed(ctx.seed, kOpStream + k_op));
    const int k = i % kStageFilters;
    attack::AcceleratorOracle bus(*v.net, v.net->num_nodes() - 1,
                                  accel::AcceleratorConfig{});
    Tracer* tr = ctx.tracer;
    OpSample s;
    attack::RecoveredFilter rec;
    std::uint64_t queries = 0;
    Timed(&s, [&] {
      ScopedSpan op(tr, "op", -1, i);
      ScopedSpan sp(tr, "attack.weights.recover_filter", op.id(), i);
      if (tr == nullptr) {
        attack::WeightAttack attack(bus, geometry_,
                                    attack::WeightAttackConfig{});
        rec = attack.RecoverFilter(k);
      } else {
        TimedOracle timed(bus, tr, sp.id(), i);
        attack::WeightAttack attack(timed, geometry_,
                                    attack::WeightAttackConfig{});
        rec = attack.RecoverFilter(k);
        queries = timed.queries();
      }
    });
    const attack::WeightScore score = ScoreFilter(rec, v, k);
    s.work = static_cast<double>(score.positions_total);
    s.checked = score.positions_total;
    s.right = score.positions_correct;
    if (tr != nullptr) {
      queries_.push_back(static_cast<double>(queries));
      wrong_.push_back(
          static_cast<double>(score.positions_total - score.positions_correct));
      filters_ok_.push_back(score.filters_recovered == 1 ? 1.0 : 0.0);
      ProbeStageForward(tr, i, *v.net);
    }
    return s;
  }

  void LayerMetrics(const SpanTotals& t,
                    std::map<std::string, double>* m) const override {
    auto& out = *m;
    const double filter_s = t.PerOp("attack.weights.recover_filter");
    const double oracle_s = t.PerOp("accel.oracle_query");
    out["nn.stage_forward_s"] = t.EachMedian("nn.stage_forward");
    out["accel.oracle_query_s"] = t.EachMedian("accel.oracle_query");
    out["attack.weights.queries_per_filter"] = Median(queries_);
    out["attack.weights.self_s"] =
        t.PerOp("attack.weights.recover_filter", /*self_time=*/true);
    out["attack.weights.oracle_share"] =
        filter_s > 0.0 ? oracle_s / filter_s : 0.0;
    double wrong = 0.0;
    for (double w : wrong_) wrong += w;
    out["attack.weights.positions_wrong"] =
        wrong_.empty() ? 0.0 : wrong / static_cast<double>(wrong_.size());
    double ok = 0.0;
    for (double f : filters_ok_) ok += f;
    out["attack.weights.filters_ok_frac"] =
        filters_ok_.empty() ? 0.0
                            : ok / static_cast<double>(filters_ok_.size());
  }

  // ROADMAP item 1: SynthesisCache run-key collisions replay the wrong
  // trace, so some recovered ratios are wrong and none is flagged.
  bool WrongOutputIsKnownDefect() const override { return true; }

 private:
  // Traced ops only: the victim stage's functional forward on crafted
  // single-pixel inputs, the computation every bus query repeats.
  static void ProbeStageForward(Tracer* tr, int i, const nn::Network& net) {
    for (int r = 0; r < 8; ++r) {
      nn::Tensor x(net.input_shape());
      x.at(r % kStageDepth, 2 + r, 3 + r) = 0.5f + static_cast<float>(r);
      ScopedSpan sp(tr, "nn.stage_forward", -1, i);
      const nn::Tensor y = net.ForwardFinal(x);
      SC_CHECK(y.numel() > 0);
    }
  }

  attack::SparseConvOracle::StageSpec geometry_;
  std::vector<double> queries_;
  std::vector<double> wrong_;
  std::vector<double> filters_ok_;
};

// --- driver -----------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "synth_alexnet") return std::make_unique<SynthAlexNet>();
  if (name == "structure_alexnet") return std::make_unique<StructureAlexNet>();
  if (name == "weights_bus_oracle") return std::make_unique<WeightsBusOracle>();
  return nullptr;
}

// Every per-layer metric a traced run reports, with its unit (the
// per_layer list of BENCHMARK.json).
const std::map<std::string, std::string> kLayerUnits = {
    {"nn.forward_s", "s"},
    {"nn.conv1_s", "s"},
    {"nn.conv2_s", "s"},
    {"nn.conv3_s", "s"},
    {"nn.conv4_s", "s"},
    {"nn.conv5_s", "s"},
    {"nn.fc6_s", "s"},
    {"nn.fc7_s", "s"},
    {"nn.fc8_s", "s"},
    {"nn.conv_gmacs", "GMAC/s"},
    {"nn.stage_forward_s", "s"},
    {"accel.run_s", "s"},
    {"accel.emit_s", "s"},
    {"accel.ns_per_event", "ns"},
    {"accel.events", "count"},
    {"sim.noise_s", "s"},
    {"store.write_s", "s"},
    {"store.read_s", "s"},
    {"store.bytes_per_event", "B"},
    {"attack.structure.analyze_s", "s"},
    {"attack.structure.consensus_s", "s"},
    {"attack.structure.candidates", "count"},
    {"attack.structure.slack_used", "count"},
    {"accel.oracle_query_s", "s"},
    {"attack.weights.queries_per_filter", "count"},
    {"attack.weights.self_s", "s"},
    {"attack.weights.oracle_share", "fraction"},
    {"attack.weights.positions_wrong", "count"},
    {"attack.weights.filters_ok_frac", "fraction"},
    {"support.parallel_eff", "fraction"},
    {"trace.overhead_s", "s"},
};

const char* const kWorkloads[] = {"synth_alexnet", "structure_alexnet",
                                  "weights_bus_oracle"};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool check = false;
  std::string out_dir = ".";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--check") {
      a.check = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (k == "--out" && has_value) {
      a.out_dir = argv[++i];
    } else {
      std::cerr << "perfbench: unknown or incomplete argument '" << k << "'\n";
      return std::nullopt;
    }
  }
  if (!a.check && MakeWorkload(a.workload) == nullptr) {
    std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
    return std::nullopt;
  }
  if (!(a.seconds > 0.0)) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return std::nullopt;
  }
  return a;
}

// One traced op of workload `name` (set-up included) so that a traced run
// reports every per-layer metric, not only its own workload's.
void ProbeOtherWorkload(const std::string& name, const Args& args,
                        std::map<std::string, double>* m) {
  std::unique_ptr<Workload> w =
      name == "structure_alexnet"
          ? std::make_unique<StructureAlexNet>(kAcquisitionsPerOp)
          : MakeWorkload(name);
  RunContext ctx{args.seed, args.out_dir, nullptr};
  w->Setup(ctx);
  Tracer local;
  ctx.tracer = &local;
  (void)w->Op(ctx, 0);
  w->LayerMetrics(SpanTotals(local.spans()), m);
  w->Teardown();
}

int RunWorkload(const Args& args) {
  const int lanes = support::ThreadPool::GlobalThreads();
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  RunContext ctx{args.seed, args.out_dir, nullptr};

  HostReference ref;
  for (std::size_t r = 0; r < 2 * kRefHalfWindow; ++r) ref.Sample();

  // Set-up, repeated; each ends with one untimed warm-up op. The last
  // set-up's state serves the measured ops.
  std::vector<double> setups;
  for (int r = 0; r < kSetupReps; ++r) {
    if (r > 0) w->Teardown();
    ref.Sample();
    const double t0 = WallNow();
    w->Setup(ctx);
    (void)w->Op(ctx, kWarmupOp + r);
    setups.push_back(WallNow() - t0);
  }
  const double setup_scale = ref.Scale(0, ref.Sample() + 1);

  // Measured ops. Pass 0 runs fresh ops for 1/kPasses of the time; later
  // passes re-run the same ops (same inputs, fresh state, no memo shared
  // with the earlier run) spread over the rest of the run, and each op keeps
  // its least-disturbed time in reference seconds. A traced run makes one
  // pass and alternates traced and untraced ops so the tracing overhead is
  // measured in the same run.
  Tracer tracer;
  const int passes = args.trace ? 1 : kPasses;
  std::vector<std::vector<OpSample>> runs;  // each op's runs; none = failed
  int failed = 0;
  const double start = WallNow();
  auto run_op = [&](int i, std::vector<OpSample>* op_runs) {
    const std::size_t r = ref.Sample();
    ctx.tracer = args.trace && i % 2 == 0 ? &tracer : nullptr;
    try {
      OpSample s = w->Op(ctx, i);
      s.traced = ctx.tracer != nullptr;
      s.ref = r;
      op_runs->push_back(s);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: op " << i << " failed: " << e.what() << "\n";
      op_runs->clear();
      ++failed;
    }
  };
  for (int i = 0; WallNow() - start < args.seconds / passes; ++i) {
    runs.emplace_back();
    run_op(i, &runs.back());
  }
  for (int p = 1; p < passes; ++p)
    for (std::size_t i = 0; i < runs.size(); ++i)
      if (!runs[i].empty()) run_op(static_cast<int>(i), &runs[i]);
  ctx.tracer = nullptr;
  ref.Sample();  // closes the window of the last runs

  std::vector<std::optional<OpSample>> ops;
  for (const std::vector<OpSample>& op_runs : runs) {
    ops.emplace_back();
    for (OpSample s : op_runs) {
      const double scale = ref.ScaleAround(s.ref);
      s.wall *= scale;
      s.cpu *= scale;
      if (!ops.back()) {
        ops.back() = s;
        continue;
      }
      ops.back()->wall = std::min(ops.back()->wall, s.wall);
      ops.back()->cpu = std::min(ops.back()->cpu, s.cpu);
      ops.back()->right = std::min(ops.back()->right, s.right);
    }
  }

  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> traced_wall;
  std::vector<double> eff;
  double work = 0.0;
  double cpu_sum = 0.0;
  long long checked = 0;
  long long right = 0;
  for (const std::optional<OpSample>& o : ops) {
    if (!o) continue;
    const OpSample& s = *o;
    checked += s.checked;
    right += s.right;
    if (s.traced) {
      traced_wall.push_back(s.wall);
      continue;
    }
    wall.push_back(s.wall);
    cpu.push_back(s.cpu);
    eff.push_back(s.cpu / (s.wall * lanes));
    work += s.work;
    cpu_sum += s.cpu;
  }
  const int attempted = static_cast<int>(ops.size());

  std::map<std::string, std::pair<double, std::string>> metrics;
  if (!args.trace) {
    metrics["setup_s"] = {Median(setups) * setup_scale, "s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    metrics["work_per_norm_cpu_s"] = {cpu_sum > 0.0 ? work / cpu_sum : 0.0,
                                      "1/s"};
    metrics["op_norm_cpu_p50_s"] = {Median(cpu), "s"};
    metrics["op_norm_cpu_tail_s"] = {Tail(cpu), "s"};
    metrics["op_wall_p50_s"] = {Median(wall), "s"};
    metrics["ok_frac"] = {checked > 0 ? static_cast<double>(right) /
                                            static_cast<double>(checked)
                                      : 0.0,
                          "fraction"};
  } else {
    std::map<std::string, double> layer;
    w->LayerMetrics(SpanTotals(tracer.spans()), &layer);
    for (const char* other : kWorkloads)
      if (args.workload != other)
        ProbeOtherWorkload(other, args, &layer);
    layer["support.parallel_eff"] = Median(eff);
    layer["trace.overhead_s"] = Median(traced_wall) - Median(wall);
    for (const auto& [name, unit] : kLayerUnits) {
      const auto it = layer.find(name);
      SC_CHECK_MSG(it != layer.end(),
                   "per-layer metric " << name << " missing");
      metrics[name] = {it->second, unit};
    }
    SC_CHECK(layer.size() == kLayerUnits.size());
    WriteSpans((fs::path(args.out_dir) /
                ("spans-" + args.workload + ".json"))
                   .string(),
               args.workload, args.seed, tracer.spans());
  }
  w->Teardown();

  std::vector<double> sorted_wall = wall;
  std::sort(sorted_wall.begin(), sorted_wall.end());
  std::ostringstream detail;
  detail << "detail: {\"workload\": \"" << args.workload
         << "\", \"seed\": " << args.seed << ", \"lanes\": " << lanes
         << ", \"ops\": " << wall.size()
         << ", \"traced_ops\": " << traced_wall.size()
         << ", \"setup_s\": [";
  for (std::size_t r = 0; r < setups.size(); ++r)
    detail << (r ? ", " : "") << Num(setups[r]);
  detail << "], \"ref_pass_s\": " << Num(Median(ref.samples()))
         << ", \"ref_passes\": " << ref.samples().size()
         << ", \"op_wall_s\": {\"min\": "
         << Num(sorted_wall.empty() ? 0.0 : sorted_wall.front())
         << ", \"p25\": " << Num(Quantile(wall, 0.25))
         << ", \"p50\": " << Num(Median(wall))
         << ", \"p75\": " << Num(Quantile(wall, 0.75))
         << ", \"max\": " << Num(sorted_wall.empty() ? 0.0 : sorted_wall.back())
         << "}, \"checked\": " << checked << ", \"right\": " << right << "}";
  std::cout << detail.str() << "\n";

  std::ostringstream js;
  const bool correct =
      failed == 0 && (right == checked || w->WrongOutputIsKnownDefect());
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << Num(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

// Known defect (ROADMAP item 1), the reference repro: seeds 1-4, one bus
// oracle per victim shared by its 8 filters.
bool ReportWeightsDefect() {
  std::vector<attack::RecoveredFilter> recs;
  nn::Tensor w(nn::Shape{4 * kStageFilters, kStageDepth, kStageFilter,
                         kStageFilter});
  nn::Tensor b(nn::Shape{4 * kStageFilters});
  int flagged = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const StageVictim v = MakeStageVictim(seed);
    attack::AcceleratorOracle bus(*v.net, v.net->num_nodes() - 1,
                                  accel::AcceleratorConfig{});
    attack::WeightAttack attack(bus, StageGeometry(),
                                attack::WeightAttackConfig{});
    for (int k = 0; k < kStageFilters; ++k) {
      recs.push_back(attack.RecoverFilter(k));
      for (bool f : recs.back().failed) flagged += f ? 1 : 0;
      const int row = static_cast<int>(seed - 1) * kStageFilters + k;
      b.at(row) = v.bias.at(k);
      for (int c = 0; c < kStageDepth; ++c)
        for (int y = 0; y < kStageFilter; ++y)
          for (int x = 0; x < kStageFilter; ++x)
            w.at(row, c, y, x) = v.weights.at(k, c, y, x);
    }
  }
  const attack::WeightScore sc = attack::ScoreRecoveredFilters(recs, w, b);
  const bool reproduces = sc.filters_recovered < sc.filters_total;
  std::cout << (reproduces ? "KNOWN DEFECT"
                           : "known defect no longer reproduces")
            << " weights_bus_oracle (synthesis-cache collision, ROADMAP 1): "
            << "seeds 1-4, filters fully recovered " << sc.filters_recovered
            << "/" << sc.filters_total << ", positions "
            << sc.positions_correct << "/" << sc.positions_total
            << ", max ratio error " << sc.max_ratio_error << ", flagged "
            << flagged << "\n";
  return reproduces;
}

// Known defect: under reference noise the schedule-aware robust attack on
// SqueezeNet (identical fire modules assumed) ends its slack ladder with
// no candidate, although noiseless copies of the same run give some.
bool ReportSqueezeNetDefect(std::uint64_t seed) {
  const nn::Network net = models::MakeSqueezeNet();
  const accel::Accelerator accel(accel::AcceleratorConfig{});
  trace::Trace clean;
  accel.Run(net,
            GaussianInput(net.input_shape(), MixSeed(seed, kCleanInputStream)),
            &clean);
  attack::RobustStructureConfig cfg;
  cfg.attack.analysis.known_input_elems = 3LL * 224 * 224;
  cfg.attack.search.known_input_width = 224;
  cfg.attack.search.known_input_depth = 3;
  cfg.attack.search.known_output_classes = 1000;
  cfg.attack.search.macs_per_cycle = accel.config().macs_per_cycle;
  cfg.attack.search.bytes_per_cycle = accel.config().bytes_per_cycle;
  cfg.attack.search.schedule = accel.schedule_model();
  cfg.attack.assume_identical_modules = true;
  const sim::TraceNoiseModel noise(
      sim::ReferenceTraceNoise(MixSeed(seed, kNoiseStream)));
  std::vector<trace::Trace> noisy;
  std::vector<trace::Trace> copies;
  for (std::uint64_t k = 0; k < kAcquisitionsPerOp; ++k) {
    noisy.push_back(noise.ApplyNth(clean, k));
    copies.push_back(clean);
  }
  const attack::RobustStructureResult with_noise =
      attack::RunRobustStructureAttack(noisy, cfg);
  const attack::RobustStructureResult without =
      attack::RunRobustStructureAttack(copies, cfg);
  const bool reproduces =
      with_noise.num_structures() == 0 && without.num_structures() > 0;
  std::cout << (reproduces ? "KNOWN DEFECT"
                           : "known defect no longer reproduces")
            << " squeezenet_robust_structure: K=" << kAcquisitionsPerOp
            << " reference-noise acquisitions give "
            << with_noise.num_structures() << " candidates (last slack "
            << with_noise.slack_used << "); noiseless copies give "
            << without.num_structures() << "\n";
  return reproduces;
}

// One op of every workload with all output checks, then the known-defect
// repros. Exit status reflects only checks that are not recorded defects.
int RunCheck(const Args& args) {
  bool ok = true;
  for (const char* name : kWorkloads) {
    std::unique_ptr<Workload> w = MakeWorkload(name);
    const RunContext ctx{args.seed, args.out_dir, nullptr};
    w->Setup(ctx);
    const OpSample s = w->Op(ctx, 0);
    w->Teardown();
    const bool right = s.right == s.checked;
    if (!right && !w->WrongOutputIsKnownDefect()) ok = false;
    std::cout << "check " << name << ": " << s.right << "/" << s.checked
              << " outputs right"
              << (right ? "" : w->WrongOutputIsKnownDefect()
                                   ? " (known defect)"
                                   : " FAILED")
              << "\n";
  }
  ReportWeightsDefect();
  ReportSqueezeNetDefect(args.seed);
  std::cout << (ok ? "checks passed" : "checks FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) return 2;
  try {
    fs::create_directories(args->out_dir);
    return args->check ? RunCheck(*args) : RunWorkload(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
