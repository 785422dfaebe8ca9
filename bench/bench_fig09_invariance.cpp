// Fig. 9 + §6.1: invariance-scale variation — instantaneous BLEs from
// captured frames of saturated traffic, showing the 10 ms periodicity of
// the tone-map slots over the AC half cycle.
//
// The links are captured back to back in simulated time, each on its own
// testbed (bench::sweep). Capture and printing are separate stages so
// parallel tasks never interleave output.
#include "bench_util.hpp"

using namespace efd;

namespace {

struct CaptureResult {
  struct Frame {
    double t_ms;  // relative to the first frame in the 80 ms window
    int slot;
    double ble_mbps;
  };
  std::vector<Frame> frames;
  double slot_mean[6] = {};
  bool empty = true;
};

constexpr sim::Time kCaptureDuration = sim::seconds(2);

CaptureResult capture_link(testbed::Testbed& tb, int a, int b) {
  auto& medium = tb.plc_network_of(a).medium();
  core::SofCapture capture(medium);
  capture.filter(a, b);
  bench::warm_link(tb, a, b);
  (void)testbed::measure_plc_throughput(tb, a, b, kCaptureDuration);

  CaptureResult out;
  const auto& records = capture.records();
  if (records.empty()) return out;
  out.empty = false;

  // Last ~80 ms of frames, as in the paper's plot.
  const sim::Time cutoff = records.back().start - sim::milliseconds(80);
  double t0 = -1.0;
  sim::RunningStats per_slot[6];
  for (const auto& r : records) {
    if (r.start < cutoff) continue;
    if (t0 < 0.0) t0 = r.start.ms();
    out.frames.push_back({r.start.ms() - t0, r.slot, r.ble_mbps});
  }
  for (const auto& r : records) {
    per_slot[static_cast<std::size_t>(r.slot)].add(r.ble_mbps);
  }
  for (int s = 0; s < 6; ++s) {
    out.slot_mean[s] = per_slot[static_cast<std::size_t>(s)].mean();
  }
  return out;
}

double print_capture(const CaptureResult& c, const char* label) {
  bench::section(std::string(label) + ": BLEs of captured frames (last 80 ms)");
  std::printf("%10s %6s %12s\n", "t (ms)", "slot", "BLEs (Mb/s)");
  if (c.empty) return 0.0;
  for (const auto& f : c.frames) {
    std::printf("%10.2f %6d %12.1f\n", f.t_ms, f.slot, f.ble_mbps);
  }
  std::printf("per-slot mean BLEs over the whole run:\n  slot:");
  for (int s = 0; s < 6; ++s) std::printf(" %8d", s);
  std::printf("\n  BLEs:");
  double lo = 1e9, hi = 0.0;
  for (int s = 0; s < 6; ++s) {
    lo = std::min(lo, c.slot_mean[s]);
    hi = std::max(hi, c.slot_mean[s]);
    std::printf(" %8.1f", c.slot_mean[s]);
  }
  std::printf("\n  slot swing: %.1f Mb/s (paper: significant even on good links)\n",
              hi - lo);
  return hi - lo;
}

}  // namespace

int main() {
  bench::header("Fig. 9", "invariance-scale variation of BLEs (tone-map slots)",
                "BLEs changes periodically with period 10 ms (half mains cycle); "
                "each frame uses the tone map of the slot it lands in; visible "
                "slot-to-slot differences on both good and average links");
  bench::JsonReporter json("fig09");

  testbed::Testbed::Config cfg;
  cfg.with_hpav500 = false;

  struct Link {
    int a, b;
    const char* label;
  };
  const Link links[] = {{5, 6, "average link (paper: link 6-1)"},
                        {11, 10, "good link (paper: link 0-2)"}};

  const std::vector<sim::Time> spans(
      std::size(links), testbed::measurement_span(kCaptureDuration));
  const auto captures = bench::sweep<CaptureResult>(
      "link", cfg, spans, [&links](testbed::Testbed& tb, std::size_t i) {
        return capture_link(tb, links[i].a, links[i].b);
      });

  for (std::size_t i = 0; i < std::size(links); ++i) {
    const double swing = print_capture(captures[i], links[i].label);
    json.add(std::string("slot_swing_") + std::to_string(links[i].a) + "_" +
                 std::to_string(links[i].b),
             swing, "Mb/s");
  }
  return 0;
}
