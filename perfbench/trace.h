// In-memory span recorder and call meters for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the library's public functions; nothing inside the library is
// timed. A span has a name, a start, an end and the span that was open
// when it began (its parent), so a layer's self time is its duration
// minus the time its child spans cover. Spans stay in memory and are
// aggregated by name when the run ends.
//
// The simulator's per-hop callbacks (Stepper, HopCost) are far too hot
// for one span each; CallMeter wraps them instead and accumulates a call
// count and the time spent inside the wrapped callable.
#ifndef CANON_PERFBENCH_TRACE_H
#define CANON_PERFBENCH_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "overlay/metrics.h"
#include "overlay/stepper.h"

namespace canon::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Records nested spans on the calling thread. Disabled tracers record
/// nothing, so workloads can wrap their calls unconditionally.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; the innermost open span becomes its parent.
  int begin(std::string name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                      Clock::now(), Clock::now()});
    open_.push_back(id);
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    open_.pop_back();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Summed self time of every span named `name`: each span's duration
  /// minus the durations of its direct children.
  double self_s(const std::string& name) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
    double sum = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) sum += spans_[i].seconds() - child_s[i];
    }
    return sum;
  }

  /// Durations of every span named `name`, in the order they began.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.seconds());
    }
    return out;
  }

  /// Summed duration of every span named `name` (0 when none).
  double total_s(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.seconds();
    }
    return sum;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
    double seconds() const {
      return std::chrono::duration<double>(end - start).count();
    }
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Call count and inclusive time of one wrapped callable. Single-threaded:
/// the message simulator invokes its callbacks from one thread.
struct CallMeter {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

/// `inner` wrapped to count and time every call into `meter`.
inline Stepper metered(Stepper inner, CallMeter* meter) {
  return [inner = std::move(inner), meter](NodeIndex at, NodeId key,
                                           std::uint64_t& state,
                                           std::span<NodeIndex> out) {
    const auto start = Clock::now();
    const StepResult r = inner(at, key, state, out);
    meter->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - start)
                     .count();
    ++meter->calls;
    return r;
  };
}

inline HopCost metered(HopCost inner, CallMeter* meter) {
  return [inner = std::move(inner), meter](std::uint32_t a, std::uint32_t b) {
    const auto start = Clock::now();
    const double ms = inner(a, b);
    meter->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - start)
                     .count();
    ++meter->calls;
    return ms;
  };
}

}  // namespace canon::perfbench

#endif  // CANON_PERFBENCH_TRACE_H
