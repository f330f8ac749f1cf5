#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.hpp"
#include "common/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void SpanLog::add(SpanRecord span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(double(s.dur_ns) / 1e6);
  }
  return out;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanLog::write_chrome_trace(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::lock_guard<std::mutex> lock(mu_);
  fpga_stencil::JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const SpanRecord& s : spans_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(s.name.substr(0, s.name.find('.')));
    w.key("ph").value("X");
    w.key("ts").value(double(s.start_ns) / 1e3);
    w.key("dur").value(double(s.dur_ns) / 1e3);
    w.key("pid").value(1);
    w.key("tid").value(s.lane);
    w.key("args").begin_object();
    w.key("job").value(s.job);
    w.key("parent").value(s.parent);
    w.key("work").value(s.work);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("otherData").begin_object();
  for (const auto& [k, v] : metadata) w.key(k).value(v);
  w.end_object();
  w.end_object();
  os << "\n";
}

}  // namespace perfbench
