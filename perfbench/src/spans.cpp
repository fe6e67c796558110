#include "spans.h"

#include <algorithm>
#include <fstream>
#include <map>

namespace perfbench {

Tracer::Tracer(bool enabled, std::size_t capacity)
    : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(capacity);
}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int32_t Tracer::Begin(const char* name, std::int32_t parent,
                           std::int64_t group) {
  if (!enabled_) return -1;
  const std::int64_t now = NowNs();
  return Add(name, now, now, parent, group);
}

void Tracer::End(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

std::int32_t Tracer::Add(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int32_t parent,
                         std::int64_t group) {
  if (!enabled_) return -1;
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, group});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<SelfTimeRow> Tracer::SelfTimes() const {
  // Children of one parent never overlap (the benchmark records them from one
  // thread, in sequence), so the covered part is the sum of their
  // durations clipped to the parent's interval.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += hi - lo;
  }
  std::map<std::string, SelfTimeRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SelfTimeRow& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    row.total_ms += dur * 1e-6;
    row.self_ms +=
        std::max(0.0, dur - static_cast<double>(covered[i])) * 1e-6;
  }
  std::vector<SelfTimeRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << static_cast<double>(s.start_ns) * 1e-3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"group\": " << s.group << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": "
      << dropped_ << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
