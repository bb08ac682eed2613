#include "src/runtime/telemetry.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace unilocal {
namespace telemetry {

namespace {

/// Unique id per registry/recorder instance: the per-thread caches below
/// are keyed on it, so a cache entry can never alias a later object that
/// happens to reuse the same address.
std::uint64_t next_epoch() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// Clock

namespace {

class SteadyClock final : public Clock {
 public:
  std::int64_t now_micros() override {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

}  // namespace

Clock& steady_clock() {
  static SteadyClock clock;
  return clock;
}

// ---------------------------------------------------------------------------
// Metrics registry

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

int histogram_bucket(std::int64_t value) {
  if (value <= 0) return 0;
  const int width = std::bit_width(static_cast<std::uint64_t>(value));
  return std::min(width, kHistogramBuckets - 1);
}

bool MetricSnapshot::operator==(const MetricSnapshot& other) const {
  return name == other.name && kind == other.kind && value == other.value &&
         count == other.count && sum == other.sum && min == other.min &&
         max == other.max && buckets == other.buckets;
}

/// One thread's private slice of every metric. Counters and gauges live in
/// `scalar` (sum / running max); histograms allocate a Hist lazily on first
/// observation. Only the owning thread writes; snapshot() reads after the
/// writers are quiescent.
struct MetricsRegistry::Cell {
  struct Hist {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::array<std::int64_t, kHistogramBuckets> buckets{};
  };
  std::vector<std::int64_t> scalar;
  std::vector<std::unique_ptr<Hist>> hist;

  void ensure(std::size_t size) {
    if (scalar.size() < size) {
      scalar.resize(size, 0);
      hist.resize(size);
    }
  }
};

struct MetricsRegistry::State {
  mutable std::mutex mutex;
  std::vector<std::pair<std::string, MetricKind>> descriptors;
  std::unordered_map<std::string, int> index;
  std::vector<std::unique_ptr<Cell>> cells;
  std::uint64_t epoch = next_epoch();
};

namespace {
thread_local std::vector<std::pair<std::uint64_t, MetricsRegistry::Cell*>>
    t_metric_cells;
}  // namespace

MetricsRegistry::MetricsRegistry() : state_(std::make_unique<State>()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Cell& MetricsRegistry::local_cell() {
  for (const auto& [epoch, cell] : t_metric_cells) {
    if (epoch == state_->epoch) return *cell;
  }
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->cells.push_back(std::make_unique<Cell>());
  Cell* cell = state_->cells.back().get();
  t_metric_cells.emplace_back(state_->epoch, cell);
  return *cell;
}

int MetricsRegistry::intern(const std::string& name, MetricKind kind) {
  std::lock_guard<std::mutex> lock(state_->mutex);
  auto it = state_->index.find(name);
  if (it != state_->index.end()) {
    if (state_->descriptors[it->second].second != kind) {
      throw std::runtime_error("metric '" + name + "' already registered as " +
                               metric_kind_name(
                                   state_->descriptors[it->second].second));
    }
    return it->second;
  }
  const int id = static_cast<int>(state_->descriptors.size());
  state_->descriptors.emplace_back(name, kind);
  state_->index.emplace(name, id);
  return id;
}

int MetricsRegistry::counter(const std::string& name) {
  return intern(name, MetricKind::kCounter);
}
int MetricsRegistry::gauge(const std::string& name) {
  return intern(name, MetricKind::kGauge);
}
int MetricsRegistry::histogram(const std::string& name) {
  return intern(name, MetricKind::kHistogram);
}

void MetricsRegistry::add(int id, std::int64_t delta) {
  Cell& cell = local_cell();
  cell.ensure(static_cast<std::size_t>(id) + 1);
  cell.scalar[id] += delta;
}

void MetricsRegistry::record_max(int id, std::int64_t value) {
  Cell& cell = local_cell();
  cell.ensure(static_cast<std::size_t>(id) + 1);
  cell.scalar[id] = std::max(cell.scalar[id], value);
}

void MetricsRegistry::observe(int id, std::int64_t value) {
  Cell& cell = local_cell();
  cell.ensure(static_cast<std::size_t>(id) + 1);
  if (!cell.hist[id]) cell.hist[id] = std::make_unique<Cell::Hist>();
  Cell::Hist& h = *cell.hist[id];
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[histogram_bucket(value)];
}

void MetricsRegistry::add(const std::string& name, std::int64_t delta) {
  add(counter(name), delta);
}
void MetricsRegistry::record_max(const std::string& name, std::int64_t value) {
  record_max(gauge(name), value);
}
void MetricsRegistry::observe(const std::string& name, std::int64_t value) {
  observe(histogram(name), value);
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  std::vector<MetricSnapshot> merged(state_->descriptors.size());
  for (std::size_t id = 0; id < state_->descriptors.size(); ++id) {
    merged[id].name = state_->descriptors[id].first;
    merged[id].kind = state_->descriptors[id].second;
  }
  for (const auto& cell : state_->cells) {
    for (std::size_t id = 0; id < cell->scalar.size(); ++id) {
      MetricSnapshot& out = merged[id];
      switch (out.kind) {
        case MetricKind::kCounter:
          out.value += cell->scalar[id];
          break;
        case MetricKind::kGauge:
          out.value = std::max(out.value, cell->scalar[id]);
          break;
        case MetricKind::kHistogram: {
          const Cell::Hist* h = cell->hist[id].get();
          if (!h || h->count == 0) break;
          if (out.count == 0) {
            out.min = h->min;
            out.max = h->max;
          } else {
            out.min = std::min(out.min, h->min);
            out.max = std::max(out.max, h->max);
          }
          out.count += h->count;
          out.sum += h->sum;
          for (int b = 0; b < kHistogramBuckets; ++b) {
            out.buckets[b] += h->buckets[b];
          }
          break;
        }
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return merged;
}

json::Value MetricsRegistry::to_json() const {
  json::Value doc = json::Value::object();
  json::Value rows = json::Value::array();
  for (const MetricSnapshot& m : snapshot()) {
    json::Value row = json::Value::object();
    row.set("name", json::Value::string(m.name));
    row.set("kind", json::Value::string(metric_kind_name(m.kind)));
    if (m.kind == MetricKind::kHistogram) {
      row.set("count", json::Value::number(m.count));
      row.set("sum", json::Value::number(m.sum));
      row.set("min", json::Value::number(m.min));
      row.set("max", json::Value::number(m.max));
      json::Value buckets = json::Value::object();
      for (int b = 0; b < kHistogramBuckets; ++b) {
        if (m.buckets[b] != 0) {
          buckets.set(std::to_string(b), json::Value::number(m.buckets[b]));
        }
      }
      row.set("buckets", std::move(buckets));
    } else {
      row.set("value", json::Value::number(m.value));
    }
    rows.push_back(std::move(row));
  }
  doc.set("metrics", std::move(rows));
  return doc;
}

void MetricsRegistry::merge(const json::Value& doc) {
  for (const json::Value& row : doc.at("metrics").as_array()) {
    const std::string& name = row.at("name").as_string();
    const std::string& kind = row.at("kind").as_string();
    if (kind == "counter") {
      add(counter(name), row.at("value").as_i64());
    } else if (kind == "gauge") {
      record_max(gauge(name), row.at("value").as_i64());
    } else if (kind == "histogram") {
      const int id = histogram(name);
      const std::int64_t count = row.at("count").as_i64();
      if (count == 0) continue;
      Cell& cell = local_cell();
      cell.ensure(static_cast<std::size_t>(id) + 1);
      if (!cell.hist[id]) cell.hist[id] = std::make_unique<Cell::Hist>();
      Cell::Hist& h = *cell.hist[id];
      const std::int64_t min = row.at("min").as_i64();
      const std::int64_t max = row.at("max").as_i64();
      h.min = h.count == 0 ? min : std::min(h.min, min);
      h.max = h.count == 0 ? max : std::max(h.max, max);
      h.count += count;
      h.sum += row.at("sum").as_i64();
      for (const auto& [key, value] : row.at("buckets").as_object()) {
        int bucket = -1;
        const char* end = key.data() + key.size();
        const auto [stop, error] = std::from_chars(key.data(), end, bucket);
        if (error != std::errc() || stop != end || bucket < 0 ||
            bucket >= kHistogramBuckets)
          throw std::runtime_error("metric '" + name +
                                   "': bad histogram bucket '" + key + "'");
        h.buckets[static_cast<std::size_t>(bucket)] += value.as_i64();
      }
    } else {
      throw std::runtime_error("metric '" + name + "': unknown kind '" +
                               kind + "'");
    }
  }
}

namespace {
std::atomic<MetricsRegistry*> g_metrics{nullptr};
}  // namespace

MetricsRegistry* metrics() noexcept {
  return g_metrics.load(std::memory_order_acquire);
}

void install_metrics(MetricsRegistry* registry) noexcept {
  g_metrics.store(registry, std::memory_order_release);
}

ScopedMetrics::ScopedMetrics(MetricsRegistry* registry)
    : previous_(metrics()) {
  install_metrics(registry);
}

ScopedMetrics::~ScopedMetrics() { install_metrics(previous_); }

// ---------------------------------------------------------------------------
// Trace recorder

void TraceEvent::arg(const std::string& key, const std::string& value) {
  if (!args.is_object()) args = json::Value::object();
  args.set(key, json::Value::string(value));
}
void TraceEvent::arg(const std::string& key, std::int64_t value) {
  if (!args.is_object()) args = json::Value::object();
  args.set(key, json::Value::number(value));
}
void TraceEvent::arg(const std::string& key, std::uint64_t value) {
  if (!args.is_object()) args = json::Value::object();
  // 64-bit hashes/seeds use the repo's string spelling (see json.h).
  args.set(key, json::Value::string(std::to_string(value)));
}
void TraceEvent::arg(const std::string& key, double value) {
  if (!args.is_object()) args = json::Value::object();
  args.set(key, json::Value::number(value));
}
void TraceEvent::arg(const std::string& key, bool value) {
  if (!args.is_object()) args = json::Value::object();
  args.set(key, json::Value::boolean(value));
}

struct TraceRecorder::State {
  mutable std::mutex mutex;
  Clock* clock = nullptr;
  std::vector<TraceEvent> events;
  std::vector<std::pair<int, std::string>> process_names;
  std::atomic<int> next_lane{1};
  std::uint64_t epoch = next_epoch();
};

namespace {
thread_local std::vector<std::pair<std::uint64_t, int>> t_trace_lanes;
}  // namespace

TraceRecorder::TraceRecorder(Clock* clock) : state_(std::make_unique<State>()) {
  state_->clock = clock != nullptr ? clock : &steady_clock();
}

TraceRecorder::~TraceRecorder() = default;

std::int64_t TraceRecorder::now() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->clock->now_micros();
}

void TraceRecorder::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->events.push_back(std::move(event));
}

void TraceRecorder::set_process_name(int pid, const std::string& name) {
  std::lock_guard<std::mutex> lock(state_->mutex);
  for (auto& [existing_pid, existing_name] : state_->process_names) {
    if (existing_pid == pid) {
      existing_name = name;
      return;
    }
  }
  state_->process_names.emplace_back(pid, name);
}

int TraceRecorder::lane() {
  for (const auto& [epoch, lane] : t_trace_lanes) {
    if (epoch == state_->epoch) return lane;
  }
  const int lane = state_->next_lane.fetch_add(1, std::memory_order_relaxed);
  t_trace_lanes.emplace_back(state_->epoch, lane);
  return lane;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->events.size();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->events;
}

json::Value TraceRecorder::event_to_json(const TraceEvent& event) {
  json::Value out = json::Value::object();
  out.set("name", json::Value::string(event.name));
  out.set("ph", json::Value::string(std::string(1, event.phase)));
  out.set("ts", json::Value::number(event.ts));
  if (event.phase == 'X') out.set("dur", json::Value::number(event.dur));
  out.set("pid", json::Value::number(static_cast<std::int64_t>(event.pid)));
  out.set("tid", json::Value::number(static_cast<std::int64_t>(event.tid)));
  if (event.args.is_object()) out.set("args", event.args);
  return out;
}

TraceEvent TraceRecorder::parse_event(const json::Value& value) {
  TraceEvent event;
  event.name = value.at("name").as_string();
  const std::string& phase = value.at("ph").as_string();
  if (phase != "X" && phase != "i" && phase != "M") {
    // The recorder only ever emits these three; anything else means the
    // document was not written by write_file.
    throw std::runtime_error("trace event 'ph' must be X, i, or M, got \"" +
                             phase + "\"");
  }
  event.phase = phase[0];
  event.ts = value.at("ts").as_i64();
  if (const json::Value* dur = value.find("dur")) event.dur = dur->as_i64();
  event.pid = json::int_field<int>(value, "pid");
  event.tid = json::int_field<int>(value, "tid");
  if (const json::Value* args = value.find("args")) event.args = *args;
  return event;
}

json::Value TraceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  json::Value doc = json::Value::object();
  json::Value events = json::Value::array();
  for (const auto& [pid, name] : state_->process_names) {
    TraceEvent meta;
    meta.name = "process_name";
    meta.phase = 'M';
    meta.ts = 0;
    meta.pid = pid;
    meta.tid = 0;
    meta.arg("name", name);
    events.push_back(event_to_json(meta));
  }
  for (const TraceEvent& event : state_->events) {
    events.push_back(event_to_json(event));
  }
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", json::Value::string("ms"));
  return doc;
}

void TraceRecorder::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  out << to_json().dump() << "\n";
  if (!out) throw std::runtime_error("failed writing trace file: " + path);
}

void TraceRecorder::merge_process(const json::Value& document, int pid,
                                  const std::string& process_name) {
  const json::Value& events = document.at("traceEvents");
  std::vector<TraceEvent> parsed;
  parsed.reserve(events.as_array().size());
  for (const json::Value& value : events.as_array()) {
    TraceEvent event = parse_event(value);
    if (event.phase == 'M') continue;  // lane names come from process_name
    event.pid = pid;
    parsed.push_back(std::move(event));
  }
  set_process_name(pid, process_name);
  std::lock_guard<std::mutex> lock(state_->mutex);
  for (TraceEvent& event : parsed) {
    state_->events.push_back(std::move(event));
  }
}

std::string round_phases_problem(const TraceEvent& event) {
  const json::Value* phases =
      event.args.is_object() ? event.args.find("phases") : nullptr;
  if (phases == nullptr || !phases->is_array())
    return "no 'phases' array of bucket sizes";
  const json::Value* steps = event.args.find("steps");
  if (steps == nullptr || !steps->is_number()) return "no numeric 'steps' arg";
  std::int64_t sum = 0;
  for (const json::Value& size : phases->as_array()) {
    if (!size.is_number()) return "a non-numeric 'phases' entry";
    sum += size.as_i64();
  }
  if (sum != steps->as_i64())
    return "'phases' sum to " + std::to_string(sum) + " but 'steps' is " +
           std::to_string(steps->as_i64());
  return "";
}

// ---------------------------------------------------------------------------
// Ambient engine binding

namespace {
thread_local const TraceBinding* t_binding = nullptr;
}  // namespace

const TraceBinding* trace_binding() noexcept { return t_binding; }

ScopedTraceBinding::ScopedTraceBinding(const TraceBinding& binding)
    : binding_(binding), previous_(t_binding) {
  t_binding = &binding_;
}

ScopedTraceBinding::~ScopedTraceBinding() { t_binding = previous_; }

}  // namespace telemetry
}  // namespace unilocal
