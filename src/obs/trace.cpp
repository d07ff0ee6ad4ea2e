#include "obs/trace.hpp"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "common/format.hpp"
#include "common/json.hpp"

namespace treesat::obs {
namespace {

// Innermost live Span on this thread; Span's ctor/dtor keep it a stack.
thread_local std::uint64_t tls_current_span = 0;

std::atomic<TraceRecorder*> g_trace{nullptr};

/// A span's attributes as members of the open object: strings quoted,
/// numbers spliced as the attr() overloads formatted them.
void write_attrs(JsonLineWriter& w, const std::vector<SpanAttr>& attrs) {
  for (const SpanAttr& a : attrs) {
    if (a.quoted) {
      w.field_str(a.key, a.value);
    } else {
      w.field_raw(a.key, a.value);
    }
  }
}

}  // namespace

std::uint64_t TraceRecorder::current() { return tls_current_span; }

std::uint32_t TraceRecorder::thread_index_locked() {
  const std::uint64_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (std::size_t i = 0; i < thread_hashes_.size(); ++i) {
    if (thread_hashes_[i] == h) return static_cast<std::uint32_t>(i);
  }
  thread_hashes_.push_back(h);
  return static_cast<std::uint32_t>(thread_hashes_.size() - 1);
}

std::uint64_t TraceRecorder::begin(std::string_view name, std::uint64_t parent) {
  if (!enabled()) return 0;
  // Read the clock outside the lock (and only when timing is on: a
  // structure-only recorder never touches the clock at all).
  double start = 0.0;
  const bool timed = timing();
  if (timed) {
    start = std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  SpanRecord rec;
  rec.id = static_cast<std::uint64_t>(spans_.size()) + 1;
  rec.parent = parent;
  rec.name.assign(name.data(), name.size());
  rec.start_seconds = start;
  rec.tid = thread_index_locked();
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void TraceRecorder::end(std::uint64_t id) {
  if (id == 0) return;
  double now = 0.0;
  const bool timed = timing();
  if (timed) {
    now = std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (id > spans_.size()) return;
  SpanRecord& rec = spans_[id - 1];
  if (timed) rec.duration_seconds = now - rec.start_seconds;
}

void TraceRecorder::attr(std::uint64_t id, std::string_view key, std::string_view value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (id > spans_.size()) return;
  spans_[id - 1].attrs.push_back(
      SpanAttr{std::string(key), std::string(value), /*quoted=*/true});
}

void TraceRecorder::attr(std::uint64_t id, std::string_view key, std::uint64_t value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (id > spans_.size()) return;
  spans_[id - 1].attrs.push_back(
      SpanAttr{std::string(key), std::to_string(value), /*quoted=*/false});
}

void TraceRecorder::attr(std::uint64_t id, std::string_view key, double value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (id > spans_.size()) return;
  spans_[id - 1].attrs.push_back(
      SpanAttr{std::string(key), shortest_round_trip(value), /*quoted=*/false});
}

std::size_t TraceRecorder::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t TraceRecorder::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<SpanRecord> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  thread_hashes_.clear();
  dropped_ = 0;
}

std::string TraceRecorder::structure_json() const {
  const std::vector<SpanRecord> spans = snapshot();
  const std::size_t n = spans.size();

  // Child lists in recording order. Ids are 1-based and a child's id is
  // always greater than its parent's (begin() assigns monotonically), so a
  // single descending-id pass can build every span's canonical form after
  // all of its children's.
  std::vector<std::vector<std::size_t>> children(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t p = spans[i].parent;
    // A parent id from a different (cleared) recorder generation degrades
    // to a root rather than indexing out of bounds.
    children[p <= n ? p : 0].push_back(i);
  }

  // canon[i]: the span's serialization with children sorted by their own
  // canonical form. Sorting children is what erases the thread
  // interleaving: per-colour spans finish in scheduler order, but their
  // canonical forms depend only on attributes (colour index first), so the
  // sorted order is the same at every thread count.
  std::vector<std::string> canon(n);
  for (std::size_t i = n; i-- > 0;) {
    std::vector<std::size_t> kids = children[spans[i].id];
    std::sort(kids.begin(), kids.end(),
              [&](std::size_t a, std::size_t b) { return canon[a] < canon[b]; });
    JsonLineWriter w;
    w.field_str("name", spans[i].name).begin_object("attrs");
    write_attrs(w, spans[i].attrs);
    w.end_object().begin_array("children");
    for (const std::size_t k : kids) w.item_raw(canon[k]);
    w.end_array();
    canon[i] = w.finish();
  }

  // Roots keep recording order: a serial request stream records its root
  // spans in request order, which is itself deterministic.
  JsonLineWriter w;
  w.begin_array("spans");
  for (const std::size_t root : children[0]) w.item_raw(canon[root]);
  w.end_array();
  std::string out = w.finish();
  out += '\n';
  return out;
}

std::string TraceRecorder::chrome_trace_json() const {
  JsonLineWriter w;
  w.begin_array("traceEvents");
  for (const SpanRecord& s : snapshot()) {
    w.begin_object()
        .field_str("name", s.name)
        .field_str("ph", "X")
        .field_num("ts", s.start_seconds * 1e6)
        .field_num("dur", s.duration_seconds * 1e6)
        .field_uint("pid", 0)
        .field_uint("tid", s.tid)
        .begin_object("args");
    write_attrs(w, s.attrs);
    w.field_uint("span_id", s.id).field_uint("parent_id", s.parent).end_object().end_object();
  }
  w.end_array();
  std::string out = w.finish();
  out += '\n';
  return out;
}

Span::Span(TraceRecorder* rec, std::string_view name)
    : Span(rec, name, TraceRecorder::current()) {}

Span::Span(TraceRecorder* rec, std::string_view name, std::uint64_t parent) {
  if (rec == nullptr || !rec->enabled()) return;
  id_ = rec->begin(name, parent);
  if (id_ == 0) return;  // span cap: stay inactive
  rec_ = rec;
  saved_ = tls_current_span;
  tls_current_span = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  tls_current_span = saved_;
  rec_->end(id_);
}

TraceRecorder* trace() { return g_trace.load(std::memory_order_acquire); }

void install_trace(TraceRecorder* recorder) {
  g_trace.store(recorder, std::memory_order_release);
}

}  // namespace treesat::obs
