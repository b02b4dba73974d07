// recbench: the reconciliation benchmark -- one command that measures the
// serving stack end to end and, in a separate traced run, layer by layer.
//
//   recbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--git-sha <sha>]
//
// Workloads (all riblt, adaptive negotiation off, closed loop from one
// process; every item set and planted diff is generated from --seed before
// any timer starts):
//
//   peers-uring  small sessions over loopback TCP through net::AnyServer
//                (io_uring when the kernel has it), 2 client connections,
//                each running its next session only after the last one
//                finished. 32-byte items, n = 20k served items; per session
//                the client misses a log-uniform d in [1, 1000] of them and
//                holds round(d/10) of its own.
//   peers-epoll  the identical traffic on the forced epoll server.
//   bulk-mem     large sessions in memory: n = 200k 8-byte items, 18k
//                missing + 2k extra per session (d = 20k), 2 shards, one
//                session in flight.
//   churn-mem    the peers session mix in memory on a 1-shard engine while
//                two writer threads add and (lagged) remove items at full
//                speed beside the one session loop.
//
// Every session's recovered diff is checked against its planted diff on
// both sides (remote and local); a wrong diff makes the run exit 1.
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer split (see recbench/LAYERS.md). The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/symbol.hpp"
#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "net/uring.hpp"
#include "net/uring_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sync/sharded.hpp"

#ifndef RECBENCH_BUILD_TYPE
#define RECBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ribltx;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double since_epoch_us(Clock::time_point t) { return us_between(kEpoch, t); }

/// Sorted-sample quantile, rank round(q * (n - 1)) (the repo's benches use
/// the same convention). 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "recbench: %s\nusage: recbench --workload "
               "peers-uring|peers-epoll|bulk-mem|churn-mem --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0) || o.seconds > 120) usage("--seconds out of range");
  return o;
}

// --------------------------------------------------------------- spans

/// The benchmark's own spans (name, start, end, parent, session), kept in
/// memory during the traced window and written out at the end as
/// chrome://tracing JSON. Bounded: spans past the cap are counted, not kept.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t session;
  };

  explicit SpanLog(std::size_t cap) : cap_(cap) {}

  std::uint64_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t parent, std::uint64_t session,
           std::uint64_t id = 0) {
    if (id == 0) id = new_id();
    const std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() >= cap_) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, since_epoch_us(start), since_epoch_us(end),
                          id, parent, session});
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  [[nodiscard]] std::uint64_t dropped() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return dropped_;
  }

  bool write_chrome_json(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    const std::lock_guard<std::mutex> lk(mu_);
    f << "{\"traceEvents\":[";
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"session\":%llu}}",
                    i == 0 ? "" : ",\n", s.name,
                    static_cast<unsigned long long>(s.session), s.start_us,
                    s.end_us - s.start_us,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.session));
      f << buf;
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  std::size_t cap_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// --------------------------------------------------------------- inputs

struct WorkloadSpec {
  std::string name;
  bool over_tcp = false;
  bool allow_uring = false;
  bool churn = false;
  bool bulk = false;
  std::size_t n = 0;          ///< served items
  std::size_t shards = 0;
  std::size_t clients = 1;    ///< closed-loop client threads (connections)
  std::size_t pool = 0;       ///< distinct planted sessions generated
  std::size_t d_max = 0;      ///< peers mix: missing d in [1, d_max]
  std::size_t bulk_missing = 0;
  std::size_t bulk_extras = 0;
  double tail_q = 0.99;       ///< the reported tail percentile
  std::size_t writers = 0;    ///< churn writer threads
  std::uint64_t churn_lag = 0;
};

std::optional<WorkloadSpec> workload_spec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "peers-uring" || name == "peers-epoll") {
    w.over_tcp = true;
    w.allow_uring = name == "peers-uring";
    w.n = 20'000;
    w.shards = 2;
    w.clients = 2;
    w.pool = 2'048;
    w.d_max = 1'000;
    w.tail_q = 0.95;
  } else if (name == "bulk-mem") {
    w.bulk = true;
    w.n = 200'000;
    w.shards = 2;
    w.pool = 48;
    w.bulk_missing = 18'000;
    w.bulk_extras = 2'000;
    w.tail_q = 0.90;
  } else if (name == "churn-mem") {
    w.churn = true;
    w.n = 20'000;
    w.shards = 1;
    w.pool = 4'096;
    w.d_max = 1'000;
    w.tail_q = 0.98;
    w.writers = 2;
    w.churn_lag = 16;
  } else {
    return std::nullopt;
  }
  return w;
}

/// One planted session: indices of served items the client lacks (sorted)
/// and the client-only items it holds.
template <Symbol T>
struct PlantedDiff {
  std::vector<std::uint32_t> missing;
  std::vector<T> extras;
};

/// Served items have the top bit of their last byte clear; client-only
/// extras have it set, so the two never collide.
template <Symbol T>
T served_item(std::uint64_t seed) {
  T x = T::random(seed);
  x.data[T::kSize - 1] &= std::byte{0x7f};
  return x;
}

template <Symbol T>
T extra_item(std::uint64_t seed) {
  T x = T::random(seed);
  x.data[T::kSize - 1] |= std::byte{0x80};
  return x;
}

/// Churn items: (writer, sequence) in the first 8 bytes, a fixed tag in the
/// rest, so a recovered diff names exactly which churn op put it there.
/// Only the 32-byte workloads churn; shorter items carry no tag.
constexpr std::byte kChurnTag{0xc3};

template <Symbol T>
T churn_item(std::uint64_t writer, std::uint64_t seq) {
  T x = T::from_u64((writer << 48) | seq);
  for (std::size_t i = 8; i < T::kSize; ++i) x.data[i] = kChurnTag;
  return x;
}

template <Symbol T>
bool is_churn_item(const T& x, std::uint64_t* writer, std::uint64_t* seq) {
  if constexpr (T::kSize < 16) return false;
  for (std::size_t i = 8; i < T::kSize; ++i) {
    if (x.data[i] != kChurnTag) return false;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(x.data[i]) << (8 * i);
  }
  *writer = v >> 48;
  *seq = v & ((1ull << 48) - 1);
  return true;
}

template <Symbol T>
struct Inputs {
  std::vector<T> items;
  std::vector<PlantedDiff<T>> pool;
  std::vector<PlantedDiff<T>> warmup;
};

template <Symbol T>
PlantedDiff<T> plant(SplitMix64& rng, std::size_t n, std::size_t missing,
                     std::size_t extras, std::vector<std::uint8_t>& mark) {
  PlantedDiff<T> p;
  p.missing.reserve(missing);
  while (p.missing.size() < missing) {
    const auto i = static_cast<std::uint32_t>(rng.next_below(n));
    if (mark[i] == 0) {
      mark[i] = 1;
      p.missing.push_back(i);
    }
  }
  for (const std::uint32_t i : p.missing) mark[i] = 0;
  std::sort(p.missing.begin(), p.missing.end());
  p.extras.reserve(extras);
  for (std::size_t e = 0; e < extras; ++e) {
    p.extras.push_back(extra_item<T>(rng.next()));
  }
  return p;
}

template <Symbol T>
Inputs<T> make_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  Inputs<T> in;
  SplitMix64 item_rng(derive_seed(seed, 1));
  in.items.reserve(w.n);
  for (std::size_t i = 0; i < w.n; ++i) {
    in.items.push_back(served_item<T>(item_rng.next()));
  }
  SplitMix64 rng(derive_seed(seed, 2));
  std::vector<std::uint8_t> mark(w.n, 0);
  // The peers mix: log-uniform d in [1, d_max], plus round(d / 10)
  // client-only items. The draw is stratified: every block of kStrata
  // consecutive pool entries holds one d from each of kStrata equal-mass
  // bands of the distribution, in seeded order, so any run that gets
  // through a few blocks sees the same mix whatever the seed.
  constexpr std::size_t kStrata = 64;
  std::vector<std::size_t> order(kStrata);
  for (std::size_t s = 0; s < w.pool; ++s) {
    if (w.bulk) {
      in.pool.push_back(
          plant<T>(rng, w.n, w.bulk_missing, w.bulk_extras, mark));
      continue;
    }
    if (s % kStrata == 0) {
      for (std::size_t i = 0; i < kStrata; ++i) order[i] = i;
      for (std::size_t i = kStrata - 1; i > 0; --i) {
        std::swap(order[i], order[rng.next_below(i + 1)]);
      }
    }
    const double u = (static_cast<double>(order[s % kStrata]) +
                      rng.next_double()) /
                     static_cast<double>(kStrata);
    const auto d = std::clamp<std::size_t>(
        static_cast<std::size_t>(
            std::exp(u * std::log(static_cast<double>(w.d_max) + 1))),
        1, w.d_max);
    in.pool.push_back(plant<T>(rng, w.n, d, (d + 5) / 10, mark));
  }
  // Warm-up sessions use the largest diff of the mix so that every cache
  // block a timed session can reach is materialized during set-up.
  const std::size_t warm_missing = w.bulk ? w.bulk_missing : w.d_max;
  const std::size_t warm_extras = w.bulk ? w.bulk_extras : w.d_max / 10;
  for (std::size_t s = 0; s < std::max(w.shards, w.clients); ++s) {
    in.warmup.push_back(plant<T>(rng, w.n, warm_missing, warm_extras, mark));
  }
  return in;
}

template <Symbol T>
void fill_client(sync::ShardedClient<T>& client, const std::vector<T>& items,
                 const PlantedDiff<T>& p) {
  std::size_t m = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (m < p.missing.size() && p.missing[m] == i) {
      ++m;
      continue;
    }
    client.add_item(items[i]);
  }
  for (const T& x : p.extras) client.add_item(x);
}

// --------------------------------------------------------- verification

/// Per-writer bounds on which churn items a session snapshot may hold:
/// item (w, k) MUST be in the diff when its add finished before the
/// session started and its removal had not begun when it ended; it MAY be
/// there when its add began before the end and its removal had not
/// finished before the start.
struct ChurnWindow {
  std::vector<std::uint64_t> must_lo, must_hi, may_lo, may_hi;
};

template <Symbol T>
bool same_items(std::vector<T> got, std::vector<T> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

/// True iff the recovered diff equals the planted one exactly on both
/// sides; under churn the remote side may also carry churn items, each of
/// which must be consistent with one snapshot inside the session window.
template <Symbol T>
bool diff_matches(const sync::SetDiff<T>& diff, const std::vector<T>& items,
                  const PlantedDiff<T>& p, const ChurnWindow* churn) {
  std::vector<T> planted_remote;
  std::vector<std::uint64_t> must_seen;
  if (churn != nullptr) must_seen.assign(churn->must_lo.size(), 0);
  std::vector<T> churned;
  for (const T& x : diff.remote) {
    std::uint64_t w = 0;
    std::uint64_t k = 0;
    if (churn != nullptr && is_churn_item(x, &w, &k)) {
      if (w >= churn->may_lo.size() || k < churn->may_lo[w] ||
          k >= churn->may_hi[w]) {
        return false;
      }
      if (k >= churn->must_lo[w] && k < churn->must_hi[w]) ++must_seen[w];
      churned.push_back(x);
    } else {
      planted_remote.push_back(x);
    }
  }
  if (churn != nullptr) {
    std::sort(churned.begin(), churned.end());
    if (std::adjacent_find(churned.begin(), churned.end()) != churned.end()) {
      return false;
    }
    for (std::size_t w = 0; w < must_seen.size(); ++w) {
      const std::uint64_t want =
          churn->must_hi[w] > churn->must_lo[w]
              ? churn->must_hi[w] - churn->must_lo[w]
              : 0;
      if (must_seen[w] != want) return false;
    }
  }
  if (planted_remote.size() != p.missing.size() ||
      diff.local.size() != p.extras.size()) {
    return false;
  }
  std::vector<T> want;
  want.reserve(p.missing.size());
  for (const std::uint32_t i : p.missing) want.push_back(items[i]);
  return same_items(std::move(planted_remote), std::move(want)) &&
         same_items(diff.local, p.extras);
}

// ---------------------------------------------------------------- churn

struct alignas(64) WriterProgress {
  std::atomic<std::uint64_t> adds_started{0};
  std::atomic<std::uint64_t> adds_done{0};
  std::atomic<std::uint64_t> removes_started{0};
  std::atomic<std::uint64_t> removes_done{0};
  std::atomic<std::uint64_t> failures{0};
};

/// Two (or more) writer threads churning the served set at full speed:
/// each adds fresh items and removes the one it added `lag` ops earlier,
/// so the served set size stays steady. Traced runs time every op.
template <Symbol T>
class ChurnWriters {
 public:
  ChurnWriters(sync::ShardedEngine<T>& engine, std::size_t writers,
               std::uint64_t lag, obs::Histogram* add_ns,
               obs::Histogram* remove_ns, obs::Gauge* journal,
               std::atomic<std::int64_t>* journal_max)
      : engine_(engine),
        progress_(writers),
        lag_(lag),
        add_ns_(add_ns),
        remove_ns_(remove_ns),
        journal_(journal),
        journal_max_(journal_max) {}

  ~ChurnWriters() { stop(); }
  ChurnWriters(const ChurnWriters&) = delete;
  ChurnWriters& operator=(const ChurnWriters&) = delete;

  void start() {
    for (std::size_t w = 0; w < progress_.size(); ++w) {
      threads_.emplace_back([this, w] { run(w); });
    }
  }

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  /// Successful add + remove calls so far.
  [[nodiscard]] std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const auto& p : progress_) {
      n += p.adds_done.load(std::memory_order_acquire) +
           p.removes_done.load(std::memory_order_acquire);
    }
    return n;
  }

  [[nodiscard]] std::uint64_t failures() const {
    std::uint64_t n = 0;
    for (const auto& p : progress_) {
      n += p.failures.load(std::memory_order_relaxed);
    }
    return n;
  }

  /// Before the session starts: what had surely been added (must_hi) and
  /// what could no longer be present (may_lo).
  void open_window(ChurnWindow& cw) const {
    const std::size_t n = progress_.size();
    cw.must_lo.assign(n, 0);
    cw.must_hi.assign(n, 0);
    cw.may_lo.assign(n, 0);
    cw.may_hi.assign(n, 0);
    for (std::size_t w = 0; w < n; ++w) {
      cw.must_hi[w] = progress_[w].adds_done.load(std::memory_order_acquire);
      cw.may_lo[w] =
          progress_[w].removes_done.load(std::memory_order_acquire);
    }
  }

  /// After the session ended: what could have been added (may_hi) and what
  /// was surely still present (must_lo).
  void close_window(ChurnWindow& cw) const {
    for (std::size_t w = 0; w < progress_.size(); ++w) {
      cw.must_lo[w] =
          progress_[w].removes_started.load(std::memory_order_acquire);
      cw.may_hi[w] =
          progress_[w].adds_started.load(std::memory_order_acquire);
    }
  }

 private:
  void run(std::size_t w) {
    WriterProgress& p = progress_[w];
    for (std::uint64_t k = 0; !stop_.load(std::memory_order_relaxed); ++k) {
      p.adds_started.store(k + 1, std::memory_order_release);
      if (!timed(add_ns_, [&] {
            return engine_.add_item(churn_item<T>(w, k));
          })) {
        p.failures.fetch_add(1, std::memory_order_relaxed);
      }
      p.adds_done.store(k + 1, std::memory_order_release);
      if (k >= lag_) {
        const std::uint64_t j = k - lag_;
        p.removes_started.store(j + 1, std::memory_order_release);
        if (!timed(remove_ns_, [&] {
              return engine_.remove_item(churn_item<T>(w, j));
            })) {
          p.failures.fetch_add(1, std::memory_order_relaxed);
        }
        p.removes_done.store(j + 1, std::memory_order_release);
      }
      if (journal_ != nullptr && (k & 255) == 0) {
        const std::int64_t depth = journal_->load();
        std::int64_t seen = journal_max_->load(std::memory_order_relaxed);
        while (depth > seen && !journal_max_->compare_exchange_weak(
                                   seen, depth, std::memory_order_relaxed)) {
        }
      }
    }
  }

  template <typename Op>
  static bool timed(obs::Histogram* h, Op&& op) {
    if (h == nullptr) return op();
    const auto t0 = Clock::now();
    const bool ok = op();
    h->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count()));
    return ok;
  }

  sync::ShardedEngine<T>& engine_;
  std::vector<WriterProgress> progress_;
  std::uint64_t lag_;
  obs::Histogram* add_ns_;
  obs::Histogram* remove_ns_;
  obs::Gauge* journal_;
  std::atomic<std::int64_t>* journal_max_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ------------------------------------------------------------- sessions

/// What one session cost, as seen by the client (times in microseconds).
struct SessionRecord {
  double latency_us = 0;  ///< ShardedClient construction -> recovered diff
  double build_us = 0;    ///< ctor + add_item of the local set
  double send_us = 0;     ///< hello encode + submit/send of client frames
  double wait_us = 0;     ///< blocked waiting for server frames
  double absorb_us = 0;   ///< sum of ShardedClient::handle_frame
  double absorb_crit_us = 0;  ///< largest per-shard absorb sum (in memory)
  std::uint32_t frames = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t diff_items = 0;
  std::size_t planted = 0;  ///< pool index of the planted diff
  std::uint64_t base_id = 0;
  bool ok = false;     ///< completed with the planted diff
  bool wrong = false;  ///< completed with a different diff
};

/// Observability taps for a traced environment.
struct Taps {
  obs::MetricsRegistry registry;
  obs::Tracer tracer{8192};
  SpanLog spans{400'000};
  obs::Histogram add_ns;
  obs::Histogram remove_ns;
  std::atomic<std::int64_t> journal_max{0};
  obs::Gauge* journal = nullptr;
};

sync::EngineOptions engine_options(Taps* taps) {
  sync::EngineOptions o;
  if (taps != nullptr) {
    o.metrics = &taps->registry;
    o.tracer = &taps->tracer;
  }
  return o;
}

template <Symbol T>
void load_items(sync::ShardedEngine<T>& engine, const std::vector<T>& items,
                Taps* taps) {
  for (const T& x : items) {
    bool ok = false;
    if (taps != nullptr) {
      const auto t0 = Clock::now();
      ok = engine.add_item(x);
      taps->add_ns.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
    } else {
      ok = engine.add_item(x);
    }
    if (!ok) throw std::runtime_error("duplicate served item");
  }
}

/// In-memory serving: the ShardedEngine's threaded worker path with a sink
/// that hands frames straight to the one in-flight client. The caller
/// blocks on a condition variable until its session is terminal.
template <Symbol T>
class MemEnv {
 public:
  struct Slot {
    Slot(std::uint64_t base, std::size_t shards)
        : client(base, shards, sync::BackendId::kRiblt),
          absorb_ns(shards) {}
    sync::ShardedClient<T> client;
    std::vector<std::atomic<std::uint64_t>> absorb_ns;  ///< per shard
    std::atomic<std::uint32_t> frames{0};
    std::uint64_t span = 0;
  };

  MemEnv(std::size_t shards, Taps* taps)
      : engine_(shards, {}, engine_options(taps)), taps_(taps) {}

  ~MemEnv() { engine_.stop(); }
  MemEnv(const MemEnv&) = delete;
  MemEnv& operator=(const MemEnv&) = delete;

  sync::ShardedEngine<T>& engine() { return engine_; }

  void start() {
    engine_.start(
        [this](std::vector<std::byte> frame) { deliver(std::move(frame)); });
  }

  void stop() { engine_.stop(); }

  std::uint64_t next_base() { return next_base_++; }

  /// Runs the slot's session to a terminal state; false on timeout.
  bool run(const std::shared_ptr<Slot>& slot, double timeout_s,
           SessionRecord& rec) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      current_ = slot;
    }
    const auto t0 = Clock::now();
    for (auto& hello : slot->client.hellos()) engine_.submit(std::move(hello));
    const auto t1 = Clock::now();
    bool done = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      done = cv_.wait_for(lk, std::chrono::duration<double>(timeout_s),
                          [&] { return slot->client.terminal(); });
      current_.reset();
    }
    const auto t2 = Clock::now();
    if (!done) {
      for (std::size_t s = 0; s < slot->client.shard_count(); ++s) {
        (void)engine_.close_session(slot->client.sub_session_id(s));
      }
    }
    rec.send_us = us_between(t0, t1);
    rec.wait_us = us_between(t1, t2);
    if (taps_ != nullptr) {
      taps_->spans.add("sync.client.submit", t0, t1, slot->span,
                       rec.base_id);
      taps_->spans.add("sync.sharded.wait", t1, t2, slot->span, rec.base_id);
      double total = 0;
      double crit = 0;
      for (const auto& ns : slot->absorb_ns) {
        const double us =
            static_cast<double>(ns.load(std::memory_order_relaxed)) / 1e3;
        total += us;
        crit = std::max(crit, us);
      }
      rec.absorb_us = total;
      rec.absorb_crit_us = crit;
      rec.frames = slot->frames.load(std::memory_order_relaxed);
    }
    return done;
  }

 private:
  void deliver(std::vector<std::byte> frame) {
    std::shared_ptr<Slot> slot;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      slot = current_;
    }
    const std::uint64_t sid = sync::v2::peek_session_id(frame);
    // Rateless tail of a session that already finished: drop it, exactly
    // as a real client would.
    if (!slot || !slot->client.owns(sid)) return;
    const auto t0 = Clock::now();
    auto replies = slot->client.handle_frame(frame);
    if (taps_ != nullptr) {
      const auto t1 = Clock::now();
      const std::size_t shard =
          static_cast<std::size_t>((sid - 1) % slot->client.shard_count());
      slot->absorb_ns[shard].fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()),
          std::memory_order_relaxed);
      slot->frames.fetch_add(1, std::memory_order_relaxed);
      taps_->spans.add("sync.client.absorb", t0, t1, slot->span,
                       (sid - 1) / slot->client.shard_count() + 1);
    }
    for (auto& reply : replies) engine_.submit(std::move(reply));
    if (slot->client.terminal()) {
      const std::lock_guard<std::mutex> lk(mu_);
      cv_.notify_all();
    }
  }

  sync::ShardedEngine<T> engine_;
  Taps* taps_;
  std::uint64_t next_base_ = 1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Slot> current_;  ///< guarded by mu_
};

/// Loopback TCP serving: the engine behind net::AnyServer with shipped
/// SocketServerOptions / SocketClient defaults (only the observability
/// taps are attached in traced runs).
template <Symbol T>
class PeersEnv {
 public:
  PeersEnv(std::size_t shards, Taps* taps)
      : engine(shards, {}, engine_options(taps)) {}

  ~PeersEnv() { stop_serving(); }
  PeersEnv(const PeersEnv&) = delete;
  PeersEnv& operator=(const PeersEnv&) = delete;

  void serve(bool allow_uring, std::size_t conns, Taps* taps) {
    net::SocketServerOptions options;
    if (taps != nullptr) {
      options.metrics = &taps->registry;
      options.tracer = &taps->tracer;
    }
    server.emplace(engine, options, allow_uring);
    server->start();
    for (std::size_t c = 0; c < conns; ++c) {
      socks.push_back(std::make_unique<net::SocketClient>(server->port()));
    }
  }

  void stop_serving() {
    socks.clear();
    if (server) server->stop();
  }

  std::uint64_t next_base() {
    return next_base_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Reads and drops whatever the server still streams on connection `c`
  /// (the rateless tail of its last session).
  void drain(std::size_t c) {
    try {
      (void)socks[c]->recv_frame(0.002);
    } catch (const sync::ProtocolError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  sync::ShardedEngine<T> engine;
  std::optional<net::AnyServer<T>> server;
  std::vector<std::unique_ptr<net::SocketClient>> socks;

 private:
  std::atomic<std::uint64_t> next_base_{1};
};

/// net::run_session with a span around every call into the transport and
/// the client (the traced twin of the shipped session loop).
template <Symbol T>
bool traced_socket_session(net::SocketClient& sock,
                           sync::ShardedClient<T>& client, double timeout_s,
                           SessionRecord& rec, SpanLog& spans,
                           std::uint64_t parent) {
  const auto send = [&](std::vector<std::byte> frame) {
    const auto t0 = Clock::now();
    sock.send_frame(std::move(frame));
    const auto t1 = Clock::now();
    rec.send_us += us_between(t0, t1);
    spans.add("net.client.send", t0, t1, parent, rec.base_id);
  };
  for (auto& hello : client.hellos()) send(std::move(hello));
  while (!client.terminal()) {
    const auto t0 = Clock::now();
    auto frame = sock.recv_frame(timeout_s);
    const auto t1 = Clock::now();
    rec.wait_us += us_between(t0, t1);
    spans.add("net.client.recv_wait", t0, t1, parent, rec.base_id);
    if (!frame) return false;
    if (!client.owns(sync::v2::peek_session_id(*frame))) continue;
    const auto t2 = Clock::now();
    auto replies = client.handle_frame(*frame);
    const auto t3 = Clock::now();
    rec.absorb_us += us_between(t2, t3);
    ++rec.frames;
    spans.add("sync.client.absorb", t2, t3, parent, rec.base_id);
    for (auto& reply : replies) send(std::move(reply));
  }
  return client.complete();
}

// ---------------------------------------------------------- closed loop

struct Window {
  std::vector<SessionRecord> sessions;
  double wall_s = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t diff_items = 0;
  std::uint64_t engine_bytes = 0;  ///< SYMBOLS bytes the engine emitted
  std::uint64_t ingest_ops = 0;

  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> v;
    for (const auto& r : sessions) {
      if (r.ok) v.push_back(r.latency_us);
    }
    return v;
  }
};

/// Runs `body(d)` on client threads d = 0..threads-1. A thread that has
/// finished keeps calling `drain(d)` until every thread has: over TCP a
/// client that stops reading lets its connection back up into a shard
/// worker's blocking sink, which would stall the other connection's
/// sessions on that shard.
template <typename Body, typename Drain>
void run_client_threads(std::size_t threads, Body&& body, Drain&& drain) {
  std::atomic<std::size_t> finished{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto thread_main = [&](std::size_t d) {
    try {
      body(d);
    } catch (...) {
      const std::lock_guard<std::mutex> lk(error_mu);
      if (!error) error = std::current_exception();
    }
    finished.fetch_add(1, std::memory_order_acq_rel);
    while (finished.load(std::memory_order_acquire) < threads) drain(d);
  };
  if (threads == 1) {
    thread_main(0);
  } else {
    std::vector<std::thread> pool;
    for (std::size_t d = 0; d < threads; ++d) {
      pool.emplace_back(thread_main, d);
    }
    for (auto& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
}

/// Runs `clients` closed-loop client threads until `seconds` have passed;
/// `run_one(client, rec)` runs the session of planted-pool entry
/// `rec.planted` (the pool is cycled) and fills `rec`.
template <typename RunOne, typename Drain>
Window closed_loop(std::size_t clients, std::size_t pool, double seconds,
                   RunOne&& run_one, Drain&& drain) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<SessionRecord>> per(clients);
  std::vector<Clock::time_point> ends(clients);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  run_client_threads(
      clients,
      [&](std::size_t d) {
        while (Clock::now() < deadline) {
          SessionRecord rec;
          rec.planted = next.fetch_add(1, std::memory_order_relaxed) % pool;
          run_one(d, rec);
          per[d].push_back(rec);
        }
        ends[d] = Clock::now();
      },
      drain);
  Window w;
  w.wall_s = us_between(start, *std::max_element(ends.begin(), ends.end())) /
             1e6;
  for (auto& v : per) {
    for (auto& r : v) {
      ++w.attempted;
      if (!r.ok) ++w.failed;
      if (r.wrong) ++w.wrong;
      w.payload_bytes += r.payload_bytes;
      w.diff_items += r.ok ? r.diff_items : 0;
      w.sessions.push_back(r);
    }
  }
  return w;
}

// ---------------------------------------------------------------- replay

/// Engine-side cost of one session, measured by replaying it single-threaded
/// through the sans-io ShardedEngine::handle_frame / next_frame path.
struct ReplayCost {
  double open_us = 0;
  double emit_us = 0;
  double close_us = 0;
  double crit_us = 0;  ///< largest per-shard share (shards run in parallel)
  bool ok = false;
};

template <Symbol T>
ReplayCost replay_session(sync::ShardedEngine<T>& engine,
                          sync::ShardedClient<T>& client) {
  const std::size_t shards = client.shard_count();
  std::vector<double> per_shard(shards, 0);
  ReplayCost r;
  const auto timed = [&](std::size_t s, double& bucket, auto&& call) {
    const auto t0 = Clock::now();
    auto out = call();
    const double us = us_between(t0, Clock::now());
    bucket += us;
    per_shard[s] += us;
    return out;
  };
  auto hellos = client.hellos();
  for (std::size_t s = 0; s < shards; ++s) {
    auto replies =
        timed(s, r.open_us, [&] { return engine.handle_frame(hellos[s]); });
    for (auto& f : replies) (void)client.handle_frame(f);
  }
  for (bool progressed = true; progressed && !client.terminal();) {
    progressed = false;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto& sub = client.sub(s);
      if (sub.complete() || sub.failed()) continue;
      const std::uint64_t sid = client.sub_session_id(s);
      auto frame = timed(s, r.emit_us, [&] { return engine.next_frame(sid); });
      if (!frame) continue;
      progressed = true;
      for (auto& reply : client.handle_frame(*frame)) {
        const bool done = static_cast<std::uint8_t>(reply[0]) ==
                          static_cast<std::uint8_t>(sync::v2::FrameType::kDone);
        auto back = timed(s, done ? r.close_us : r.emit_us,
                          [&] { return engine.handle_frame(reply); });
        for (auto& f : back) (void)client.handle_frame(f);
      }
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    (void)timed(s, r.close_us, [&] {
      return engine.close_session(client.sub_session_id(s));
    });
  }
  r.crit_us = *std::max_element(per_shard.begin(), per_shard.end());
  r.ok = client.complete();
  return r;
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
  std::vector<std::string> notes;  ///< extra "# ..." lines for humans
};

std::string fixed(double v, int digits = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

obs::HistogramSnapshot hist_delta(const obs::HistogramSnapshot& before,
                                  const obs::HistogramSnapshot& after) {
  obs::HistogramSnapshot d = after;
  if (d.buckets.empty()) return d;
  for (std::size_t i = 0; i < d.buckets.size() && i < before.buckets.size();
       ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  d.count -= before.count;
  d.sum -= before.sum;
  return d;
}

/// Merges every series of a histogram family (all label sets).
obs::HistogramSnapshot family_hist(const obs::MetricsSnapshot& snap,
                                   const char* name) {
  obs::HistogramSnapshot h;
  if (const auto* f = snap.find(name)) {
    for (const auto& s : f->series) h.merge(s.hist);
  }
  return h;
}

std::uint64_t family_counter(const obs::MetricsSnapshot& snap,
                             const char* name) {
  std::uint64_t v = 0;
  if (const auto* f = snap.find(name)) {
    for (const auto& s : f->series) v += s.counter;
  }
  return v;
}

/// Ingest rate of the workloads without writer threads: one thread adds
/// fresh items and removes each 16 ops later (the churn writers' pattern)
/// on the engine after serving stopped, in five 100 ms slices; returns the
/// median slice rate and leaves the served set as it found it. The
/// window's sessions are retired first: a session whose DONE was still in
/// flight would keep a snapshot cursor alive, and the cache then journals
/// every probe op, which would make the figure depend on that race.
template <Symbol T>
double ingest_probe(sync::ShardedEngine<T>& engine, const Window& win,
                    std::size_t shards) {
  for (const SessionRecord& r : win.sessions) {
    for (std::size_t s = 0; s < shards; ++s) {
      (void)engine.close_session((r.base_id - 1) * shards + s + 1);
    }
  }
  constexpr std::uint64_t kWriter = 0xffff;  // distinct from churn writers
  constexpr std::uint64_t kLag = 16;
  std::vector<double> rates;
  std::uint64_t k = 0;
  bool ok = true;
  for (int slice = 0; slice < 5; ++slice) {
    const auto t0 = Clock::now();
    std::uint64_t ops = 0;
    do {
      for (int i = 0; i < 256; ++i, ++k) {
        ok = engine.add_item(churn_item<T>(kWriter, k)) && ok;
        ++ops;
        if (k >= kLag) {
          ok = engine.remove_item(churn_item<T>(kWriter, k - kLag)) && ok;
          ++ops;
        }
      }
    } while (Clock::now() - t0 < std::chrono::milliseconds(100));
    rates.push_back(static_cast<double>(ops) /
                    (us_between(t0, Clock::now()) / 1e6));
  }
  for (std::uint64_t j = k - kLag; j < k; ++j) {
    ok = engine.remove_item(churn_item<T>(kWriter, j)) && ok;
  }
  if (!ok) throw std::runtime_error("ingest probe: add/remove failed");
  return quantile(rates, 0.5);
}

// ---------------------------------------------------------- the workload

template <Symbol T>
class Bench {
 public:
  Bench(const WorkloadSpec& w, const Options& o, const Inputs<T>& in)
      : w_(w), o_(o), in_(in) {}

  /// --trace 0: repeated set-ups (median reported; at least kMinSetups,
  /// more while they are cheap), then one measured window on the last one.
  RunResult end_to_end() {
    constexpr int kMinSetups = 5;
    constexpr int kMaxSetups = 15;
    constexpr double kSetupBudgetS = 1.5;
    std::vector<double> setup_s;
    Window win;
    double ingest = 0;
    double rss_mb = 0;  // read before the ingest probe, which grows the journal
    for (int i = 1;; ++i) {
      const auto last = [&] {
        double spent = 0;
        for (const double s : setup_s) spent += s;
        return (i >= kMinSetups && spent >= kSetupBudgetS) || i == kMaxSetups;
      };
      if (w_.over_tcp) {
        auto env = setup_peers(nullptr, setup_s);
        if (last()) {
          win = window_peers(*env, nullptr, o_.seconds);
          rss_mb = peak_rss_mb();
          env->stop_serving();
          ingest = ingest_probe(env->engine, win, w_.shards);
          break;
        }
      } else {
        auto env = setup_mem(nullptr, setup_s);
        if (last()) {
          win = window_mem(*env, nullptr, o_.seconds);
          rss_mb = peak_rss_mb();
          env->stop();
          ingest = w_.churn ? static_cast<double>(win.ingest_ops) / win.wall_s
                            : ingest_probe(env->engine(), win, w_.shards);
          break;
        }
      }
    }
    RunResult r;
    const std::vector<double> lat = win.latencies();
    const double rate = static_cast<double>(lat.size()) / win.wall_s;
    r.metrics = {
        {"sessions_per_s", rate, "1/s"},
        {"session_p50_ms", quantile(lat, 0.5) / 1e3, "ms"},
        {"session_tail_ms", quantile(lat, w_.tail_q) / 1e3, "ms"},
        {"diff_items_per_s", static_cast<double>(win.diff_items) / win.wall_s,
         "1/s"},
        {"bytes_per_item",
         static_cast<double>(win.engine_bytes) /
             static_cast<double>(std::max<std::uint64_t>(1, win.diff_items)),
         "B"},
        {"ingest_ops_per_s", ingest, "1/s"},
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    r.attempted = win.attempted;
    r.failed = win.failed;
    r.wrong = win.wrong;
    std::string samples;
    for (const double s : setup_s) samples += " " + fixed(s, 4);
    r.notes.push_back("setup_s samples:" + samples);
    r.notes.push_back(
        "sessions=" + std::to_string(lat.size()) + " window_s=" +
        fixed(win.wall_s, 3) + " tail=p" + fixed(w_.tail_q * 100, 0) +
        " (" +
        std::to_string(static_cast<std::size_t>(
            static_cast<double>(lat.size()) * (1 - w_.tail_q))) +
        " samples beyond)" + " failed_ratio=" +
        fixed(static_cast<double>(win.failed) /
                        static_cast<double>(std::max<std::size_t>(
                            1, win.attempted)),
              6));
    if (!w_.churn) {
      r.notes.push_back("ingest_ops_per_s: single-thread add/remove probe "
                        "after the window");
    }
    return r;
  }

  /// --trace 1: an untraced half-window, then a traced half-window on an
  /// environment with the registry and tracer attached, then the engine
  /// replay of the median sessions; reports the per-layer split.
  RunResult per_layer() {
    std::vector<double> setup_s;
    const double half = o_.seconds / 2;
    Window plain;
    if (w_.over_tcp) {
      auto env = setup_peers(nullptr, setup_s);
      plain = window_peers(*env, nullptr, half);
    } else {
      auto env = setup_mem(nullptr, setup_s);
      plain = window_mem(*env, nullptr, half);
    }

    Taps taps;
    taps.journal = &taps.registry.gauge(
        "riblt_cache_journal_depth", "Churn ops retained for open snapshots");
    Traced t;
    if (w_.over_tcp) {
      auto env = setup_peers(&taps, setup_s);
      t.before = taps.registry.snapshot();
      t.server_before = env->server->stats();
      t.win = window_peers(*env, &taps, half);
      t.server_after = env->server->stats();
      t.after = taps.registry.snapshot();
      env->stop_serving();
      t.replay = replay_band(env->engine, t.win, *env);
    } else {
      auto env = setup_mem(&taps, setup_s);
      t.before = taps.registry.snapshot();
      t.win = window_mem(*env, &taps, half);
      t.after = taps.registry.snapshot();
      env->stop();
      t.replay = replay_band(env->engine(), t.win, *env);
    }
    RunResult r = split(t, taps, plain);
    write_outputs(taps, r);
    return r;
  }

 private:
  struct Replayed {
    const SessionRecord* rec;
    ReplayCost cost;
  };
  struct Traced {
    Window win;
    obs::MetricsSnapshot before;
    obs::MetricsSnapshot after;
    net::SocketServerStats server_before;  ///< peers only
    net::SocketServerStats server_after;
    std::vector<Replayed> replay;
  };

  // ----------------------------------------------------------- set-up

  void warm_up_mem(MemEnv<T>& env) {
    for (const auto& p : in_.warmup) {
      auto slot = std::make_shared<typename MemEnv<T>::Slot>(env.next_base(),
                                                              w_.shards);
      fill_client(slot->client, in_.items, p);
      SessionRecord rec;
      if (!env.run(slot, 60.0, rec) || !slot->client.complete() ||
          !diff_matches(slot->client.diff(), in_.items, p, nullptr)) {
        throw std::runtime_error("warm-up session failed");
      }
    }
  }

  std::unique_ptr<MemEnv<T>> setup_mem(Taps* taps, std::vector<double>& out) {
    const auto t0 = Clock::now();
    auto env = std::make_unique<MemEnv<T>>(w_.shards, taps);
    load_items(env->engine(), in_.items, taps);
    env->start();
    warm_up_mem(*env);
    out.push_back(us_between(t0, Clock::now()) / 1e6);
    return env;
  }

  std::unique_ptr<PeersEnv<T>> setup_peers(Taps* taps,
                                           std::vector<double>& out) {
    const auto t0 = Clock::now();
    auto env = std::make_unique<PeersEnv<T>>(w_.shards, taps);
    load_items(env->engine, in_.items, taps);
    env->serve(w_.allow_uring, w_.clients, taps);
    // Warm-ups run on every connection at once (at least one per shard, as
    // every sharded session opens a sub-session on each shard).
    bool warm_ok = true;
    std::mutex warm_mu;
    run_client_threads(
        env->socks.size(),
        [&](std::size_t d) {
          for (std::size_t i = d; i < in_.warmup.size();
               i += env->socks.size()) {
            sync::ShardedClient<T> client(env->next_base(), w_.shards,
                                          sync::BackendId::kRiblt);
            fill_client(client, in_.items, in_.warmup[i]);
            const bool ok =
                net::run_session(*env->socks[d], client, 60.0) &&
                diff_matches(client.diff(), in_.items, in_.warmup[i],
                             nullptr);
            const std::lock_guard<std::mutex> lk(warm_mu);
            warm_ok = warm_ok && ok;
          }
        },
        [&](std::size_t d) { env->drain(d); });
    if (!warm_ok) throw std::runtime_error("warm-up session failed");
    out.push_back(us_between(t0, Clock::now()) / 1e6);
    return env;
  }

  // ----------------------------------------------------------- windows

  Window window_mem(MemEnv<T>& env, Taps* taps, double seconds) {
    std::unique_ptr<ChurnWriters<T>> writers;
    if (w_.churn) {
      writers = std::make_unique<ChurnWriters<T>>(
          env.engine(), w_.writers, w_.churn_lag,
          taps ? &taps->add_ns : nullptr, taps ? &taps->remove_ns : nullptr,
          taps ? taps->journal : nullptr, taps ? &taps->journal_max : nullptr);
    }
    const std::uint64_t bytes0 = env.engine().stats().totals.bytes_to_peers;
    if (writers) writers->start();
    const std::uint64_t ops0 = writers ? writers->ops() : 0;
    Window win = closed_loop(1, w_.pool, seconds, [&](std::size_t,
                                                      SessionRecord& rec) {
      const PlantedDiff<T>& p = in_.pool[rec.planted];
      ChurnWindow cw;
      if (writers) writers->open_window(cw);
      rec.base_id = env.next_base();
      const std::uint64_t span = taps ? taps->spans.new_id() : 0;
      const auto t0 = Clock::now();
      auto slot =
          std::make_shared<typename MemEnv<T>::Slot>(rec.base_id, w_.shards);
      slot->span = span;
      fill_client(slot->client, in_.items, p);
      const auto t1 = Clock::now();
      const bool done = env.run(slot, 20.0, rec);
      const auto t2 = Clock::now();
      if (writers) writers->close_window(cw);
      finish(rec, slot->client, done, p, writers ? &cw : nullptr);
      rec.build_us = us_between(t0, t1);
      rec.latency_us = us_between(t0, t2);
      if (taps) {
        taps->spans.add("sync.client.build", t0, t1, span, rec.base_id);
        taps->spans.add("session", t0, t2, 0, rec.base_id, span);
        note_journal(*taps);
      }
    }, [](std::size_t) {});
    if (writers) {
      win.ingest_ops = writers->ops() - ops0;
      writers->stop();
      if (writers->failures() != 0) {
        throw std::runtime_error("a churn add/remove failed");
      }
    }
    win.engine_bytes = env.engine().stats().totals.bytes_to_peers - bytes0;
    return win;
  }

  Window window_peers(PeersEnv<T>& env, Taps* taps, double seconds) {
    const std::uint64_t bytes0 = env.engine.stats().totals.bytes_to_peers;
    Window win = closed_loop(w_.clients, w_.pool, seconds, [&](std::size_t d,
                                                              SessionRecord&
                                                                  rec) {
      const PlantedDiff<T>& p = in_.pool[rec.planted];
      rec.base_id = env.next_base();
      const std::uint64_t span = taps ? taps->spans.new_id() : 0;
      const auto t0 = Clock::now();
      sync::ShardedClient<T> client(rec.base_id, w_.shards,
                                    sync::BackendId::kRiblt);
      fill_client(client, in_.items, p);
      const auto t1 = Clock::now();
      const bool done =
          taps ? traced_socket_session(*env.socks[d], client, 20.0, rec,
                                       taps->spans, span)
               : net::run_session(*env.socks[d], client, 20.0);
      const auto t2 = Clock::now();
      finish(rec, client, done, p, nullptr);
      rec.build_us = us_between(t0, t1);
      rec.latency_us = us_between(t0, t2);
      if (taps) {
        taps->spans.add("sync.client.build", t0, t1, span, rec.base_id);
        taps->spans.add("session", t0, t2, 0, rec.base_id, span);
        note_journal(*taps);
      }
    }, [&](std::size_t d) { env.drain(d); });
    win.engine_bytes = env.engine.stats().totals.bytes_to_peers - bytes0;
    return win;
  }

  void finish(SessionRecord& rec, const sync::ShardedClient<T>& client,
              bool done, const PlantedDiff<T>& p, const ChurnWindow* cw) {
    rec.payload_bytes = client.payload_bytes();
    if (!done || !client.complete()) return;
    const sync::SetDiff<T> diff = client.diff();
    rec.diff_items = diff.remote.size() + diff.local.size();
    rec.ok = diff_matches(diff, in_.items, p, cw);
    rec.wrong = !rec.ok;
  }

  static void note_journal(Taps& taps) {
    const std::int64_t depth = taps.journal->load();
    std::int64_t seen = taps.journal_max.load(std::memory_order_relaxed);
    while (depth > seen && !taps.journal_max.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }

  // ------------------------------------------------------------ replay

  /// Replays the sessions whose latency sits in the middle band of the
  /// traced window (ranks 40%..60%), so the split describes the median
  /// session. The band is sampled at a stride of band/64 (up to 127
  /// sessions) and the replay stops after ~3 s.
  template <typename Env>
  std::vector<Replayed> replay_band(sync::ShardedEngine<T>& engine,
                                    const Window& win, Env& env) {
    std::vector<const SessionRecord*> ok;
    for (const auto& r : win.sessions) {
      if (r.ok) ok.push_back(&r);
    }
    std::sort(ok.begin(), ok.end(), [](const auto* a, const auto* b) {
      return a->latency_us < b->latency_us;
    });
    std::vector<Replayed> out;
    if (ok.empty()) return out;
    const std::size_t lo = ok.size() * 2 / 5;
    const std::size_t hi = std::max(lo + 1, (ok.size() * 3 + 4) / 5);
    const std::size_t step = std::max<std::size_t>(1, (hi - lo) / 64);
    const auto deadline = Clock::now() + std::chrono::seconds(3);
    for (std::size_t i = lo; i < hi && Clock::now() < deadline; i += step) {
      sync::ShardedClient<T> client(env.next_base(), w_.shards,
                                    sync::BackendId::kRiblt);
      fill_client(client, in_.items, in_.pool[ok[i]->planted]);
      const ReplayCost cost = replay_session(engine, client);
      if (cost.ok) out.push_back({ok[i], cost});
    }
    return out;
  }

  // ------------------------------------------------------------- split

  RunResult split(const Traced& t, const Taps& taps, const Window& plain) {
    const Window& win = t.win;
    std::vector<double> build, absorb, frames, send, wait, open, emit, close,
        handoff, residual, latency;
    for (const auto& r : win.sessions) {
      if (!r.ok) continue;
      build.push_back(r.build_us);
      absorb.push_back(r.absorb_us);
      frames.push_back(r.frames);
      send.push_back(r.send_us);
      wait.push_back(r.wait_us);
    }
    // The median band: every layer's share of the same sessions.
    double band_latency = 0, band_build = 0, band_send = 0, band_absorb = 0,
           band_engine = 0, band_handoff = 0, band_residual = 0;
    for (const auto& [rec, cost] : t.replay) {
      open.push_back(cost.open_us);
      emit.push_back(cost.emit_us);
      close.push_back(cost.close_us);
      // Over TCP the client absorbs on its own thread, outside the wait;
      // in memory it absorbs on the shard workers, inside it.
      const double inside_wait = w_.over_tcp ? 0 : rec->absorb_crit_us;
      const double h = rec->wait_us - cost.crit_us - inside_wait;
      const double res = rec->latency_us - rec->build_us - rec->send_us -
                         rec->wait_us - (w_.over_tcp ? rec->absorb_us : 0);
      handoff.push_back(h);
      residual.push_back(res);
      band_latency += rec->latency_us;
      band_build += rec->build_us;
      band_send += rec->send_us;
      band_absorb += w_.over_tcp ? rec->absorb_us : rec->absorb_crit_us;
      band_engine += cost.crit_us;
      band_handoff += h;
      band_residual += res;
    }
    const double nb = std::max<double>(1, static_cast<double>(t.replay.size()));

    const obs::HistogramSnapshot adds = taps.add_ns.snapshot();
    const obs::HistogramSnapshot removes = taps.remove_ns.snapshot();
    const auto delta = [&](const char* name) {
      return hist_delta(family_hist(t.before, name),
                        family_hist(t.after, name));
    };
    const double sessions =
        std::max<double>(1, static_cast<double>(win.sessions.size()));
    const auto per_session = [&](std::uint64_t n) {
      return static_cast<double>(n) / sessions;
    };
    const net::SocketServerStats& s0 = t.server_before;
    const net::SocketServerStats& s1 = t.server_after;
    const double traced_rate =
        w_.bulk ? static_cast<double>(win.diff_items) / win.wall_s
                : static_cast<double>(build.size()) / win.wall_s;
    const double plain_rate =
        w_.bulk ? static_cast<double>(plain.diff_items) / plain.wall_s
                : static_cast<double>(plain.latencies().size()) / plain.wall_s;

    RunResult r;
    r.metrics = {
        {"sync.client.build_us", quantile(build, 0.5), "us"},
        {"sync.client.absorb_us", quantile(absorb, 0.5), "us"},
        {"sync.client.frames", quantile(frames, 0.5), "count"},
        {"sync.client.needed_bytes_per_item",
         static_cast<double>(win.payload_bytes) /
             static_cast<double>(std::max<std::uint64_t>(1, win.diff_items)),
         "B"},
        {"sync.engine.open_us", quantile(open, 0.5), "us"},
        {"sync.engine.emit_us", quantile(emit, 0.5), "us"},
        {"sync.engine.close_us", quantile(close, 0.5), "us"},
        {"sync.engine.add_item_us_p50", adds.quantile(0.5) / 1e3, "us"},
        {"sync.engine.add_item_us_p99", adds.quantile(0.99) / 1e3, "us"},
        {"sync.engine.remove_item_us_p50", removes.quantile(0.5) / 1e3, "us"},
        {"sync.engine.remove_item_us_p99", removes.quantile(0.99) / 1e3,
         "us"},
        {"sync.sharded.handoff_us", quantile(handoff, 0.5), "us"},
        {"sync.sharded.inbox_depth_p99",
         delta("riblt_shard_inbox_depth").quantile(0.99), "count"},
        {"core.cache.gate_wait_us_p99",
         delta("riblt_cache_gate_wait_us").quantile(0.99), "us"},
        {"core.cache.compactions",
         static_cast<double>(
             family_counter(t.after, "riblt_cache_compactions_total") -
             family_counter(t.before, "riblt_cache_compactions_total")),
         "count"},
        {"core.cache.compact_us_p99",
         delta("riblt_cache_compact_us").quantile(0.99), "us"},
        {"core.cache.journal_depth_max",
         static_cast<double>(taps.journal_max.load()), "count"},
        {"net.client.send_us", w_.over_tcp ? quantile(send, 0.5) : 0, "us"},
        {"net.client.recv_wait_us", w_.over_tcp ? quantile(wait, 0.5) : 0,
         "us"},
        {"net.server.syscalls_per_session",
         per_session(s1.syscalls() - s0.syscalls()), "count"},
        {"net.server.wakeups_per_session", per_session(s1.wakeups - s0.wakeups),
         "count"},
        {"net.server.sqe_submits_per_session",
         per_session(s1.sqe_submits - s0.sqe_submits), "count"},
        {"net.server.frames_out_per_session",
         per_session(s1.frames_out - s0.frames_out), "count"},
        {"net.server.frames_dropped",
         static_cast<double>(s1.frames_dropped - s0.frames_dropped), "count"},
        {"net.overshoot_bytes_per_session",
         (static_cast<double>(win.engine_bytes) -
          static_cast<double>(win.payload_bytes)) /
             sessions,
         "B"},
        {"net.server.pending_bytes_p99",
         delta("riblt_server_conduit_pending_bytes").quantile(0.99), "B"},
        {"obs.traced_over_untraced",
         plain_rate > 0 ? traced_rate / plain_rate : 0, "ratio"},
        {"split.session_us", band_latency / nb, "us"},
        {"split.residual_us", band_residual / nb, "us"},
    };
    r.attempted = plain.attempted + win.attempted;
    r.failed = plain.failed + win.failed;
    r.wrong = plain.wrong + win.wrong;
    r.notes.push_back(
        "split of the median band (" + std::to_string(t.replay.size()) +
        " sessions replayed), mean us: session " + fixed(band_latency / nb) +
        " = client.build " + fixed(band_build / nb) + " + " +
        (w_.over_tcp ? "net.client.send " : "client.submit ") +
        fixed(band_send / nb) + " + client.absorb " +
        fixed(band_absorb / nb) + " + engine " +
        fixed(band_engine / nb) + " + " +
        (w_.over_tcp ? "transport wait " : "handoff ") +
        fixed(band_handoff / nb) + " + residual " +
        fixed(band_residual / nb));
    r.notes.push_back("traced sessions=" + std::to_string(build.size()) +
                      " untraced sessions=" +
                      std::to_string(plain.latencies().size()) + " spans=" +
                      std::to_string(taps.spans.size()) + " (dropped " +
                      std::to_string(taps.spans.dropped()) + ")");
    return r;
  }

  void write_outputs(const Taps& taps, RunResult& r) const {
    if (o_.out_dir.empty()) return;
    const std::string spans = o_.out_dir + "/spans-" + w_.name + ".json";
    const std::string engine = o_.out_dir + "/engine-trace-" + w_.name +
                               ".json";
    if (taps.spans.write_chrome_json(spans)) {
      r.notes.push_back("spans written to " + spans);
    }
    std::ofstream f(engine);
    f << taps.tracer.chrome_json();
    if (f) r.notes.push_back("engine lifecycle trace written to " + engine);
  }

  const WorkloadSpec& w_;
  const Options& o_;
  const Inputs<T>& in_;
};

// ------------------------------------------------------------------ host

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string host_stamp(const Options& o) {
  utsname u{};
  uname(&u);
  const net::UringCaps& caps = net::uring_caps();
  std::ostringstream s;
  s << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"cpu\":\""
    << json_escape(cpu_model()) << "\",\"kernel\":\""
    << json_escape(std::string(u.release)) << "\",\"uring\":{\"available\":"
    << (caps.available ? "true" : "false")
    << ",\"msg_ring\":" << (caps.msg_ring ? "true" : "false")
    << ",\"cancel_any\":" << (caps.cancel_any ? "true" : "false")
    << ",\"reason\":\"" << json_escape(caps.reason) << "\"},\"build_type\":\""
    << RECBENCH_BUILD_TYPE << "\",\"git_sha\":\"" << json_escape(o.git_sha)
    << "\"}";
  return s.str();
}

template <Symbol T>
RunResult run_workload(const WorkloadSpec& w, const Options& o) {
  const Inputs<T> in = make_inputs<T>(w, o.seed);
  Bench<T> bench(w, o, in);
  return o.trace ? bench.per_layer() : bench.end_to_end();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  const std::optional<WorkloadSpec> w = workload_spec(o.workload);
  if (!w) usage(("unknown workload " + o.workload).c_str());

  std::printf("# recbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("# host %s\n", host_stamp(o).c_str());
  if (w->over_tcp) {
    const bool uring = w->allow_uring && net::uring_available();
    std::printf("# server backend: %s%s\n", uring ? "uring" : "epoll",
                w->allow_uring && !uring
                    ? " (io_uring unavailable here: NOT the uring path)"
                    : "");
  }
  std::fflush(stdout);

  RunResult r;
  try {
    r = w->bulk ? run_workload<U64Symbol>(*w, o)
                : run_workload<Hash256Symbol>(*w, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "recbench: %s\n", e.what());
    return 1;
  }

  for (const auto& note : r.notes) std::printf("# %s\n", note.c_str());
  for (const auto& m : r.metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-36s %.6g %s\n", "failed_ratio",
              static_cast<double>(r.failed) /
                  static_cast<double>(std::max<std::size_t>(1, r.attempted)),
              "ratio");
  if (r.wrong != 0) {
    std::printf("# WRONG DIFFS: %zu of %zu sessions\n", r.wrong, r.attempted);
  }

  std::string json = "{\"correct\": ";
  json += r.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                  r.metrics[i].value, r.metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.wrong == 0 ? 0 : 1;
}
