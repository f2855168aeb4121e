// ISRec end-to-end benchmark driver.
//
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --bin-dir DIR --out-dir DIR
//
// builds the workload's inputs from the seed (dataset, trained
// checkpoint), serves them through the workload's path under two
// open-loop Poisson phases and one closed-loop phase, checks every
// response against an independent float64 reference, and prints one
// JSON result line. `--trace 1` additionally times each layer's public
// calls, records spans around them, and reports the per-layer metrics.
// `perfbench train ...` is the training child the run starts, and
// `perfbench serve ...` the child that serves the in-process workloads,
// so that their set-up is timed from a process start and their peak RSS
// is the serving process's own.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "bench_lib.h"
#include "core/isrec.h"
#include "data/batch.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/pop_rec.h"
#include "obs/heap_profiler.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "serve/recommend_http.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "utils/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using isrec::Index;
namespace serve = isrec::serve;

// -- Arguments & result line ---------------------------------------------

struct Args {
  std::string command = "run";
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  std::string bin_dir;
  std::string out_dir = ".bench_out";
  std::string dir;   // Children: the run's directory of inputs and results.
  double t0 = -1.0;  // Children: NowS() when the parent started them.
  std::string self;  // argv[0]
};

bool ParseArgs(int argc, char** argv, Args* a, std::string* error) {
  a->self = argv[0];
  int i = 1;
  if (argc > 1 && argv[1][0] != '-') a->command = argv[i++];
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a->seconds = std::atof(v.c_str());
    else if (flag == "--trace") a->trace = v == "1";
    else if (flag == "--bin-dir") a->bin_dir = v;
    else if (flag == "--out-dir") a->out_dir = v;
    else if (flag == "--dir") a->dir = v;
    else if (flag == "--t0") a->t0 = std::atof(v.c_str());
    else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (a->seconds < 1.0) {
    *error = "--seconds must be at least 1";
    return false;
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

/// Accumulates failed output checks; the run is correct iff none failed.
struct Checks {
  std::vector<std::string> failures;
  size_t passed = 0;
  void Expect(const std::string& what, const std::string& reason) {
    if (reason.empty()) {
      ++passed;
    } else if (failures.size() < 20) {
      failures.push_back(what + ": " + reason);
    }
  }
};

/// `text` as a JSON string literal.
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '\n') continue;
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// -- Request pool -------------------------------------------------------------

struct Pool {
  std::vector<serve::Request> requests;
  std::vector<std::string> bodies;  // The same requests as JSON.
};

/// `pool_size` requests for the full-catalog top k of users' leave-one-out
/// test histories, drawn with `seed` from the evaluable users.
Pool BuildPool(const WorkloadSpec& spec,
               const isrec::data::LeaveOneOutSplit& split, uint64_t seed) {
  const std::vector<Index>& users = split.evaluable_users();
  uint64_t state = seed * 7919 + 3;
  Pool pool;
  for (int i = 0; i < spec.pool_size; ++i) {
    serve::Request r;
    r.user = users[SplitMix64(state) % users.size()];
    r.history = split.TestHistory(r.user);
    r.k = spec.k;
    pool.requests.push_back(std::move(r));
  }
  return pool;
}

/// One request a line: `user k n h_1 ... h_n`.
bool WritePool(const std::string& path, const Pool& pool) {
  std::ofstream out(path);
  for (const serve::Request& r : pool.requests) {
    out << r.user << ' ' << r.k << ' ' << r.history.size();
    for (Index item : r.history) out << ' ' << item;
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool ReadPool(const std::string& path, Pool* pool) {
  std::ifstream in(path);
  serve::Request r;
  size_t n = 0;
  while (in >> r.user >> r.k >> n) {
    r.history.resize(n);
    for (Index& item : r.history) in >> item;
    pool->bodies.push_back(RecommendRequestBody(r.user, r.history, r.k));
    pool->requests.push_back(r);
  }
  return !pool->requests.empty() && in.eof();
}

// -- Training child ---------------------------------------------------------

// Runs in its own process so the serving side starts cold and its peak
// RSS is its own. Writes <dir>/train.json, <dir>/model.isrec and the
// request pool <dir>/pool.txt; the serving side reads only those.
int RunTrain(const Args& args) {
  const double t_start = args.t0 >= 0 ? args.t0 : NowS();
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) return 2;
  SpanRecorder spans;
  SpanRecorder* rec = args.trace ? &spans : nullptr;
  if (args.trace) isrec::obs::EnableMetrics(true);

  std::unique_ptr<isrec::data::Dataset> dataset;
  {
    ScopedSpan span(rec, "data.GenerateSyntheticDataset");
    dataset = std::make_unique<isrec::data::Dataset>(
        isrec::data::GenerateSyntheticDataset(spec.data));
  }
  isrec::data::LeaveOneOutSplit split(*dataset);
  isrec::core::IsrecModel model(
      ModelConfig(spec, dataset->concepts.num_concepts(), args.seed));
  {
    ScopedSpan span(rec, "models.Build");
    model.Build(*dataset);
  }
  isrec::data::SequenceBatcher batcher(split, model.config().batch_size,
                                       spec.seq_len);
  const double setup_s = NowS() - t_start;
  Index sequences = 0;
  for (Index u = 0; u < split.num_users(); ++u) {
    if (split.TrainSequence(u).size() >= 2) ++sequences;
  }

  // Fit, epoch by epoch (the loop Fit runs), so each epoch is timed.
  std::vector<double> losses, epoch_s;
  for (Index e = 0; e < spec.epochs; ++e) {
    ScopedSpan span(rec, "models.TrainEpoch");
    const double t = NowS();
    losses.push_back(model.TrainEpoch(batcher));
    epoch_s.push_back(NowS() - t);
  }
  model.SetTraining(false);
  // Rates come from the median epoch and the median evaluation pass, so
  // one disturbed epoch moves them little.
  const double median_epoch_s = Percentile(epoch_s, 0.5);

  // EvaluateRanking is deterministic (fixed negative-sampling seed), so
  // repeating it only repeats the timing.
  isrec::eval::MetricReport report;
  std::vector<double> eval_s;
  const double eval_start = NowS();
  while (eval_s.size() < 3 || (NowS() - eval_start < 0.4 && eval_s.size() < 25)) {
    ScopedSpan span(rec, "eval.EvaluateRanking");
    const double t = NowS();
    report = isrec::eval::EvaluateRanking(model, *dataset, split);
    eval_s.push_back(NowS() - t);
  }
  double pop_ndcg10 = -1.0;
  if (spec.compare_poprec) {
    isrec::models::PopRec pop;
    pop.Fit(*dataset, split);
    pop_ndcg10 = isrec::eval::EvaluateRanking(pop, *dataset, split).ndcg10;
  }

  std::map<std::string, double> layer;
  if (args.trace) {
    for (const auto& h : isrec::obs::SnapshotMetrics().histograms) {
      for (const char* name :
           {"train.forward_ms", "train.backward_ms", "train.optimizer_ms"}) {
        if (h.name == name) layer[name] = h.Mean();
      }
    }
  }
  const double peak_rss = PeakRssMb();
  serve::SaveCheckpoint(model, args.dir + "/model.isrec",
                        static_cast<uint64_t>(spec.epochs));
  if (!WritePool(args.dir + "/pool.txt", BuildPool(spec, split, args.seed))) {
    return 1;
  }

  std::ofstream out(args.dir + "/train.json");
  out << "{\"setup_s\": " << Num(setup_s)
      << ", \"train_seq_per_s\": " << Num(sequences / median_epoch_s)
      << ", \"eval_users_per_s\": "
      << Num(report.num_users / Percentile(eval_s, 0.5))
      << ", \"ndcg10\": " << Num(report.ndcg10)
      << ", \"hr10\": " << Num(report.hr10)
      << ", \"pop_ndcg10\": " << Num(pop_ndcg10)
      << ", \"peak_rss_mb\": " << Num(peak_rss)
      << ", \"epochs\": " << spec.epochs << ", \"losses\": [";
  for (size_t i = 0; i < losses.size(); ++i) {
    out << (i ? ", " : "") << Num(losses[i]);
  }
  out << "], \"train_epoch_s\": " << Num(median_epoch_s)
      << ", \"layer\": {";
  bool first = true;
  for (const auto& [name, value] : layer) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << Num(value);
    first = false;
  }
  out << "}, \"spans\": " << Quote(spans.EventsJson()) << "}\n";
  return out ? 0 : 1;
}

struct Phase {
  std::string name;
  double duration_s = 0.0;
  uint64_t sent = 0, ok = 0, failed = 0;
  std::vector<double> latencies_ms;  // OK answers inside the window.
  std::vector<double> answered_ms;   // Every OK answer, drain included.
  std::vector<double> due_s, issued_s;
  double rps = 0.0;
  LatencySummary summary;
  Lateness lateness;
  serve::ServeStats engine;  // In-process phases.
  int outstanding = 0;       // Closed loop.
  double start_s = 0.0;      // Closed loop: window start ...
  double last_done_s = 0.0;  // ... and its last in-window answer.
  double answered_p50_ms = 0.0;  // p50 of answered_ms.

  /// Computes the phase's figures and frees its samples, so the memory
  /// the load holds does not grow with the number of phases run.
  void Finish() {
    summary = Summarize(latencies_ms);
    lateness = AccountLateness(due_s, issued_s);
    answered_p50_ms = Percentile(answered_ms, 0.5);
    // A closed loop's rate is taken up to its last answer, so it is not
    // quantized by the answers that straddle the window's end.
    const double span = outstanding > 0 ? last_done_s - start_s : duration_s;
    rps = span > 0 ? summary.count / span : 0.0;
    for (std::vector<double>* v : {&latencies_ms, &answered_ms, &due_s, &issued_s}) {
      std::vector<double>().swap(*v);
    }
  }
};

std::vector<int> PickSequence(size_t n, size_t pool_size, uint64_t seed) {
  uint64_t state = seed * 104729 + 11;
  std::vector<int> picks(n);
  for (size_t i = 0; i < n; ++i) {
    picks[i] = static_cast<int>(SplitMix64(state) % pool_size);
  }
  return picks;
}

void SleepUntilS(double t) {
  const double now = NowS();
  if (t > now) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t - now));
  }
}

// -- In-process engine load ------------------------------------------------

using Future = std::future<isrec::Outcome<serve::Recommendation>>;

struct InFlight {
  int pool_index;
  double start_s;  // Due time (open loop) or submit time (closed loop).
  Future future;
};

/// Resolves answered futures: waits briefly on the oldest, then sweeps
/// the rest. `on_done(flight, now)` is called for each answered one, with
/// `now` read after its future was seen ready: a time read once before
/// the sweep would end the latency of an answer that arrives during the
/// sweep (or while this thread is preempted in it) before the engine's
/// own measurement of that request ends.
template <typename OnDone>
void Sweep(std::vector<InFlight>& live, OnDone on_done) {
  if (live.empty()) return;
  live.front().future.wait_for(std::chrono::microseconds(200));
  size_t keep = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i].future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      on_done(live[i], NowS());
    } else {
      if (keep != i) live[keep] = std::move(live[i]);
      ++keep;
    }
  }
  live.resize(keep);
}

void Record(Phase& phase, AnswerLog* answers, const InFlight& f,
            isrec::Outcome<serve::Recommendation> outcome, double now,
            bool in_window, SpanRecorder* spans) {
  if (!outcome.ok()) {
    ++phase.failed;
    return;
  }
  ++phase.ok;
  phase.answered_ms.push_back((now - f.start_s) * 1e3);
  if (in_window) {
    phase.latencies_ms.push_back((now - f.start_s) * 1e3);
    phase.last_done_s = std::max(phase.last_done_s, now);
  }
  if (spans != nullptr) spans->Record("client.engine_request", f.start_s, now);
  answers->Add(f.pool_index, outcome.value().items, outcome.value().scores);
}

Phase EngineOpenLoop(serve::ServingEngine& engine, const Pool& pool,
                     const std::string& name, double rate, double duration,
                     uint64_t seed, AnswerLog* answers,
                     SpanRecorder* spans) {
  Phase phase;
  phase.name = name;
  phase.duration_s = duration;
  phase.due_s = PoissonSchedule(rate, duration, seed);
  const std::vector<int> picks =
      PickSequence(phase.due_s.size(), pool.requests.size(), seed);
  phase.issued_s.resize(phase.due_s.size());
  engine.ResetStats();

  std::mutex mutex;
  std::deque<InFlight> inbox;
  std::atomic<bool> generating{true};
  std::thread collector([&] {
    std::vector<InFlight> live;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        while (!inbox.empty()) {
          live.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
      }
      if (live.empty()) {
        if (!generating.load()) break;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      Sweep(live, [&](InFlight& f, double now) {
        Record(phase, answers, f, f.future.get(), now, true, spans);
      });
    }
  });
  const double t0 = NowS() + 0.002;
  for (size_t i = 0; i < phase.due_s.size(); ++i) {
    const double due = t0 + phase.due_s[i];
    SleepUntilS(due);
    phase.issued_s[i] = NowS();
    Future f = engine.RecommendAsync(pool.requests[picks[i]]);
    std::lock_guard<std::mutex> lock(mutex);
    inbox.push_back({picks[i], due, std::move(f)});
    phase.due_s[i] = due;
  }
  phase.sent = phase.due_s.size();
  generating.store(false);
  collector.join();
  phase.engine = engine.Stats();
  phase.Finish();
  return phase;
}

Phase EngineClosedLoop(serve::ServingEngine& engine, const Pool& pool,
                       const std::string& name, int outstanding,
                       double duration, uint64_t seed,
                       AnswerLog* answers, SpanRecorder* spans) {
  Phase phase;
  phase.name = name;
  phase.duration_s = duration;
  phase.outstanding = outstanding;
  uint64_t state = seed * 31 + 5;
  engine.ResetStats();
  std::vector<InFlight> live;
  const auto submit = [&] {
    const int pick = static_cast<int>(SplitMix64(state) % pool.requests.size());
    live.push_back({pick, NowS(), engine.RecommendAsync(pool.requests[pick])});
    ++phase.sent;
  };
  const double start = NowS();
  const double end = start + duration;
  phase.start_s = start;
  for (int i = 0; i < outstanding; ++i) submit();
  std::vector<std::pair<InFlight, double>> done;
  while (!live.empty()) {
    Sweep(live, [&](InFlight& f, double now) { done.emplace_back(std::move(f), now); });
    // Refill before recording, so `outstanding` requests stay in flight
    // while the answers are checked and logged.
    for (const auto& [f, now] : done) {
      if (now < end) submit();
    }
    for (auto& [f, now] : done) {
      Record(phase, answers, f, f.future.get(), now, now <= end, spans);
    }
    done.clear();
  }
  phase.engine = engine.Stats();
  phase.Finish();
  return phase;
}

// -- HTTP load --------------------------------------------------------------

/// Parses a wire response into `answers`; false when not an OK top-k.
bool RecordWire(Phase& phase, AnswerLog* answers, std::mutex& mutex,
                int pick, bool transport_ok, int status,
                const std::string& body, double start, double now,
                bool in_window, SpanRecorder* spans) {
  WireResponse wire;
  const bool ok = transport_ok && status == 200 &&
                  ParseRecommendResponse(body, &wire) && wire.status == "OK";
  std::lock_guard<std::mutex> lock(mutex);
  if (!ok) {
    ++phase.failed;
    return false;
  }
  ++phase.ok;
  phase.answered_ms.push_back((now - start) * 1e3);
  if (in_window) {
    phase.latencies_ms.push_back((now - start) * 1e3);
    phase.last_done_s = std::max(phase.last_done_s, now);
  }
  if (spans != nullptr) spans->Record("client.http_request", start, now);
  answers->Add(pick, wire.items, wire.scores);
  return true;
}

using Connections = std::vector<std::unique_ptr<HttpConnection>>;

/// Runs fn(0..n-1) on n threads, the calling thread being one of them, so
/// the load never uses more threads than connections.
void RunOnWorkers(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  for (size_t w = 1; w < n; ++w) threads.emplace_back(fn, w);
  fn(0);
  for (std::thread& t : threads) t.join();
}

Phase HttpOpenLoop(Connections& conns, const Pool& pool,
                   const std::string& name, double rate, double duration,
                   uint64_t seed, AnswerLog* answers,
                   SpanRecorder* spans) {
  Phase phase;
  phase.name = name;
  phase.duration_s = duration;
  phase.due_s = PoissonSchedule(rate, duration, seed);
  const std::vector<int> picks =
      PickSequence(phase.due_s.size(), pool.requests.size(), seed);
  phase.issued_s.resize(phase.due_s.size());
  const double t0 = NowS() + 0.002;
  for (double& d : phase.due_s) d += t0;
  std::atomic<size_t> next{0};
  std::mutex mutex;
  // Idle connections, most recently used on top: like a pooling client,
  // a request takes the hottest kept-alive connection.
  std::vector<HttpConnection*> idle;
  for (auto& conn : conns) idle.push_back(conn.get());
  RunOnWorkers(conns.size(), [&](size_t) {
    size_t i;
    while ((i = next.fetch_add(1)) < phase.due_s.size()) {
      SleepUntilS(phase.due_s[i]);
      HttpConnection* c;
      {
        std::lock_guard<std::mutex> lock(mutex);
        c = idle.back();
        idle.pop_back();
      }
      phase.issued_s[i] = NowS();
      int status = 0;
      std::string body, error;
      const bool ok = c->Request("POST", "/recommend",
                                 pool.bodies[picks[i]], &status, &body,
                                 &error);
      RecordWire(phase, answers, mutex, picks[i], ok, status, body,
                 phase.due_s[i], NowS(), true, spans);
      std::lock_guard<std::mutex> lock(mutex);
      idle.push_back(c);
    }
  });
  phase.sent = phase.due_s.size();
  phase.Finish();
  return phase;
}

Phase HttpClosedLoop(const std::vector<HttpConnection*>& conns,
                     const Pool& pool,
                     const std::string& name, double duration, uint64_t seed,
                     AnswerLog* answers, SpanRecorder* spans) {
  Phase phase;
  phase.name = name;
  phase.duration_s = duration;
  phase.outstanding = static_cast<int>(conns.size());
  std::mutex mutex;
  phase.start_s = NowS();
  const double end = phase.start_s + duration;
  RunOnWorkers(conns.size(), [&](size_t w) {
    HttpConnection* c = conns[w];
    uint64_t state = seed * 131 + w;
    while (NowS() < end) {
      const int pick =
          static_cast<int>(SplitMix64(state) % pool.requests.size());
      const double start = NowS();
      int status = 0;
      std::string body, error;
      const bool ok =
          c->Request("POST", "/recommend", pool.bodies[pick], &status,
                     &body, &error);
      const double now = NowS();
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++phase.sent;
      }
      RecordWire(phase, answers, mutex, pick, ok, status, body, start, now,
                 now <= end, spans);
    }
  });
  phase.Finish();
  return phase;
}

// -- Layer timing -----------------------------------------------------------

/// Median wall time of one call in microseconds, over at least
/// `min_reps` calls and `min_s` seconds; each call is a span.
double TimeCall(const std::string& span, SpanRecorder* spans,
                const std::function<void()>& fn, int min_reps = 15,
                double min_s = 0.12) {
  std::vector<double> us;
  const double start = NowS();
  while (static_cast<int>(us.size()) < min_reps || NowS() - start < min_s) {
    const double t = NowS();
    fn();
    const double e = NowS();
    us.push_back((e - t) * 1e6);
    if (spans != nullptr) spans->Record(span, t, e);
    if (us.size() >= 2000) break;
  }
  return Percentile(us, 0.5);
}

struct LayerTimer {
  isrec::core::IsrecModel& model;
  const Pool& pool;
  SpanRecorder* spans;
  std::vector<Index> catalog;

  std::vector<Index> Users(int b) const {
    std::vector<Index> u;
    for (int i = 0; i < b; ++i) u.push_back(pool.requests[i % pool.requests.size()].user);
    return u;
  }
  std::vector<std::vector<Index>> Histories(int b) const {
    std::vector<std::vector<Index>> h;
    for (int i = 0; i < b; ++i) h.push_back(pool.requests[i % pool.requests.size()].history);
    return h;
  }
  double EncodeUs(int b) {
    const auto u = Users(b);
    const auto h = Histories(b);
    return TimeCall("models.EncodeStatesForServing.b" + std::to_string(b),
                    spans, [&] { model.EncodeStatesForServing(u, h); });
  }
  double ScoreBatchUs(int b) {
    const auto u = Users(b);
    const auto h = Histories(b);
    const std::vector<std::vector<Index>> c(b, catalog);
    return TimeCall("models.ScoreBatch.b" + std::to_string(b), spans,
                    [&] { model.ScoreBatch(u, h, c); });
  }
};

// -- Checks over served responses ---------------------------------------------

void CheckResponses(isrec::core::IsrecModel& model, const Pool& pool,
                    const AnswerLog& answers, Index num_items,
                    Checks* checks) {
  const Index d = model.config().embed_dim;
  const float* table = model.item_embedding_table().data();
  std::vector<Index> catalog(num_items);
  for (Index i = 0; i < num_items; ++i) catalog[i] = i;
  int sampled = 0;
  for (size_t index = 0; index < answers.first().size(); ++index) {
    const std::optional<Served>& s = answers.first()[index];
    if (!s) continue;
    const serve::Request& r = pool.requests[index];
    const std::string what = " of pool request " + std::to_string(index);
    // (a) The top 10 of the benchmark's own float64 dot products.
    isrec::Tensor state = model.EncodeStatesForServing({r.user}, {r.history});
    checks->Expect("(a) top-10" + what,
                   CheckTopK(ComputeReference(state.data(), table, num_items,
                                              d, r.k),
                             s->items, s->scores));
    // (b) A sample re-scored alone at B = 1 is bitwise what was served.
    if (sampled++ < 48) {
      const auto scores = model.ScoreBatch({r.user}, {r.history}, {catalog});
      const serve::Recommendation alone = serve::TopK(scores[0], catalog, r.k);
      checks->Expect("(b) B=1 re-score" + what,
                     CheckBitwise(s->items, s->scores, alone.items,
                                  alone.scores));
    }
  }
  // (a) and (b) hold for every later answer to a request when it is
  // bitwise the first one.
  checks->Expect("(b) repeated answers", answers.RepeatReason());
  std::printf("answers: %zu distinct requests checked against the reference, "
              "%llu repeated answers compared bitwise\n",
              answers.distinct(),
              static_cast<unsigned long long>(answers.repeats()));
}

void PrintPhase(const Phase& p) {
  std::printf(
      "phase %-6s sent %6llu ok %6llu failed %llu  %8.1f req/s  p50 %8.3f ms  "
      "p99 %8.3f ms%s  mean %8.3f ms  late p99 %.3f ms (>1ms: %zu)\n",
      p.name.c_str(), static_cast<unsigned long long>(p.sent),
      static_cast<unsigned long long>(p.ok),
      static_cast<unsigned long long>(p.failed), p.rps, p.summary.p50_ms,
      p.summary.p99_ms, p.summary.p99_reliable ? "" : " [p99 flagged: <1000 samples]",
      p.summary.mean_ms, p.lateness.p99_ms, p.lateness.over_1ms);
  if (p.engine.num_requests > 0) {
    std::printf("             engine p50 %8.3f ms  client p50 incl. drain %8.3f ms  "
                "mean batch %.2f\n",
                p.engine.p50_ms, p.answered_p50_ms, p.engine.mean_batch_size);
  }
}

/// One phase kind over all rounds. Every reported figure is the median
/// over the rounds, so disturbed rounds (bursts from other tenants of the
/// machine) move it little while they are a minority.
struct PhaseSeries {
  std::vector<Phase> rounds;

  double Median(const std::function<double(const Phase&)>& f) const {
    std::vector<double> v;
    for (const Phase& p : rounds) v.push_back(f(p));
    return Percentile(v, 0.5);
  }
  double p50() const { return Median([](const Phase& p) { return p.summary.p50_ms; }); }
  double p99() const { return Median([](const Phase& p) { return p.summary.p99_ms; }); }
  double rps() const { return Median([](const Phase& p) { return p.rps; }); }
};

// -- The run ------------------------------------------------------------------

struct TrainResult {
  isrec::json::JsonValue json;
  double Get(const std::string& key) const {
    const isrec::json::JsonValue* v = json.Find(key);
    return v == nullptr ? 0.0 : v->number;
  }
};

bool ReadTrain(const std::string& path, TrainResult* out, std::string* error) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();  // The parser keeps a view of it.
  isrec::json::JsonParser parser(text);
  if (!parser.Parse(&out->json)) {
    *error = "cannot parse " + path;
    return false;
  }
  return true;
}

/// Per-layer metric names, in print order, with their units. A traced
/// run prints all of them; one that has no meaning on the workload's
/// path (the wire metrics on an in-process path) reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"models.encode_us.b1", "us"},
      {"models.encode_us.b32", "us"},
      {"models.score_batch_us.b1", "us"},
      {"models.score_batch_us.b32", "us"},
      {"models.catalog_us.b1", "us"},
      {"models.catalog_us.b32", "us"},
      {"models.score_mixed_us.b64", "us"},
      {"models.train_epoch_s", "s"},
      {"tensor.catalog_gemm_gflops", "GFLOP/s"},
      {"tensor.table_spmm_us", "us"},
      {"tensor.gemm_flops_per_req", "FLOP"},
      {"serve.topk_us", "us"},
      {"serve.batch_size_mean.low", "requests"},
      {"serve.batch_size_mean.high", "requests"},
      {"serve.batch_size_mean.sat", "requests"},
      {"serve.engine_p50_ms.low", "ms"},
      {"serve.engine_p50_ms.high", "ms"},
      {"serve.engine_p50_ms.sat", "ms"},
      {"serve.wait_ms.low", "ms"},
      {"serve.wait_ms.high", "ms"},
      {"serve.wait_ms.sat", "ms"},
      {"serve.allocs_per_req", "count"},
      {"serve.alloc_kb_per_req", "KB"},
      {"serve.codec_us", "us"},
      {"obs.http_rtt_ms", "ms"},
      {"obs.http_overhead_ms", "ms"},
      {"obs.keepalive_reuse_ratio", "1"},
      {"router.hop_ms", "ms"},
      {"router.forwarded_ratio", "1"},
      {"router.retries", "count"},
      {"router.transport_errors", "count"},
      {"train.forward_ms", "ms"},
      {"train.backward_ms", "ms"},
      {"train.optimizer_ms", "ms"},
      {"utils.parallel_dispatches_per_req", "count"},
      {"gen.lateness_p99_ms.high", "ms"},
      {"trace.overhead_sat_rps_pct", "%"},
      {"trace.overhead_high_p50_pct", "%"},
  };
  return names;
}

/// Reads a JSON document from GET <target> on `port`.
bool GetJson(int port, const std::string& target, isrec::json::JsonValue* out,
             std::string* error) {
  std::string body;
  if (!HttpGet(port, target, &body, error)) return false;
  isrec::json::JsonParser parser(body);
  if (!parser.Parse(out)) {
    *error = "cannot parse " + target + " JSON";
    return false;
  }
  return true;
}

double JsonPath(const isrec::json::JsonValue& root,
                const std::vector<std::string>& path) {
  const isrec::json::JsonValue* v = &root;
  for (const std::string& key : path) {
    v = v->Find(key);
    if (v == nullptr) return 0.0;
  }
  return v->kind == isrec::json::JsonValue::kNumber ? v->number : 0.0;
}

class Runner {
 public:
  explicit Runner(const Args& args) : args_(args) {}

  /// `perfbench run`: inputs, serving, checks and the result line.
  int Run();
  /// `perfbench serve`: the in-process serving child; writes serve.json.
  int ServeChild();

 private:
  bool Fail(const std::string& reason) {
    std::fprintf(stderr, "perfbench: %s\n", reason.c_str());
    return false;
  }
  bool Train();
  bool ServeInChild();
  bool ServeEngine();
  bool ServeRouted();
  bool StartTier(std::vector<int>* replica_ports, int* router_port);
  bool LoadPool();
  void TimeLayers(isrec::core::IsrecModel& model);
  /// Median ScoreBatch time (us) over the full catalog at the batch size
  /// nearest `batch`, measured once per size.
  double ScoreBatchUs(isrec::core::IsrecModel& model, double batch);
  std::vector<Index> Catalog() const {
    std::vector<Index> c(static_cast<size_t>(num_items_));
    for (Index i = 0; i < num_items_; ++i) c[i] = i;
    return c;
  }
  // The open-loop phases get 40% of --seconds each (their percentiles
  // need the samples), the closed loop the remaining 20%.
  // Each of the kRounds rounds runs low, high and sat in turn.
  static constexpr int kRounds = 7;
  double OpenSeconds() const { return args_.seconds * 0.4 / kRounds; }
  double ClosedSeconds() const { return args_.seconds * 0.2 / kRounds; }
  uint64_t PhaseSeed(int round, int phase) const {
    return args_.seed * 977 + round * 10 + phase;
  }
  void AddPhases(const PhaseSeries& low, const PhaseSeries& high,
                 const PhaseSeries& sat);
  /// Counts a phase run after the rounds (the traced ones).
  void AddPhase(const Phase& p);
  /// (d) Little's law on one closed-loop phase.
  void CheckClosedLoop(const Phase& p);
  void Layer(const std::string& name, double value) { layer_[name] = value; }
  /// The serving child's figures, checks and spans, as serve.json.
  bool WritePart(const std::string& path) const;
  bool MergePart(const std::string& path);

  const Args& args_;
  WorkloadSpec spec_;
  std::string dir_;
  std::string checkpoint_;
  Index num_items_ = 0;
  Pool pool_;
  std::unique_ptr<AnswerLog> answers_;
  SpanRecorder spans_store_;
  SpanRecorder* spans_ = nullptr;
  TrainResult train_;
  Checks checks_;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
  uint64_t attempted_ = 0, failed_ = 0;
  std::map<int, double> score_batch_us_;  // ScoreBatch median by B.
  std::vector<Child> tier_;               // routed_http processes.
};

bool Runner::Train() {
  const std::string log = dir_ + "/train.log";
  std::vector<std::string> argv = {
      args_.self, "train", "--workload", spec_.name, "--seed",
      std::to_string(args_.seed), "--dir", dir_, "--trace",
      args_.trace ? "1" : "0", "--t0", std::to_string(NowS())};
  Child child = Spawn("training child", argv, log);
  if (child.pid <= 0) return Fail("cannot start the training child");
  const int code = WaitChild(child, 150.0);
  if (code != 0) {
    return Fail("training child failed (exit " + std::to_string(code) +
                "); see " + log);
  }
  std::string error;
  if (!ReadTrain(dir_ + "/train.json", &train_, &error)) return Fail(error);
  std::vector<double> losses;
  if (const auto* l = train_.json.Find("losses")) {
    for (const auto& v : l->array) losses.push_back(v.number);
  }
  checks_.Expect("(e) training",
                 CheckTraining(losses, train_.Get("ndcg10"), train_.Get("hr10"),
                               spec_.compare_poprec ? train_.Get("pop_ndcg10")
                                                    : -1.0));
  std::printf("train: %lld epochs, losses", static_cast<long long>(spec_.epochs));
  for (double l : losses) std::printf(" %.4f", l);
  std::printf("; NDCG@10 %.4f HR@10 %.4f (PopRec %.4f)\n", train_.Get("ndcg10"),
              train_.Get("hr10"), train_.Get("pop_ndcg10"));
  e2e_["train_seq_per_s"] = train_.Get("train_seq_per_s");
  e2e_["eval_users_per_s"] = train_.Get("eval_users_per_s");
  e2e_["ndcg10"] = train_.Get("ndcg10");
  attempted_ += static_cast<uint64_t>(spec_.epochs) + 1;
  Layer("models.train_epoch_s", train_.Get("train_epoch_s"));
  if (const auto* layer = train_.json.Find("layer")) {
    for (const auto& [name, v] : layer->object) Layer(name, v.number);
  }
  if (const auto* s = train_.json.Find("spans")) spans_store_.Merge(s->str);
  return true;
}

bool Runner::LoadPool() {
  if (!ReadPool(dir_ + "/pool.txt", &pool_)) {
    return Fail("cannot read the request pool " + dir_ + "/pool.txt");
  }
  answers_ = std::make_unique<AnswerLog>(pool_.requests.size());
  return true;
}

void Runner::CheckClosedLoop(const Phase& p) {
  checks_.Expect("(d) Little's law, closed loop " + p.name,
                 CheckLittle(p.outstanding, p.rps, p.summary.mean_ms / 1e3));
}

void Runner::AddPhase(const Phase& p) {
  PrintPhase(p);
  attempted_ += p.sent;
  failed_ += p.failed;
  if (p.outstanding > 0) CheckClosedLoop(p);
}

void Runner::AddPhases(const PhaseSeries& low, const PhaseSeries& high,
                       const PhaseSeries& sat) {
  for (const PhaseSeries* series : {&low, &high, &sat}) {
    for (const Phase& p : series->rounds) AddPhase(p);
  }
  std::printf("medians over %d rounds: low p50 %.4f p99 %.4f ms, high p50 %.4f "
              "p99 %.4f ms, sat %.2f req/s\n",
              kRounds, low.p50(), low.p99(), high.p50(), high.p99(), sat.rps());
  e2e_["low_p50_ms"] = low.p50();
  e2e_["low_p99_ms"] = low.p99();
  e2e_["high_p50_ms"] = high.p50();
  e2e_["high_p99_ms"] = high.p99();
  e2e_["sat_rps"] = sat.rps();
  Layer("gen.lateness_p99_ms.high",
        high.Median([](const Phase& p) { return p.lateness.p99_ms; }));
}

bool Runner::WritePart(const std::string& path) const {
  std::ofstream out(path);
  const auto map = [&](const std::map<std::string, double>& m) {
    out << "{";
    bool first = true;
    for (const auto& [name, value] : m) {
      out << (first ? "" : ", ") << Quote(name) << ": " << Num(value);
      first = false;
    }
    out << "}";
  };
  out << "{\"e2e\": ";
  map(e2e_);
  out << ", \"layer\": ";
  map(layer_);
  out << ", \"passed\": " << checks_.passed << ", \"failures\": [";
  for (size_t i = 0; i < checks_.failures.size(); ++i) {
    out << (i ? ", " : "") << Quote(checks_.failures[i]);
  }
  out << "], \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"spans\": " << Quote(spans_store_.EventsJson()) << "}\n";
  return static_cast<bool>(out);
}

bool Runner::MergePart(const std::string& path) {
  TrainResult part;
  std::string error;
  if (!ReadTrain(path, &part, &error)) return Fail(error);
  if (const auto* m = part.json.Find("e2e")) {
    for (const auto& [name, v] : m->object) e2e_[name] = v.number;
  }
  if (const auto* m = part.json.Find("layer")) {
    for (const auto& [name, v] : m->object) Layer(name, v.number);
  }
  checks_.passed += static_cast<size_t>(part.Get("passed"));
  if (const auto* f = part.json.Find("failures")) {
    for (const auto& v : f->array) checks_.failures.push_back(v.str);
  }
  attempted_ += static_cast<uint64_t>(part.Get("attempted"));
  failed_ += static_cast<uint64_t>(part.Get("failed"));
  if (const auto* s = part.json.Find("spans")) spans_store_.Merge(s->str);
  return true;
}

bool Runner::ServeInChild() {
  const std::string log = dir_ + "/serve.log";
  std::vector<std::string> argv = {
      args_.self, "serve", "--workload", spec_.name, "--seed",
      std::to_string(args_.seed), "--seconds", Num(args_.seconds),
      "--trace", args_.trace ? "1" : "0", "--dir", dir_,
      "--t0", std::to_string(NowS())};
  Child child = Spawn("serving child", argv, log);
  if (child.pid <= 0) return Fail("cannot start the serving child");
  const int code = WaitChild(child, 60.0 + 3.0 * args_.seconds);
  std::ifstream in(log);
  std::string line;
  while (std::getline(in, line)) std::printf("%s\n", line.c_str());
  if (code != 0) {
    return Fail("serving child failed (exit " + std::to_string(code) +
                "); see " + log);
  }
  return MergePart(dir_ + "/serve.json");
}

int Runner::ServeChild() {
  if (!FindWorkload(args_.workload, &spec_) || args_.dir.empty()) return 2;
  dir_ = args_.dir;
  checkpoint_ = dir_ + "/model.isrec";
  if (args_.trace) spans_ = &spans_store_;
  if (!ServeEngine()) return 1;
  std::fflush(stdout);
  return WritePart(dir_ + "/serve.json") ? 0 : 1;
}

// Runs in the serving child: set-up is timed from the parent's start of
// this process until the engine can take its first request.
bool Runner::ServeEngine() {
  auto loaded = serve::ServableModel::Load(checkpoint_);
  if (!loaded.ok()) return Fail("cannot load checkpoint: " + loaded.status().ToString());
  std::shared_ptr<serve::ServableModel> servable = loaded.value();
  auto engine = std::make_unique<serve::ServingEngine>(servable);
  const double setup_s = NowS() - args_.t0;
  if (spec_.name != "train_eval") e2e_["setup_s"] = setup_s;
  std::printf("engine ready %.4f s after the serving process was started\n",
              setup_s);
  num_items_ = servable->num_items();
  if (!LoadPool()) return false;

  // Warm-up (not measured): fills the kernels' scratch and thread pools.
  EngineClosedLoop(*engine, pool_, "warmup", 16, 0.25, args_.seed,
                   answers_.get(), nullptr);

  PhaseSeries low, high, sat;
  for (int r = 0; r < kRounds; ++r) {
    low.rounds.push_back(EngineOpenLoop(*engine, pool_, "low", spec_.low_rps,
                                        OpenSeconds(), PhaseSeed(r, 1),
                                        answers_.get(), nullptr));
    high.rounds.push_back(EngineOpenLoop(*engine, pool_, "high", spec_.high_rps,
                                         OpenSeconds(), PhaseSeed(r, 2),
                                         answers_.get(), nullptr));
    sat.rounds.push_back(EngineClosedLoop(*engine, pool_, "sat",
                                          spec_.outstanding, ClosedSeconds(),
                                          PhaseSeed(r, 3), answers_.get(), nullptr));
  }
  AddPhases(low, high, sat);
  for (const PhaseSeries* series : {&low, &high, &sat}) {
    for (const Phase& p : series->rounds) {
      checks_.Expect("(c) conservation " + p.name,
                     CheckConservation(p.sent, p.ok, p.failed,
                                       {{"engine ok", p.engine.ok}}));
      // Over the same requests: the engine's stats cover every answer of
      // the round, drain included.
      checks_.Expect("(d) engine p50 " + p.name,
                     CheckServerP50(p.engine.p50_ms, p.answered_p50_ms));
    }
  }
  if (spec_.name != "train_eval") e2e_["peak_rss_mb"] = PeakRssMb();

  isrec::core::IsrecModel& model = *servable->model;
  if (args_.trace) {
    // Traced repeat of the high and closed phases with the program's
    // metrics and heap accounting on; the difference to the untraced
    // phases above is the tracing overhead.
    isrec::obs::EnableMetrics(true);
    const bool heap = isrec::obs::heap::HookCompiled();
    if (heap) isrec::obs::heap::EnableHeapProfiling(true);
    Phase high_t = EngineOpenLoop(*engine, pool_, "high_t", spec_.high_rps,
                                  OpenSeconds(), PhaseSeed(0, 2), answers_.get(),
                                  spans_);
    auto counter = [](const char* n) { return isrec::obs::GetCounter(n).Value(); };
    const uint64_t flops0 = counter("tensor.gemm_flops");
    const uint64_t disp0 = counter("parallel.dispatches");
    const auto heap0 = isrec::obs::heap::SnapshotHeapTotals();
    Phase sat_t = EngineClosedLoop(*engine, pool_, "sat_t", spec_.outstanding,
                                   ClosedSeconds(), PhaseSeed(0, 3), answers_.get(),
                                   spans_);
    const auto heap1 = isrec::obs::heap::SnapshotHeapTotals();
    const double reqs = std::max<double>(1.0, sat_t.ok);
    Layer("tensor.gemm_flops_per_req", (counter("tensor.gemm_flops") - flops0) / reqs);
    Layer("utils.parallel_dispatches_per_req",
          (counter("parallel.dispatches") - disp0) / reqs);
    Layer("serve.allocs_per_req", (heap1.allocs - heap0.allocs) / reqs);
    Layer("serve.alloc_kb_per_req",
          (heap1.alloc_bytes - heap0.alloc_bytes) / reqs / 1024.0);
    if (heap) isrec::obs::heap::EnableHeapProfiling(false);
    isrec::obs::EnableMetrics(false);
    AddPhase(high_t);
    AddPhase(sat_t);
    Layer("trace.overhead_sat_rps_pct", 100.0 * (sat.rps() - sat_t.rps) / sat.rps());
    Layer("trace.overhead_high_p50_pct",
          100.0 * (high_t.summary.p50_ms - high.p50()) / high.p50());
    TimeLayers(model);
    const std::pair<const char*, const PhaseSeries*> phases[] = {
        {"low", &low}, {"high", &high}, {"sat", &sat}};
    for (const auto& [name, p] : phases) {
      const double b =
          p->Median([](const Phase& ph) { return ph.engine.mean_batch_size; });
      const double p50 = p->Median([](const Phase& ph) { return ph.engine.p50_ms; });
      Layer(std::string("serve.batch_size_mean.") + name, b);
      Layer(std::string("serve.engine_p50_ms.") + name, p50);
      Layer(std::string("serve.wait_ms.") + name,
            p50 - ScoreBatchUs(model, b) / 1e3);
    }
  }
  engine.reset();
  CheckResponses(model, pool_, *answers_, num_items_, &checks_);
  return true;
}

void Runner::TimeLayers(isrec::core::IsrecModel& model) {
  isrec::NoGradGuard no_grad;
  const Index num_items = num_items_;
  LayerTimer t{model, pool_, spans_, Catalog()};
  const double enc1 = t.EncodeUs(1), enc32 = t.EncodeUs(32);
  const double score1 = ScoreBatchUs(model, 1);
  const double score32 = ScoreBatchUs(model, 32);
  Layer("models.encode_us.b1", enc1);
  Layer("models.encode_us.b32", enc32);
  Layer("models.score_batch_us.b1", score1);
  Layer("models.score_batch_us.b32", score32);
  Layer("models.catalog_us.b1", score1 - enc1);
  Layer("models.catalog_us.b32", score32 - enc32);

  // The evaluator's shape: 64 users x (target + 100 sampled negatives).
  {
    uint64_t state = args_.seed * 17 + 1;
    std::vector<std::vector<Index>> lists(64);
    for (auto& l : lists) {
      for (int j = 0; j < 101; ++j) l.push_back(SplitMix64(state) % num_items);
    }
    const auto u = t.Users(64);
    const auto h = t.Histories(64);
    Layer("models.score_mixed_us.b64",
          TimeCall("models.ScoreBatch.mixed101.b64", spans_,
                   [&] { model.ScoreBatch(u, h, lists); }));
  }
  {
    isrec::Tensor states = model.EncodeStatesForServing(t.Users(32), t.Histories(32));
    isrec::Tensor table = model.item_embedding_table();
    if (table.dim(0) != num_items) table = isrec::Slice(table, 0, 0, num_items);
    const double us = TimeCall("tensor.BatchMatMul.catalog", spans_, [&] {
      isrec::BatchMatMul(states, table, false, true);
    });
    const double flops = 2.0 * 32 * num_items * model.config().embed_dim;
    Layer("tensor.catalog_gemm_gflops", flops / (us * 1e-6) / 1e9);
  }
  {
    // The concept incidence E of the workload's dataset (rebuilt here;
    // the serving side is otherwise given only the checkpoint and pool).
    const isrec::data::Dataset dataset =
        isrec::data::GenerateSyntheticDataset(spec_.data);
    std::vector<Index> rows, cols;
    std::vector<float> values;
    for (Index item = 0; item < num_items; ++item) {
      for (Index c : dataset.item_concepts[item]) {
        rows.push_back(item);
        cols.push_back(c);
        values.push_back(1.0f);
      }
    }
    const Index k = dataset.concepts.num_concepts();
    isrec::SparseMatrix e(num_items, k, rows, cols, values);
    isrec::Rng rng(args_.seed);
    isrec::Tensor c = isrec::Tensor::Randn({k, model.config().embed_dim}, 0.1f, rng);
    Layer("tensor.table_spmm_us",
          TimeCall("tensor.SpMM.concept_table", spans_, [&] { isrec::SpMM(e, c); }));
  }
  {
    const serve::Request& r = pool_.requests[0];
    const std::vector<float> scores = model.ScoreBatch({r.user}, {r.history}, {t.catalog})[0];
    Layer("serve.topk_us", TimeCall("serve.TopK", spans_, [&] {
            serve::TopK(scores, t.catalog, r.k);
          }));
    serve::RecommendResponse response;
    response.has_value = true;
    response.recommendation = serve::TopK(scores, t.catalog, r.k);
    Layer("serve.codec_us", TimeCall("serve.codec", spans_, [&] {
            serve::Request decoded;
            serve::RecommendResponse back;
            std::string error;
            serve::RecommendRequestFromJson(serve::RecommendRequestToJson(r),
                                            &decoded, &error);
            serve::RecommendResponseFromJson(
                serve::RecommendResponseToJson(response), &back, &error);
          }));
  }
}

bool Runner::StartTier(std::vector<int>* replica_ports, int* router_port) {
  const std::vector<std::string> env =
      args_.trace ? std::vector<std::string>{"ISREC_HEAP_PROFILE=1"}
                  : std::vector<std::string>{};
  std::vector<Child> replicas;
  for (int r = 0; r < 2; ++r) {
    replicas.push_back(Spawn(
        "replica " + std::to_string(r),
        {args_.bin_dir + "/isrec_serve", "--serve", "--load", checkpoint_,
         "--admin-port", "0"},
        dir_ + "/replica" + std::to_string(r) + ".log", env));
  }
  std::string error, rest;
  for (const Child& c : replicas) {
    if (!WaitForLogLine(c, "replica on http://127.0.0.1:", 60.0, &rest, &error)) {
      return Fail("replica start-up: " + error);
    }
    replica_ports->push_back(std::atoi(rest.c_str()));
    tier_.push_back(c);
  }
  std::vector<std::string> argv = {args_.bin_dir + "/isrec_router", "--port", "0"};
  for (int p : *replica_ports) {
    argv.push_back("--replica");
    argv.push_back("127.0.0.1:" + std::to_string(p));
  }
  Child router = Spawn("router", argv, dir_ + "/router.log");
  tier_.push_back(router);
  if (!WaitForLogLine(router, "router on http://127.0.0.1:", 30.0, &rest, &error)) {
    return Fail("router start-up: " + error);
  }
  *router_port = std::atoi(rest.c_str());
  // Routable: the router's prober has marked both replicas up.
  const double deadline = NowS() + 30.0;
  while (true) {
    isrec::json::JsonValue varz;
    if (GetJson(*router_port, "/varz", &varz, &error) &&
        JsonPath(varz, {"router", "routable"}) >= 2) {
      return true;
    }
    if (NowS() > deadline) {
      return Fail("router did not report both replicas routable within 30 s" +
                  (error.empty() ? "" : " (last error: " + error + ")"));
    }
    // Fine-grained, as setup_s ends here; each poll is one small GET.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

struct ReplicaVarz {
  double ok = 0, requests = 0, batches = 0, p50_ms = 0;
  double allocs_per_req = 0, alloc_bytes_per_req = 0;
  double http_requests = 0, keepalive_reuses = 0, gemm_flops = 0,
         dispatches = 0;
};

bool ReadReplica(int port, ReplicaVarz* out, std::string* error) {
  isrec::json::JsonValue v;
  if (!GetJson(port, "/varz", &v, error)) return false;
  out->ok = JsonPath(v, {"serve_stats", "ok"});
  out->requests = JsonPath(v, {"serve_stats", "requests"});
  out->batches = JsonPath(v, {"serve_stats", "batches"});
  out->p50_ms = JsonPath(v, {"serve_stats", "p50_ms"});
  out->allocs_per_req = JsonPath(v, {"serve_stats", "allocs_per_request"});
  out->alloc_bytes_per_req =
      JsonPath(v, {"serve_stats", "alloc_bytes_per_request"});
  out->http_requests = JsonPath(v, {"metrics", "counters", "http.requests"});
  out->keepalive_reuses =
      JsonPath(v, {"metrics", "counters", "http.keepalive_reuses"});
  out->gemm_flops = JsonPath(v, {"metrics", "counters", "tensor.gemm_flops"});
  out->dispatches = JsonPath(v, {"metrics", "counters", "parallel.dispatches"});
  return true;
}

bool Runner::ServeRouted() {
  const double t0 = NowS();
  std::vector<int> replica_ports;
  int router_port = 0;
  if (!StartTier(&replica_ports, &router_port)) return false;
  const double setup_s = NowS() - t0;
  e2e_["setup_s"] = setup_s;
  std::printf("tier routable in %.4f s (router :%d, replicas :%d :%d)\n",
              setup_s, router_port, replica_ports[0], replica_ports[1]);

  // Open-loop phases share a pool of kept-alive connections; the closed
  // loop drives the first `outstanding` of them. The load never holds more
  // connections than the pool.
  Connections conns;
  std::vector<HttpConnection*> every, closed;
  for (int i = 0; i < spec_.connections; ++i) {
    conns.push_back(std::make_unique<HttpConnection>(router_port));
    every.push_back(conns.back().get());
    if (i < spec_.outstanding) closed.push_back(conns.back().get());
  }
  std::string error;
  // Traced runs read the replicas' batch counters around every phase.
  struct Batching {
    double requests = 0, batches = 0;
    std::vector<double> p50s;
  };
  std::map<std::string, Batching> batching;
  const auto mark = [&] {
    std::vector<ReplicaVarz> now(replica_ports.size());
    if (args_.trace) {
      for (size_t r = 0; r < replica_ports.size(); ++r) {
        ReadReplica(replica_ports[r], &now[r], &error);
      }
    }
    return now;
  };
  const auto account = [&](const std::string& name,
                           const std::vector<ReplicaVarz>& before) {
    if (!args_.trace) return;
    const std::vector<ReplicaVarz> after = mark();
    Batching& b = batching[name];
    double p50 = 0;
    for (size_t r = 0; r < after.size(); ++r) {
      b.requests += after[r].requests - before[r].requests;
      b.batches += after[r].batches - before[r].batches;
      p50 += after[r].p50_ms / after.size();
    }
    b.p50s.push_back(p50);
  };

  Phase warmup = HttpClosedLoop(every, pool_, "warmup", 0.25, args_.seed,
                                answers_.get(), nullptr);
  PhaseSeries low, high, sat;
  for (int r = 0; r < kRounds; ++r) {
    auto before = mark();
    low.rounds.push_back(HttpOpenLoop(conns, pool_, "low", spec_.low_rps,
                                      OpenSeconds(), PhaseSeed(r, 1), answers_.get(),
                                      nullptr));
    account("low", before);
    before = mark();
    high.rounds.push_back(HttpOpenLoop(conns, pool_, "high", spec_.high_rps,
                                       OpenSeconds(), PhaseSeed(r, 2),
                                       answers_.get(), nullptr));
    account("high", before);
    before = mark();
    sat.rounds.push_back(HttpClosedLoop(closed, pool_, "sat", ClosedSeconds(),
                                        PhaseSeed(r, 3), answers_.get(), nullptr));
    account("sat", before);
  }
  AddPhases(low, high, sat);
  std::vector<const Phase*> routed = {&warmup};
  for (const PhaseSeries* series : {&low, &high, &sat}) {
    for (const Phase& p : series->rounds) routed.push_back(&p);
  }
  uint64_t direct_ok = 0;
  std::vector<Phase> traced;
  if (args_.trace) {
    traced.push_back(HttpOpenLoop(conns, pool_, "high_t", spec_.high_rps,
                                  OpenSeconds(), PhaseSeed(0, 2), answers_.get(),
                                  spans_));
    traced.push_back(HttpClosedLoop(closed, pool_, "sat_t", ClosedSeconds(),
                                    PhaseSeed(0, 3), answers_.get(), spans_));
    for (const Phase& p : traced) AddPhase(p);
    Layer("trace.overhead_sat_rps_pct",
          100.0 * (sat.rps() - traced[1].rps) / sat.rps());
    Layer("trace.overhead_high_p50_pct",
          100.0 * (traced[0].summary.p50_ms - high.p50()) / high.p50());
    // Router hop: routed and direct round trips interleaved on one client,
    // on two connections (the idle rest of the pool is closed first).
    for (size_t i = 1; i < conns.size(); ++i) conns[i]->Close();
    HttpConnection direct(replica_ports[0]);
    Phase routed_rtt, direct_rtt;
    std::mutex mutex;
    for (int i = 0; i < 200; ++i) {
      const int pick = i % static_cast<int>(pool_.requests.size());
      for (int leg = 0; leg < 2; ++leg) {
        HttpConnection& c = leg == 0 ? *closed[0] : direct;
        Phase& p = leg == 0 ? routed_rtt : direct_rtt;
        int status = 0;
        std::string body;
        const double start = NowS();
        const bool ok = c.Request("POST", "/recommend", pool_.bodies[pick],
                                  &status, &body, &error);
        ++p.sent;
        RecordWire(p, answers_.get(), mutex, pick, ok, status, body, start, NowS(),
                   true, spans_);
      }
    }
    routed_rtt.Finish();
    direct_rtt.Finish();
    traced.push_back(routed_rtt);
    direct_ok = direct_rtt.ok;
    attempted_ += routed_rtt.sent + direct_rtt.sent;
    failed_ += routed_rtt.failed + direct_rtt.failed;
    Layer("router.hop_ms", routed_rtt.summary.p50_ms - direct_rtt.summary.p50_ms);
    Layer("obs.http_rtt_ms", direct_rtt.summary.p50_ms);
    ReplicaVarz r0;
    if (ReadReplica(replica_ports[0], &r0, &error)) {
      Layer("obs.http_overhead_ms", direct_rtt.summary.p50_ms - r0.p50_ms);
    }
  }
  for (const Phase& p : traced) routed.push_back(&p);
  uint64_t routed_sent = 0, routed_ok = 0, routed_failed = 0;
  for (const Phase* p : routed) {
    routed_sent += p->sent;
    routed_ok += p->ok;
    routed_failed += p->failed;
  }

  // Server-side counters, then the tier's peak RSS, then stop it.
  isrec::json::JsonValue router_varz;
  if (!GetJson(router_port, "/varz", &router_varz, &error)) {
    return Fail("router /varz: " + error);
  }
  const auto decision = [&](const char* key) {
    return JsonPath(router_varz, {"router", "decisions", key});
  };
  ReplicaVarz sum;
  double max_p50 = 0.0;
  for (int port : replica_ports) {
    ReplicaVarz r;
    if (!ReadReplica(port, &r, &error)) return Fail("replica /varz: " + error);
    sum.ok += r.ok;
    sum.http_requests += r.http_requests;
    sum.keepalive_reuses += r.keepalive_reuses;
    sum.gemm_flops += r.gemm_flops;
    sum.dispatches += r.dispatches;
    sum.allocs_per_req += r.allocs_per_req / replica_ports.size();
    sum.alloc_bytes_per_req += r.alloc_bytes_per_req / replica_ports.size();
    max_p50 = std::max(max_p50, r.p50_ms);
  }
  double rss = 0.0;
  for (const Child& c : tier_) rss += PeakRssMb(c.pid);
  e2e_["peak_rss_mb"] = rss;
  StopChildren();
  tier_.clear();

  checks_.Expect(
      "(c) routed conservation",
      CheckConservation(routed_sent, routed_ok, routed_failed,
                        {{"router forwarded",
                          static_cast<uint64_t>(decision("forwarded"))},
                         {"replica ok sum minus direct",
                          static_cast<uint64_t>(sum.ok) - direct_ok}}));
  checks_.Expect("(d) replica p50",
                 CheckServerP50(max_p50, std::min({low.p50(), high.p50(),
                                                   sat.Median([](const Phase& p) {
                                                     return p.summary.p50_ms;
                                                   })})));

  auto loaded = serve::ServableModel::Load(checkpoint_);
  if (!loaded.ok()) return Fail("cannot load checkpoint: " + loaded.status().ToString());
  isrec::core::IsrecModel& model = *loaded.value()->model;
  num_items_ = loaded.value()->num_items();
  if (args_.trace) {
    const double reqs = std::max(1.0, sum.ok);
    Layer("tensor.gemm_flops_per_req", sum.gemm_flops / reqs);
    Layer("utils.parallel_dispatches_per_req", sum.dispatches / reqs);
    Layer("serve.allocs_per_req", sum.allocs_per_req);
    Layer("serve.alloc_kb_per_req", sum.alloc_bytes_per_req / 1024.0);
    Layer("obs.keepalive_reuse_ratio",
          sum.keepalive_reuses / std::max(1.0, sum.http_requests));
    Layer("router.forwarded_ratio",
          decision("forwarded") / std::max(1.0, decision("requests")));
    Layer("router.retries", decision("retried"));
    Layer("router.transport_errors", decision("transport_errors"));
    TimeLayers(model);
    for (const auto& [name, b] : batching) {
      const double mean = b.batches > 0 ? b.requests / b.batches : 0.0;
      const double p50 = Percentile(b.p50s, 0.5);
      Layer("serve.batch_size_mean." + name, mean);
      Layer("serve.engine_p50_ms." + name, p50);
      Layer("serve.wait_ms." + name, p50 - ScoreBatchUs(model, mean) / 1e3);
    }
  }
  CheckResponses(model, pool_, *answers_, num_items_, &checks_);
  return true;
}

double Runner::ScoreBatchUs(isrec::core::IsrecModel& model, double batch) {
  const int b = std::clamp(static_cast<int>(std::lround(batch)), 1, 32);
  if (score_batch_us_.count(b) == 0) {
    LayerTimer timer{model, pool_, spans_, Catalog()};
    score_batch_us_[b] = timer.ScoreBatchUs(b);
  }
  return score_batch_us_[b];
}

int Runner::Run() {
  if (!FindWorkload(args_.workload, &spec_)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "perfbench: unknown workload '%s' (have:%s)\n",
                 args_.workload.c_str(), names.c_str());
    return 2;
  }
  if (args_.bin_dir.empty()) {
    std::fprintf(stderr, "perfbench: --bin-dir is required\n");
    return 2;
  }
  dir_ = args_.out_dir + "/" + spec_.name + "-s" + std::to_string(args_.seed) +
         (args_.trace ? "-trace" : "");
  std::filesystem::create_directories(dir_);
  checkpoint_ = dir_ + "/model.isrec";
  if (args_.trace) spans_ = &spans_store_;

  bool ok = Train();
  if (ok && spec_.path == Path::kRouted) ok = LoadPool() && ServeRouted();
  else if (ok) ok = ServeInChild();
  StopChildren();
  if (!ok) return 1;
  if (spec_.name == "train_eval") {
    e2e_["setup_s"] = train_.Get("setup_s");
    e2e_["peak_rss_mb"] = train_.Get("peak_rss_mb");
  }

  for (const std::string& f : checks_.failures) {
    std::printf("CHECK FAILED %s\n", f.c_str());
  }
  std::printf("checks: %zu passed, %zu failed\n", checks_.passed,
              checks_.failures.size());
  std::vector<Metric> metrics;
  if (args_.trace) {
    const std::string span_path = dir_ + "/spans.json";
    spans_store_.Write(span_path);
    std::printf("spans: %zu recorded here plus those of the children, "
                "written to %s\n",
                spans_store_.size(), span_path.c_str());
    for (const auto& [name, unit] : LayerMetricNames()) {
      const auto it = layer_.find(name);
      metrics.push_back({name, it == layer_.end() ? 0.0 : it->second, unit});
    }
  } else {
    const std::pair<const char*, const char*> e2e[] = {
        {"setup_s", "s"},          {"sat_rps", "requests/s"},
        {"low_p50_ms", "ms"},      {"low_p99_ms", "ms"},
        {"high_p50_ms", "ms"},     {"high_p99_ms", "ms"},
        {"peak_rss_mb", "MB"},     {"train_seq_per_s", "sequences/s"},
        {"eval_users_per_s", "users/s"}, {"ndcg10", "1"}};
    for (const auto& [name, unit] : e2e) metrics.push_back({name, e2e_[name], unit});
  }
  const bool correct = checks_.failures.empty();
  std::printf("%s\n", ResultLine(correct, attempted_, failed_, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (args.command == "train") return perfbench::RunTrain(args);
  if (args.command == "serve") return perfbench::Runner(args).ServeChild();
  if (args.command != "run") {
    std::fprintf(stderr, "perfbench: unknown command %s\n", args.command.c_str());
    return 2;
  }
  perfbench::InstallInterruptHandlers();
  perfbench::Runner runner(args);
  return runner.Run();
}
