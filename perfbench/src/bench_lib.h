// Building blocks of the ISRec benchmark that do not depend on the model:
// latency summaries and the p99 sample rule, the seeded Poisson arrival
// schedule, generator-lateness accounting, the output checks, an
// in-memory span recorder, a keep-alive HTTP/1.1 client, and child
// process supervision. perfbench_selftest covers the statistics, the
// checks and the wire-response parser.
#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock (CLOCK_MONOTONIC), which every process of
/// the machine shares: a child's times compare with its parent's.
double NowS();

uint64_t SplitMix64(uint64_t& state);

// -- Latency statistics ------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// The p99 is reported as measured only when at least 10 samples lie
/// beyond it, i.e. with 1000 or more samples. With fewer it is still
/// computed (the result line needs a number) but flagged.
bool P99Reliable(size_t num_samples);

struct LatencySummary {
  size_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool p99_reliable = false;
};
LatencySummary Summarize(const std::vector<double>& latencies_ms);

/// Arrival offsets (seconds from phase start) of a Poisson process at
/// `rate_per_s` over [0, duration_s). Same seed, same schedule.
std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    uint64_t seed);

/// How late the load generator issued requests relative to their due
/// times. Latencies are always taken from the due time, so lateness is
/// part of them; this reports it separately so a slow generator shows.
struct Lateness {
  size_t count = 0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  size_t over_1ms = 0;  // Requests issued more than 1 ms after due.
};
Lateness AccountLateness(const std::vector<double>& due_s,
                         const std::vector<double>& issued_s);

// -- Output checks ----------------------------------------------------
// Each returns "" when the property holds, else a reason.

/// Score tolerance for float32 serving scores against the float64
/// reference: |served - reference| <= kScoreTol * (1 + |reference|).
inline constexpr double kScoreTol = 1e-4;

/// Full-catalog float64 reference for one request: scores[i] is the
/// state . table row i, and topk the k best ids (ties by ascending id).
struct Reference {
  std::vector<double> scores;
  std::vector<int64_t> topk;
};
Reference ComputeReference(const float* state, const float* table,
                           int64_t num_items, int64_t dim, int64_t k);

/// (a) The served list is the reference top-k: each served score matches
/// the reference score of its item, ids are distinct, and position i
/// holds the reference's i-th item or a near-tie of it.
std::string CheckTopK(const Reference& ref, const std::vector<int64_t>& items,
                      const std::vector<float>& scores);

/// (b) Batch invariance: two answers to the same request, e.g. one served
/// in a batch and the same request re-scored alone, are bitwise equal.
std::string CheckBitwise(const std::vector<int64_t>& served_items,
                         const std::vector<float>& served_scores,
                         const std::vector<int64_t>& alone_items,
                         const std::vector<float>& alone_scores);

/// One answer: the served top-k items and their scores.
struct Served {
  std::vector<int64_t> items;
  std::vector<float> scores;
};

/// Every answer of a run, checked in memory that does not grow with the
/// traffic (the serving process's peak RSS is a reported metric). The
/// first answer to each pool request is kept for checks (a) and (b);
/// every later answer to the same request is checked as it arrives: it
/// must be bitwise equal to the first, which batch invariance implies.
class AnswerLog {
 public:
  explicit AnswerLog(size_t pool_size) : first_(pool_size) {}

  void Add(size_t pool_index, const std::vector<int64_t>& items,
           const std::vector<float>& scores);

  /// The first answer to each pool request; empty where none came.
  const std::vector<std::optional<Served>>& first() const { return first_; }
  size_t distinct() const;
  uint64_t repeats() const { return repeats_; }
  /// "" when every repeated answer equalled the first, else a reason.
  std::string RepeatReason() const;

 private:
  std::mutex mutex_;
  std::vector<std::optional<Served>> first_;
  uint64_t repeats_ = 0, mismatches_ = 0;
  std::string first_mismatch_;
};

/// (c) Conservation: ok + failed == sent, and every named server-side
/// count equals the client's ok count.
std::string CheckConservation(
    uint64_t sent, uint64_t ok, uint64_t failed,
    const std::vector<std::pair<std::string, uint64_t>>& server_counts);

/// (d) Little's law for a closed loop: outstanding ~= rate x mean latency
/// within `tolerance` (relative).
std::string CheckLittle(double outstanding, double rate_per_s,
                        double mean_latency_s, double tolerance = 0.10);

/// (d) The server-side p50 never exceeds the client-measured p50.
std::string CheckServerP50(double server_p50_ms, double client_p50_ms);

/// (e) Training made progress and the ranking metrics are consistent:
/// last loss < first loss, 0 < NDCG@10 <= HR@10 <= 1, and (when
/// `baseline_ndcg10` >= 0) NDCG@10 beats the baseline's.
std::string CheckTraining(const std::vector<double>& epoch_losses,
                          double ndcg10, double hr10, double baseline_ndcg10);

// -- Spans --------------------------------------------------------------

/// Spans recorded by the benchmark around its calls into the program's
/// layers. Kept in memory; written once, as chrome://tracing JSON.
class SpanRecorder {
 public:
  void Record(const std::string& name, double start_s, double end_s);
  void Merge(const std::string& chrome_events_json);  // Pre-rendered.
  bool Write(const std::string& path) const;
  size_t size() const;
  /// The events rendered as a JSON array body (no brackets).
  std::string EventsJson() const;

 private:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    uint64_t tid;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::string> merged_;
};

/// Records [construction, destruction) into `recorder` when non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder), name_(std::move(name)), start_(NowS()) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Record(name_, start_, NowS());
  }

 private:
  SpanRecorder* recorder_;
  std::string name_;
  double start_;
};

// -- Process helpers ----------------------------------------------------

/// VmHWM of a process in MB (pid 0 = self); 0 when unreadable.
double PeakRssMb(pid_t pid = 0);

/// A child process started by the benchmark, stdout+stderr to a log file.
struct Child {
  pid_t pid = -1;
  std::string name;
  std::string log_path;
};

/// Starts `argv` with its output in `log_path`. The child is registered
/// for StopChildren and dies with the benchmark (PR_SET_PDEATHSIG).
Child Spawn(const std::string& name, const std::vector<std::string>& argv,
            const std::string& log_path,
            const std::vector<std::string>& extra_env = {});

/// Waits up to `timeout_s` for a line of the child's log that contains
/// `marker`, returning the text after the marker. Fails early when the
/// child exits.
bool WaitForLogLine(const Child& child, const std::string& marker,
                    double timeout_s, std::string* rest, std::string* error);

/// Waits for one child to exit on its own; its exit code, 128 + the
/// signal's number when a signal ended it, or -1 on timeout (it is left
/// to StopChildren).
int WaitChild(Child& child, double timeout_s);

/// SIGTERM every registered live child, SIGKILL those still alive after
/// `grace_s`, and reap them all.
void StopChildren(double grace_s = 2.0);

/// Installs SIGINT/SIGTERM/SIGHUP handlers that stop every registered
/// child (same sequence as StopChildren) and exit with 128 + signal.
void InstallInterruptHandlers();

// -- HTTP ---------------------------------------------------------------

/// Minimal HTTP/1.1 client over one kept-alive connection to 127.0.0.1,
/// the way a real client (and the router's forwarder) talks: each
/// request is written with one send(), default socket options.
class HttpConnection {
 public:
  explicit HttpConnection(int port) : port_(port) {}
  ~HttpConnection() { Close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// One request/response exchange; reconnects first if needed.
  bool Request(const std::string& method, const std::string& target,
               const std::string& body, int* status, std::string* response,
               std::string* error);
  void Close();

 private:
  bool Connect(std::string* error);
  bool Exchange(const std::string& method, const std::string& target,
                const std::string& body, int* status, std::string* response,
                std::string* error, bool* unanswered);
  int port_;
  int fd_ = -1;
  std::string buffer_;
};

/// One-shot GET on a fresh connection.
bool HttpGet(int port, const std::string& target, std::string* body,
             std::string* error);

/// The fields of a /recommend response the checks need, parsed apart
/// from the program's codec. Scores are %.9g text, which round-trips
/// float32 exactly.
struct WireResponse {
  std::string status;
  std::vector<int64_t> items;
  std::vector<float> scores;
};
bool ParseRecommendResponse(const std::string& body, WireResponse* out);

/// The request body of the JSON recommend protocol.
std::string RecommendRequestBody(int64_t user,
                                 const std::vector<int64_t>& history,
                                 int64_t k);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
