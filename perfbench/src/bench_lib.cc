#include "bench_lib.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

bool P99Reliable(size_t num_samples) { return num_samples >= 1000; }

LatencySummary Summarize(const std::vector<double>& latencies_ms) {
  LatencySummary s;
  s.count = latencies_ms.size();
  if (s.count == 0) return s;
  double sum = 0.0;
  for (double v : latencies_ms) sum += v;
  s.mean_ms = sum / static_cast<double>(s.count);
  s.p50_ms = Percentile(latencies_ms, 0.50);
  s.p99_ms = Percentile(latencies_ms, 0.99);
  s.p99_reliable = P99Reliable(s.count);
  return s;
}

std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    uint64_t seed) {
  std::vector<double> offsets;
  uint64_t state = seed ^ 0x5bd1e9955bd1e995ull;
  double t = 0.0;
  while (true) {
    // 53 random bits -> u in (0, 1]; exponential gap -ln(u) / rate.
    const double u =
        (static_cast<double>(SplitMix64(state) >> 11) + 1.0) / 9007199254740992.0;
    t += -std::log(u) / rate_per_s;
    if (t >= duration_s) break;
    offsets.push_back(t);
  }
  return offsets;
}

Lateness AccountLateness(const std::vector<double>& due_s,
                         const std::vector<double>& issued_s) {
  Lateness l;
  const size_t n = std::min(due_s.size(), issued_s.size());
  std::vector<double> late_ms(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    late_ms[i] = std::max(0.0, issued_s[i] - due_s[i]) * 1e3;
    sum += late_ms[i];
    l.max_ms = std::max(l.max_ms, late_ms[i]);
    if (late_ms[i] > 1.0) ++l.over_1ms;
  }
  l.count = n;
  l.mean_ms = n == 0 ? 0.0 : sum / static_cast<double>(n);
  l.p99_ms = Percentile(late_ms, 0.99);
  return l;
}

// -- Checks ---------------------------------------------------------------

Reference ComputeReference(const float* state, const float* table,
                           int64_t num_items, int64_t dim, int64_t k) {
  Reference ref;
  ref.scores.resize(static_cast<size_t>(num_items));
  for (int64_t i = 0; i < num_items; ++i) {
    double dot = 0.0;
    const float* row = table + i * dim;
    for (int64_t j = 0; j < dim; ++j) {
      dot += static_cast<double>(state[j]) * static_cast<double>(row[j]);
    }
    ref.scores[static_cast<size_t>(i)] = dot;
  }
  std::vector<int64_t> ids(static_cast<size_t>(num_items));
  for (int64_t i = 0; i < num_items; ++i) ids[static_cast<size_t>(i)] = i;
  const int64_t top = std::min(k, num_items);
  std::partial_sort(ids.begin(), ids.begin() + top, ids.end(),
                    [&](int64_t a, int64_t b) {
                      const double sa = ref.scores[size_t(a)];
                      const double sb = ref.scores[size_t(b)];
                      return sa != sb ? sa > sb : a < b;
                    });
  ref.topk.assign(ids.begin(), ids.begin() + top);
  return ref;
}

namespace {
bool Near(double a, double b) {
  return std::fabs(a - b) <= kScoreTol * (1.0 + std::fabs(b));
}
}  // namespace

std::string CheckTopK(const Reference& ref, const std::vector<int64_t>& items,
                      const std::vector<float>& scores) {
  if (items.size() != ref.topk.size() || scores.size() != items.size()) {
    return "top-k has " + std::to_string(items.size()) + " items, expected " +
           std::to_string(ref.topk.size());
  }
  std::vector<int64_t> seen;
  for (size_t i = 0; i < items.size(); ++i) {
    const int64_t item = items[i];
    if (item < 0 || item >= static_cast<int64_t>(ref.scores.size())) {
      return "item id " + std::to_string(item) + " outside the catalog";
    }
    if (std::find(seen.begin(), seen.end(), item) != seen.end()) {
      return "item " + std::to_string(item) + " returned twice";
    }
    seen.push_back(item);
    const double expected = ref.scores[static_cast<size_t>(item)];
    if (!Near(scores[i], expected)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "score of item %lld at rank %zu is %.9g, reference %.9g",
                    static_cast<long long>(item), i, double(scores[i]),
                    expected);
      return buf;
    }
    const int64_t want = ref.topk[i];
    if (item != want &&
        !Near(expected, ref.scores[static_cast<size_t>(want)])) {
      return "rank " + std::to_string(i) + " holds item " +
             std::to_string(item) + ", reference item " +
             std::to_string(want) + " (not a near-tie)";
    }
  }
  return "";
}

std::string CheckBitwise(const std::vector<int64_t>& served_items,
                         const std::vector<float>& served_scores,
                         const std::vector<int64_t>& alone_items,
                         const std::vector<float>& alone_scores) {
  if (served_items != alone_items) return "items differ";
  if (served_scores.size() != alone_scores.size() ||
      std::memcmp(served_scores.data(), alone_scores.data(),
                  served_scores.size() * sizeof(float)) != 0) {
    return "scores are not bitwise equal";
  }
  return "";
}

void AnswerLog::Add(size_t pool_index, const std::vector<int64_t>& items,
                    const std::vector<float>& scores) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<Served>& first = first_.at(pool_index);
  if (!first) {
    first = Served{items, scores};
    return;
  }
  ++repeats_;
  const std::string reason =
      CheckBitwise(first->items, first->scores, items, scores);
  if (!reason.empty() && mismatches_++ == 0) {
    first_mismatch_ =
        "pool request " + std::to_string(pool_index) + ": " + reason;
  }
}

size_t AnswerLog::distinct() const {
  return static_cast<size_t>(
      std::count_if(first_.begin(), first_.end(),
                    [](const std::optional<Served>& s) { return s.has_value(); }));
}

std::string AnswerLog::RepeatReason() const {
  if (mismatches_ == 0) return "";
  return std::to_string(mismatches_) + " of " + std::to_string(repeats_) +
         " repeated answers differ from the first answer to the same "
         "request, e.g. " + first_mismatch_;
}

std::string CheckConservation(
    uint64_t sent, uint64_t ok, uint64_t failed,
    const std::vector<std::pair<std::string, uint64_t>>& server_counts) {
  if (ok + failed != sent) {
    return "client ok " + std::to_string(ok) + " + failed " +
           std::to_string(failed) + " != sent " + std::to_string(sent);
  }
  for (const auto& [name, count] : server_counts) {
    if (count != ok) {
      return name + " " + std::to_string(count) + " != client ok " +
             std::to_string(ok);
    }
  }
  return "";
}

std::string CheckLittle(double outstanding, double rate_per_s,
                        double mean_latency_s, double tolerance) {
  const double implied = rate_per_s * mean_latency_s;
  if (outstanding <= 0.0 ||
      std::fabs(implied - outstanding) > tolerance * outstanding) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "Little's law: %.4g req/s x %.4g s = %.4g in flight, "
                  "expected %.4g",
                  rate_per_s, mean_latency_s, implied, outstanding);
    return buf;
  }
  return "";
}

std::string CheckServerP50(double server_p50_ms, double client_p50_ms) {
  if (server_p50_ms > client_p50_ms) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "server p50 %.4g ms exceeds client p50 %.4g ms",
                  server_p50_ms, client_p50_ms);
    return buf;
  }
  return "";
}

std::string CheckTraining(const std::vector<double>& epoch_losses,
                          double ndcg10, double hr10,
                          double baseline_ndcg10) {
  if (epoch_losses.size() < 2 || !(epoch_losses.back() < epoch_losses[0])) {
    return "last epoch loss is not below the first";
  }
  if (!(ndcg10 > 0.0 && ndcg10 <= hr10 && hr10 <= 1.0)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "need 0 < NDCG@10 %.4g <= HR@10 %.4g <= 1",
                  ndcg10, hr10);
    return buf;
  }
  if (baseline_ndcg10 >= 0.0 && !(ndcg10 > baseline_ndcg10)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "NDCG@10 %.4g does not beat PopRec %.4g",
                  ndcg10, baseline_ndcg10);
    return buf;
  }
  return "";
}

// -- Spans ----------------------------------------------------------------

void SpanRecorder::Record(const std::string& name, double start_s,
                          double end_s) {
  const uint64_t tid = std::hash<std::thread::id>()(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_s, end_s, tid % 100000});
}

void SpanRecorder::Merge(const std::string& chrome_events_json) {
  if (chrome_events_json.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  merged_.push_back(chrome_events_json);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::string SpanRecorder::EventsJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  char buf[96];
  for (const Span& s : spans_) {
    if (!out.empty()) out += ",\n";
    out += "{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":" +
           std::to_string(getpid()) + ",\"tid\":" + std::to_string(s.tid);
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f}",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
    out += buf;
  }
  for (const std::string& m : merged_) {
    if (!out.empty()) out += ",\n";
    out += m;
  }
  return out;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n" << EventsJson() << "\n]}\n";
  return static_cast<bool>(out);
}

// -- Processes ------------------------------------------------------------

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

// Live children. Lock-free atomics, so the signal handler (which may run
// on any thread) reads them safely.
constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren] = {};
static_assert(std::atomic<pid_t>::is_always_lock_free);

void SleepMs(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1000000L};
  while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

// Async-signal-safe: kill, waitpid and nanosleep only.
void StopRegistered(long grace_ms) {
  for (int i = 0; i < kMaxChildren; ++i) {
    if (g_children[i] > 0) kill(g_children[i], SIGTERM);
  }
  for (long waited = 0;; waited += 10) {
    bool alive = false;
    for (int i = 0; i < kMaxChildren; ++i) {
      if (g_children[i] <= 0) continue;
      const pid_t r = waitpid(g_children[i], nullptr, WNOHANG);
      if (r == g_children[i] || (r < 0 && errno == ECHILD)) {
        g_children[i] = 0;
      } else {
        alive = true;
      }
    }
    if (!alive) return;
    if (waited >= grace_ms) break;
    SleepMs(10);
  }
  for (int i = 0; i < kMaxChildren; ++i) {
    if (g_children[i] > 0) {
      kill(g_children[i], SIGKILL);
      waitpid(g_children[i], nullptr, 0);
      g_children[i] = 0;
    }
  }
}

void OnInterrupt(int sig) {
  StopRegistered(2000);
  _exit(128 + sig);
}

void Unregister(pid_t pid) {
  for (int i = 0; i < kMaxChildren; ++i) {
    if (g_children[i] == pid) g_children[i] = 0;
  }
}

}  // namespace

Child Spawn(const std::string& name, const std::vector<std::string>& argv,
            const std::string& log_path,
            const std::vector<std::string>& extra_env) {
  Child child;
  child.name = name;
  child.log_path = log_path;
  int slot = -1;
  for (int i = 0; i < kMaxChildren; ++i) {
    if (g_children[i] == 0) {
      slot = i;
      break;
    }
  }
  if (slot < 0) return child;
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  // The environment is built before fork: the child of a threaded parent
  // may only make async-signal-safe calls until exec.
  std::vector<std::string> env_storage(extra_env);
  for (char** e = environ; *e != nullptr; ++e) env_storage.emplace_back(*e);
  std::vector<char*> envp;
  for (std::string& e : env_storage) envp.push_back(e.data());
  envp.push_back(nullptr);
  // Truncated here, not in the child, so a reader never sees the lines
  // of an earlier run's log.
  const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return child;
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fd, STDOUT_FILENO);
    dup2(fd, STDERR_FILENO);
    close(fd);
    execve(args[0], args.data(), envp.data());
    _exit(127);
  }
  close(fd);
  if (pid > 0) {
    g_children[slot] = pid;
    child.pid = pid;
  }
  return child;
}

bool WaitForLogLine(const Child& child, const std::string& marker,
                    double timeout_s, std::string* rest, std::string* error) {
  const double deadline = NowS() + timeout_s;
  while (true) {
    std::ifstream in(child.log_path);
    std::string line;
    while (std::getline(in, line)) {
      const size_t at = line.find(marker);
      if (at != std::string::npos) {
        *rest = line.substr(at + marker.size());
        return true;
      }
    }
    if (child.pid <= 0 || waitpid(child.pid, nullptr, WNOHANG) == child.pid) {
      if (child.pid > 0) Unregister(child.pid);
      *error = child.name + " exited before printing '" + marker + "' (log " +
               child.log_path + ")";
      return false;
    }
    if (NowS() > deadline) {
      *error = child.name + " printed no '" + marker + "' within " +
               std::to_string(timeout_s) + " s (log " + child.log_path + ")";
      return false;
    }
    // Fine-grained: on routed_http this wait is part of setup_s.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

int WaitChild(Child& child, double timeout_s) {
  const double deadline = NowS() + timeout_s;
  while (child.pid > 0) {
    int status = 0;
    const pid_t r = waitpid(child.pid, &status, WNOHANG);
    if (r == child.pid) {
      Unregister(child.pid);
      child.pid = -1;
      if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (NowS() > deadline) break;
    SleepMs(5);
  }
  return -1;  // Still running: the caller's StopChildren reaps it.
}

void StopChildren(double grace_s) {
  StopRegistered(static_cast<long>(grace_s * 1000));
}

void InstallInterruptHandlers() {
  struct sigaction sa {};
  sa.sa_handler = OnInterrupt;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) sigaction(sig, &sa, nullptr);
}

// -- HTTP -----------------------------------------------------------------

bool HttpConnection::Connect(std::string* error) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = "socket: " + std::string(std::strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect to port " + std::to_string(port_) + ": " +
             std::strerror(errno);
    Close();
    return false;
  }
  timeval tv{10, 0};  // A response slower than 10 s counts as failed.
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return true;
}

void HttpConnection::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConnection::Request(const std::string& method,
                             const std::string& target,
                             const std::string& body, int* status,
                             std::string* response, std::string* error) {
  // A server closes kept-alive connections that idle too long. Like any
  // pooling client, skip a connection the peer has already closed, and
  // resend once when it closes one before a single response byte.
  if (fd_ >= 0) {
    char probe;
    const ssize_t n = recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) Close();
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !Connect(error)) return false;
    bool unanswered = false;
    if (Exchange(method, target, body, status, response, error, &unanswered)) {
      return true;
    }
    if (!unanswered) return false;
  }
  return false;
}

bool HttpConnection::Exchange(const std::string& method,
                              const std::string& target,
                              const std::string& body, int* status,
                              std::string* response, std::string* error,
                              bool* unanswered) {
  std::string wire = method + " " + target +
                     " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n";
  if (!body.empty() || method == "POST") {
    wire += "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n" + body;
  size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      *error = "send: " + std::string(std::strerror(errno));
      *unanswered = true;
      Close();
      return false;
    }
    off += static_cast<size_t>(n);
  }
  char chunk[16384];
  size_t header_end = std::string::npos;
  size_t content_length = 0;
  while (true) {
    if (header_end == std::string::npos) {
      header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        std::string lower = buffer_.substr(0, header_end);
        std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
        const size_t cl = lower.find("content-length:");
        if (cl == std::string::npos) {
          *error = "response without Content-Length";
          Close();
          return false;
        }
        content_length = std::strtoull(lower.c_str() + cl + 15, nullptr, 10);
        *status = std::atoi(buffer_.c_str() + 9);
      }
    }
    if (header_end != std::string::npos &&
        buffer_.size() >= header_end + 4 + content_length) {
      *response = buffer_.substr(header_end + 4, content_length);
      const bool server_closes =
          buffer_.substr(0, header_end).find("Connection: close") !=
          std::string::npos;
      buffer_.erase(0, header_end + 4 + content_length);
      if (server_closes) Close();
      return true;
    }
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      *error = n == 0 ? "connection closed mid-response"
                      : "recv: " + std::string(std::strerror(errno));
      *unanswered = buffer_.empty() && (n == 0 || errno == ECONNRESET);
      Close();
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool HttpGet(int port, const std::string& target, std::string* body,
             std::string* error) {
  HttpConnection conn(port);
  int status = 0;
  if (!conn.Request("GET", target, "", &status, body, error)) return false;
  if (status != 200) {
    *error = "GET " + target + " answered HTTP " + std::to_string(status);
    return false;
  }
  return true;
}

namespace {
const char* FindArray(const std::string& body, const char* key) {
  const size_t at = body.find(key);
  if (at == std::string::npos) return nullptr;
  const size_t open = body.find('[', at);
  return open == std::string::npos ? nullptr : body.c_str() + open + 1;
}
}  // namespace

bool ParseRecommendResponse(const std::string& body, WireResponse* out) {
  out->items.clear();
  out->scores.clear();
  const size_t s = body.find("\"status\":");
  if (s == std::string::npos) return false;
  const size_t q1 = body.find('"', s + 9);
  const size_t q2 = q1 == std::string::npos ? q1 : body.find('"', q1 + 1);
  if (q2 == std::string::npos) return false;
  out->status = body.substr(q1 + 1, q2 - q1 - 1);
  if (out->status != "OK") return true;
  const char* p = FindArray(body, "\"items\":");
  if (p == nullptr) return false;
  while (*p != ']') {
    char* end = nullptr;
    out->items.push_back(std::strtoll(p, &end, 10));
    if (end == p) return false;
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  p = FindArray(body, "\"scores\":");
  if (p == nullptr) return false;
  while (*p != ']') {
    char* end = nullptr;
    out->scores.push_back(std::strtof(p, &end));
    if (end == p) return false;
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return out->items.size() == out->scores.size();
}

std::string RecommendRequestBody(int64_t user,
                                 const std::vector<int64_t>& history,
                                 int64_t k) {
  std::string out = "{\"user\": " + std::to_string(user) + ", \"history\": [";
  for (size_t i = 0; i < history.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(history[i]);
  }
  out += "], \"k\": " + std::to_string(k) + "}";
  return out;
}

}  // namespace perfbench
