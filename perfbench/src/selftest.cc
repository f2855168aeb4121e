// Self-tests of the benchmark's own code: the p99 sample rule, the
// seeded Poisson schedule, lateness accounting, and that every output
// check passes a correct result and rejects a deliberately corrupted one.
// Exits 0 when every test passes.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace perfbench {
namespace {

int g_failures = 0;
int g_passes = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) {
    ++g_passes;
  } else {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(Percentile(v, 0.5) == 50, "nearest-rank p50 of 1..100 is 50");
  Expect(Percentile(v, 0.99) == 99, "nearest-rank p99 of 1..100 is 99");
  Expect(Percentile({}, 0.5) == 0, "percentile of nothing is 0");
  Expect(!P99Reliable(999), "999 samples leave fewer than 10 beyond the p99");
  Expect(P99Reliable(1000), "1000 samples leave 10 beyond the p99");
  std::vector<double> big(1000, 1.0);
  Expect(Summarize(big).p99_reliable, "summary of 1000 samples reports p99");
  big.resize(500);
  Expect(!Summarize(big).p99_reliable, "summary of 500 samples flags p99");
}

void TestPoissonSchedule() {
  const auto a = PoissonSchedule(500, 4.0, 7);
  const auto b = PoissonSchedule(500, 4.0, 7);
  const auto c = PoissonSchedule(500, 4.0, 8);
  Expect(a == b, "same seed gives the same schedule");
  Expect(a != c, "another seed gives another schedule");
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted &= a[i] > a[i - 1];
  Expect(sorted && !a.empty() && a.back() < 4.0, "offsets rise within the phase");
  // 2000 expected arrivals: the count is within 5 sigma (~224).
  Expect(std::fabs(static_cast<double>(a.size()) - 2000.0) < 224,
         "arrival count matches the rate");
  double sum = 0, sq = 0;
  for (size_t i = 1; i < a.size(); ++i) {
    const double g = a[i] - a[i - 1];
    sum += g;
    sq += g * g;
  }
  const double n = a.size() - 1, mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  Expect(std::fabs(cv - 1.0) < 0.1, "exponential gaps have unit CV");
}

void TestLateness() {
  const std::vector<double> due = {0.0, 0.010, 0.020, 0.030};
  const std::vector<double> issued = {0.0, 0.0105, 0.025, 0.029};
  const Lateness l = AccountLateness(due, issued);
  Expect(l.count == 4, "every request is accounted");
  Expect(std::fabs(l.max_ms - 5.0) < 1e-9, "max lateness is 5 ms");
  Expect(l.over_1ms == 1, "one request later than 1 ms");
  // An early issue counts as on time, not negative lateness.
  Expect(std::fabs(l.mean_ms - (0.5 + 5.0) / 4) < 1e-9, "mean lateness");
}

struct Fixture {
  int64_t items = 300, dim = 16, k = 10;
  std::vector<float> state, table;
  Reference ref;
  std::vector<int64_t> served_items;
  std::vector<float> served_scores;

  Fixture() {
    uint64_t s = 99;
    auto rnd = [&] {
      return static_cast<float>((SplitMix64(s) >> 11) * (1.0 / 9007199254740992.0)) - 0.5f;
    };
    for (int64_t j = 0; j < dim; ++j) state.push_back(rnd());
    for (int64_t i = 0; i < items * dim; ++i) table.push_back(rnd());
    ref = ComputeReference(state.data(), table.data(), items, dim, k);
    // A correct float32 answer, as the program computes it.
    for (int64_t item : ref.topk) {
      float dot = 0.0f;
      for (int64_t j = 0; j < dim; ++j) dot += state[j] * table[item * dim + j];
      served_items.push_back(item);
      served_scores.push_back(dot);
    }
  }
};

void TestTopKCheck() {
  Fixture f;
  Expect(CheckTopK(f.ref, f.served_items, f.served_scores).empty(),
         "(a) accepts the correct top-10");
  auto items = f.served_items;
  auto scores = f.served_scores;
  std::swap(items[2], items[5]);
  Expect(!CheckTopK(f.ref, items, f.served_scores).empty(),
         "(a) rejects swapped top-k items");
  std::swap(scores[2], scores[5]);
  Expect(!CheckTopK(f.ref, items, scores).empty(),
         "(a) rejects swapped items even with their scores");
  scores = f.served_scores;
  scores[0] *= 1.001f;
  Expect(!CheckTopK(f.ref, f.served_items, scores).empty(),
         "(a) rejects a perturbed score");
  items = f.served_items;
  items[9] = f.ref.topk[0];
  Expect(!CheckTopK(f.ref, items, f.served_scores).empty(),
         "(a) rejects a repeated item");
  items.pop_back();
  Expect(!CheckTopK(f.ref, items, f.served_scores).empty(),
         "(a) rejects a short list");
  // A near-tie in the reference may come back in either order.
  Reference tie = f.ref;
  tie.scores[size_t(tie.topk[4])] = tie.scores[size_t(tie.topk[3])] - 1e-9;
  items = f.served_items;
  scores = f.served_scores;
  std::swap(items[3], items[4]);
  scores[4] = scores[3];
  Expect(CheckTopK(tie, items, scores).empty(),
         "(a) accepts a near-tie in either order");
}

void TestBitwiseCheck() {
  Fixture f;
  Expect(CheckBitwise(f.served_items, f.served_scores, f.served_items,
                      f.served_scores).empty(),
         "(b) accepts identical results");
  auto scores = f.served_scores;
  scores[3] = std::nextafter(scores[3], 10.0f);
  Expect(!CheckBitwise(f.served_items, f.served_scores, f.served_items, scores)
              .empty(),
         "(b) rejects a one-ulp score difference");
  auto items = f.served_items;
  std::swap(items[0], items[1]);
  Expect(!CheckBitwise(f.served_items, f.served_scores, items, f.served_scores)
              .empty(),
         "(b) rejects swapped items");
}

void TestAnswerLog() {
  Fixture f;
  AnswerLog log(4);
  log.Add(2, f.served_items, f.served_scores);
  log.Add(2, f.served_items, f.served_scores);
  log.Add(0, f.served_items, f.served_scores);
  Expect(log.RepeatReason().empty() && log.repeats() == 1 &&
             log.distinct() == 2 && log.first()[2] && !log.first()[1],
         "(b) answer log keeps one answer per request, accepts equal repeats");
  auto scores = f.served_scores;
  scores[5] = std::nextafter(scores[5], -10.0f);
  log.Add(2, f.served_items, scores);
  Expect(!log.RepeatReason().empty(),
         "(b) answer log rejects a repeat one ulp off the first answer");
  AnswerLog swapped(1);
  auto items = f.served_items;
  std::swap(items[0], items[1]);
  swapped.Add(0, f.served_items, f.served_scores);
  swapped.Add(0, items, f.served_scores);
  Expect(!swapped.RepeatReason().empty(),
         "(b) answer log rejects a repeat with swapped items");
}

void TestConservationCheck() {
  Expect(CheckConservation(100, 98, 2, {{"engine ok", 98}}).empty(),
         "(c) accepts conserved counts");
  Expect(!CheckConservation(100, 97, 2, {{"engine ok", 97}}).empty(),
         "(c) rejects a dropped response");
  Expect(!CheckConservation(100, 100, 0,
                            {{"router forwarded", 100},
                             {"replica ok sum", 99}})
              .empty(),
         "(c) rejects a miscounted replica total");
}

void TestLittleAndP50Checks() {
  Expect(CheckLittle(64, 8000, 0.008).empty(), "(d) accepts L = lambda W");
  Expect(!CheckLittle(64, 8000, 0.0095).empty(),
         "(d) rejects a latency 19% too high");
  Expect(!CheckLittle(64, 6000, 0.008).empty(), "(d) rejects a rate 25% low");
  Expect(CheckServerP50(1.0, 1.2).empty(), "(d) accepts server p50 <= client");
  Expect(!CheckServerP50(1.3, 1.2).empty(), "(d) rejects server p50 > client");
}

void TestTrainingCheck() {
  Expect(CheckTraining({5.0, 4.0}, 0.2, 0.35, 0.1).empty(),
         "(e) accepts a good run");
  Expect(!CheckTraining({5.0, 5.1}, 0.2, 0.35, 0.1).empty(),
         "(e) rejects a rising loss");
  Expect(!CheckTraining({5.0}, 0.2, 0.35, 0.1).empty(),
         "(e) needs two epochs");
  Expect(!CheckTraining({5.0, 4.0}, 0.4, 0.35, 0.1).empty(),
         "(e) rejects NDCG above HR");
  Expect(!CheckTraining({5.0, 4.0}, 0.0, 0.35, -1).empty(),
         "(e) rejects a zero NDCG");
  Expect(!CheckTraining({5.0, 4.0}, 0.2, 1.2, -1).empty(),
         "(e) rejects HR above 1");
  Expect(!CheckTraining({5.0, 4.0}, 0.09, 0.35, 0.1).empty(),
         "(e) rejects losing to PopRec");
}

void TestWireParser() {
  WireResponse r;
  Expect(ParseRecommendResponse(
             "{\"status\": \"OK\", \"message\": \"\", \"items\": [77,475,8], "
             "\"scores\": [1.03061986,0.983932853,-0.847410083], "
             "\"from_cache\": false}",
             &r) &&
             r.items == std::vector<int64_t>{77, 475, 8} &&
             r.scores[2] == -0.847410083f,
         "wire parser reads items and exact float scores");
  Expect(ParseRecommendResponse("{\"status\": \"OVERLOADED\"}", &r) &&
             r.status == "OVERLOADED",
         "wire parser reads a non-OK status");
  Expect(!ParseRecommendResponse("{\"status\": \"OK\", \"items\": [1,",
                                 &r),
         "wire parser rejects a truncated body");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestPercentileRule();
  TestPoissonSchedule();
  TestLateness();
  TestTopKCheck();
  TestBitwiseCheck();
  TestAnswerLog();
  TestConservationCheck();
  TestLittleAndP50Checks();
  TestTrainingCheck();
  TestWireParser();
  std::printf("selftest: %d passed, %d failed\n", g_passes, g_failures);
  return g_failures == 0 ? 0 : 1;
}
