#include "workloads.h"

#include <algorithm>

namespace perfbench {

namespace {

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> all;

  // In-process engine, encoder-bound: a MovieLens-like catalog under 1000
  // items with long histories at T = 50.
  WorkloadSpec lh;
  lh.name = "engine_long_history";
  lh.data = isrec::data::Ml1mSimConfig();
  lh.data.num_users = 900;  // Enough test users for a steady NDCG@10.
  lh.seq_len = 50;
  lh.epochs = 3;
  lh.low_rps = 1000;
  lh.high_rps = 3000;
  lh.outstanding = 64;
  all.push_back(lh);

  // In-process engine, catalog-bound: beauty_sim's short histories (T =
  // 12) over a 20 000-item catalog.
  WorkloadSpec lc;
  lc.name = "engine_large_catalog";
  lc.data = isrec::data::BeautySimConfig();
  lc.data.num_items = 20000;
  lc.data.num_users = 600;
  lc.seq_len = 12;
  lc.epochs = 3;
  lc.low_rps = 1000;
  lc.high_rps = 2000;
  lc.outstanding = 64;
  all.push_back(lc);

  // Shipped binaries: isrec_router over two isrec_serve replicas, small
  // catalog and short histories so the wire path dominates.
  WorkloadSpec rh;
  rh.name = "routed_http";
  rh.path = Path::kRouted;
  rh.data = isrec::data::BeautySimConfig();
  rh.data.num_users = 1200;  // Enough test users for a steady NDCG@10.
  rh.seq_len = 12;
  rh.epochs = 3;
  rh.low_rps = 30;
  rh.high_rps = 35;
  rh.outstanding = 1;
  all.push_back(rh);

  // Training: Fit on the beauty_sim paper preset at the default
  // hyperparameters, EvaluateRanking with 100 sampled negatives, then the
  // trained checkpoint served in-process.
  WorkloadSpec te;
  te.name = "train_eval";
  te.data = isrec::data::BeautySimConfig();
  te.seq_len = std::min<isrec::Index>(te.data.max_sequence_length, 50);
  te.epochs = 6;
  te.compare_poprec = true;
  te.low_rps = 1000;
  te.high_rps = 3000;
  te.outstanding = 64;
  all.push_back(te);
  return all;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) {
      *spec = w;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : AllWorkloads()) names.push_back(w.name);
  return names;
}

isrec::core::IsrecConfig ModelConfig(const WorkloadSpec& spec,
                                     isrec::Index num_concepts,
                                     uint64_t seed) {
  // The defaults of the paper benches (bench/common/harness.cc).
  isrec::core::IsrecConfig config;
  config.seq.embed_dim = 32;
  config.seq.ffn_dim = 64;
  config.seq.seq_len = spec.seq_len;
  config.seq.epochs = spec.epochs;
  config.seq.seed = seed + 1;
  config.intent_dim = 8;
  config.num_active =
      std::min<isrec::Index>(10, std::max<isrec::Index>(4, num_concepts / 8));
  config.gcn_layers = 2;
  return config;
}

}  // namespace perfbench
