// The four benchmark workloads, fixed in code so every run of a given
// seed builds exactly the same inputs. README.md describes each one.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "core/isrec.h"
#include "data/synthetic.h"

namespace perfbench {

enum class Path { kEngine, kRouted };

struct WorkloadSpec {
  std::string name;
  Path path = Path::kEngine;
  /// Paper preset plus overrides, generated with the preset's own seed:
  /// every run of a workload serves the same catalog and users, and
  /// --seed varies the model initialisation and the traffic.
  isrec::data::SyntheticConfig data;
  isrec::Index seq_len = 12;  // T.
  isrec::Index epochs = 2;    // Fit epochs before the checkpoint is written.
  /// Whether ISRec must beat PopRec's NDCG@10 (check e).
  bool compare_poprec = false;
  /// Open-loop Poisson rates (requests/s) and closed-loop outstanding
  /// requests (on the routed path: kept-alive connections).
  double low_rps = 0.0;
  double high_rps = 0.0;
  int outstanding = 0;
  /// Kept-alive connections the routed open-loop phases share.
  int connections = 4;
  /// Distinct requests cycled by the load (drawn from test histories).
  int pool_size = 512;
  isrec::Index k = 10;
};

/// Looks up a workload by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);
std::vector<std::string> WorkloadNames();

/// ISRec at the repository's default hyperparameters for this workload.
isrec::core::IsrecConfig ModelConfig(const WorkloadSpec& spec,
                                     isrec::Index num_concepts, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
