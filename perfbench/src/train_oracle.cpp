// Trains the decision-tree Oracle model that the benchmark's autotuning
// workloads load (../oracle_tree.model) and prints it on stdout:
//
//   train_oracle > perfbench/oracle_tree.model
//
// The corpus is the paper's write-ratio sweep at the benchmark's object
// size, measured on the paper testbed with short runs, so the model is
// cheap to regenerate when the simulator's cost model changes.
#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "oracle/oracle.hpp"
#include "util/time.hpp"

int main() {
  using namespace qopt;
  ExperimentSpec base;
  base.warmup = seconds(1);
  base.measure = seconds(3);
  const std::vector<CorpusPoint> corpus =
      generate_corpus(base, paper_write_ratios(), {1 << 10, 4 << 10, 16 << 10});
  oracle::TreeOracle tree(base.cluster.replication);
  tree.train(corpus_to_dataset(corpus));
  std::fputs(tree.save_model().c_str(), stdout);
  return 0;
}
