// Oracle — the machine-learning predictor of Section 3/6.
//
// Given the observed workload characteristics of an object (or of the
// aggregated tail), the Oracle outputs the write-quorum size W expected to
// maximize the target KPI. The read quorum is derived from the replication
// degree as R = N - W + 1 (the paper's prototype does exactly this), and
// user-supplied fault-tolerance constraints on the minimum/maximum quorum
// sizes are honoured by clamping.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kv/types.hpp"
#include "ml/boosting.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"

namespace qopt::oracle {

/// Compact workload characterization gathered by non-intrusive monitoring
/// (Section 3: "a compact set of workload characteristics").
struct WorkloadFeatures {
  double write_ratio = 0.0;     // writes / (reads + writes)
  double avg_size_kib = 0.0;    // mean object size in KiB
  double ops_per_sec = 0.0;     // access rate of the item / aggregate

  std::vector<double> to_vector() const {
    return {write_ratio, avg_size_kib, ops_per_sec};
  }
  static const std::vector<std::string>& names();
};

/// User-defined constraints on quorum sizes (Section 3: e.g. "each write
/// operation [must] contact at least k > 1 replicas" for fault tolerance).
struct QuorumConstraints {
  int min_write = 1;
  int max_write = 0;  // 0 = replication degree
  int min_read = 1;
  int max_read = 0;  // 0 = replication degree
};

/// Clamps a predicted write quorum into the feasible region implied by the
/// constraints and by strictness (R = N - W + 1 must satisfy the read-side
/// constraints). Returns a W in [1, N].
int clamp_write_quorum(int w, const QuorumConstraints& constraints,
                       int replication);

/// Derives the minimal strict majority grid for a write-quorum size.
inline kv::QuorumConfig grid_from_write_quorum(int w, int replication) {
  w = std::clamp(w, 1, replication);
  return kv::QuorumConfig::of(replication - w + 1, w);
}

class Oracle {
 public:
  virtual ~Oracle() = default;
  /// Predicted optimal write-quorum size (unclamped) for the workload.
  virtual int predict_write_quorum(const WorkloadFeatures& features) = 0;
  virtual std::string describe() const = 0;
};

/// White-box baseline: picks W by linearly interpolating the write ratio
/// over [1, N]. This is the "obvious" model whose inadequacy Figure 3
/// demonstrates; it serves as the comparison baseline for the decision tree
/// and as a bootstrap predictor before any training data exists.
class LinearRuleOracle final : public Oracle {
 public:
  explicit LinearRuleOracle(int replication) : replication_(replication) {}
  int predict_write_quorum(const WorkloadFeatures& features) override;
  std::string describe() const override { return "linear-rule"; }

 private:
  int replication_;
};

/// The paper's Oracle: a decision-tree classifier (C5.0 family) trained on
/// workloads labelled with their measured-optimal write quorum.
class TreeOracle final : public Oracle {
 public:
  explicit TreeOracle(int replication) : replication_(replication) {}

  /// Trains on a dataset whose label is the optimal write-quorum size.
  void train(const ml::Dataset& data, const ml::TreeParams& params = {});

  bool trained() const noexcept { return tree_.trained(); }
  const ml::DecisionTree& tree() const noexcept { return tree_; }

  /// Model persistence: deploy a trained Oracle without its training data.
  std::string save_model() const { return tree_.serialize(); }
  void load_model(const std::string& text) {
    tree_ = ml::DecisionTree::deserialize(text);
  }

  int predict_write_quorum(const WorkloadFeatures& features) override;
  std::string describe() const override { return "decision-tree"; }

 private:
  int replication_;
  ml::DecisionTree tree_;
};

/// Boosted variant (AdaBoost.M1 over C4.5 trees — the step from C4.5 to
/// C5.0). Slightly more accurate on noisy corpora at higher training cost.
class BoostedOracle final : public Oracle {
 public:
  explicit BoostedOracle(int replication) : replication_(replication) {}

  void train(const ml::Dataset& data, const ml::BoostParams& params = {});
  bool trained() const noexcept { return ensemble_.trained(); }
  const ml::BoostedTrees& ensemble() const noexcept { return ensemble_; }

  int predict_write_quorum(const WorkloadFeatures& features) override;
  std::string describe() const override { return "boosted-trees"; }

 private:
  int replication_;
  ml::BoostedTrees ensemble_;
};

}  // namespace qopt::oracle
