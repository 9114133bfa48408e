#include "cluster/spark_cluster.h"

#include <algorithm>

#include "cluster/partition_executor.h"

namespace m3::cluster {

using util::Result;
using util::Status;

namespace {

/// A bound region must describe the same rows the matrix view exposes —
/// otherwise the measured path silently prefetches and evicts the wrong
/// pages while the (view-driven) math still comes out right.
Status ValidateRegion(const exec::MappedRegion& data, size_t rows,
                      size_t cols) {
  if (data.mapping == nullptr) {
    return Status::OK();
  }
  if (data.row_bytes != cols * sizeof(double)) {
    return Status::InvalidArgument(
        "mapped region row_bytes does not match the feature matrix");
  }
  if (data.base_offset + rows * data.row_bytes > data.mapping->size()) {
    return Status::InvalidArgument(
        "mapped region does not cover the feature rows (offset + rows * "
        "row_bytes exceeds the mapping)");
  }
  return Status::OK();
}

}  // namespace

SparkCluster::SparkCluster(ClusterConfig config) : config_(config) {}

std::vector<Partition> SparkCluster::PlanPartitions(size_t rows,
                                                    uint64_t row_bytes) const {
  const uint64_t cache_rows =
      row_bytes == 0 ? rows : config_.CacheCapacityBytes() / row_bytes;
  return MakePartitions(rows, config_.TotalPartitions(),
                        config_.num_instances,
                        static_cast<size_t>(std::min<uint64_t>(
                            cache_rows, rows)));
}

Result<DistributedLrResult> SparkCluster::RunLogisticRegression(
    la::ConstMatrixView x, la::ConstVectorView y, double l2,
    ml::LbfgsOptions optimizer_options,
    const exec::MappedRegion& data) const {
  M3_RETURN_IF_ERROR(config_.Validate());
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("labels size does not match rows");
  }
  M3_RETURN_IF_ERROR(ValidateRegion(data, x.rows(), x.cols()));
  PartitionExecutor executor(
      PlanPartitions(x.rows(), x.cols() * sizeof(double)), config_, data, x, y);
  return DriveLogisticRegression(&executor, config_, x, l2, optimizer_options);
}

Result<DistributedKMeansResult> SparkCluster::RunKMeans(
    la::ConstMatrixView x, ml::KMeansOptions options,
    const exec::MappedRegion& data) const {
  M3_RETURN_IF_ERROR(config_.Validate());
  M3_RETURN_IF_ERROR(ValidateRegion(data, x.rows(), x.cols()));
  PartitionExecutor executor(
      PlanPartitions(x.rows(), x.cols() * sizeof(double)), config_, data, x,
      la::ConstVectorView());
  return DriveKMeans(&executor, config_, x, options);
}

}  // namespace m3::cluster
