// Graph builders for the paper's branchy study networks (§4.1): the
// residual and branch/concat structure that the flat shape tables in
// workload/networks.h can only cycle-estimate, expressed as executable
// GraphModels (api/graph_model.h).
//
// Every builder returns a shape-only graph: conv nodes carry dimensions,
// not weights -- call GraphModel::materialize_weights(seed) before
// compiling/running (estimates need no weights).  Input
// spatial dims are free: the same graph runs at 224x224 for paper-shape
// estimates and at 8x8 for bit-accurate tests, because the topology is
// resolution-independent.
#pragma once

#include <string>

#include "api/graph_model.h"

namespace mpipu {

/// Append one ResNet basic block (He et al. 2016) to `b`:
///
///   from -> conv3x3(stride)+relu -> conv3x3 ----+-> add -> relu
///   from -> identity or 1x1(stride) projection -+
///
/// The skip path is the identity when (cin == cout && stride == 1), else
/// the standard 1x1/stride projection.  Returns the block's output node.
int append_resnet_basic_block(GraphModel::Builder& b, const std::string& prefix,
                              int from, int cin, int cout, int stride);

/// One standalone basic block as its own graph (input node included).
GraphModel resnet_basic_block_graph(int cin, int cout, int stride,
                                    std::string name = "resnet-basic-block");

/// The full ResNet-18 convolutional trunk: conv1 (7x7/2 + pool) then four
/// stages of two basic blocks (64, 128, 256, 512 channels; stages 2-4
/// downsample).  20 conv nodes, 8 residual adds.  At 224x224 its
/// shape_table() covers exactly the rows of resnet18_forward() with the
/// repeats unrolled (identical total MACs).
GraphModel resnet18_graph();

/// Append one Inception-A branch/concat block (Szegedy et al. 2016,
/// mixed5-style) to `b`: four parallel branches
///
///   1x1 -> 64 | 1x1 -> 48 -> 5x5 -> 64 | 1x1 -> 64 -> 3x3 -> 96 -> 3x3
///   -> 96 | 1x1 -> 32  (pool projection)
///
/// concatenated to 256 channels.  NOTE: the 3x3 stride-1 average pool that
/// precedes the projection branch in the paper-exact network is not
/// modeled (the repo has no such pool op); the branch keeps its 1x1 conv
/// and the block keeps its 4-way concat topology and channel budget.
int append_inception_a_block(GraphModel::Builder& b, const std::string& prefix,
                             int from, int cin);

/// One standalone Inception-A block as its own graph.
GraphModel inception_a_block_graph(int cin = 192,
                                   std::string name = "inception-a-block");

}  // namespace mpipu
