#include <gtest/gtest.h>

#include "models/network_spec.h"

namespace hwp3d {
namespace {

using models::MakeC3DSpec;
using models::MakeR2Plus1DSpec;
using models::NetworkSpec;

// ---- R(2+1)D vs Table I / Table II "before pruning" columns ----

TEST(R2Plus1DSpecTest, GroupParamsMatchTableII) {
  const NetworkSpec spec = MakeR2Plus1DSpec();
  // Table II, params in millions: 0.015 / 0.444 / 1.56 / 6.23 / 24.92.
  EXPECT_NEAR(spec.GroupParams("conv1") / 1e6, 0.015, 0.001);
  EXPECT_NEAR(spec.GroupParams("conv2_x") / 1e6, 0.444, 0.003);
  EXPECT_NEAR(spec.GroupParams("conv3_x") / 1e6, 1.56, 0.01);
  EXPECT_NEAR(spec.GroupParams("conv4_x") / 1e6, 6.23, 0.02);
  EXPECT_NEAR(spec.GroupParams("conv5_x") / 1e6, 24.92, 0.05);
}

TEST(R2Plus1DSpecTest, TotalParamsMatchTableII) {
  const NetworkSpec spec = MakeR2Plus1DSpec();
  // Table II total: 33.22M (ours excludes FC/BN, so slightly below).
  EXPECT_NEAR(spec.TotalParams() / 1e6, 33.22, 0.15);
}

TEST(R2Plus1DSpecTest, GroupOpsMatchTableII) {
  const NetworkSpec spec = MakeR2Plus1DSpec();
  // Table II, giga-operations: 1.53 / 44.39 / 21.21 / 10.61 / 5.31.
  EXPECT_NEAR(spec.GroupOps("conv1") / 1e9, 1.53, 0.02);
  EXPECT_NEAR(spec.GroupOps("conv2_x") / 1e9, 44.39, 0.2);
  EXPECT_NEAR(spec.GroupOps("conv3_x") / 1e9, 21.21, 0.2);
  EXPECT_NEAR(spec.GroupOps("conv4_x") / 1e9, 10.61, 0.15);
  EXPECT_NEAR(spec.GroupOps("conv5_x") / 1e9, 5.31, 0.1);
}

TEST(R2Plus1DSpecTest, TotalOpsMatchTableII) {
  const NetworkSpec spec = MakeR2Plus1DSpec();
  EXPECT_NEAR(spec.TotalOps() / 1e9, 83.05, 0.5);
}

TEST(R2Plus1DSpecTest, StructureFollowsTableI) {
  const NetworkSpec spec = MakeR2Plus1DSpec();
  // 2 stem layers + 4 stages x 8 factorized layers + 3 shortcuts.
  EXPECT_EQ(spec.layers.size(), 2u + 4u * 8u + 3u);
  const auto groups = spec.Groups();
  ASSERT_EQ(groups.size(), 5u);
  EXPECT_EQ(groups[0], "conv1");
  EXPECT_EQ(groups[4], "conv5_x");
}

TEST(R2Plus1DSpecTest, OutputExtentsFollowTableI) {
  const NetworkSpec spec = MakeR2Plus1DSpec();
  for (const auto& l : spec.layers) {
    if (l.group == "conv2_x") {
      EXPECT_EQ(l.R, 56) << l.name;
    } else if (l.group == "conv3_x") {
      EXPECT_EQ(l.R, 28) << l.name;
    } else if (l.group == "conv4_x") {
      EXPECT_EQ(l.R, 14) << l.name;
    } else if (l.group == "conv5_x") {
      EXPECT_EQ(l.R, 7) << l.name;
      if (l.Kd == 3) {  // temporal convs
        EXPECT_EQ(l.D, 2) << l.name;
      }
    }
  }
}

TEST(R2Plus1DSpecTest, FactorizedKernelShapes) {
  const NetworkSpec spec = MakeR2Plus1DSpec();
  for (const auto& l : spec.layers) {
    const bool spatial = l.Kd == 1 && l.Kr == l.Kc && l.Kr > 1;
    const bool temporal = l.Kd == 3 && l.Kr == 1 && l.Kc == 1;
    const bool pointwise = l.Kd == 1 && l.Kr == 1 && l.Kc == 1;  // shortcut
    EXPECT_TRUE(spatial || temporal || pointwise) << l.name;
  }
}

TEST(R2Plus1DSpecTest, InputExtentInversion) {
  // in_d/in_r/in_c must invert the output-extent formula.
  const NetworkSpec spec = MakeR2Plus1DSpec();
  for (const auto& l : spec.layers) {
    EXPECT_EQ((l.in_d() - l.Kd) / l.Sd + 1, l.D) << l.name;
    EXPECT_EQ((l.in_r() - l.Kr) / l.Sr + 1, l.R) << l.name;
  }
}

TEST(R2Plus1DSpecTest, PaperPruningTargets) {
  NetworkSpec spec = MakeR2Plus1DSpec();
  models::ApplyPaperPruningTargets(spec);
  for (const auto& l : spec.layers) {
    if (l.group == "conv2_x") {
      EXPECT_DOUBLE_EQ(l.eta, 0.90) << l.name;
    } else if (l.group == "conv3_x") {
      EXPECT_DOUBLE_EQ(l.eta, 0.80) << l.name;
    } else {
      EXPECT_DOUBLE_EQ(l.eta, 0.0) << l.name;
    }
  }
}

// ---- C3D baseline ----

TEST(C3DSpecTest, EightConvLayers) {
  const NetworkSpec spec = MakeC3DSpec();
  EXPECT_EQ(spec.layers.size(), 8u);
  for (const auto& l : spec.layers) {
    EXPECT_EQ(l.Kd, 3);
    EXPECT_EQ(l.Kr, 3);
    EXPECT_EQ(l.Kc, 3);
    EXPECT_FALSE(l.has_bn);
  }
}

TEST(C3DSpecTest, MacsMatchPublishedWorkload) {
  // C3D is universally quoted at ~38.5 GMACs for 16x112x112 clips
  // (e.g. [13] reports 71 GOPS at 542.5 ms => 38.5 G units of work).
  const NetworkSpec spec = MakeC3DSpec();
  EXPECT_NEAR(spec.TotalMacs() / 1e9, 38.5, 0.4);
}

TEST(C3DSpecTest, ParamsMatchStandardC3DConvTotal) {
  // Standard C3D conv parameters: ~27.7M (FC layers excluded).
  const NetworkSpec spec = MakeC3DSpec();
  EXPECT_NEAR(spec.TotalParams() / 1e6, 27.7, 0.3);
}

TEST(C3DSpecTest, PoolingPyramidExtents) {
  const NetworkSpec spec = MakeC3DSpec();
  EXPECT_EQ(spec.layers[0].R, 112);  // conv1a before pool1
  EXPECT_EQ(spec.layers[1].R, 56);   // conv2a
  EXPECT_EQ(spec.layers[3].D, 8);    // conv3b
  EXPECT_EQ(spec.layers[7].R, 7);    // conv5b
}

TEST(NetworkSpecTest, GroupQueriesOnMissingGroup) {
  const NetworkSpec spec = MakeC3DSpec();
  EXPECT_DOUBLE_EQ(spec.GroupParams("no_such_group"), 0.0);
  EXPECT_DOUBLE_EQ(spec.GroupOps("no_such_group"), 0.0);
}

}  // namespace
}  // namespace hwp3d
