#include "genome/reference.h"

#include <gtest/gtest.h>

namespace asmcap {
namespace {

TEST(Reference, GeneratesRequestedLength) {
  Rng rng(1);
  const Sequence genome = generate_reference(10000, {}, rng);
  EXPECT_EQ(genome.size(), 10000u);
}

TEST(Reference, GcContentTracksModel) {
  Rng rng(2);
  ReferenceModel model;
  model.gc_content = 0.41;
  model.duplication_fraction = 0.0;  // isolate composition
  const Sequence genome = generate_reference(200000, model, rng);
  const ReferenceStats stats = measure_reference(genome);
  EXPECT_NEAR(stats.gc_content, 0.41, 0.01);
}

TEST(Reference, RepeatBiasRaisesAdjacentEquality) {
  Rng rng(3);
  ReferenceModel iid;
  iid.repeat_bias = 0.0;
  iid.duplication_fraction = 0.0;
  ReferenceModel sticky = iid;
  sticky.repeat_bias = 0.3;
  const auto a = measure_reference(generate_reference(100000, iid, rng));
  const auto b = measure_reference(generate_reference(100000, sticky, rng));
  EXPECT_NEAR(a.adjacent_equal, 0.27, 0.02);  // E[p^2] over {0.295,0.295,0.205,0.205}
  EXPECT_GT(b.adjacent_equal, a.adjacent_equal + 0.15);
}

TEST(Reference, InvalidParametersThrow) {
  Rng rng(4);
  ReferenceModel bad_gc;
  bad_gc.gc_content = 1.5;
  EXPECT_THROW(generate_reference(100, bad_gc, rng), std::invalid_argument);
  ReferenceModel bad_bias;
  bad_bias.repeat_bias = 1.0;
  EXPECT_THROW(generate_reference(100, bad_bias, rng), std::invalid_argument);
}

TEST(Reference, DeterministicFromSeed) {
  Rng a(7);
  Rng b(7);
  EXPECT_EQ(generate_reference(5000, {}, a), generate_reference(5000, {}, b));
}

TEST(Segment, NonOverlappingTiling) {
  Rng rng(5);
  const Sequence genome = Sequence::random(1000, rng);
  const auto segments = segment_reference(genome, 256);
  ASSERT_EQ(segments.size(), 3u);  // 1000 / 256 = 3, remainder discarded
  for (const auto& s : segments) EXPECT_EQ(s.size(), 256u);
  EXPECT_EQ(segments[1].to_string(), genome.subseq(256, 256).to_string());
}

TEST(Segment, OverlappingStride) {
  Rng rng(6);
  const Sequence genome = Sequence::random(600, rng);
  const auto segments = segment_reference(genome, 256, 128);
  // positions 0,128,256,384 -> windows ending at 256,384,512,640>600 -> 3
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[2].to_string(), genome.subseq(256, 256).to_string());
}

TEST(Segment, ZeroLengthThrows) {
  Rng rng(6);
  const Sequence genome = Sequence::random(100, rng);
  EXPECT_THROW(segment_reference(genome, 0), std::invalid_argument);
}

TEST(Segment, TooShortReferenceYieldsNothing) {
  Rng rng(6);
  const Sequence genome = Sequence::random(100, rng);
  EXPECT_TRUE(segment_reference(genome, 256).empty());
}

TEST(Reference, DuplicationCreatesSimilarWindows) {
  Rng rng(10);
  ReferenceModel model;
  model.duplication_fraction = 0.5;
  model.duplication_length = 300;
  model.duplication_divergence = 0.0;
  const Sequence genome = generate_reference(20000, model, rng);
  // With heavy exact duplication some 64-mers must recur. Count distinct
  // 64-base windows at stride 64 and expect at least one collision.
  std::size_t collisions = 0;
  const auto windows = segment_reference(genome, 64, 64);
  for (std::size_t i = 0; i < windows.size() && collisions == 0; ++i)
    for (std::size_t j = i + 1; j < windows.size(); ++j)
      if (windows[i] == windows[j]) {
        ++collisions;
        break;
      }
  EXPECT_GT(collisions, 0u);
}

TEST(Reference, MeasureEmpty) {
  const ReferenceStats stats = measure_reference(Sequence{});
  EXPECT_EQ(stats.length, 0u);
  EXPECT_EQ(stats.gc_content, 0.0);
}

}  // namespace
}  // namespace asmcap
