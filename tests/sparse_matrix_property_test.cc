// Randomized property tests of the SparseMatrix layout: for arbitrary
// shapes, row and column views must expose the same entries, and walking
// every column (or every row) must cover every entry exactly once.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/sparse_matrix.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace warplda {
namespace {

struct MatrixShape {
  uint32_t rows;
  uint32_t cols;
  uint32_t entries;
  double col_skew;  // columns drawn from Zipf(col_skew): skewed loads
  uint64_t seed;
};

// Builds a random matrix; entry value = insertion index for traceability.
SparseMatrix<int64_t> RandomMatrix(const MatrixShape& shape,
                                   std::vector<std::pair<uint32_t, uint32_t>>*
                                       positions) {
  Rng rng(shape.seed);
  ZipfSampler col_dist(shape.cols, shape.col_skew);
  // Generate (row, col) pairs, then sort by row to satisfy the row-major
  // insertion requirement.
  positions->clear();
  for (uint32_t i = 0; i < shape.entries; ++i) {
    positions->emplace_back(rng.NextInt(shape.rows), col_dist.Sample(rng));
  }
  std::stable_sort(positions->begin(), positions->end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  SparseMatrix<int64_t> m;
  m.Reset(shape.rows, shape.cols);
  for (uint32_t i = 0; i < shape.entries; ++i) {
    m.AddEntry((*positions)[i].first, (*positions)[i].second, i);
  }
  m.Finalize();
  return m;
}

class SparseMatrixPropertyTest
    : public ::testing::TestWithParam<MatrixShape> {};

TEST_P(SparseMatrixPropertyTest, ColumnsCoverEachEntryOnce) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  std::vector<int> seen(GetParam().entries);
  uint64_t offset = 0;
  for (uint32_t c = 0; c < m.num_cols(); ++c) {
    ASSERT_EQ(m.col_offset(c), offset);
    ASSERT_EQ(m.col_size(c), m.col_data(c).size());
    offset += m.col_size(c);
    for (int64_t v : m.col_data(c)) seen[static_cast<size_t>(v)]++;
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST_P(SparseMatrixPropertyTest, RowsCoverEachEntryOnce) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  std::vector<int> seen(GetParam().entries);
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    auto row = m.row(r);
    const std::span<const uint64_t> index = m.row_positions(r);
    ASSERT_EQ(index.size(), row.size());
    for (uint32_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(m.entry_data(index[i]), row[i]);
      seen[static_cast<size_t>(row[i])]++;
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST_P(SparseMatrixPropertyTest, RowViewMatchesInsertedPositions) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    auto row = m.row(r);
    for (uint32_t i = 0; i < row.size(); ++i) {
      int64_t insertion = row[i];
      EXPECT_EQ(positions[static_cast<size_t>(insertion)].first, r);
    }
  }
}

TEST_P(SparseMatrixPropertyTest, ColumnsSortedByRow) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  for (uint32_t c = 0; c < m.num_cols(); ++c) {
    std::span<int64_t> data = m.col_data(c);
    uint32_t prev_row = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      const auto& pos = positions[static_cast<size_t>(data[i])];
      EXPECT_EQ(pos.second, c);
      if (i > 0) {
        EXPECT_GE(pos.first, prev_row);
      }
      prev_row = pos.first;
    }
  }
}

TEST_P(SparseMatrixPropertyTest, CscPositionRoundTrips) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  for (uint32_t i = 0; i < GetParam().entries; ++i) {
    EXPECT_EQ(m.entry_data(m.csc_position(i)), static_cast<int64_t>(i));
  }
}

TEST_P(SparseMatrixPropertyTest, MutationsVisibleAcrossOrientations) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  auto m = RandomMatrix(GetParam(), &positions);
  for (uint32_t c = 0; c < m.num_cols(); ++c) {
    for (auto& v : m.col_data(c)) v = -v - 1;
  }
  int64_t expected = 0;
  for (uint32_t i = 0; i < GetParam().entries; ++i) {
    expected += -static_cast<int64_t>(i) - 1;
  }
  int64_t total = 0;
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    auto row = m.row(r);
    for (uint32_t i = 0; i < row.size(); ++i) total += row[i];
  }
  EXPECT_EQ(total, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseMatrixPropertyTest,
    ::testing::Values(MatrixShape{1, 1, 1, 0.0, 1},
                      MatrixShape{10, 10, 50, 0.5, 2},
                      MatrixShape{100, 30, 1000, 1.5, 3},
                      MatrixShape{50, 500, 2000, 2.0, 4},
                      MatrixShape{300, 300, 5000, 1.0, 5},
                      MatrixShape{7, 1000, 400, 2.5, 6}),
    [](const auto& pinfo) {
      const auto& s = pinfo.param;
      return "r" + std::to_string(s.rows) + "c" + std::to_string(s.cols) +
             "e" + std::to_string(s.entries);
    });

}  // namespace
}  // namespace warplda
