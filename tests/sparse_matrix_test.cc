#include "core/sparse_matrix.h"

#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace warplda {
namespace {

// A 3x4 matrix with 6 entries inserted row-major, values encode position.
SparseMatrix<int> MakeMatrix() {
  SparseMatrix<int> m;
  m.Reset(3, 4);
  m.AddEntry(0, 1, 10);
  m.AddEntry(0, 3, 11);
  m.AddEntry(1, 0, 12);
  m.AddEntry(1, 1, 13);
  m.AddEntry(2, 1, 14);
  m.AddEntry(2, 2, 15);
  m.Finalize();
  return m;
}

TEST(SparseMatrixTest, Dimensions) {
  auto m = MakeMatrix();
  EXPECT_EQ(m.num_rows(), 3u);
  EXPECT_EQ(m.num_cols(), 4u);
  EXPECT_EQ(m.num_entries(), 6u);
}

TEST(SparseMatrixTest, ColumnsContiguousAndSortedByRow) {
  auto m = MakeMatrix();
  auto col1 = m.col_data(1);
  ASSERT_EQ(col1.size(), 3u);
  EXPECT_EQ(col1[0], 10);  // row 0
  EXPECT_EQ(col1[1], 13);  // row 1
  EXPECT_EQ(col1[2], 14);  // row 2
  EXPECT_TRUE(m.col_data(0).size() == 1 && m.col_data(0)[0] == 12);
  EXPECT_TRUE(m.col_data(2).size() == 1 && m.col_data(2)[0] == 15);
  EXPECT_TRUE(m.col_data(3).size() == 1 && m.col_data(3)[0] == 11);
}

TEST(SparseMatrixTest, RowViewSeesAllRowEntries) {
  auto m = MakeMatrix();
  auto row0 = m.row(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_EQ(row0[0], 10);
  EXPECT_EQ(row0[1], 11);
  auto row2 = m.row(2);
  ASSERT_EQ(row2.size(), 2u);
  EXPECT_EQ(row2[0], 14);
  EXPECT_EQ(row2[1], 15);
}

TEST(SparseMatrixTest, RowWritesVisibleInColumns) {
  auto m = MakeMatrix();
  auto row1 = m.row(1);
  row1[0] = 99;  // (1,0)
  EXPECT_EQ(m.col_data(0)[0], 99);
}

TEST(SparseMatrixTest, ColumnWritesVisibleInRows) {
  auto m = MakeMatrix();
  m.col_data(1)[2] = 77;  // (2,1)
  EXPECT_EQ(m.row(2)[0], 77);
}

TEST(SparseMatrixTest, CscPositionMapsInsertionOrder) {
  auto m = MakeMatrix();
  // Insertion 0 was (0,1,10); via csc_position it must read 10.
  EXPECT_EQ(m.entry_data(m.csc_position(0)), 10);
  EXPECT_EQ(m.entry_data(m.csc_position(3)), 13);
  EXPECT_EQ(m.entry_data(m.csc_position(5)), 15);
}

TEST(SparseMatrixTest, RowPositionsAlignRowAndColumnViews) {
  auto m = MakeMatrix();
  // Row 2's first entry is (2,1): its CSC position must be within column 1.
  uint64_t pos = m.row_positions(2)[0];
  EXPECT_GE(pos, m.col_offset(1));
  EXPECT_LT(pos, m.col_offset(2));
}

TEST(SparseMatrixTest, MultipleEntriesPerCell) {
  SparseMatrix<int> m;
  m.Reset(1, 1);
  m.AddEntry(0, 0, 1);
  m.AddEntry(0, 0, 2);
  m.Finalize();
  EXPECT_EQ(m.num_entries(), 2u);
  auto col = m.col_data(0);
  EXPECT_EQ(col[0] + col[1], 3);
}

TEST(SparseMatrixTest, ColumnsCoverEveryEntryOnce) {
  auto m = MakeMatrix();
  int sum = 0;
  for (uint32_t c = 0; c < m.num_cols(); ++c) {
    std::span<int> data = m.col_data(c);
    sum = std::accumulate(data.begin(), data.end(), sum);
  }
  EXPECT_EQ(sum, 10 + 11 + 12 + 13 + 14 + 15);
}

TEST(SparseMatrixTest, RowsCoverEveryEntryOnce) {
  auto m = MakeMatrix();
  int sum = 0;
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    auto row = m.row(r);
    for (uint32_t i = 0; i < row.size(); ++i) sum += row[i];
  }
  EXPECT_EQ(sum, 75);
}

TEST(SparseMatrixTest, ColumnAndRowWritesSeeEachOther) {
  auto m = MakeMatrix();
  for (uint32_t c = 0; c < m.num_cols(); ++c) {
    for (auto& v : m.col_data(c)) v += 1;
  }
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    auto row = m.row(r);
    for (uint32_t i = 0; i < row.size(); ++i) row[i] *= 2;
  }
  int sum = 0;
  for (uint32_t c = 0; c < m.num_cols(); ++c) {
    std::span<int> data = m.col_data(c);
    sum = std::accumulate(data.begin(), data.end(), sum);
  }
  EXPECT_EQ(sum, (75 + 6) * 2);
}

TEST(SparseMatrixTest, EmptyRowsAndColumns) {
  SparseMatrix<int> m;
  m.Reset(3, 3);
  m.AddEntry(1, 1, 5);
  m.Finalize();
  EXPECT_EQ(m.row(0).size(), 0u);
  EXPECT_EQ(m.row(2).size(), 0u);
  EXPECT_TRUE(m.col_data(0).empty());
  EXPECT_TRUE(m.col_data(2).empty());
}

TEST(SparseMatrixTest, ResetClearsPreviousBuild) {
  auto m = MakeMatrix();
  m.Reset(2, 2);
  m.AddEntry(0, 0, 1);
  m.Finalize();
  EXPECT_EQ(m.num_entries(), 1u);
  EXPECT_EQ(m.num_rows(), 2u);
}

}  // namespace
}  // namespace warplda
