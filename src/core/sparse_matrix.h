#ifndef WARPLDA_CORE_SPARSE_MATRIX_H_
#define WARPLDA_CORE_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

namespace warplda {

/// The computational framework of paper §5.1 (Fig. 2): a sparse matrix whose
/// fixed structure holds mutable per-entry data, read and written column by
/// column or row by row.
///
/// Layout follows §5.2: entry data is stored once, contiguously in CSC order
/// (column-major), with each column's entries sorted by row id. Rows are
/// visited through an index array (the paper's P_CSR pointers) — indirect
/// accesses that still utilize full cache lines because every column is
/// consumed front-to-back during a row sweep. No transpose pass is needed.
///
/// Usage:
///   SparseMatrix<Topic> m;
///   m.Reset(D, V);
///   for (...) m.AddEntry(d, w, data);   // insertion must be row-major
///   m.Finalize();
///   std::span<Topic> col = m.col_data(c);  // column c, contiguous
///   RowView row = m.row(r);                 // row r, through P_CSR
///
/// Distinct rows/columns never share entries, so threads that own disjoint
/// rows (or columns) need only thread-local scratch (paper §5.3.1).
template <typename Data>
class SparseMatrix {
 public:
  /// Indirect view of one row's entries (in ascending column order).
  class RowView {
   public:
    RowView(Data* data, const uint64_t* entries, uint32_t size)
        : data_(data), entries_(entries), size_(size) {}

    uint32_t size() const { return size_; }
    Data& operator[](uint32_t i) const { return data_[entries_[i]]; }

   private:
    Data* data_;
    const uint64_t* entries_;
    uint32_t size_;
  };

  /// Clears the matrix and declares its dimensions.
  void Reset(uint32_t rows, uint32_t cols) {
    rows_ = rows;
    cols_ = cols;
    build_rows_.clear();
    build_cols_.clear();
    build_data_.clear();
    finalized_ = false;
  }

  /// Adds an entry at (r, c). Multiple entries per cell are allowed (a word
  /// occurring twice in a document is two entries). Must be called in
  /// row-major order (all of row 0, then row 1, …) so columns finalize
  /// sorted by row id; this is asserted cheaply in Finalize.
  void AddEntry(uint32_t r, uint32_t c, Data data = Data()) {
    build_rows_.push_back(r);
    build_cols_.push_back(c);
    build_data_.push_back(data);
  }

  /// Freezes the structure and builds the CSC layout plus row pointers.
  void Finalize();

  uint32_t num_rows() const { return rows_; }
  uint32_t num_cols() const { return cols_; }
  uint64_t num_entries() const { return data_.size(); }

  /// Contiguous data of column c (entries sorted by row id).
  std::span<Data> col_data(uint32_t c) {
    return {data_.data() + col_offsets_[c],
            static_cast<size_t>(col_offsets_[c + 1] - col_offsets_[c])};
  }

  /// CSC position of column c's first entry (columns are contiguous, so the
  /// i-th entry of col_data(c) lives at CSC position col_offset(c)+i): the
  /// number of entries in columns before c, for c in [0, num_cols()].
  uint64_t col_offset(uint32_t c) const { return col_offsets_[c]; }

  /// Number of entries in rows before r, for r in [0, num_rows()].
  uint64_t row_offset(uint32_t r) const { return row_offsets_[r]; }

  /// Number of entries in column c.
  uint32_t col_size(uint32_t c) const {
    return static_cast<uint32_t>(col_offsets_[c + 1] - col_offsets_[c]);
  }

  RowView row(uint32_t r) {
    return RowView(data_.data(), row_entries_.data() + row_offsets_[r],
                   static_cast<uint32_t>(row_offsets_[r + 1] -
                                         row_offsets_[r]));
  }

  /// CSC positions of row r's entries, in ascending column order: the index
  /// array a RowView reads through, stable for the matrix's lifetime, so
  /// callers use it to index side arrays parallel to the entry data.
  std::span<const uint64_t> row_positions(uint32_t r) const {
    return {row_entries_.data() + row_offsets_[r],
            static_cast<size_t>(row_offsets_[r + 1] - row_offsets_[r])};
  }

  /// Entry data by CSC position.
  Data& entry_data(uint64_t csc_pos) { return data_[csc_pos]; }
  const Data& entry_data(uint64_t csc_pos) const { return data_[csc_pos]; }

  /// CSC position of the i-th inserted entry (insertion order == row-major
  /// token order), i.e. the row-to-column permutation.
  uint64_t csc_position(uint64_t insertion_index) const {
    return insertion_to_csc_[insertion_index];
  }

 private:
  uint32_t rows_ = 0;
  uint32_t cols_ = 0;
  bool finalized_ = false;

  // Build-time staging (insertion order).
  std::vector<uint32_t> build_rows_;
  std::vector<uint32_t> build_cols_;
  std::vector<Data> build_data_;

  // Finalized layout.
  std::vector<Data> data_;               // CSC order
  std::vector<uint64_t> col_offsets_;    // cols_+1
  std::vector<uint64_t> row_offsets_;    // rows_+1
  std::vector<uint64_t> row_entries_;    // CSC positions, grouped by row
  std::vector<uint64_t> insertion_to_csc_;
};

template <typename Data>
void SparseMatrix<Data>::Finalize() {
  const uint64_t n = build_data_.size();

  col_offsets_.assign(cols_ + 1, 0);
  for (uint32_t c : build_cols_) ++col_offsets_[c + 1];
  for (uint32_t c = 0; c < cols_; ++c) col_offsets_[c + 1] += col_offsets_[c];

  row_offsets_.assign(rows_ + 1, 0);
  for (uint32_t r : build_rows_) ++row_offsets_[r + 1];
  for (uint32_t r = 0; r < rows_; ++r) row_offsets_[r + 1] += row_offsets_[r];

  data_.resize(n);
  insertion_to_csc_.resize(n);
  std::vector<uint64_t> col_cursor(col_offsets_.begin(),
                                   col_offsets_.end() - 1);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t pos = col_cursor[build_cols_[i]]++;
    data_[pos] = build_data_[i];
    insertion_to_csc_[i] = pos;
  }

  row_entries_.resize(n);
  std::vector<uint64_t> row_cursor(row_offsets_.begin(),
                                   row_offsets_.end() - 1);
  for (uint64_t i = 0; i < n; ++i) {
    row_entries_[row_cursor[build_rows_[i]]++] = insertion_to_csc_[i];
  }

  build_rows_.clear();
  build_rows_.shrink_to_fit();
  build_cols_.clear();
  build_cols_.shrink_to_fit();
  build_data_.clear();
  build_data_.shrink_to_fit();
  finalized_ = true;
}

}  // namespace warplda

#endif  // WARPLDA_CORE_SPARSE_MATRIX_H_
