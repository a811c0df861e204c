// Row: the value tuple flowing through relations and MPC messages.
//
// A Row is an ordered sequence of attribute values (64-bit integers). Almost
// every row in the system is short — the paper's query class has binary
// relations, so rows of 1-3 values dominate — hence values are stored inline
// up to a small capacity with a heap fallback for wide intermediate rows
// (e.g. materialized output tuples of tree queries).

#ifndef PARJOIN_COMMON_ROW_H_
#define PARJOIN_COMMON_ROW_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <ostream>

#include "parjoin/common/hash.h"
#include "parjoin/common/logging.h"

namespace parjoin {

// The domain of every attribute. Domains are application-defined; the
// library only requires values to be totally ordered and hashable.
using Value = std::int64_t;

class Row {
 public:
  static constexpr int kInlineCapacity = 6;

  Row() : size_(0), capacity_(kInlineCapacity) {}

  Row(std::initializer_list<Value> values) : Row() {
    Reserve(static_cast<int>(values.size()));
    for (Value v : values) PushBack(v);
  }

  Row(const Row& other) : Row() { CopyFrom(other); }

  Row(Row&& other) noexcept : Row() { MoveFrom(other); }

  Row& operator=(const Row& other) {
    if (this != &other) {
      Clear();
      CopyFrom(other);
    }
    return *this;
  }

  Row& operator=(Row&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      MoveFrom(other);
    }
    return *this;
  }

  ~Row() { FreeHeap(); }

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Value operator[](int i) const {
    CHECK_GE(i, 0);
    CHECK_LT(i, size_);
    return data()[i];
  }

  Value& operator[](int i) {
    CHECK_GE(i, 0);
    CHECK_LT(i, size_);
    return data()[i];
  }

  const Value* data() const {
    return capacity_ == kInlineCapacity ? inline_ : heap_;
  }
  Value* data() { return capacity_ == kInlineCapacity ? inline_ : heap_; }

  const Value* begin() const { return data(); }
  const Value* end() const { return data() + size_; }

  void PushBack(Value v) {
    if (size_ == capacity_) Grow(size_ + 1);
    data()[size_++] = v;
  }

  void Reserve(int capacity) {
    if (capacity > capacity_) Grow(capacity);
  }

  void Clear() { size_ = 0; }

  // Returns the sub-row at the given positions.
  template <typename Positions>
  Row Select(const Positions& positions) const {
    Row out;
    out.Reserve(static_cast<int>(positions.size()));
    for (int pos : positions) out.PushBack((*this)[pos]);
    return out;
  }

  std::uint64_t Hash(std::uint64_t seed = 0x5bf03635d1a3a6c3ULL) const {
    std::uint64_t h = seed;
    for (Value v : *this) h = HashCombine(h, static_cast<std::uint64_t>(v));
    return h;
  }

  friend bool operator==(const Row& a, const Row& b) {
    if (a.size_ != b.size_) return false;
    return std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const Row& a, const Row& b) { return !(a == b); }
  friend bool operator<(const Row& a, const Row& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

  friend std::ostream& operator<<(std::ostream& os, const Row& row) {
    os << "(";
    for (int i = 0; i < row.size(); ++i) {
      if (i > 0) os << ", ";
      os << row[i];
    }
    return os << ")";
  }

 private:
  void Grow(int min_capacity) {
    int new_capacity = std::max(min_capacity, capacity_ * 2);
    Value* new_heap = new Value[static_cast<size_t>(new_capacity)];
    std::memcpy(new_heap, data(), sizeof(Value) * static_cast<size_t>(size_));
    FreeHeap();
    heap_ = new_heap;
    capacity_ = new_capacity;
  }

  void FreeHeap() {
    if (capacity_ != kInlineCapacity) {
      delete[] heap_;
      capacity_ = kInlineCapacity;
    }
  }

  void CopyFrom(const Row& other) {
    Reserve(other.size_);
    std::memcpy(data(), other.data(),
                sizeof(Value) * static_cast<size_t>(other.size_));
    size_ = other.size_;
  }

  // Precondition: *this owns no heap buffer.
  void MoveFrom(Row& other) {
    if (other.capacity_ != kInlineCapacity) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.capacity_ = kInlineCapacity;
      other.size_ = 0;
    } else {
      capacity_ = kInlineCapacity;
      std::memcpy(inline_, other.inline_,
                  sizeof(Value) * static_cast<size_t>(other.size_));
      size_ = other.size_;
      other.size_ = 0;
    }
  }

  int size_;
  int capacity_;  // == kInlineCapacity iff storage is inline
  union {
    Value inline_[kInlineCapacity];
    Value* heap_;
  };
};

}  // namespace parjoin

#endif  // PARJOIN_COMMON_ROW_H_
