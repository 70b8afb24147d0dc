// Shape: dimension vector for tensors, NHWC convention for 4-D activations.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <stdexcept>
#include <string>

namespace mn {

// A tensor shape with up to kMaxRank dimensions. Activations use NHWC
// ([batch, height, width, channels]); conv weights use [out_ch, kh, kw, in_ch]
// (depthwise: [1, kh, kw, channels]); dense weights use [out, in].
class Shape {
 public:
  static constexpr int kMaxRank = 4;

  Shape() = default;
  constexpr Shape(std::initializer_list<int64_t> dims) {
    if (dims.size() > kMaxRank) throw std::invalid_argument("Shape: rank > 4");
    rank_ = static_cast<int>(dims.size());
    int i = 0;
    for (int64_t d : dims) {
      if (d < 0) throw std::invalid_argument("Shape: negative dim");
      dims_[i++] = d;
    }
  }

  int rank() const { return rank_; }

  int64_t dim(int i) const {
    if (i < 0 || i >= rank_) throw std::out_of_range("Shape::dim");
    return dims_[i];
  }
  int64_t operator[](int i) const { return dim(i); }

  void set_dim(int i, int64_t v) {
    if (i < 0 || i >= rank_) throw std::out_of_range("Shape::set_dim");
    if (v < 0) throw std::invalid_argument("Shape: negative dim");
    dims_[i] = v;
  }

  int64_t elements() const {
    int64_t n = 1;
    for (int i = 0; i < rank_; ++i) n *= dims_[i];
    return n;
  }

  bool operator==(const Shape& o) const {
    if (rank_ != o.rank_) return false;
    for (int i = 0; i < rank_; ++i)
      if (dims_[i] != o.dims_[i]) return false;
    return true;
  }
  bool operator!=(const Shape& o) const { return !(*this == o); }

  std::string to_string() const {
    std::string s = "[";
    for (int i = 0; i < rank_; ++i) {
      if (i) s += ", ";
      s += std::to_string(dims_[i]);
    }
    return s + "]";
  }

  // NHWC accessors (valid for rank-4 shapes).
  int64_t batch() const { return dim(0); }
  int64_t height() const { return dim(1); }
  int64_t width() const { return dim(2); }
  int64_t channels() const { return dim(rank_ - 1); }

 private:
  int rank_ = 0;
  std::array<int64_t, kMaxRank> dims_{};
};

}  // namespace mn
