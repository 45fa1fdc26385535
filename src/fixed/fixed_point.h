// 16-bit fixed-point arithmetic as used by the paper's FPGA datapath:
// "16-bit fixed-point with 1 sign bit, 7 integer bits and 8 fractional
// bits" (Q7.8). Multiplication uses a 32-bit intermediate, mirroring a
// DSP48 MAC; addition/accumulation saturates at the representable range.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace hwp3d {

// Q(7.8) signed fixed-point scalar. Trivially copyable; usable as the
// element type of Tensor<T>.
class Fixed16 {
 public:
  static constexpr int kFractionBits = 8;
  static constexpr int kIntegerBits = 7;
  static constexpr int32_t kScale = 1 << kFractionBits;  // 256
  static constexpr int16_t kRawMax = std::numeric_limits<int16_t>::max();
  static constexpr int16_t kRawMin = std::numeric_limits<int16_t>::min();

  constexpr Fixed16() = default;

  // Quantizes a float with round-to-nearest and saturation. NaN maps
  // to 0; ±Inf and out-of-range values saturate. The range check runs
  // in floating point *before* any float→int conversion: casting a
  // non-finite or out-of-range float to an integer is UB, so the
  // integer SaturateRaw alone cannot make this safe.
  static Fixed16 FromFloat(float v) {
    if (std::isnan(v)) return Fixed16(0);
    const float scaled = v * static_cast<float>(kScale);
    if (scaled >= static_cast<float>(kRawMax)) return Fixed16(kRawMax);
    if (scaled <= static_cast<float>(kRawMin)) return Fixed16(kRawMin);
    return Fixed16(static_cast<int16_t>(std::nearbyint(scaled)));
  }

  static constexpr Fixed16 FromRaw(int16_t raw) { return Fixed16(raw); }

  float ToFloat() const {
    return static_cast<float>(raw_) / static_cast<float>(kScale);
  }

  int16_t raw() const { return raw_; }

  // Largest / smallest representable values: ±127.996...
  static constexpr float MaxValue() {
    return static_cast<float>(kRawMax) / kScale;
  }
  static constexpr float MinValue() {
    return static_cast<float>(kRawMin) / kScale;
  }

  // Smallest positive step.
  static constexpr float Epsilon() { return 1.0f / kScale; }

  Fixed16 operator+(Fixed16 o) const {
    return Fixed16(SaturateRaw(static_cast<int64_t>(raw_) + o.raw_));
  }
  Fixed16 operator-(Fixed16 o) const {
    return Fixed16(SaturateRaw(static_cast<int64_t>(raw_) - o.raw_));
  }
  Fixed16 operator-() const {
    return Fixed16(SaturateRaw(-static_cast<int64_t>(raw_)));
  }
  // Product of two Q7.8 values is Q14.16; shift back with rounding.
  Fixed16 operator*(Fixed16 o) const {
    const int64_t wide = static_cast<int64_t>(raw_) * o.raw_;
    const int64_t rounded = (wide + (1 << (kFractionBits - 1))) >> kFractionBits;
    return Fixed16(SaturateRaw(rounded));
  }

  Fixed16& operator+=(Fixed16 o) { return *this = *this + o; }
  Fixed16& operator-=(Fixed16 o) { return *this = *this - o; }
  Fixed16& operator*=(Fixed16 o) { return *this = *this * o; }

  bool operator==(Fixed16 o) const { return raw_ == o.raw_; }
  bool operator!=(Fixed16 o) const { return raw_ != o.raw_; }
  bool operator<(Fixed16 o) const { return raw_ < o.raw_; }
  bool operator<=(Fixed16 o) const { return raw_ <= o.raw_; }
  bool operator>(Fixed16 o) const { return raw_ > o.raw_; }
  bool operator>=(Fixed16 o) const { return raw_ >= o.raw_; }

 private:
  constexpr explicit Fixed16(int16_t raw) : raw_(raw) {}

  static constexpr int16_t SaturateRaw(int64_t wide) {
    if (wide > kRawMax) return kRawMax;
    if (wide < kRawMin) return kRawMin;
    return static_cast<int16_t>(wide);
  }

  int16_t raw_ = 0;
};

// Wide (64-bit) accumulator standing in for a DSP48-style MAC chain's
// 48-bit accumulator: products are accumulated at full precision and
// narrowed to Fixed16 only at the end, which is how the adder-tree in
// the accelerator's processing element behaves before write-back to the
// output buffer. Each int16×int16 product fits in 32 bits and no
// realistic sum overflows 64, so the accumulation is exact and its
// result independent of order.
class FixedAccum {
 public:
  constexpr FixedAccum() = default;

  void MulAdd(Fixed16 a, Fixed16 b) {
    acc_ += static_cast<int64_t>(a.raw()) * b.raw();
  }

  void Add(FixedAccum o) { acc_ += o.acc_; }

  // Folds in an exact partial sum of raw products (a narrower
  // accumulator that the caller kept from overflowing).
  void AddPartial(int32_t partial) { acc_ += partial; }

  // Adds a pre-scaled Fixed16 (e.g. a bias or a shortcut value).
  void AddFixed(Fixed16 v) {
    acc_ += static_cast<int64_t>(v.raw()) << Fixed16::kFractionBits;
  }

  // Narrow to Q7.8 with rounding and saturation.
  Fixed16 ToFixed16() const {
    const int64_t rounded =
        (acc_ + (1 << (Fixed16::kFractionBits - 1))) >> Fixed16::kFractionBits;
    if (rounded > Fixed16::kRawMax) return Fixed16::FromRaw(Fixed16::kRawMax);
    if (rounded < Fixed16::kRawMin) return Fixed16::FromRaw(Fixed16::kRawMin);
    return Fixed16::FromRaw(static_cast<int16_t>(rounded));
  }

  int64_t raw() const { return acc_; }
  void Reset() { acc_ = 0; }

 private:
  int64_t acc_ = 0;
};

}  // namespace hwp3d
