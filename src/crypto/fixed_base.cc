#include "src/crypto/fixed_base.h"

#include <algorithm>

#include "src/common/check.h"

namespace dstress::crypto {

namespace {

// Signed 4-bit-window expansion of a GLV half-scalar: k = sum d_j * 16^j
// with d_j in [-8, 8]. `sign` folds the decomposition sign into every digit.
void RecodeHalf(const U256& k, int sign, int8_t out[FixedBaseTable::kHalfWindows]) {
  int carry = 0;
  for (int j = 0; j < FixedBaseTable::kHalfWindows; j++) {
    int d = static_cast<int>((k.w[j / 16] >> (4 * (j % 16))) & 0xF) + carry;
    // d is in [0, 16]; d > 8 becomes d - 16 with a carry, without a
    // branch on the scalar's bits.
    carry = (d + 7) >> 4;
    d -= carry << 4;
    out[j] = static_cast<int8_t>(sign * d);
  }
  // GLV halves are < 2^129, so window 32 (bits 128..131) absorbs the final
  // carry; anything left would silently drop scalar bits.
  DSTRESS_CHECK(carry == 0);
  DSTRESS_CHECK((k.w[2] >> 4) == 0 && k.w[3] == 0);
}

enum class AddKind : uint8_t { kKeep, kCopy, kGeneric, kDouble, kInfinity };

}  // namespace

FixedBaseTable::Recoding FixedBaseTable::Recode(const U256& k) {
  U256 e = k;
  while (Cmp(e, CurveOrder()) >= 0) {
    SubWithBorrow(e, CurveOrder(), &e);
  }
  U256 k1, k2;
  int sign1 = 1, sign2 = 1;
  SplitScalarGlv(e, &k1, &sign1, &k2, &sign2);
  Recoding r;
  RecodeHalf(k1, sign1, r.digit1);
  RecodeHalf(k2, sign2, r.digit2);
  return r;
}

FixedBaseTable::FixedBaseTable(const EcPoint& base)
    : entries_(kHalfWindows * kEntriesPerWindow), endo_entries_(kHalfWindows * kEntriesPerWindow) {
  // Ladder 16^j * base (Jacobian doubling), normalized with one shared
  // inversion; the entry chains d = 1..8 then advance in lockstep across the
  // window lanes, and phi(x, y) = (beta*x, y) fills each endomorphism entry
  // as its base entry lands, for one field multiplication per entry.
  std::vector<EcPoint> ladder(kHalfWindows);
  EcPoint p = base;
  for (int j = 0; j < kHalfWindows; j++) {
    ladder[j] = p;
    p = p.Double().Double().Double().Double();
  }
  std::vector<AffinePoint> window_base(kHalfWindows);
  EcPoint::ToAffineBatch(ladder.data(), kHalfWindows, window_base.data());

  const Fp& beta = EndomorphismBeta();
  std::vector<AffinePoint> cur = window_base;
  for (int d = 1; d <= kEntriesPerWindow; d++) {
    if (d > 1) {
      BatchAddAssign(cur.data(), window_base.data(), kHalfWindows);
    }
    for (int j = 0; j < kHalfWindows; j++) {
      AffinePoint e = cur[j];
      entries_[j * kEntriesPerWindow + (d - 1)] = e;
      if (!e.infinity) {
        e.x = e.x * beta;
      }
      endo_entries_[j * kEntriesPerWindow + (d - 1)] = e;
    }
  }
}

void BatchAddSelected(AffinePoint* acc, const size_t* indices, const AffinePoint* add,
                      size_t count) {
  // Pass 1: classify every lane and collect the denominators that need
  // inverting (x2 - x1 for generic additions, 2*y for doublings). The
  // scratch vectors persist across calls: this runs once per window level
  // for every bundle in a transfer batch, and per-call allocation showed up
  // in profiles.
  static thread_local std::vector<AddKind> kind;
  static thread_local std::vector<Fp> den;
  kind.assign(count, AddKind::kKeep);
  den.clear();
  den.reserve(count);
  for (size_t t = 0; t < count; t++) {
    const AffinePoint& p = acc[indices ? indices[t] : t];
    const AffinePoint& q = add[t];
    if (q.infinity) {
      kind[t] = AddKind::kKeep;
      continue;
    }
    if (p.infinity) {
      kind[t] = AddKind::kCopy;
      continue;
    }
    // Both points are on the curve, so equal x means q = p or q = -p, and
    // p.y + q.y tells them apart; one normalization per test.
    const Fp dx = q.x - p.x;
    if (!dx.IsZero()) {
      kind[t] = AddKind::kGeneric;
      den.push_back(dx);
    } else if (!(p.y + q.y).IsZero()) {
      kind[t] = AddKind::kDouble;
      den.push_back(p.y + p.y);
    } else {
      kind[t] = AddKind::kInfinity;  // P + (-P), or doubling a 2-torsion y=0
    }
  }
  Fp::BatchInvert(den.data(), den.size());

  // Pass 2: finish each lane with its inverted denominator.
  size_t cursor = 0;
  for (size_t t = 0; t < count; t++) {
    AffinePoint& p = acc[indices ? indices[t] : t];
    const AffinePoint& q = add[t];
    switch (kind[t]) {
      case AddKind::kKeep:
        break;
      case AddKind::kCopy:
        p = q;
        break;
      case AddKind::kInfinity:
        p = AffinePoint{};
        break;
      case AddKind::kGeneric: {
        Fp lambda = (q.y - p.y) * den[cursor++];
        Fp x3 = lambda.Square() - p.x - q.x;
        p.y = lambda * (p.x - x3) - p.y;
        p.x = x3;
        break;
      }
      case AddKind::kDouble: {
        Fp xx = p.x.Square();
        Fp lambda = (xx + xx + xx) * den[cursor++];
        Fp x3 = lambda.Square() - p.x - p.x;
        p.y = lambda * (p.x - x3) - p.y;
        p.x = x3;
        break;
      }
    }
  }
}

void BatchAddAssign(AffinePoint* acc, const AffinePoint* add, size_t count) {
  BatchAddSelected(acc, nullptr, add, count);
}

void MulBatch(const FixedBaseTable& table, const FixedBaseTable::Recoding* recodings,
              size_t count, AffinePoint* out) {
  for (size_t i = 0; i < count; i++) {
    out[i] = AffinePoint{};
  }
  static thread_local std::vector<size_t> idx;
  static thread_local std::vector<AffinePoint> add;
  idx.reserve(count);
  add.reserve(count);
  // Two passes per window level (base table, then endomorphism table) so a
  // lane never receives two addends inside one batch call.
  for (int j = 0; j < FixedBaseTable::kHalfWindows; j++) {
    for (int half = 0; half < 2; half++) {
      idx.clear();
      add.clear();
      for (size_t i = 0; i < count; i++) {
        const FixedBaseTable::Recoding& r = recodings[i];
        int d = half == 0 ? r.digit1[j] : r.digit2[j];
        if (d == 0) {
          continue;
        }
        AffinePoint a =
            half == 0 ? table.Entry(j, d > 0 ? d : -d) : table.EndoEntry(j, d > 0 ? d : -d);
        if (d < 0 && !a.infinity) {
          a.y = a.y.Neg();
        }
        idx.push_back(i);
        add.push_back(a);
      }
      if (!idx.empty()) {
        BatchAddSelected(out, idx.data(), add.data(), idx.size());
      }
    }
  }
}

void MulVariableBases(const AffinePoint* bases, size_t count, const U256& k, AffinePoint* out) {
  for (size_t i = 0; i < count; i++) {
    out[i] = AffinePoint{};
  }
  U256 e = k;
  while (Cmp(e, CurveOrder()) >= 0) {
    SubWithBorrow(e, CurveOrder(), &e);
  }
  if (count == 0 || e.IsZero()) {
    return;
  }
  U256 k1, k2;
  int sign1 = 1, sign2 = 1;
  SplitScalarGlv(e, &k1, &sign1, &k2, &sign2);
  int8_t digits1[kWnafDigits] = {0};
  int8_t digits2[kWnafDigits] = {0};
  const int top1 = ComputeWnaf(k1, digits1);
  const int top2 = ComputeWnaf(k2, digits2);

  // Row t holds (2t + 1) * sign1 * B_i for every lane, the first half's sign
  // folded in: one batch doubling of the bases, then seven batch additions
  // of that double. The rows are per-call vectors, not grow-only
  // thread_local scratch, which would keep every pool thread's largest
  // batch resident and raise the OT engines' peak memory.
  constexpr int kOddMultiples = 8;
  std::vector<AffinePoint> table(kOddMultiples * count);
  for (size_t i = 0; i < count; i++) {
    table[i] = bases[i];
    if (sign1 < 0 && !table[i].infinity) {
      table[i].y = table[i].y.Neg();
    }
  }
  std::vector<AffinePoint> twice(table.begin(), table.begin() + count);
  BatchAddAssign(twice.data(), twice.data(), count);
  for (int t = 1; t < kOddMultiples; t++) {
    AffinePoint* row = table.data() + t * count;
    std::copy_n(row - count, count, row);
    BatchAddAssign(row, twice.data(), count);
  }

  // The phi half reads the same rows as phi(x, y) = (beta*x, y), which are
  // sign1 * (2t + 1) * phi(B_i), so its y flips when sign2 differs from
  // sign1, on top of the digit's own sign.
  const Fp& beta = EndomorphismBeta();
  std::vector<AffinePoint> staged(count);
  auto add_digit = [&](int d, bool endo) {
    const AffinePoint* row = table.data() + static_cast<size_t>((d > 0 ? d : -d) / 2) * count;
    const bool negate = (d < 0) != (endo && sign1 != sign2);
    for (size_t i = 0; i < count; i++) {
      AffinePoint q = row[i];
      if (!q.infinity) {
        if (endo) {
          q.x = q.x * beta;
        }
        if (negate) {
          q.y = q.y.Neg();
        }
      }
      staged[i] = q;
    }
    BatchAddAssign(out, staged.data(), count);
  };
  const int top = std::max(top1, top2);
  for (int bit = top; bit >= 0; bit--) {
    if (bit < top) {
      // Self-addition is a doubling in every lane, as in FixedBaseTableSet::Build.
      BatchAddAssign(out, out, count);
    }
    if (digits1[bit] != 0) {
      add_digit(digits1[bit], false);
    }
    if (digits2[bit] != 0) {
      add_digit(digits2[bit], true);
    }
  }
}

FixedBaseTableSet FixedBaseTableSet::Build(const std::vector<EcPoint>& bases) {
  FixedBaseTableSet set;
  set.m_ = bases.size();
  if (set.m_ == 0) {
    return set;
  }
  const size_t m = set.m_;
  set.entries_.resize(static_cast<size_t>(FixedBaseTable::kHalfWindows) *
                      FixedBaseTable::kEntriesPerWindow * m);
  auto pack_row = [&set, m](int j, int d, const std::vector<AffinePoint>& row) {
    PackedEntry* dst = set.entries_.data() + set.RowOffset(j, d);
    for (size_t i = 0; i < m; i++) {
      dst[i] = row[i].infinity ? PackedEntry{} : PackedEntry{row[i].x.raw(), row[i].y.raw()};
    }
  };

  // Entirely affine, one lane per key: window j's chain d * B_j is seven
  // batch additions of B_j, and the next window base B_{j+1} = 16 * B_j is
  // one batch doubling of 8 * B_j, which replaces the four Jacobian
  // doublings per window of a 16^j ladder. Each row is packed as it lands.
  std::vector<AffinePoint> base(m);
  EcPoint::ToAffineBatch(bases.data(), m, base.data());
  std::vector<AffinePoint> cur(m);
  for (int j = 0; j < FixedBaseTable::kHalfWindows; j++) {
    cur = base;
    pack_row(j, 1, cur);
    for (int d = 2; d <= FixedBaseTable::kEntriesPerWindow; d++) {
      BatchAddAssign(cur.data(), base.data(), m);
      pack_row(j, d, cur);
    }
    if (j + 1 < FixedBaseTable::kHalfWindows) {
      base = cur;
      // Self-addition classifies every lane as a doubling (the addend is
      // never read back after the slope is formed), so aliasing is safe.
      BatchAddAssign(base.data(), base.data(), m);
    }
  }
  return set;
}

void FixedBaseTableSet::MulShared(const FixedBaseTable::Recoding& recoding,
                                  AffinePoint* out) const {
  const size_t m = m_;
  for (size_t i = 0; i < m; i++) {
    out[i] = AffinePoint{};
  }
  static thread_local std::vector<AffinePoint> staged;
  staged.resize(m);
  const Fp& beta = EndomorphismBeta();
  for (int j = 0; j < FixedBaseTable::kHalfWindows; j++) {
    for (int half = 0; half < 2; half++) {
      int d = half == 0 ? recoding.digit1[j] : recoding.digit2[j];
      if (d == 0) {
        continue;
      }
      // Unpack the row, applying phi (x *= beta) for the endomorphism half
      // and the digit sign as each entry is staged.
      const PackedEntry* row = entries_.data() + RowOffset(j, d > 0 ? d : -d);
      for (size_t i = 0; i < m; i++) {
        const PackedEntry& e = row[i];
        AffinePoint& q = staged[i];
        q.infinity = e.x.IsZero() && e.y.IsZero();
        if (q.infinity) {
          continue;
        }
        q.x = Fp::FromU256(e.x);
        q.y = Fp::FromU256(e.y);
        if (half == 1) {
          q.x = q.x * beta;
        }
        if (d < 0) {
          q.y = q.y.Neg();
        }
      }
      BatchAddAssign(out, staged.data(), m);
    }
  }
}

}  // namespace dstress::crypto
