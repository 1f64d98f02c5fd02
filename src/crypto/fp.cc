#include "src/crypto/fp.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"

namespace dstress::crypto {

namespace {

const U256 kP(0xFFFFFFFEFFFFFC2FULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
              0xFFFFFFFFFFFFFFFFULL);

// Squares `x` n times.
inline Fp SqN(Fp x, int n) {
  for (int i = 0; i < n; i++) {
    x = x.Square();
  }
  return x;
}

// --- inversion: safegcd divsteps ----------------------------------------------
// Bernstein and Yang, "Fast constant-time gcd computation and modular
// inversion" (TCHES 2019, https://eprint.iacr.org/2019/266), in the
// variable-time form of libsecp256k1's modinv64, written afresh here. The
// gcd of f = p and g = x runs in batches of 62 divsteps: each batch works
// on the low words of f and g only and yields a 2x2 matrix t, scaled by
// 2^62, that is then applied to the full-width (f, g) and to the Bezout
// pair (d, e), which tracks d·x ≡ f and e·x ≡ g (mod p) up to a shared
// power of two that the updates divide out. Once g = 0, f = ±1 and ±d is
// the inverse.
//
// Numbers are five signed 62-bit limbs, value = sum v[i] * 2^(62 i). The
// updates leave limbs 0-3 in [0, 2^62) and carry the sign in limb 4.
// Arithmetic right shifts of negative values and wrapping unsigned
// arithmetic are used throughout, as in the original.
using int128 = __int128;

struct Signed62 {
  int64_t v[5];
};

// One batch's transition matrix [[u, v], [q, r]], scaled by 2^62.
struct Trans2x2 {
  int64_t u, v, q, r;
};

constexpr uint64_t kM62 = ~uint64_t{0} >> 2;
// p = 2^256 - 0x1000003D1 = -0x1000003D1 + 256 * 2^248.
constexpr Signed62 kP62 = {{-0x1000003D1LL, 0, 0, 0, 256}};
// p^-1 mod 2^62.
constexpr uint64_t kPInv62 = 0x27C7F6E22DDACACFULL;

// The low min(eta + 1, i, bits) bits, for eta >= 0 and i >= 1: a batch of
// divsteps may cancel no more than the i steps left, nor more than eta + 1,
// after which eta's sign flips again.
inline uint64_t CancelMask(int64_t eta, int i, int bits) {
  const int64_t limit = std::min<int64_t>({eta + 1, i, bits});
  return (uint64_t{1} << limit) - 1;
}

// 62 divsteps on the low words of f (odd) and g, starting from eta = -delta.
// Runs of zeros at the bottom of g are skipped with one count-trailing-zeros
// each, and every other step cancels up to 6 (eta < 0, after the swap) or 4
// bits of g at once with a multiple of f found from f's inverse mod 2^6
// or 2^4. Returns the new eta.
int64_t Divsteps62(int64_t eta, uint64_t f, uint64_t g, Trans2x2* t) {
  uint64_t u = 1, v = 0, q = 0, r = 1;
  int i = 62;
  for (;;) {
    // The sentinel bit stops the count at i.
    const int zeros = __builtin_ctzll(g | (~uint64_t{0} << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) {
      break;
    }
    // f and g are both odd here.
    uint64_t w = 0;
    if (eta < 0) {
      eta = -eta;
      uint64_t tmp = f;
      f = g;
      g = -tmp;
      tmp = u;
      u = q;
      q = -tmp;
      tmp = v;
      v = r;
      r = -tmp;
      // f * (f * f - 2) is -f^-1 mod 2^6 for odd f.
      w = (f * g * (f * f - 2)) & CancelMask(eta, i, 6);
    } else {
      // f + (((f + 1) & 4) << 1) is f^-1 mod 2^4 for odd f.
      w = (-(f + (((f + 1) & 4) << 1)) * g) & CancelMask(eta, i, 4);
    }
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t->u = static_cast<int64_t>(u);
  t->v = static_cast<int64_t>(v);
  t->q = static_cast<int64_t>(q);
  t->r = static_cast<int64_t>(r);
  return eta;
}

// [d, e] = (t·[d, e] + p·[md, me]) / 2^62, with md and me chosen so the low
// 62 bits of the sum are zero. d and e stay in (-2p, p). p's limbs 1-3 are
// zero, so only limbs 0 and 4 of p enter.
void UpdateDE(Signed62* d, Signed62* e, const Trans2x2& t) {
  const int64_t sd = d->v[4] >> 63;
  const int64_t se = e->v[4] >> 63;
  // Start from t's row sums over the negative inputs, which keeps the
  // result above -2p; then clear the low 62 bits through p^-1 mod 2^62.
  int64_t md = (t.u & sd) + (t.v & se);
  int64_t me = (t.q & sd) + (t.r & se);
  int128 cd = static_cast<int128>(t.u) * d->v[0] + static_cast<int128>(t.v) * e->v[0];
  int128 ce = static_cast<int128>(t.q) * d->v[0] + static_cast<int128>(t.r) * e->v[0];
  md -= static_cast<int64_t>((kPInv62 * static_cast<uint64_t>(cd) + static_cast<uint64_t>(md)) &
                             kM62);
  me -= static_cast<int64_t>((kPInv62 * static_cast<uint64_t>(ce) + static_cast<uint64_t>(me)) &
                             kM62);
  cd += static_cast<int128>(kP62.v[0]) * md;
  ce += static_cast<int128>(kP62.v[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (int i = 1; i < 5; i++) {
    cd += static_cast<int128>(t.u) * d->v[i] + static_cast<int128>(t.v) * e->v[i];
    ce += static_cast<int128>(t.q) * d->v[i] + static_cast<int128>(t.r) * e->v[i];
    if (i == 4) {
      cd += static_cast<int128>(kP62.v[4]) * md;
      ce += static_cast<int128>(kP62.v[4]) * me;
    }
    d->v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cd) & kM62);
    e->v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d->v[4] = static_cast<int64_t>(cd);
  e->v[4] = static_cast<int64_t>(ce);
}

// [f, g] = t·[f, g] / 2^62 over the low `len` limbs; the division is exact.
void UpdateFG(int len, Signed62* f, Signed62* g, const Trans2x2& t) {
  int128 cf = static_cast<int128>(t.u) * f->v[0] + static_cast<int128>(t.v) * g->v[0];
  int128 cg = static_cast<int128>(t.q) * f->v[0] + static_cast<int128>(t.r) * g->v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < len; i++) {
    cf += static_cast<int128>(t.u) * f->v[i] + static_cast<int128>(t.v) * g->v[i];
    cg += static_cast<int128>(t.q) * f->v[i] + static_cast<int128>(t.r) * g->v[i];
    f->v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cf) & kM62);
    g->v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f->v[len - 1] = static_cast<int64_t>(cf);
  g->v[len - 1] = static_cast<int64_t>(cg);
}

// Adds p to r when r is negative; then one carry pass back to limbs 0-3 in
// [0, 2^62).
void AddPIfNegativeAndCarry(Signed62* r) {
  const int64_t cond_add = r->v[4] >> 63;
  for (int i = 0; i < 5; i++) {
    r->v[i] += kP62.v[i] & cond_add;
  }
  for (int i = 0; i < 4; i++) {
    r->v[i + 1] += r->v[i] >> 62;
    r->v[i] = static_cast<int64_t>(static_cast<uint64_t>(r->v[i]) & kM62);
  }
}

// x^-1 mod p for x in (0, p).
U256 InvertModP(const U256& x) {
  Signed62 d = {{0, 0, 0, 0, 0}};
  Signed62 e = {{1, 0, 0, 0, 0}};
  Signed62 f = kP62;
  Signed62 g = {{static_cast<int64_t>(x.w[0] & kM62),
                 static_cast<int64_t>(((x.w[0] >> 62) | (x.w[1] << 2)) & kM62),
                 static_cast<int64_t>(((x.w[1] >> 60) | (x.w[2] << 4)) & kM62),
                 static_cast<int64_t>(((x.w[2] >> 58) | (x.w[3] << 6)) & kM62),
                 static_cast<int64_t>(x.w[3] >> 56)}};
  int len = 5;
  int64_t eta = -1;
  for (;;) {
    Trans2x2 t{};
    eta = Divsteps62(eta, static_cast<uint64_t>(f.v[0]), static_cast<uint64_t>(g.v[0]), &t);
    UpdateDE(&d, &e, t);
    UpdateFG(len, &f, &g, t);
    if (g.v[0] == 0) {
      int64_t any = 0;
      for (int j = 1; j < len; j++) {
        any |= g.v[j];
      }
      if (any == 0) {
        break;
      }
    }
    // f and g shrink by about 62 bits every two batches: once both top limbs
    // are 0 or -1 (pure sign), fold that sign into the limb below and drop
    // the top one.
    const int64_t fn = f.v[len - 1];
    const int64_t gn = g.v[len - 1];
    if (len > 1 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
      f.v[len - 2] = static_cast<int64_t>(static_cast<uint64_t>(f.v[len - 2]) |
                                          (static_cast<uint64_t>(fn) << 62));
      g.v[len - 2] = static_cast<int64_t>(static_cast<uint64_t>(g.v[len - 2]) |
                                          (static_cast<uint64_t>(gn) << 62));
      len--;
    }
  }
  // g = 0 and f = ±1, so d = ±x^-1, in (-2p, p). Add p if d is negative,
  // negate it if f is, and add p again if that left it negative: [0, p).
  AddPIfNegativeAndCarry(&d);
  const int64_t negate = f.v[len - 1] >> 63;
  for (int i = 0; i < 5; i++) {
    d.v[i] = (d.v[i] ^ negate) - negate;
  }
  for (int i = 0; i < 4; i++) {
    d.v[i + 1] += d.v[i] >> 62;
    d.v[i] = static_cast<int64_t>(static_cast<uint64_t>(d.v[i]) & kM62);
  }
  AddPIfNegativeAndCarry(&d);
  const uint64_t v0 = static_cast<uint64_t>(d.v[0]);
  const uint64_t v1 = static_cast<uint64_t>(d.v[1]);
  const uint64_t v2 = static_cast<uint64_t>(d.v[2]);
  const uint64_t v3 = static_cast<uint64_t>(d.v[3]);
  const uint64_t v4 = static_cast<uint64_t>(d.v[4]);
  return U256(v0 | (v1 << 62), (v1 >> 2) | (v2 << 60), (v2 >> 4) | (v3 << 58),
              (v3 >> 6) | (v4 << 56));
}

}  // namespace

const U256& Fp::P() { return kP; }

Fp Fp::Inv() const {
  DSTRESS_CHECK(!IsZero());
  return FromU256(InvertModP(raw()));
}

void Fp::BatchInvert(Fp* values, size_t count) {
  if (count == 0) {
    return;
  }
  // prefix[i] = v_0 * ... * v_{i-1}; one Inv of the total product, then a
  // backward walk peels off individual inverses. Scratch persists across
  // calls: this is on the batch-affine hot path.
  static thread_local std::vector<Fp> prefix;
  prefix.resize(count);
  Fp running = Fp::FromUint64(1);
  for (size_t i = 0; i < count; i++) {
    prefix[i] = running;
    running = running * values[i];
  }
  Fp inv_all = running.Inv();
  for (size_t i = count; i-- > 0;) {
    Fp v = values[i];
    values[i] = inv_all * prefix[i];
    inv_all = inv_all * v;
  }
}

bool Fp::Sqrt(Fp* out) const {
  // p ≡ 3 (mod 4): candidate = a^((p+1)/4). p = 2^256 - 2^32 - 977 is
  // all-ones in its top 223 bits, so (p+1)/4 = 2^254 - 2^30 - 244 is built
  // from the blocks x_n = a^(2^n - 1) of an addition chain: ~253 squarings
  // + 13 multiplications, against ~250 squarings + ~240 multiplications for
  // generic square-and-multiply on this nearly all-ones exponent.
  const Fp& a = *this;
  Fp x2 = a.Square() * a;
  Fp x3 = x2.Square() * a;
  Fp x6 = SqN(x3, 3) * x3;
  Fp x9 = SqN(x6, 3) * x3;
  Fp x11 = SqN(x9, 2) * x2;
  Fp x22 = SqN(x11, 11) * x11;
  Fp x44 = SqN(x22, 22) * x22;
  Fp x88 = SqN(x44, 44) * x44;
  Fp x176 = SqN(x88, 88) * x88;
  Fp x220 = SqN(x176, 44) * x44;
  Fp x223 = SqN(x220, 3) * x3;
  Fp cand = SqN(x223, 23) * x22;
  cand = SqN(cand, 6) * x2;
  cand = SqN(cand, 2);
  if (cand.Square() != *this) {
    return false;
  }
  *out = cand;
  return true;
}

}  // namespace dstress::crypto
