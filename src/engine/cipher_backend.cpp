#include "engine/cipher_backend.hpp"

#include "common/bitops.hpp"
#include "crypto/aes.hpp"
#include "crypto/best_cipher.hpp"
#include "crypto/des.hpp"
#include "crypto/lfsr.hpp"
#include "crypto/modes.hpp"
#include "crypto/rc4.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

namespace buscrypt::engine {

namespace {

/// Constant nonce folded into every CTR counter block; the uniqueness of
/// the keystream comes from the globally-unique counter, not the nonce.
constexpr u64 k_ctr_tweak = 0x42E5'C0DE'0D1E'5EEDULL;

/// Throws unless \p in and \p out match and hold whole units of
/// \p unit_len bytes, each a multiple of \p granule (an empty run may have
/// unit_len 0: a per-unit call on an empty unit).
void check_units(std::size_t unit_len, std::size_t granule, std::span<const u8> in,
                 std::span<const u8> out) {
  if (in.size() != out.size())
    throw std::invalid_argument("keyed_cipher: in/out size mismatch");
  if (unit_len == 0 ? !in.empty() : in.size() % unit_len != 0)
    throw std::invalid_argument("keyed_cipher: run must be whole units");
  if (unit_len % granule != 0)
    throw std::invalid_argument(
        "keyed_cipher: unit not a multiple of the cipher granule");
}

/// Keyed block cipher + mode over data units. Owns its expanded core: each
/// make_keyed() expands the key once for this instance alone. Each mode
/// has one transform over a run of units; a per-unit call is a run of one.
class block_keyed final : public keyed_cipher {
 public:
  block_keyed(std::string name, unit_mode mode, backend_cost cost,
              std::unique_ptr<const crypto::block_cipher> cipher)
      : name_(std::move(name)), mode_(mode), cost_(cost), cipher_(std::move(cipher)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] std::size_t granule() const noexcept override {
    // CTR is a stream mode: any byte length goes.
    return mode_ == unit_mode::ctr ? 1 : cipher_->block_size();
  }

  void encrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    transform(dun, in.size(), in, out, /*encrypt=*/true);
  }
  void decrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    transform(dun, in.size(), in, out, /*encrypt=*/false);
  }
  void encrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                     std::span<u8> out) override {
    transform(first_dun, unit_len, in, out, /*encrypt=*/true);
  }
  void decrypt_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                     std::span<u8> out) override {
    transform(first_dun, unit_len, in, out, /*encrypt=*/false);
  }

  [[nodiscard]] cycles unit_cost(std::size_t nbytes,
                                 bool encrypt) const noexcept override {
    return cost_.time(nbytes, encrypt);
  }

  [[nodiscard]] bool pad_precomputable() const noexcept override {
    return mode_ == unit_mode::ctr;
  }

  void generate_pads(u64 first_dun, std::size_t unit_len, std::span<u8> out) override {
    if (mode_ != unit_mode::ctr) { // fall back to the zero-encipher default
      keyed_cipher::generate_pads(first_dun, unit_len, out);
      return;
    }
    if (unit_len == 0 || out.size() % unit_len != 0)
      throw std::invalid_argument("generate_pads: out must be whole units");
    std::fill(out.begin(), out.end(), u8{0});
    ctr_units(first_dun, unit_len, out, out);
  }

 private:
  void transform(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                 std::span<u8> out, bool encrypt) {
    check_units(unit_len, granule(), in, out);
    if (in.empty()) return;
    switch (mode_) {
      case unit_mode::ecb:
        // Unit boundaries don't matter without an IV: one bulk pass.
        encrypt ? cipher_->encrypt_blocks(in, out) : cipher_->decrypt_blocks(in, out);
        break;
      case unit_mode::ctr: // encrypt and decrypt are the same operation
        ctr_units(first_dun, unit_len, in, out);
        break;
      case unit_mode::cbc:
        if (in.data() != out.data()) std::copy(in.begin(), in.end(), out.begin());
        cbc_units(first_dun, unit_len, out, encrypt);
        break;
    }
  }

  /// CTR over a run of units: a globally-unique counter per cipher block,
  /// (DUN << 16) + block, so units may be any size up to 2^16 blocks
  /// without keystream reuse. The pads of many units share each stack
  /// window's bulk encrypt (a whole bitsliced batch for the DES cores).
  void ctr_units(u64 first_dun, std::size_t unit_len, std::span<const u8> in,
                 std::span<u8> out) {
    crypto::ctr_crypt_units(*cipher_, k_ctr_tweak, first_dun << 16, u64{1} << 16,
                            unit_len, in, out);
  }

  /// CBC in place over a run: each unit is one chain under the ESSIV-style
  /// IV E_K(le64(DUN)), so equal plaintext units at different addresses
  /// produce unrelated ciphertext. Up to 4 KiB of IVs at a time are built
  /// on the stack in one bulk encrypt, then their units run in one
  /// cbc_*_chains call.
  void cbc_units(u64 first_dun, std::size_t unit_len, std::span<u8> buf, bool encrypt) {
    const std::size_t bs = cipher_->block_size();
    std::array<u8, 4096> iv_buf;
    const std::size_t per_batch = iv_buf.size() / bs;
    const std::size_t nunits = buf.size() / unit_len;
    for (std::size_t u = 0; u < nunits; u += per_batch) {
      const std::size_t n = std::min(per_batch, nunits - u);
      const std::span<u8> ivs(iv_buf.data(), n * bs);
      std::fill(ivs.begin(), ivs.end(), u8{0});
      for (std::size_t i = 0; i < n; ++i)
        store_le64(ivs.data() + i * bs, first_dun + u + i);
      cipher_->encrypt_blocks(ivs, ivs);
      const std::span<u8> run = buf.subspan(u * unit_len, n * unit_len);
      encrypt ? crypto::cbc_encrypt_chains(*cipher_, ivs, run, unit_len)
              : crypto::cbc_decrypt_chains(*cipher_, ivs, run, unit_len);
    }
  }

  std::string name_; // owned: keyed instances outlive their backend in keyslots
  unit_mode mode_;
  backend_cost cost_;
  std::unique_ptr<const crypto::block_cipher> cipher_;
};

/// Keyed stream cipher: reseed(key, DUN-iv) per unit.
class stream_keyed final : public keyed_cipher {
 public:
  stream_keyed(std::string name, backend_cost cost, bytes key,
               stream_backend::factory make)
      : name_(std::move(name)), cost_(cost), key_(std::move(key)),
        make_(std::move(make)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] std::size_t granule() const noexcept override { return 1; }

  void encrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    check_units(in.size(), 1, in, out);
    if (in.data() != out.data()) std::copy(in.begin(), in.end(), out.begin());
    reseed(dun).apply(out);
  }
  void decrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    encrypt_unit(dun, in, out); // XOR keystream: decrypt == encrypt
  }

  [[nodiscard]] cycles unit_cost(std::size_t nbytes,
                                 bool encrypt) const noexcept override {
    return cost_.time(nbytes, encrypt);
  }

  [[nodiscard]] bool pad_precomputable() const noexcept override { return true; }

  void generate_pads(u64 first_dun, std::size_t unit_len, std::span<u8> out) override {
    // Bulk keystream: one reseed per unit, generated straight into the
    // batch pad buffer — no per-unit copy + XOR round trip.
    for (std::size_t uoff = 0; uoff < out.size(); uoff += unit_len)
      reseed(first_dun + uoff / unit_len).keystream(out.subspan(uoff, unit_len));
  }

 private:
  /// The generator, reseeded with the IV le64(\p dun) for one unit.
  crypto::stream_cipher& reseed(u64 dun) {
    u8 iv[8];
    store_le64(iv, dun);
    if (!gen_) gen_ = make_(key_, iv);
    else gen_->reseed(key_, iv);
    return *gen_;
  }

  std::string name_; // owned: see block_keyed
  backend_cost cost_;
  bytes key_;
  stream_backend::factory make_;
  std::unique_ptr<crypto::stream_cipher> gen_;
};

} // namespace

// --- keyed_cipher -----------------------------------------------------------

void keyed_cipher::encrypt_units(u64 first_dun, std::size_t unit_len,
                                 std::span<const u8> in, std::span<u8> out) {
  check_units(unit_len, granule(), in, out);
  for (std::size_t off = 0; off < in.size(); off += unit_len)
    encrypt_unit(first_dun + off / unit_len, in.subspan(off, unit_len),
                 out.subspan(off, unit_len));
}

void keyed_cipher::decrypt_units(u64 first_dun, std::size_t unit_len,
                                 std::span<const u8> in, std::span<u8> out) {
  check_units(unit_len, granule(), in, out);
  for (std::size_t off = 0; off < in.size(); off += unit_len)
    decrypt_unit(first_dun + off / unit_len, in.subspan(off, unit_len),
                 out.subspan(off, unit_len));
}

void keyed_cipher::generate_pads(u64 first_dun, std::size_t unit_len, std::span<u8> out) {
  // Exact for any XOR-pad cipher: pad == E(0). Non-pad modes never call
  // this (pad_precomputable() is the caller's gate).
  if (unit_len == 0 || out.size() % unit_len != 0)
    throw std::invalid_argument("generate_pads: out must be whole units");
  const bytes zeros(unit_len, 0);
  for (std::size_t off = 0; off < out.size(); off += unit_len)
    encrypt_unit(first_dun + off / unit_len, zeros, out.subspan(off, unit_len));
}

// --- cipher_backend ---------------------------------------------------------

std::size_t cipher_backend::default_key_len() const {
  if (key_len_ok(16)) return 16;
  for (std::size_t len = 1; len <= 32; ++len)
    if (key_len_ok(len)) return len;
  throw std::invalid_argument("cipher_backend: no accepted key length in 1..32");
}

// --- block_backend ----------------------------------------------------------

block_backend::block_backend(std::string name, unit_mode mode, backend_cost cost,
                             std::vector<std::size_t> key_lens, factory make)
    : name_(std::move(name)), mode_(mode), cost_(cost),
      key_lens_(std::move(key_lens)), make_(std::move(make)) {}

bool block_backend::key_len_ok(std::size_t len) const noexcept {
  return std::find(key_lens_.begin(), key_lens_.end(), len) != key_lens_.end();
}

std::size_t block_backend::max_data_unit_size() const noexcept {
  // CTR reserves 2^16 counter values per DUN; a larger unit would reuse
  // keystream across adjacent units (the pad_reuse break).
  return mode_ == unit_mode::ctr ? (std::size_t{1} << 16) * cost_.core.block_bytes
                                 : std::numeric_limits<std::size_t>::max();
}

std::unique_ptr<keyed_cipher> block_backend::make_keyed(std::span<const u8> key) const {
  if (!key_len_ok(key.size()))
    throw std::invalid_argument("backend " + name_ + ": unsupported key length");
  return std::make_unique<block_keyed>(name_, mode_, cost_, make_(key));
}

// --- stream_backend ---------------------------------------------------------

stream_backend::stream_backend(std::string name, backend_cost cost,
                               std::vector<std::size_t> key_lens, factory make)
    : name_(std::move(name)), cost_(cost), key_lens_(std::move(key_lens)),
      make_(std::move(make)) {}

bool stream_backend::key_len_ok(std::size_t len) const noexcept {
  return std::find(key_lens_.begin(), key_lens_.end(), len) != key_lens_.end();
}

std::unique_ptr<keyed_cipher> stream_backend::make_keyed(std::span<const u8> key) const {
  if (!key_len_ok(key.size()))
    throw std::invalid_argument("backend " + name_ + ": unsupported key length");
  return std::make_unique<stream_keyed>(name_, cost_, bytes(key.begin(), key.end()),
                                        make_);
}

// --- backend_registry -------------------------------------------------------

void backend_registry::add(std::unique_ptr<cipher_backend> backend) {
  for (auto& b : backends_) {
    if (b->name() == backend->name()) {
      b = std::move(backend);
      return;
    }
  }
  backends_.push_back(std::move(backend));
}

const cipher_backend* backend_registry::find(std::string_view name) const noexcept {
  for (const auto& b : backends_)
    if (b->name() == name) return b.get();
  return nullptr;
}

const cipher_backend& backend_registry::at(std::string_view name) const {
  const cipher_backend* b = find(name);
  if (!b)
    throw std::out_of_range("backend_registry: no backend named '" + std::string(name) +
                            "'");
  return *b;
}

std::vector<std::string_view> backend_registry::names() const {
  std::vector<std::string_view> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b->name());
  return out;
}

namespace {

std::unique_ptr<crypto::block_cipher> make_aes(std::span<const u8> key) {
  return std::make_unique<crypto::aes>(key);
}

// Each backend is priced as one of the surveyed cores; the CBC backends
// chain their encryption.
constexpr backend_cost aes_cost{sim::aes_iterative()};
constexpr backend_cost aes_cbc_cost{sim::aes_iterative(), true};
constexpr backend_cost des_cost{sim::des_iterative(), true};
constexpr backend_cost tdes_cost{sim::tdes_iterative(), true};
constexpr backend_cost tdes_ctr_cost{sim::tdes_iterative()};
constexpr backend_cost best_cost{sim::best_combinational()};
constexpr backend_cost stream_cost{sim::stream_generator()};

backend_registry make_builtin() {
  backend_registry reg;
  const std::vector<std::size_t> aes_keys{16, 24, 32};

  reg.add(std::make_unique<block_backend>("aes-ecb", unit_mode::ecb, aes_cost, aes_keys,
                                          make_aes));
  reg.add(std::make_unique<block_backend>("aes-cbc", unit_mode::cbc, aes_cbc_cost,
                                          aes_keys, make_aes));
  reg.add(std::make_unique<block_backend>("aes-ctr", unit_mode::ctr, aes_cost, aes_keys,
                                          make_aes));

  reg.add(std::make_unique<block_backend>(
      "des-cbc", unit_mode::cbc, des_cost, std::vector<std::size_t>{8},
      [](std::span<const u8> key) -> std::unique_ptr<crypto::block_cipher> {
        return std::make_unique<crypto::des>(key);
      }));
  reg.add(std::make_unique<block_backend>(
      "3des-cbc", unit_mode::cbc, tdes_cost, std::vector<std::size_t>{16, 24},
      [](std::span<const u8> key) -> std::unique_ptr<crypto::block_cipher> {
        return std::make_unique<crypto::triple_des>(key);
      }));
  reg.add(std::make_unique<block_backend>(
      "3des-ctr", unit_mode::ctr, tdes_ctr_cost, std::vector<std::size_t>{16, 24},
      [](std::span<const u8> key) -> std::unique_ptr<crypto::block_cipher> {
        return std::make_unique<crypto::triple_des>(key);
      }));
  reg.add(std::make_unique<block_backend>(
      "best-ecb", unit_mode::ecb, best_cost, std::vector<std::size_t>{16},
      [](std::span<const u8> key) -> std::unique_ptr<crypto::block_cipher> {
        return std::make_unique<crypto::best_cipher>(key);
      }));

  reg.add(std::make_unique<stream_backend>(
      "rc4-stream", stream_cost, std::vector<std::size_t>{8, 16, 32},
      [](std::span<const u8> key,
         std::span<const u8> iv) -> std::unique_ptr<crypto::stream_cipher> {
        auto g = std::make_unique<crypto::rc4>(key);
        g->reseed(key, iv);
        return g;
      }));
  reg.add(std::make_unique<stream_backend>(
      "lfsr-stream", stream_cost, std::vector<std::size_t>{8, 16},
      [](std::span<const u8> key,
         std::span<const u8> iv) -> std::unique_ptr<crypto::stream_cipher> {
        return std::make_unique<crypto::galois_lfsr>(key, iv);
      }));
  reg.add(std::make_unique<stream_backend>(
      "trivium-stream", stream_cost, std::vector<std::size_t>{8, 10},
      [](std::span<const u8> key,
         std::span<const u8> iv) -> std::unique_ptr<crypto::stream_cipher> {
        return std::make_unique<crypto::trivium>(key, iv);
      }));
  return reg;
}

} // namespace

const backend_registry& backend_registry::builtin() {
  static const backend_registry reg = make_builtin();
  return reg;
}

} // namespace buscrypt::engine
