#include "keymgmt/session.hpp"

#include "crypto/modes.hpp"

#include <algorithm>

namespace buscrypt::keymgmt {

chip_manufacturer::chip_manufacturer(rng& r, unsigned modulus_bits)
    : keys_(crypto::rsa_generate(r, modulus_bits)) {}

crypto::rsa_public_key chip_manufacturer::publish_public_key(insecure_channel& ch) const {
  // Em is public by design; sending it in clear is part of the protocol.
  bytes em_bytes = keys_.pub.n.to_bytes();
  ch.send("manufacturer->editor: Em (public key)", em_bytes);
  return keys_.pub;
}

software_package software_editor::deliver(const crypto::rsa_public_key& em,
                                          insecure_channel& ch, rng& r) const {
  software_package pkg;

  // Session key K — symmetric, chosen per delivery.
  bytes k = r.random_bytes(16);
  pkg.wrapped_session_key = crypto::rsa_wrap_key(em, k, r);

  pkg.iv = r.random_bytes(16);
  const crypto::aes session_cipher(k);
  const bytes padded = crypto::pkcs7_pad(image_, 16);
  pkg.ciphered_image.resize(padded.size());
  crypto::cbc_encrypt(session_cipher, pkg.iv, padded, pkg.ciphered_image);

  ch.send("editor->processor: K wrapped under Em", pkg.wrapped_session_key);
  ch.send("editor->processor: IV", pkg.iv);
  ch.send("editor->processor: software under K", pkg.ciphered_image);
  return pkg;
}

bytes secure_processor::receive(const software_package& pkg) const {
  last_key_ = crypto::rsa_unwrap_key(dm_, pkg.wrapped_session_key);
  const crypto::aes session_cipher(last_key_);
  bytes padded(pkg.ciphered_image.size());
  crypto::cbc_decrypt(session_cipher, pkg.iv, pkg.ciphered_image, padded);
  return crypto::pkcs7_unpad(padded, 16);
}

engine::bus_encryption_engine::context_id
secure_processor::install_software(const software_package& pkg,
                                   engine::bus_encryption_engine& eng, addr_t base,
                                   std::string backend,
                                   std::size_t data_unit_size) const {
  const bytes image = receive(pkg);
  const auto ctx =
      eng.create_context({std::move(backend), last_key_, data_unit_size});
  eng.map_region(base, image.size(), ctx);
  eng.install(base, image);
  return ctx;
}

bool channel_leaks(const insecure_channel& ch, std::span<const u8> secret) {
  if (secret.empty()) return false;
  for (const channel_message& m : ch.log()) {
    const auto it = std::search(m.payload.begin(), m.payload.end(),
                                secret.begin(), secret.end());
    if (it != m.payload.end()) return true;
  }
  return false;
}

} // namespace buscrypt::keymgmt
