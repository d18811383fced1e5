#pragma once
/// \file bench_json.hpp
/// The one JSON writer of the tab* benches. A bench builds one document,
/// wraps each machine-dependent figure in host(), and write_bench() splits
/// it into BENCH_<name>.json, every simulated figure (committed, and held
/// to the committed values by bench/check_bench_identical.py), and the
/// uncommitted BENCH_<name>.host.json: wall times, host rates, thread and
/// steal counts and speedup ratios, each beside its object's "bench",
/// "engine" or "cell" member so a host row joins its simulated row.
/// Integers print in full; doubles print through fixed() at the printf
/// precision the bench names.

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace buscrypt::bench {

class json {
 public:
  json(bool b) : text_(b ? "true" : "false") {}
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  json(T v) : text_(std::to_string(v)) {}
  json(const char* s) : json(std::string_view(s)) {}
  json(const std::string& s) : json(std::string_view(s)) {}
  json(std::string_view s) : text_(quoted(s)) {}

  using member = std::pair<std::string, json>;

  /// An object with \p members in order.
  static json object(std::initializer_list<member> members) {
    json o(shape::object);
    o.items_.assign(members);
    return o;
  }

  static json array() { return json(shape::array); }

  json& add(std::string key, json v) {
    items_.emplace_back(std::move(key), std::move(v));
    return *this;
  }

  json& push(json v) { return add({}, std::move(v)); }

  /// This document without its host figures: the committed file.
  [[nodiscard]] json sim_half() const {
    json out(shape_);
    for (const auto& [key, v] : items_)
      if (!v.host_) out.add(key, v.shape_ == shape::scalar ? v : v.sim_half());
    return out;
  }

  /// The host figures, the containers on their paths and each such
  /// object's "bench", "engine" and "cell" members: the sidecar. Empty when
  /// the document holds no host figure.
  [[nodiscard]] json host_half() const {
    json out(shape_);
    bool found = false;
    for (const auto& [key, v] : items_) {
      json part = v.host_ || v.shape_ == shape::scalar ? v : v.host_half();
      const bool hit = v.host_ || !part.items_.empty();
      if (hit || key == "bench" || key == "engine" || key == "cell")
        out.add(key, std::move(part));
      found = found || hit;
    }
    return found ? out : json(shape_);
  }

  /// Indented text. A container that holds no non-empty container stays on
  /// one line.
  void dump(std::string& out, std::size_t indent = 0) const {
    if (shape_ == shape::scalar) {
      out += text_;
      return;
    }
    const bool flat = std::none_of(items_.begin(), items_.end(), [](const member& m) {
      return !m.second.items_.empty();
    });
    const std::string gap = flat ? " " : "\n" + std::string(indent + 2, ' ');
    out += shape_ == shape::object ? '{' : '[';
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out += i == 0 ? (flat ? "" : gap) : "," + gap;
      if (shape_ == shape::object) out += quoted(items_[i].first) + ": ";
      items_[i].second.dump(out, indent + 2);
    }
    if (!flat) out += "\n" + std::string(indent, ' ');
    out += shape_ == shape::object ? '}' : ']';
  }

  friend json fixed(double v, int digits);
  friend json host(json v);

 private:
  enum class shape : unsigned char { scalar, object, array };

  explicit json(shape s) : shape_(s) {}

  static std::string quoted(std::string_view s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + '"';
  }

  shape shape_ = shape::scalar;
  bool host_ = false;
  std::string text_;          ///< scalars: the JSON text
  std::vector<member> items_; ///< containers: members (array keys stay empty)
};

/// \p v printed as printf's "%.<digits>f".
[[nodiscard]] inline json fixed(double v, int digits) {
  json n(json::shape::scalar);
  n.text_.resize(static_cast<std::size_t>(std::snprintf(nullptr, 0, "%.*f", digits, v)));
  std::snprintf(n.text_.data(), n.text_.size() + 1, "%.*f", digits, v);
  return n;
}

/// A 64-bit fingerprint as a string of 16 lowercase hex digits.
[[nodiscard]] inline json hex64(unsigned long long v) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", v);
  return json(std::string_view(text));
}

/// \p v as a host figure: written to the sidecar, never to the committed file.
[[nodiscard]] inline json host(json v) {
  v.host_ = true;
  return v;
}

/// Write \p doc's simulated half to BENCH_<name>.json and its host half to
/// BENCH_<name>.host.json in the working directory. Returns false, after a
/// message on stderr, when either file cannot be written.
[[nodiscard]] inline bool write_bench(const std::string& name, const json& doc) {
  for (const bool host : {false, true}) {
    const std::string path = "BENCH_" + name + (host ? ".host.json" : ".json");
    std::string text;
    (host ? doc.host_half() : doc.sim_half()).dump(text);
    std::ofstream f(path);
    f << text << '\n';
    f.close();
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
  }
  std::printf("wrote BENCH_%s.json and BENCH_%s.host.json\n", name.c_str(),
              name.c_str());
  return true;
}

} // namespace buscrypt::bench
